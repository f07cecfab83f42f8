package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"syscall"
	"time"

	"repro/internal/ecfs"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// payloadBlocks is how many distinct 1 MiB payload blocks stripe-rw
// writes draw from; each copy is stamped with its op and block index.
const payloadBlocks = 16

// env is one assembled cluster with its volume, its client and the
// benchmark's shadow copy of the volume.
type env struct {
	w    workload
	sc   scale
	seed int64
	c    *ecfs.Cluster
	dir  string // durable data root; "" in memory
	file *ecfs.File
	vol  int64

	// shadow is what the volume must hold. An op updates it right after
	// the cluster acknowledged it.
	shadow  []byte
	unknown [][2]int64 // ranges a failed op may have torn

	ops      []op
	cursor   int64
	period   time.Duration // virtual duration of one pass over the ops
	payloads [][]byte      // stripe-rw write content
	buf      []byte
	badReads int64

	tr *tracer // nil unless this is a traced run
}

// initialVolume is the content set-up writes: trace.Payload per stripe,
// so a misplaced stripe is detectable. It lives in an anonymous mapping
// outside the Go heap, so the benchmark's copy of the volume neither
// shows in peak_heap_mib nor delays the measured program's GCs; release
// it with syscall.Munmap.
func initialVolume(seed int64, stripes int) ([]byte, error) {
	vol, err := syscall.Mmap(-1, 0, stripes*stripeBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map volume shadow: %w", err)
	}
	for s := 0; s < stripes; s++ {
		off := int64(s) * stripeBytes
		trace.Payload(seed, trace.Op{Off: off, Size: stripeBytes}, vol[off:off+stripeBytes])
	}
	return vol, nil
}

// newEnv builds the cluster and prepopulates the volume from initial,
// which becomes the env's shadow; ops are the generated ops.
// It returns the set-up wall time: cluster construction plus
// prepopulation.
func newEnv(ctx context.Context, w workload, sc scale, seed int64, ops []op, initial []byte, tr *tracer) (*env, time.Duration, error) {
	e := &env{w: w, sc: sc, seed: seed, vol: int64(len(initial)), shadow: initial, ops: ops, tr: tr}
	if len(ops) == 0 {
		return nil, 0, fmt.Errorf("no ops generated")
	}
	maxSize := 0
	for _, o := range ops {
		maxSize = max(maxSize, o.size)
		e.period = max(e.period, o.at)
	}
	e.buf = make([]byte, maxSize)
	if w.traceGen == nil {
		for i := 0; i < payloadBlocks; i++ {
			b := make([]byte, blockSize)
			trace.Payload(seed, trace.Op{Off: int64(i) * blockSize, Size: blockSize}, b)
			e.payloads = append(e.payloads, b)
		}
	}
	opts := ecfs.DefaultOptions()
	if w.durable {
		dir, err := os.MkdirTemp("", "perfbench-"+w.name+"-")
		if err != nil {
			return nil, 0, err
		}
		e.dir = dir
		opts.DataDir = dir + "/osd"
		opts.MDSDataDir = dir + "/mds"
	}

	start := time.Now()
	c, err := ecfs.NewCluster(opts)
	if err != nil {
		e.close()
		return nil, 0, err
	}
	e.c = c
	if tr != nil {
		tr.install(c)
	}
	var rpc transport.RPC = c.Tr.Caller(wire.ClientIDBase)
	if tr != nil {
		rpc = tr.wrapRPC(rpc)
	}
	if e.file, err = ecfs.NewClient(wire.ClientIDBase, rpc, c.Code(), blockSize).Open(ctx, "volume"); err != nil {
		e.close()
		return nil, 0, err
	}
	sctx, sp := tr.begin(ctx, nameSetup)
	_, err = e.file.WithContext(sctx).WriteAt(initial, 0)
	tr.end(sp, 0)
	if err != nil {
		e.close()
		return nil, 0, fmt.Errorf("prepopulate: %w", err)
	}
	return e, time.Since(start), nil
}

// close shuts the cluster down and removes its data dirs.
func (e *env) close() {
	if e.c != nil {
		e.c.Close()
		e.c = nil
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
		e.dir = ""
	}
}

// sample is one successful op: the round of the measured phase it ran
// in and its wall latency in ns.
type sample struct {
	round int
	wall  int64
}

// round is one round of the measured phase: sc.roundOps ops and the
// drain that follows them.
type round struct {
	done  int64         // ops completed
	wall  time.Duration // first op issued to last op completed
	flush time.Duration // the Cluster.Flush that drains deferred work
}

// phase is what one measured phase, or the untimed warm-up, measured.
type phase struct {
	rounds    []round
	attempted int64
	failed    int64
	lat       [numOpKinds][]sample // every successful op, in issue order
	modeled   time.Duration        // summed modeled latency of ops that report one
	modeledN  int64
	written   int64 // user bytes written (updates and writes)
	read      int64 // user bytes read
}

func (p *phase) done() int64 { return p.attempted - p.failed }

// measure runs rounds until d has passed, at least one. A round is a
// fixed number of ops issued in a closed loop, each only after the
// previous one returned, followed by Cluster.Flush, which drains the
// log pools. So every round starts from drained logs and does the same
// amount of work: per-op cost grows as log units fill, and without the
// drains a run's result would depend on how far into the pools' fill
// cycle (longer than a run) it stopped. While the tracer is on, every
// op is a root span.
func (e *env) measure(ctx context.Context, d time.Duration) (*phase, error) {
	p := &phase{}
	start := time.Now()
	for len(p.rounds) == 0 || time.Since(start) < d {
		t, done := time.Now(), p.done()
		for i := 0; i < e.sc.roundOps; i++ {
			e.exec(ctx, e.next(), p)
		}
		r := round{wall: time.Since(t), done: p.done() - done}
		var err error
		if r.flush, err = e.flush(ctx); err != nil {
			return nil, fmt.Errorf("flush: %w", err)
		}
		p.rounds = append(p.rounds, r)
	}
	return p, nil
}

// next returns the next op, replaying the list cyclically with virtual
// time and sequence numbers carried forward.
func (e *env) next() op {
	n := int64(len(e.ops))
	i := e.cursor
	e.cursor++
	o := e.ops[i%n]
	cycle := i / n
	o.at += time.Duration(cycle) * e.period
	o.seq += cycle * int64(e.sc.traceOps)
	return o
}

func (e *env) exec(ctx context.Context, o op, p *phase) {
	ctx, sp := e.tr.begin(ctx, uint16(o.kind))
	f := e.file
	buf := e.buf[:o.size]
	var (
		modeled time.Duration
		err     error
		data    []byte
		start   time.Time
		wall    time.Duration
	)
	switch o.kind {
	case opUpdate:
		trace.Payload(e.seed+o.seq, trace.Op{Kind: trace.OpUpdate, Off: o.off, Size: o.size, At: o.at}, buf)
		start = time.Now()
		modeled, err = f.UpdateAt(ctx, o.off, buf, o.at)
		wall = time.Since(start)
	case opRead:
		start = time.Now()
		data, modeled, err = f.ReadRange(ctx, o.off, o.size)
		wall = time.Since(start)
	case opWrite:
		e.fillWrite(buf, o.seq)
		start = time.Now()
		_, err = f.WithContext(ctx).WriteAt(buf, o.off)
		wall = time.Since(start)
	}
	e.tr.end(sp, modeled)
	p.attempted++
	if err != nil {
		p.failed++
		if o.kind != opRead {
			e.unknown = append(e.unknown, [2]int64{o.off, o.off + int64(o.size)})
		}
		return
	}
	p.lat[o.kind] = append(p.lat[o.kind], sample{round: len(p.rounds), wall: int64(wall)})
	if o.kind != opWrite { // WriteAt reports no modeled latency
		p.modeled += modeled
		p.modeledN++
	}
	if o.kind == opRead {
		p.read += int64(o.size)
		if !bytes.Equal(data, e.shadow[o.off:o.off+int64(o.size)]) && !e.tornIn(o.off, o.off+int64(o.size)) {
			e.badReads++
		}
		return
	}
	p.written += int64(o.size)
	copy(e.shadow[o.off:], buf)
}

// fillWrite builds a stripe-rw write: pooled payload blocks, each
// stamped with the op and block index so no two writes look alike.
func (e *env) fillWrite(buf []byte, seq int64) {
	for j := 0; j*blockSize < len(buf); j++ {
		b := buf[j*blockSize : (j+1)*blockSize]
		copy(b, e.payloads[(int(seq)*7+j)%len(e.payloads)])
		binary.LittleEndian.PutUint64(b, uint64(seq))
		binary.LittleEndian.PutUint64(b[8:], uint64(j))
	}
}

// tornIn reports whether [lo, hi) overlaps a range a failed op may have
// left half-written.
func (e *env) tornIn(lo, hi int64) bool {
	for _, r := range e.unknown {
		if lo < r[1] && r[0] < hi {
			return true
		}
	}
	return false
}

// flush drains every strategy's deferred work (Cluster.Flush) and
// returns its wall time.
func (e *env) flush(ctx context.Context) (time.Duration, error) {
	ctx, sp := e.tr.begin(ctx, nameFlush)
	start := time.Now()
	err := e.c.Flush(ctx)
	d := time.Since(start)
	e.tr.end(sp, 0)
	return d, err
}

// verify is the untimed correctness gate, run after the drain: every
// read the loop checked matched the shadow, the whole volume reads back
// byte for byte equal to the shadow, and every stripe's parity is
// consistent.
func (e *env) verify(ctx context.Context) error {
	if n := e.badReads; n > 0 {
		return fmt.Errorf("%d reads returned data that differs from the shadow", n)
	}
	f := e.file
	for off := int64(0); off < e.vol; off += stripeBytes {
		data, _, err := f.ReadRange(ctx, off, stripeBytes)
		if err != nil {
			return fmt.Errorf("read back stripe at %d: %w", off, err)
		}
		want := e.shadow[off : off+stripeBytes]
		if bytes.Equal(data, want) {
			continue
		}
		for i := range data {
			if data[i] != want[i] && !e.tornIn(off+int64(i), off+int64(i)+1) {
				return fmt.Errorf("read back: byte %d is %#x, shadow has %#x", off+int64(i), data[i], want[i])
			}
		}
	}
	n, err := e.c.Scrub()
	if err != nil {
		return fmt.Errorf("scrub: %w", err)
	}
	if n != e.sc.stripes {
		return fmt.Errorf("scrub checked %d stripes, volume has %d", n, e.sc.stripes)
	}
	return nil
}
