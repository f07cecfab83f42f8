package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/ecfs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Span names are layer*kindSlots + kind. Layer 0 holds the benchmark's
// own spans (one per op named by its opKind, plus set-up and flush); the
// others are one slot per wire kind.
const (
	layerBench = iota
	layerRPC   // client-side transport.RPC call
	layerOSD   // ecfs.OSD handler
	layerMDS   // ecfs.MDS handler
	numLayers

	kindSlots = 64
)

const (
	nameSetup = layerBench*kindSlots + uint16(numOpKinds) + iota
	nameFlush
)

var layerPrefix = [numLayers]string{"bench", "rpc", "osd", "mds"}

func spanName(layer int, k wire.Kind) uint16 {
	if int(k) >= kindSlots {
		k = kindSlots - 1
	}
	return uint16(layer*kindSlots + int(k))
}

func nameString(n uint16) string {
	layer, k := int(n)/kindSlots, int(n)%kindSlots
	if layer == layerBench {
		switch {
		case k < int(numOpKinds):
			return "op." + opNames[k]
		case n == nameSetup:
			return "setup"
		case n == nameFlush:
			return "flush"
		}
	}
	return layerPrefix[layer] + "." + wire.Kind(k).String()
}

// Phases a span can be recorded in.
const (
	phaseSetup    = 1
	phaseMeasured = 2
)

// spanRec is one recorded span. parent and trace are span ids (index+1;
// 0 means none); a root span's trace is its own id.
type spanRec struct {
	start, end int64 // ns since the tracer's epoch
	cost       int64 // modeled cost (handler Resp.Cost, op latency), ns
	parent     int32
	trace      int32
	name       uint16
	phase      uint8
}

const (
	chunkBits = 16
	chunkSize = 1 << chunkBits
	maxChunks = 64 // 4 Mi spans, 160 MiB at most
)

// tracer records spans in memory from the benchmark's side of each layer
// boundary: ops, client RPCs and OSD/MDS handlers. The parent span
// travels in the ctx, which the in-process transport hands to handlers,
// so a handler span's parent is the RPC (or handler) that called it. A
// handler reached from a background recycle goroutine has no parent.
type tracer struct {
	epoch    time.Time
	on       atomic.Bool
	phase    atomic.Uint32
	inflight atomic.Int64
	n        atomic.Int64
	dropped  atomic.Int64
	chunks   [maxChunks]atomic.Pointer[[chunkSize]spanRec]
}

type spanKey struct{}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start turns recording on for the given phase.
func (t *tracer) start(phase uint32) {
	t.phase.Store(phase)
	t.on.Store(true)
}

// stop turns recording off and waits until every span already begun
// has ended, so the recorded spans can be read without racing writers.
func (t *tracer) stop() error {
	t.on.Store(false)
	for deadline := time.Now().Add(30 * time.Second); t.inflight.Load() > 0; {
		if time.Now().After(deadline) {
			return fmt.Errorf("trace: %d spans still open after 30s", t.inflight.Load())
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func (t *tracer) chunk(c int) *[chunkSize]spanRec {
	if p := t.chunks[c].Load(); p != nil {
		return p
	}
	fresh := new([chunkSize]spanRec)
	if t.chunks[c].CompareAndSwap(nil, fresh) {
		return fresh
	}
	return t.chunks[c].Load()
}

func (t *tracer) at(id int32) *spanRec {
	i := int(id - 1)
	return &t.chunks[i>>chunkBits].Load()[i&(chunkSize-1)]
}

// begin opens a span named name under the span in ctx (if any) and
// returns a ctx carrying it. It returns (ctx, nil) when recording is off;
// a nil tracer is always off.
func (t *tracer) begin(ctx context.Context, name uint16) (context.Context, *spanRec) {
	if t == nil || !t.on.Load() {
		return ctx, nil
	}
	t.inflight.Add(1)
	if !t.on.Load() {
		t.inflight.Add(-1)
		return ctx, nil
	}
	i := t.n.Add(1) - 1
	if i >= maxChunks*chunkSize {
		t.dropped.Add(1)
		t.inflight.Add(-1)
		return ctx, nil
	}
	s := &t.chunk(int(i >> chunkBits))[i&(chunkSize-1)]
	id := int32(i + 1)
	s.name = name
	s.phase = uint8(t.phase.Load())
	s.trace = id
	if p, ok := ctx.Value(spanKey{}).(int32); ok {
		s.parent = p
		s.trace = t.at(p).trace
	}
	s.start = int64(time.Since(t.epoch))
	return context.WithValue(ctx, spanKey{}, id), s
}

// end closes a span begun by begin; cost is its modeled latency.
func (t *tracer) end(s *spanRec, cost time.Duration) {
	if s == nil {
		return
	}
	s.end = int64(time.Since(t.epoch))
	s.cost = int64(cost)
	t.inflight.Add(-1)
}

// install re-registers every OSD and MDS handler on the cluster's
// transport behind a span-recording wrapper.
func (t *tracer) install(c *ecfs.Cluster) {
	for _, o := range c.OSDs {
		c.Tr.Register(o.ID(), t.wrapHandler(layerOSD, o.Handler))
	}
	c.Tr.Register(wire.MDSNode, t.wrapHandler(layerMDS, c.MDS.Handler))
}

func (t *tracer) wrapHandler(layer int, h transport.Handler) transport.Handler {
	return func(ctx context.Context, msg *wire.Msg) *wire.Resp {
		ctx, sp := t.begin(ctx, spanName(layer, msg.Kind))
		resp := h(ctx, msg)
		if sp != nil {
			var cost time.Duration
			if resp != nil {
				cost = resp.Cost
			}
			t.end(sp, cost)
		}
		return resp
	}
}

// tracedRPC times a client's outbound calls.
type tracedRPC struct {
	t     *tracer
	inner transport.RPC
}

func (t *tracer) wrapRPC(rpc transport.RPC) transport.RPC { return tracedRPC{t: t, inner: rpc} }

func (r tracedRPC) Call(ctx context.Context, to wire.NodeID, msg *wire.Msg) (*wire.Resp, error) {
	ctx, sp := r.t.begin(ctx, spanName(layerRPC, msg.Kind))
	resp, err := r.inner.Call(ctx, to, msg)
	if sp != nil {
		var cost time.Duration
		if resp != nil {
			cost = resp.Cost
		}
		r.t.end(sp, cost)
	}
	return resp, err
}

// spans returns every recorded span; call after stop.
func (t *tracer) spans() []spanRec {
	n := min(int(t.n.Load()), maxChunks*chunkSize)
	out := make([]spanRec, 0, n)
	for c := 0; c*chunkSize < n; c++ {
		ch := t.chunks[c].Load()
		out = append(out, ch[:min(chunkSize, n-c*chunkSize)]...)
	}
	return out
}

// selfTimes returns each span's duration minus the union of the
// intervals its children cover.
func selfTimes(sp []spanRec) []int64 {
	kids := make([]int32, 0, len(sp))
	for i := range sp {
		if sp[i].parent != 0 {
			kids = append(kids, int32(i))
		}
	}
	sort.Slice(kids, func(a, b int) bool {
		x, y := &sp[kids[a]], &sp[kids[b]]
		if x.parent != y.parent {
			return x.parent < y.parent
		}
		return x.start < y.start
	})
	self := make([]int64, len(sp))
	for i := range sp {
		self[i] = sp[i].end - sp[i].start
	}
	for i := 0; i < len(kids); {
		p := sp[kids[i]].parent
		par := &sp[p-1]
		var covered, curLo, curHi int64
		curLo, curHi = -1, -1
		for ; i < len(kids) && sp[kids[i]].parent == p; i++ {
			lo, hi := max(sp[kids[i]].start, par.start), min(sp[kids[i]].end, par.end)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				covered += curHi - curLo
				curLo, curHi = lo, hi
			} else {
				curHi = max(curHi, hi)
			}
		}
		covered += curHi - curLo
		self[p-1] -= covered
	}
	return self
}

// writeSpans writes every span as one tab-separated line.
func writeSpans(path string, sp []spanRec) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "id\tparent\ttrace\tname\tphase\tstart_ns\tend_ns\tcost_ns")
	var line []byte
	for i := range sp {
		s := &sp[i]
		line = strconv.AppendInt(line[:0], int64(i+1), 10)
		for _, v := range []int64{int64(s.parent), int64(s.trace)} {
			line = append(line, '\t')
			line = strconv.AppendInt(line, v, 10)
		}
		line = append(line, '\t')
		line = append(line, nameString(s.name)...)
		for _, v := range []int64{int64(s.phase), s.start, s.end, s.cost} {
			line = append(line, '\t')
			line = strconv.AppendInt(line, v, 10)
		}
		line = append(line, '\n')
		w.Write(line)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
