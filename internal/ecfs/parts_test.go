package ecfs

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// errRecorderFailed is the error partRecorder injects.
var errRecorderFailed = errors.New("recorder: injected failure")

// partRecorder wraps a client's RPC. For every call to an OSD it notes
// the calling goroutine and the response cost, and it fails every OSD
// call for one stripe when failStripe is set.
type partRecorder struct {
	transport.RPC

	mu         sync.Mutex
	gids       []uint64
	costs      []time.Duration
	failStripe *uint32
}

func (r *partRecorder) Call(ctx context.Context, to wire.NodeID, msg *wire.Msg) (*wire.Resp, error) {
	if to == wire.MDSNode {
		return r.RPC.Call(ctx, to, msg)
	}
	r.mu.Lock()
	r.gids = append(r.gids, goroutineID())
	fail := r.failStripe != nil && *r.failStripe == msg.Block.Stripe
	r.mu.Unlock()
	if fail {
		return nil, errRecorderFailed
	}
	resp, err := r.RPC.Call(ctx, to, msg)
	if err == nil {
		r.mu.Lock()
		r.costs = append(r.costs, resp.Cost)
		r.mu.Unlock()
	}
	return resp, err
}

// take returns and clears what the recorder noted.
func (r *partRecorder) take() (gids []uint64, maxCost time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	gids = r.gids
	for _, c := range r.costs {
		maxCost = max(maxCost, c)
	}
	r.gids, r.costs = nil, nil
	return gids, maxCost
}

// goroutineID parses the "goroutine N [" header runtime.Stack writes.
func goroutineID() uint64 {
	var buf [64]byte
	f := bytes.Fields(buf[:runtime.Stack(buf[:], false)])
	id, err := strconv.ParseUint(string(f[1]), 10, 64)
	if err != nil {
		panic("goroutineID: " + err.Error())
	}
	return id
}

// TestSinglePartOpsRunOnCallerGoroutine pins the client's part fan-out:
// a single-block update or read calls its OSD on the caller's goroutine,
// a multi-block op runs exactly its first part there and the others
// beside it, returns the bytes and the largest part cost, and a failed
// part fails the op.
func TestSinglePartOpsRunOnCallerGoroutine(t *testing.T) {
	c := MustNewCluster(testOptions("tsue"))
	defer c.Close()
	cli := c.NewClient()
	ino, mirror := writeTestFile(t, c, cli, 2*cli.StripeSpan(), 21)
	rec := &partRecorder{RPC: cli.rpc}
	cli.rpc = rec
	ctx := context.Background()
	bs := c.Opts.BlockSize
	self := goroutineID()

	onCaller := func(gids []uint64) int {
		n := 0
		for _, g := range gids {
			if g == self {
				n++
			}
		}
		return n
	}
	update := func(off, n int, fill byte) (time.Duration, error) {
		data := bytes.Repeat([]byte{fill}, n)
		cost, err := cli.UpdateContext(ctx, ino, int64(off), data, 0)
		if err == nil {
			copy(mirror[off:], data)
		}
		return cost, err
	}

	// Single block: the one OSD call runs on this goroutine.
	if _, err := update(100, 1000, 0xa1); err != nil {
		t.Fatal(err)
	}
	if gids, _ := rec.take(); len(gids) != 1 || gids[0] != self {
		t.Fatalf("single-block update: calls on goroutines %v, want one on %d", gids, self)
	}
	got, _, err := cli.ReadContext(ctx, ino, 100, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if gids, _ := rec.take(); len(gids) != 1 || gids[0] != self {
		t.Fatalf("single-block read: calls on goroutines %v, want one on %d", gids, self)
	}
	if !bytes.Equal(got, mirror[100:1100]) {
		t.Fatal("single-block read returned wrong bytes")
	}

	// An update over two blocks and a read over three: only the first
	// part runs here, the bytes are right, and the cost is the largest
	// part's.
	cost, err := update(bs-500, 1000, 0xb2)
	if err != nil {
		t.Fatal(err)
	}
	gids, want := rec.take()
	if len(gids) != 2 || onCaller(gids) != 1 {
		t.Fatalf("two-block update: calls on goroutines %v, want 2 with one on %d", gids, self)
	}
	if cost != want {
		t.Fatalf("two-block update cost %v, want largest part cost %v", cost, want)
	}
	off, n := bs-100, 2*bs
	got, cost, err = cli.ReadContext(ctx, ino, int64(off), n)
	if err != nil {
		t.Fatal(err)
	}
	gids, want = rec.take()
	if len(gids) != 3 || onCaller(gids) != 1 {
		t.Fatalf("three-block read: calls on goroutines %v, want 3 with one on %d", gids, self)
	}
	if cost != want {
		t.Fatalf("three-block read cost %v, want largest part cost %v", cost, want)
	}
	if !bytes.Equal(got, mirror[off:off+n]) {
		t.Fatal("three-block read returned wrong bytes")
	}

	// A failed part fails the op, whether it runs here or beside. The
	// ops span the end of stripe 0 and the start of stripe 1; the
	// recorder fails every OSD call for one of the two stripes.
	span := cli.StripeSpan()
	for _, stripe := range []uint32{0, 1} {
		rec.failStripe = &stripe
		if _, err := update(span-500, 1000, 0xc3); !errors.Is(err, errRecorderFailed) {
			t.Fatalf("update failing stripe %d: err = %v, want %v", stripe, err, errRecorderFailed)
		}
		if _, _, err := cli.ReadContext(ctx, ino, int64(span-500), 1000); !errors.Is(err, errRecorderFailed) {
			t.Fatalf("read failing stripe %d: err = %v, want %v", stripe, err, errRecorderFailed)
		}
	}
}

// TestRunPartsYields pins the yield that ends every op: on one
// processor, a goroutine that became runnable before two ops that never
// block has run by the time they return. (Two, because on every 61st
// tick the scheduler serves its global queue, where the yielding caller
// waits, first.)
func TestRunPartsYields(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	inline := func(part) (time.Duration, error) { return 0, nil }
	for i := 0; i < 200; i++ {
		ran := make(chan struct{})
		go func() { close(ran) }()
		for op := 0; op < 2; op++ {
			if _, err := runParts([]part{{}}, inline); err != nil {
				t.Fatal(err)
			}
		}
		select {
		case <-ran:
		default:
			t.Fatalf("round %d: a runnable goroutine had not run when two ops returned", i)
		}
	}
}
