package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/trace"
)

// opKind is what one generated operation does.
type opKind uint8

const (
	opUpdate opKind = iota // File.UpdateAt: the paper's data-update path
	opRead                 // File.ReadRange
	opWrite                // File.WriteAt of whole stripes: the normal-write path
	numOpKinds
)

var opNames = [numOpKinds]string{"update", "read", "write"}

// op is one generated request. seq numbers the ops of a run so every
// write gets its own payload.
type op struct {
	kind opKind
	off  int64
	size int
	at   time.Duration // virtual arrival time, passed to UpdateAt as v
	seq  int64
}

// geometry is the paper's SSD testbed layout the workloads run on.
const (
	blockSize   = 1 << 20
	dataBlocks  = 6 // RS(6,4)
	stripeBytes = dataBlocks * blockSize
)

// scale sizes one workload. full is what the benchmark measures; the
// package test runs tiny.
type scale struct {
	stripes     int // volume size in stripes
	traceOps    int // generated trace length (replayed cyclically)
	roundOps    int // ops per round of the measured phase; one untimed round warms up
	setupRepeat int // cluster set-ups per run; setup_s is their median
}

// workload is one benchmark input family. The seed given on the command
// line is the only source of randomness in the generated ops.
type workload struct {
	name    string
	durable bool // OSDs and MDS on disk (Options.DataDir / MDSDataDir)
	full    scale
	tiny    scale
	// traceGen builds the replayed trace (nil for stripe-rw).
	traceGen func(fileSize int64, ops int, seed int64) *trace.Trace
}

var workloads = []workload{
	{
		// Ten-Cloud: 69% updates, mostly 4 KiB, hot set 5% of each trace's
		// region. The hot sets fit in the OSDs' aggregate DataLog quota.
		name:     "ten-update",
		full:     scale{stripes: 32, traceOps: 400_000, roundOps: 20_000, setupRepeat: 3},
		tiny:     scale{stripes: 8, traceOps: 2_000, roundOps: 100, setupRepeat: 2},
		traceGen: trace.TenCloud,
	},
	{
		// Ali-Cloud on durable OSDs and MDS with the storage engine's
		// default SyncBatched WAL policy. 64 stripes are 640 MiB of
		// blocks, more than the 16 × 2048 × 16 KiB = 512 MiB of engine
		// buffer pools, so block reads reach the page files.
		name:     "ali-durable",
		durable:  true,
		full:     scale{stripes: 64, traceOps: 100_000, roundOps: 4_000, setupRepeat: 3},
		tiny:     scale{stripes: 8, traceOps: 1_000, roundOps: 100, setupRepeat: 2},
		traceGen: trace.AliCloud,
	},
	{
		// Whole-stripe File.WriteAt writes (the client's coalescing-window
		// write path) next to 1 MiB reads, in memory: encode and the read
		// path, no update strategy, log pool or store. A write covers one
		// stripe: an 8-stripe write takes ~160 ms on two cores, too few
		// samples per run for a tail percentile.
		name: "stripe-rw",
		full: scale{stripes: 32, traceOps: 200_000, roundOps: 200, setupRepeat: 3},
		tiny: scale{stripes: 4, traceOps: 2_000, roundOps: 100, setupRepeat: 2},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// traceRegions is how many independent traces a trace workload replays,
// each on its own equal region of the volume and with its own seed
// derived from --seed, merged by virtual arrival time. One trace puts
// most of its load on a single hot extent, so where that extent lands
// would swing a run's results from seed to seed; eight hot sets average
// that out.
const traceRegions = 8

// stripeWriteFrac is the share of stripe-rw ops that are writes; the
// rest are reads, so each run holds enough samples of both for a p90.
const stripeWriteFrac = 0.25

// generate makes the workload's ops from seed.
func generate(w workload, sc scale, seed int64) []op {
	vol := int64(sc.stripes) * stripeBytes
	var ops []op
	if w.traceGen != nil {
		regionBytes := vol / traceRegions
		for r := int64(0); r < traceRegions; r++ {
			t := w.traceGen(regionBytes, sc.traceOps/traceRegions, seed*traceRegions+r)
			for _, o := range t.Ops {
				kind := opUpdate
				if o.Kind == trace.OpRead {
					kind = opRead
				}
				ops = append(ops, op{kind: kind, off: r*regionBytes + o.Off, size: o.Size, at: o.At})
			}
		}
		sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
		for i := range ops {
			ops[i].seq = int64(i)
		}
		return ops
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < sc.traceOps; i++ {
		stripe := rng.Intn(sc.stripes)
		o := op{seq: int64(i)}
		if rng.Float64() < stripeWriteFrac {
			o.kind, o.off, o.size = opWrite, int64(stripe)*stripeBytes, stripeBytes
		} else {
			o.kind, o.size = opRead, blockSize
			o.off = int64(stripe)*stripeBytes + rng.Int63n(stripeBytes-blockSize+1)/4096*4096
		}
		ops = append(ops, o)
	}
	return ops
}
