// Command perfbench is the repository's end-to-end benchmark. It drives
// the public ecfs API of an in-process cluster in the paper's SSD testbed
// geometry (16 OSDs, RS(6,4) Vandermonde, ChameleonSSD, 25 Gb/s
// Ethernet, method tsue) with one closed-loop client, checks that the
// volume reads back exactly as written, and prints its metrics; the last
// line of standard output is one JSON object.
//
//	perfbench --workload ten-update --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the same
// workload untraced and then traced, and reports per-layer metrics from
// spans and counter deltas of the traced phase; the spans are written
// to --spans-dir. METRICS.md lists every metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"repro/internal/sim"
	"repro/internal/update"
)

const mib = 1 << 20

// modeledClients is the client population modeled_iops is priced at.
const modeledClients = 64

// gcPercent is the GOGC the benchmark runs the cluster under, to keep
// memory well inside an 8 GiB box: at 50, ali-durable's heap peaks near
// 1.9 GiB.
const gcPercent = 50

// procs is the GOMAXPROCS the benchmark runs under. The one client keeps
// one processor busy; with a second one, the GC worker and the
// fan-out goroutines hop between the box's two shared cores, and
// stripe-rw's write latency split into two modes 1.6x apart whose mix
// changed from run to run. With one, its p50 and p90 lie within 10%.
const procs = 1

type config struct {
	w        workload
	sc       scale
	seed     int64
	seconds  time.Duration
	trace    bool
	spansDir string
	out      io.Writer // human-readable summary lines
	// corrupt flips one shadow byte before the correctness gate, which
	// must then fail. Used by the package test.
	corrupt bool
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	verifyErr error
	out       io.Writer // summary lines
}

// set records a metric and prints it with its unit and a note.
func (r *result) set(name string, v float64, unit string, note string) {
	r.Metrics[name] = value{Value: v, Unit: unit}
	fmt.Fprintf(r.out, "%-34s %14.4f %-6s %s\n", name, v, unit, note)
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: ten-update, ali-durable or stripe-rw")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Int("seconds", 10, "length of the measured phase in seconds")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		spansDir = flag.String("spans-dir", ".bench_build/spans", "directory the traced run writes its spans to")
	)
	flag.Parse()
	debug.SetGCPercent(gcPercent)
	runtime.GOMAXPROCS(procs)
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad flags: workload %q (%v), seconds %d, trace %d\n", *name, err, *seconds, *traced)
		os.Exit(2)
	}
	cfg := config{
		w: w, sc: w.full, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *traced == 1, spansDir: *spansDir, out: os.Stdout,
	}
	res, err := runBench(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: correctness gate failed:", res.verifyErr)
		os.Exit(1)
	}
}

// runBench runs one workload and returns its result. An error means the
// run could not be measured; a failed correctness gate is a result with
// Correct false.
func runBench(ctx context.Context, cfg config) (*result, error) {
	fmt.Fprintf(cfg.out, "workload %s seed %d: %d stripes (%d MiB volume), one closed-loop client, measured phase %v in rounds of %d ops and a drain\n",
		cfg.w.name, cfg.seed, cfg.sc.stripes, cfg.sc.stripes*stripeBytes/mib, cfg.seconds, cfg.sc.roundOps)
	if cfg.w.durable {
		fmt.Fprintln(cfg.out, "durable OSDs and MDS; storage engine WAL policy: SyncBatched (the default)")
	}
	initial, err := initialVolume(cfg.seed, cfg.sc.stripes)
	if err != nil {
		return nil, err
	}
	defer syscall.Munmap(initial)
	ops := generate(cfg.w, cfg.sc, cfg.seed)
	run := runUntraced
	if cfg.trace {
		run = runTraced
	}
	res, err := run(ctx, cfg, ops, initial)
	var ru syscall.Rusage
	if err == nil && syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		fmt.Fprintf(cfg.out, "process peak RSS %.0f MiB, shadow included\n", float64(ru.Maxrss)/1024)
	}
	return res, err
}

// runUntraced measures the end-to-end metrics with tracing off.
func runUntraced(ctx context.Context, cfg config, ops []op, initial []byte) (*result, error) {
	var (
		e      *env
		setups []float64
	)
	for i := 0; i < cfg.sc.setupRepeat; i++ {
		if e != nil {
			e.close()
			e = nil
			runtime.GC()
		}
		var d time.Duration
		var err error
		if e, d, err = newEnv(ctx, cfg.w, cfg.sc, cfg.seed, ops, initial, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	defer e.close()
	if _, err := e.measure(ctx, 0); err != nil { // warm-up: one untimed round
		return nil, err
	}

	before := snapshot(e.c)
	heap := sampleHeap(10 * time.Millisecond)
	p, err := e.measure(ctx, cfg.seconds)
	peakHeap := heap.peak()
	if err != nil {
		return nil, err
	}
	after := snapshot(e.c)
	stored, err := storedBytes(e)
	if err != nil {
		return nil, fmt.Errorf("space: %w", err)
	}

	r := newResult(p, cfg.out)
	out := cfg.out
	mut := mutatingKind(cfg.w)
	var wall, flush time.Duration
	for _, rd := range p.rounds {
		wall += rd.wall
		flush += rd.flush
	}
	r.set("ops_per_s", opsPerS(p), "1/s", fmt.Sprintf("(median of %d rounds; %d ops in %.3fs + %.3fs drains)", len(p.rounds), p.done(), wall.Seconds(), flush.Seconds()))
	for _, q := range []struct {
		metric string
		kind   opKind
	}{{"write", mut}, {"read", opRead}} {
		n := len(p.lat[q.kind])
		for _, pct := range []float64{0.50, 0.90} {
			v, windows := roundPercentile(p, q.kind, pct)
			r.set(fmt.Sprintf("%s_p%d_us", q.metric, int(pct*100)), v/1e3, "us",
				fmt.Sprintf("(%s, n=%d in %d windows of ~%d, ~%d beyond per window)", opNames[q.kind], n, windows, n/max(windows, 1), int((1-pct)*float64(n/max(windows, 1)))))
		}
	}
	r.set("modeled_iops", modeledIOPS(p, e, before), "1/s", fmt.Sprintf("(sim.Throughput at %d clients)", modeledClients))
	r.set("flash_wear_amp", ratio(float64(after.dev.ProgrammedBytes-before.dev.ProgrammedBytes), float64(p.written)), "ratio", "")
	r.set("net_amp", ratio(float64(after.nicSent-before.nicSent), float64(p.written+p.read)), "ratio", "")
	r.set("space_amp", ratio(float64(stored), float64(e.vol)), "ratio", fmt.Sprintf("(%d stored bytes)", stored))
	r.set("peak_heap_mib", float64(peakHeap)/mib, "MiB", "")
	r.set("setup_s", median(setups), "s", fmt.Sprintf("(median of %d set-ups: %v)", len(setups), setups))
	fmt.Fprintf(out, "failed_op_frac %.6f (%d of %d)\n", ratio(float64(p.failed), float64(p.attempted)), p.failed, p.attempted)
	recycleCycles(out, before, after)
	r.gate(cfg, e)
	return r, nil
}

// runTraced runs the workload untraced and then traced on one cluster,
// and reports per-layer metrics of the traced phase.
func runTraced(ctx context.Context, cfg config, ops []op, initial []byte) (*result, error) {
	tr := newTracer()
	tr.start(phaseSetup)
	e, _, err := newEnv(ctx, cfg.w, cfg.sc, cfg.seed, ops, initial, tr)
	if stopErr := tr.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer e.close()
	if _, err := e.measure(ctx, 0); err != nil { // warm-up: one untimed round
		return nil, err
	}
	plain, err := e.measure(ctx, cfg.seconds)
	if err != nil {
		return nil, err
	}

	before := snapshot(e.c)
	tr.start(phaseMeasured)
	p, err := e.measure(ctx, cfg.seconds)
	if stopErr := tr.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}
	after := snapshot(e.c)

	spans := tr.spans()
	path := filepath.Join(cfg.spansDir, cfg.w.name+".spans.tsv")
	if err := writeSpans(path, spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(cfg.out, "wrote %d spans to %s (%d dropped)\n", len(spans), path, tr.dropped.Load())

	r := newResult(p, cfg.out)
	layerMetrics(r, e, p, plain, before, after, spans)
	recycleCycles(cfg.out, before, after)
	r.gate(cfg, e)
	return r, nil
}

func newResult(p *phase, out io.Writer) *result {
	return &result{Attempted: p.attempted, Failed: p.failed, Metrics: map[string]value{}, out: out}
}

// gate runs the correctness gate and records its outcome.
func (r *result) gate(cfg config, e *env) {
	if cfg.corrupt {
		e.shadow[len(e.shadow)/2] ^= 0x5a
	}
	r.verifyErr = e.verify(context.Background())
	r.Correct = r.verifyErr == nil
	status := "ok"
	if !r.Correct {
		status = r.verifyErr.Error()
	}
	fmt.Fprintf(cfg.out, "correctness: shadow read-back and parity scrub of %d stripes: %s\n", cfg.sc.stripes, status)
}

// mutatingKind is the op the write_* metrics time on a workload.
func mutatingKind(w workload) opKind {
	if w.traceGen == nil {
		return opWrite
	}
	return opUpdate
}

// opsPerS is the median over rounds of a round's completed ops over its
// wall time plus its drain, so work deferred into the drain counts.
func opsPerS(p *phase) float64 {
	per := make([]float64, len(p.rounds))
	for i, rd := range p.rounds {
		per[i] = float64(rd.done) / (rd.wall + rd.flush).Seconds()
	}
	return median(per)
}

// modeledIOPS is sim.Throughput over the measured phase: the phase's
// ops at modeledClients synchronous clients, bounded by the busiest
// modeled resource's busy time accrued in the phase.
func modeledIOPS(p *phase, e *env, before *counters) float64 {
	if p.modeledN == 0 || p.done() == 0 {
		return 0
	}
	avg := p.modeled / time.Duration(p.modeledN)
	clientTime := time.Duration(p.done()) * avg / modeledClients
	bottleneck := max(clientTime, sim.MaxBusyDelta(e.c.Resources(), before.busy))
	return float64(p.done()) / bottleneck.Seconds()
}

// recycleCycles states how many log units each pool recycled in the
// measured phase and how many checkpoints and compactions ran.
func recycleCycles(out io.Writer, before, after *counters) {
	pools := update.DefaultConfig().Pools
	names := make([]string, 0, len(after.pools))
	for name := range after.pools {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d := subPool(after.pools[name], before.pools[name])
		fmt.Fprintf(out, "recycle: %s log: %d units recycled, %.2f per pool (%d pools)\n",
			name, d.UnitsRecycled, ratio(float64(d.UnitsRecycled), float64(after.poolCount[name]*pools)), after.poolCount[name]*pools)
	}
	s := subStore(after.store, before.store)
	if after.store != before.store {
		fmt.Fprintf(out, "store: %d checkpoints, %d segment files compacted (%.1f MiB)\n", s.Checkpoints, s.CompactedFiles, float64(s.CompactedBytes)/mib)
	}
}

// percentile is the nearest-rank p-quantile of every sample, in the
// samples' unit; it sorts xs.
func percentile(xs []int64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(p*float64(len(xs))+0.999999) - 1
	return float64(xs[max(0, min(i, len(xs)-1))])
}

// roundPercentile is the q-quantile of the wall latencies of one op
// kind, taken per window of consecutive rounds and reported as the
// median over windows, so a burst of host noise moves one window, not
// the result. A window is as few whole rounds as hold ten samples beyond
// the quantile; samples left over join the last window. It returns the
// median and the window count.
func roundPercentile(p *phase, kind opKind, q float64) (float64, int) {
	ss := p.lat[kind]
	if len(ss) == 0 {
		return 0, 0
	}
	need := int(math.Ceil(10 / (1 - q)))
	var windows [][]int64
	var cur []int64
	for i, s := range ss {
		cur = append(cur, s.wall)
		if len(cur) >= need && (i == len(ss)-1 || ss[i+1].round != s.round) {
			windows = append(windows, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		if len(windows) == 0 {
			windows = append(windows, nil)
		}
		windows[len(windows)-1] = append(windows[len(windows)-1], cur...)
	}
	per := make([]float64, len(windows))
	for i, xs := range windows {
		per[i] = percentile(xs, q)
	}
	return median(per), len(windows)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
