package bench

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/ecfs"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Repair is the repair-subsystem extension experiment. The first two
// rows compare degraded-read behavior during a recovery when the
// rebuild order is strict FIFO versus hint-prioritized: a client
// hammers a handful of hot stripes seeded near the *end* of the FIFO
// order, and the table reports how many of its reads had to K-way
// decode and how deep into the read sequence the last decode happened
// (last_degr_%). With prioritization the first degraded read promotes
// each hot stripe to the front of the queue, so the decode tail
// collapses. The middle rows measure the same queue doing planned work:
// Cluster.Drain and Cluster.Decommission migrating a live node's blocks
// onto the survivor pool (sourced from the node itself — no decode).
// The final rows are the scheduler-cap sweep: the same drain against a
// fixed foreground read workload, first uncapped and then with a
// rebuild-bandwidth cap, proving the capped run's rebuild bandwidth
// lands at or under the cap while the readers keep more of their
// bandwidth (readers and drain overlap on the virtual clock; see
// repairCapRow).
//
// The repair_MBps / foreground_MBps columns come from per-class traffic
// tagging (sim.Class): every priced transfer carries a class, so shared
// NICs account rebuild/drain bytes separately from the foreground
// workload. repair_MBps is tagged rebuild+drain traffic over the run's
// modeled makespan (virtual time — comparable to the cap);
// foreground_MBps is tagged foreground traffic over the bottleneck
// resource's busy time in the measurement window (operational-law
// throughput — rebuild interference inflates the denominator, a capped
// rebuild spreads it beyond the window).
func Repair(ctx context.Context, s Scale) (*Report, error) {
	rep := &Report{
		ID:    "repair",
		Title: "Extension: repair scheduler — read-through repair, tagged traffic, capped drain (TSUE, Ten-Cloud, RS(6,4))",
		Header: []string{
			"scenario", "hot_reads", "degraded", "last_degr_%", "blocks", "moved_MB", "time_ms", "repair_MBps", "foreground_MBps",
		},
	}
	for _, fifo := range []bool{true, false} {
		row, err := repairReadRow(ctx, s, fifo)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, row)
	}
	for _, decommission := range []bool{false, true} {
		row, err := repairDrainRow(ctx, s, decommission)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, row)
	}
	// Scheduler-cap sweep: the uncapped run sets the baseline; the
	// capped run (Scale.MaxRebuildMBps, or a quarter of the baseline)
	// must land at or under its cap.
	uncapped, baseMBps, err := repairCapRow(ctx, s, 0)
	if err != nil {
		return nil, err
	}
	rep.Rows = append(rep.Rows, uncapped)
	capMBps := s.MaxRebuildMBps
	if capMBps <= 0 {
		capMBps = baseMBps / 4
	}
	if capMBps <= 0 {
		capMBps = 1
	}
	capped, _, err := repairCapRow(ctx, s, capMBps)
	if err != nil {
		return nil, err
	}
	rep.Rows = append(rep.Rows, capped)

	rep.Notes = append(rep.Notes,
		"expected shape: prioritized repair ends the degraded-read tail earlier than FIFO (lower last_degr_%); drain moves blocks at copy bandwidth (no K-way decode)",
		"drain/fg/cap=N: repair_MBps stays at or under N (scheduler token bucket + makespan floor) while foreground_MBps beats the uncapped row (the capped drain's longer makespan leaves less of its busy time in the readers' window)",
		"repair_MBps = tagged rebuild+drain bytes / virtual makespan; foreground_MBps = tagged foreground bytes / bottleneck busy time of the readers' window (operational law); recover rows: the hot reader races the rebuild in wall time, so read counts vary run to run; drain/fg rows: a fixed read set overlaps the drain on the virtual clock, so readers and drain do not race (only the trace replay that loads each cluster varies, by under 1%)",
	)
	return rep, nil
}

// classWindow brackets a measurement of the per-class traffic a cluster
// moves: open before the maintenance operation, then derive separated
// rebuild and foreground rates from the deltas.
type classWindow struct {
	c       *ecfs.Cluster
	rebuild int64
	fg      int64
	busy    []time.Duration
}

func openClassWindow(c *ecfs.Cluster) *classWindow {
	return &classWindow{
		c:       c,
		rebuild: rebuildTraffic(c),
		fg:      foregroundTraffic(c),
		busy:    sim.SnapshotBusy(c.Resources()),
	}
}

// rebuildTraffic is the cluster's rebuild+drain ledger — the same
// definition the scheduler's budget meters (Cluster.RebuildTraffic).
func rebuildTraffic(c *ecfs.Cluster) int64 {
	return c.RebuildTraffic()
}

// foregroundTraffic sums the cluster's tagged foreground bytes.
func foregroundTraffic(c *ecfs.Cluster) int64 {
	var n int64
	for _, cls := range sim.ForegroundClasses {
		n += c.Net.TrafficByClass(cls)
	}
	return n
}

// repairMBps is the tagged rebuild/drain traffic of the window over the
// run's modeled makespan — the number a rebuild cap bounds.
func (w *classWindow) repairMBps(window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	return float64(rebuildTraffic(w.c)-w.rebuild) / window.Seconds() / 1e6
}

// foregroundMBps is the operational-law foreground rate of the window:
// tagged foreground bytes over the bottleneck resource's busy time —
// everything that resource did, rebuild interference included. When the
// rebuild crowds the foreground off a shared NIC, the denominator
// inflates and the rate drops; a capped rebuild spreads its busy time
// outside the window and the foreground keeps its bandwidth.
func (w *classWindow) foregroundMBps() float64 {
	busy := sim.MaxBusyDelta(w.c.Resources(), w.busy)
	if busy <= 0 {
		return 0
	}
	return float64(foregroundTraffic(w.c)-w.fg) / busy.Seconds() / 1e6
}

// busyDelta returns each resource's busy time between two
// sim.SnapshotBusy snapshots; resources provisioned after the first
// count in full.
func busyDelta(after, before []time.Duration) []time.Duration {
	out := slices.Clone(after)
	for i := range min(len(out), len(before)) {
		out[i] -= before[i]
	}
	return out
}

// repairReadRow runs one recovery (FIFO or prioritized) with a client
// reading hot stripes throughout, and reports the degraded-read tail
// plus the class-separated bandwidths of the window.
func repairReadRow(ctx context.Context, s Scale, fifo bool) ([]string, error) {
	scenario := "recover/prio"
	if fifo {
		scenario = "recover/fifo"
	}
	tr, err := makeTrace("ten", s)
	if err != nil {
		return nil, err
	}
	lc, err := loadCluster(ctx, runConfig{Method: "tsue", K: 6, M: 4, Trace: tr, Scale: s})
	if err != nil {
		return nil, fmt.Errorf("repair %s: %w", scenario, err)
	}
	c := lc.c
	defer c.Close()

	victim := c.OSDs[1]
	c.FailOSD(victim.ID())
	freshID := wire.NodeID(c.Opts.NumOSDs + 1)
	cfg := *lc.opts.Strategy
	cfg.BlockSize = c.Opts.BlockSize
	repl, err := ecfs.NewOSD(freshID, c.Opts.Device, c.Tr.Caller(freshID), "tsue", cfg, c.Opts.Kind)
	if err != nil {
		return nil, err
	}
	c.AddOSD(repl)

	// Hot set: the last few data blocks the victim hosts in the queue's
	// FIFO seed order (StripesOnSorted = the engines' rebuild order) —
	// the worst case for a FIFO rebuild.
	refs := c.MDS.StripesOnSorted(victim.ID())
	var hot []ecfs.StripeRef
	for _, ref := range refs {
		if int(ref.Idx) < c.Opts.K {
			hot = append(hot, ref)
		}
	}
	if len(hot) > 4 {
		hot = hot[len(hot)-4:]
	}
	if len(hot) == 0 {
		return nil, fmt.Errorf("repair %s: victim hosts no data blocks", scenario)
	}

	cli := c.NewClient()
	span := int64(cli.StripeSpan())
	var (
		stop     atomic.Bool
		reads    int64
		lastDegr int64
	)
	readerDone := make(chan error, 1)
	go func() {
		for !stop.Load() {
			for _, ref := range hot {
				off := int64(ref.Stripe)*span + int64(ref.Idx)*int64(c.Opts.BlockSize)
				before := cli.Stats().DegradedReads
				if _, _, err := cli.ReadContext(ctx, lc.ino, off, 256); err != nil {
					readerDone <- err
					return
				}
				reads++
				if cli.Stats().DegradedReads > before {
					lastDegr = reads
				}
			}
		}
		readerDone <- nil
	}()

	rebuild := c.RecoverWith
	if fifo {
		rebuild = c.RecoverFIFO
	}
	win := openClassWindow(c)
	res, err := rebuild(ctx, victim.ID(), repl, c.Opts.RecoveryWorkers)
	stop.Store(true)
	fgMBps := win.foregroundMBps()
	if rerr := <-readerDone; rerr != nil {
		return nil, fmt.Errorf("repair %s: hot read: %w", scenario, rerr)
	}
	if err != nil {
		return nil, fmt.Errorf("repair %s: %w", scenario, err)
	}

	tailPct := 0.0
	if reads > 0 {
		tailPct = 100 * float64(lastDegr) / float64(reads)
	}
	// With per-class tagging the recover rows finally report a clean
	// repair bandwidth under load: the hot reader's traffic no longer
	// pollutes the rebuild column, it *is* the foreground column.
	return []string{
		scenario,
		fmt.Sprintf("%d", reads),
		fmt.Sprintf("%d", cli.Stats().DegradedReads),
		fmt.Sprintf("%.0f", tailPct),
		fmt.Sprintf("%d", res.Blocks),
		fmtMB(res.Bytes),
		fmtMS(res.VirtualTime),
		fmtBW(win.repairMBps(res.VirtualTime) * 1e6),
		fmtBW(fgMBps * 1e6),
	}, nil
}

// repairDrainRow measures the planned-migration path: every block moves
// off a live node under per-stripe epoch bumps, sourced from the node
// itself.
func repairDrainRow(ctx context.Context, s Scale, decommission bool) ([]string, error) {
	scenario := "drain"
	if decommission {
		scenario = "decommission"
	}
	tr, err := makeTrace("ten", s)
	if err != nil {
		return nil, err
	}
	lc, err := loadCluster(ctx, runConfig{Method: "tsue", K: 6, M: 4, Trace: tr, Scale: s})
	if err != nil {
		return nil, fmt.Errorf("repair %s: %w", scenario, err)
	}
	c := lc.c
	defer c.Close()

	node := c.OSDs[1].ID()
	migrate := c.Drain
	if decommission {
		migrate = c.Decommission
	}
	win := openClassWindow(c)
	res, err := migrate(ctx, node)
	if err != nil {
		return nil, fmt.Errorf("repair %s: %w", scenario, err)
	}
	// The cluster keeps serving: prove it with a post-migration read.
	cli := c.NewClient()
	if _, _, err := cli.ReadContext(ctx, lc.ino, 0, 4096); err != nil {
		return nil, fmt.Errorf("repair %s: post-migration read: %w", scenario, err)
	}
	return []string{
		scenario,
		"-",
		"-",
		"-",
		fmt.Sprintf("%d", res.Moved),
		fmtMB(res.Bytes),
		fmtMS(res.VirtualTime),
		fmtBW(win.repairMBps(res.VirtualTime) * 1e6),
		"-",
	}, nil
}

// repairCapRow runs one drain with the given rebuild-bandwidth cap (0 =
// uncapped) against a fixed foreground read workload, and returns its
// row plus the measured repair bandwidth in MB/s, which the caller uses
// to derive the capped run's budget.
//
// The readers and the drain overlap on the virtual clock, not the wall
// clock, so goroutine scheduling cannot change how much of the drain
// the readers see. The readers run first, alone: their fixed set of
// reads keeps each resource r busy for F_r, and their window W is the
// bottleneck's max F_r. The drain then runs alone, keeping r busy for
// D_r over its makespan M. Spread evenly over the makespan, a share
// min(1, W/M) of D_r lands in the readers' window, so foreground_MBps =
// foreground bytes / max_r(F_r + D_r*min(1, W/M)) — the operational-law
// rate with the drain's interference. An uncapped drain dumps most of
// its burst inside the window; a capped one stretches M and spreads it
// beyond.
func repairCapRow(ctx context.Context, s Scale, capMBps float64) ([]string, float64, error) {
	scenario := "drain/fg/uncapped"
	if capMBps > 0 {
		scenario = fmt.Sprintf("drain/fg/cap=%.1f", capMBps)
	}
	tr, err := makeTrace("ten", s)
	if err != nil {
		return nil, 0, err
	}
	lc, err := loadCluster(ctx, runConfig{Method: "tsue", K: 6, M: 4, Trace: tr, Scale: s})
	if err != nil {
		return nil, 0, fmt.Errorf("repair %s: %w", scenario, err)
	}
	c := lc.c
	defer c.Close()

	// Foreground load: a fixed read workload spread over many client
	// NICs, so the contended resources are the OSD-side NICs the drain
	// shares. Each client reads its own run of the file in order.
	const readerClients = 16
	readsEach := 256
	win := openClassWindow(c)
	devBusy := make([]time.Duration, len(c.OSDs))
	for i, o := range c.OSDs {
		devBusy[i] = o.Dev().Resource().Busy()
	}
	for r := 0; r < readerClients; r++ {
		cli := c.NewClient()
		stripes, err := cli.Stripes(ctx, lc.ino)
		if err != nil {
			return nil, 0, fmt.Errorf("repair %s: foreground read: %w", scenario, err)
		}
		size := int64(stripes) * int64(cli.StripeSpan())
		off := (size / readerClients) * int64(r)
		for i := 0; i < readsEach; i++ {
			if off+4096 > size {
				off = 0
			}
			if _, _, err := cli.ReadContext(ctx, lc.ino, off, 4096); err != nil {
				return nil, 0, fmt.Errorf("repair %s: foreground read: %w", scenario, err)
			}
			off += 4096
		}
	}
	fgBytes := foregroundTraffic(c) - win.fg
	readBusy := sim.SnapshotBusy(c.Resources())
	fgBusy := busyDelta(readBusy, win.busy)

	// Drain the OSD whose device the readers kept busiest: the worst
	// case for interference, and the one a cap exists for.
	node, hot := c.OSDs[0].ID(), time.Duration(-1)
	for i, o := range c.OSDs {
		if b := o.Dev().Resource().Busy() - devBusy[i]; b > hot {
			node, hot = o.ID(), b
		}
	}
	// The cap starts after the reads, so their foreground time grants the
	// drain no tokens: both rows drain from the same state.
	if capMBps > 0 {
		c.SetRebuildCap(capMBps)
	}
	res, err := c.Drain(ctx, node)
	if err != nil {
		return nil, 0, fmt.Errorf("repair %s: %w", scenario, err)
	}
	drainBusy := busyDelta(sim.SnapshotBusy(c.Resources()), readBusy)

	window := slices.Max(fgBusy)
	share := 1.0
	if res.VirtualTime > window {
		share = window.Seconds() / res.VirtualTime.Seconds()
	}
	var bottleneck time.Duration
	for i, drain := range drainBusy {
		var fg time.Duration
		if i < len(fgBusy) {
			fg = fgBusy[i]
		}
		bottleneck = max(bottleneck, fg+time.Duration(share*float64(drain)))
	}
	fgMBps := 0.0
	if bottleneck > 0 {
		fgMBps = float64(fgBytes) / bottleneck.Seconds() / 1e6
	}

	repairMBps := win.repairMBps(res.VirtualTime)
	return []string{
		scenario,
		fmt.Sprintf("%d", readerClients*readsEach),
		"-",
		"-",
		fmt.Sprintf("%d", res.Moved),
		fmtMB(res.Bytes),
		fmtMS(res.VirtualTime),
		fmtBW(repairMBps * 1e6),
		fmtBW(fgMBps * 1e6),
	}, repairMBps, nil
}
