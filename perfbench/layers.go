package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
	"repro/internal/wire"
)

// kindStats collects one handler kind's spans: wall and self time and
// the modeled cost the handler returned, all in ns.
type kindStats struct {
	wall, self, cost []int64
}

// layerMetrics fills r with the per-layer metrics of the traced phase p:
// span aggregates, counter deltas between before and after, and the
// tracing overhead against the untraced phase plain.
func layerMetrics(r *result, e *env, p, plain *phase, before, after *counters, spans []spanRec) {
	self := selfTimes(spans)
	ops := float64(p.done())

	var (
		opSelf, rpcSelf             int64
		rpcCalls, lookups           int64
		handlerSelf, backgroundSelf int64
		drainWall                   int64
		osd                         = map[wire.Kind]*kindStats{}
		mdsLookup                   []int64
	)
	for i := range spans {
		s := &spans[i]
		layer, kind := int(s.name)/kindSlots, wire.Kind(int(s.name)%kindSlots)
		if layer == layerMDS && kind == wire.KMDSLookup {
			mdsLookup = append(mdsLookup, s.end-s.start) // set-up and measured phase
		}
		if s.phase != phaseMeasured {
			continue
		}
		switch layer {
		case layerBench:
			if int(kind) < int(numOpKinds) {
				opSelf += self[i]
			}
		case layerRPC:
			rpcCalls++
			rpcSelf += self[i]
			if kind == wire.KMDSLookup {
				lookups++
			}
		case layerOSD, layerMDS:
			handlerSelf += self[i]
			if root := spans[s.trace-1].name / kindSlots; root == layerOSD || root == layerMDS {
				backgroundSelf += self[i]
			}
			if layer == layerMDS {
				continue
			}
			k := osd[kind]
			if k == nil {
				k = &kindStats{}
				osd[kind] = k
			}
			k.wall = append(k.wall, s.end-s.start)
			k.self = append(k.self, self[i])
			k.cost = append(k.cost, s.cost)
			if kind == wire.KDrainLogs {
				drainWall += s.end - s.start
			}
		}
	}

	r.set("client.self_us", ratio(float64(opSelf), ops)/1e3, "us", "(mean per op: op wall minus its RPCs)")
	r.set("client.calls_per_op", ratio(float64(rpcCalls), ops), "count", "")
	r.set("client.mds_lookups_per_op", ratio(float64(lookups), ops), "count", "")
	r.set("transport.overhead_us", ratio(float64(rpcSelf), float64(rpcCalls))/1e3, "us", fmt.Sprintf("(mean per client RPC, n=%d)", rpcCalls))

	p50 := func(k wire.Kind, pick func(*kindStats) []int64) (float64, int) {
		ks := osd[k]
		if ks == nil {
			return 0, 0
		}
		xs := pick(ks)
		return percentile(xs, 0.5), len(xs)
	}
	wall := func(k *kindStats) []int64 { return k.wall }
	v, n := p50(wire.KUpdate, func(k *kindStats) []int64 { return k.self })
	r.set("osd.update.self_us", v/1e3, "us", fmt.Sprintf("(p50, n=%d)", n))
	v, n = p50(wire.KUpdate, func(k *kindStats) []int64 { return k.cost })
	r.set("osd.update.modeled_us", v/1e3, "us", fmt.Sprintf("(p50 Resp.Cost, n=%d)", n))
	for _, k := range []wire.Kind{wire.KDataLogReplica, wire.KRead, wire.KWriteBlock, wire.KDeltaLogAdd, wire.KParityLogAdd} {
		v, n := p50(k, wall)
		r.set("osd."+k.String()+".us", v/1e3, "us", fmt.Sprintf("(p50 wall, n=%d)", n))
	}
	r.set("osd.drain-logs.ms", float64(drainWall)/1e6, "ms", "(summed wall)")
	r.set("osd.background_share", ratio(float64(backgroundSelf), float64(handlerSelf)), "ratio", "(handler self time in parentless recycle spans)")

	// Wall beside modeled cost per handler kind; flag kinds whose wall
	// time exceeds the cost the model charges for them.
	kinds := make([]wire.Kind, 0, len(osd))
	for k := range osd {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	var flagged []string
	for _, k := range kinds {
		ks := osd[k]
		w, s, c := percentile(ks.wall, 0.5), percentile(ks.self, 0.5), percentile(ks.cost, 0.5)
		mark := ""
		if w > c {
			mark = "  WALL > MODELED"
			flagged = append(flagged, k.String())
		}
		fmt.Fprintf(r.out, "  osd %-18s n=%-8d wall p50 %10.1fus  self p50 %10.1fus  modeled p50 %10.1fus%s\n", k, len(ks.wall), w/1e3, s/1e3, c/1e3, mark)
	}
	r.set("osd.wall_over_modeled_kinds", float64(len(flagged)), "count", "("+strings.Join(flagged, ",")+")")
	r.set("mds.mds-lookup.us", percentile(mdsLookup, 0.5)/1e3, "us", fmt.Sprintf("(p50 wall over set-up and measured phase, n=%d)", len(mdsLookup)))

	for _, name := range []string{"data", "delta", "parity"} {
		d := subPool(after.pools[name], before.pools[name])
		r.set("logpool."+name+".entries_per_extent", ratio(float64(d.AppendedEntries), float64(d.RecycledExtents)), "ratio", fmt.Sprintf("(%d entries, %d extents)", d.AppendedEntries, d.RecycledExtents))
	}
	data := subPool(after.pools["data"], before.pools["data"])
	r.set("logpool.data.stalls", float64(data.Stalls), "count", "")
	r.set("logpool.data.stall_ms", float64(data.StallTime)/1e6, "ms", "(modeled)")
	r.set("logpool.data.hit_rate", ratio(float64(data.CacheHits), float64(data.CacheHits+data.CacheMisses)), "ratio", "")
	var recycled int64
	for name := range after.pools {
		recycled += subPool(after.pools[name], before.pools[name]).UnitsRecycled
	}
	r.set("logpool.units_recycled", float64(recycled), "count", "")
	r.set("logpool.memory_mib", float64(after.memory)/mib, "MiB", "(MemoryBytes, summed over OSDs)")

	st := subStore(after.store, before.store)
	written := float64(p.written)
	r.set("store.disk_write_amp", ratio(float64(st.Writebacks*enginePageSize+st.WALBytes+st.SegBytes), written), "ratio", "")
	r.set("store.page_hit_rate", ratio(float64(st.PageHits), float64(st.PageHits+st.PageMisses)), "ratio", "")
	r.set("store.wal_records_per_op", ratio(float64(st.WALRecords), ops), "count", "")
	r.set("store.seg_appends_per_op", ratio(float64(st.SegAppends), ops), "count", "")
	r.set("store.wal_syncs", float64(st.WALSyncs), "count", "")
	r.set("store.checkpoints", float64(st.Checkpoints), "count", "")
	r.set("store.compacted_mib", float64(st.CompactedBytes)/mib, "MiB", "")

	a, b := after.dev, before.dev
	seq, random := float64(a.SeqOps-b.SeqOps), float64(a.RandomOps-b.RandomOps)
	r.set("device.seq_op_frac", ratio(seq, seq+random), "ratio", "")
	r.set("device.read_amp", ratio(float64(a.ReadBytes-b.ReadBytes), float64(p.written+p.read)), "ratio", "")
	r.set("device.write_amp", ratio(float64(a.WriteBytes-b.WriteBytes), written), "ratio", "")
	r.set("device.erase_ops", float64(a.EraseOps-b.EraseOps), "count", "")
	r.set("net.osd_amp", ratio(float64(after.osdTraffic-before.osdTraffic), written), "ratio", "(bytes sent by OSD NICs per user byte written)")
	r.set("sim.bottleneck_busy_ms", float64(sim.MaxBusyDelta(e.c.Resources(), before.busy))/1e6, "ms", "")

	r.set("runtime.alloc_kib_per_op", ratio(float64(after.allocBytes-before.allocBytes), ops)/1024, "KiB", "")
	r.set("runtime.cpu_us_per_op", ratio(float64(after.cpu-before.cpu), ops)/1e3, "us", "(process CPU, background recycle included)")
	r.set("runtime.gc_cycles", float64(after.gcCycles-before.gcCycles), "count", "")
	r.set("runtime.gc_pause_ms", float64(after.gcPause-before.gcPause)/1e6, "ms", "")

	traced, untraced := opsPerS(p), opsPerS(plain)
	r.set("trace.overhead", ratio(traced, untraced), "ratio", fmt.Sprintf("(traced %.1f ops/s / untraced %.1f ops/s)", traced, untraced))
}
