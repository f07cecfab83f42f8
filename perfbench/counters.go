package main

import (
	"io/fs"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/device"
	"repro/internal/ecfs"
	"repro/internal/logpool"
	"repro/internal/sim"
	"repro/internal/store"
)

// layered is the per-layer log-pool view TSUE's strategy exposes.
type layered interface {
	LayerStats() map[string]logpool.Stats
	MemoryBytes() int64
}

// enginePageSize is the storage engine's default page size, the unit
// of its Writebacks counter.
const enginePageSize = 16 << 10

// counters is a snapshot of every layer's public counters.
type counters struct {
	pools      map[string]logpool.Stats // summed over OSDs, by layer
	poolCount  map[string]int           // pools per layer, summed over OSDs
	memory     int64                    // log-buffer budget (MemoryBytes)
	store      store.Stats              // summed over durable OSDs
	dev        device.Stats
	nicSent    int64 // bytes sent by every NIC, clients included
	osdTraffic int64 // bytes sent by OSD NICs
	busy       []time.Duration
	allocBytes uint64
	gcCycles   uint64
	gcPause    time.Duration
	cpu        time.Duration
}

func snapshot(c *ecfs.Cluster) *counters {
	s := &counters{pools: map[string]logpool.Stats{}, poolCount: map[string]int{}}
	for _, o := range c.OSDs {
		if l, ok := o.Strategy().(layered); ok {
			s.memory += l.MemoryBytes()
			for name, st := range l.LayerStats() {
				s.pools[name] = addPool(s.pools[name], st)
				s.poolCount[name]++
			}
		}
		if e := o.Engine(); e != nil {
			s.store = addStore(s.store, e.Stats())
		}
	}
	s.dev = c.DeviceStats()
	for _, nic := range c.Net.NICs() {
		s.nicSent += nic.SentBytes()
	}
	s.osdTraffic = c.OSDTraffic()
	s.busy = sim.SnapshotBusy(c.Resources())
	rt := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(rt)
	s.allocBytes = rt[0].Value.Uint64()
	s.gcCycles = rt[1].Value.Uint64()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.gcPause = time.Duration(ms.PauseTotalNs)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return s
}

func addPool(a, b logpool.Stats) logpool.Stats {
	a.AppendedEntries += b.AppendedEntries
	a.AppendedBytes += b.AppendedBytes
	a.RecycledExtents += b.RecycledExtents
	a.RecycledBytes += b.RecycledBytes
	a.UnitsRecycled += b.UnitsRecycled
	a.UnitsAllocated += b.UnitsAllocated
	a.CacheHits += b.CacheHits
	a.CacheMisses += b.CacheMisses
	a.Stalls += b.Stalls
	a.StallTime += b.StallTime
	return a
}

func subPool(a, b logpool.Stats) logpool.Stats {
	a.AppendedEntries -= b.AppendedEntries
	a.AppendedBytes -= b.AppendedBytes
	a.RecycledExtents -= b.RecycledExtents
	a.RecycledBytes -= b.RecycledBytes
	a.UnitsRecycled -= b.UnitsRecycled
	a.CacheHits -= b.CacheHits
	a.CacheMisses -= b.CacheMisses
	a.Stalls -= b.Stalls
	a.StallTime -= b.StallTime
	return a
}

func addStore(a, b store.Stats) store.Stats {
	a.PageHits += b.PageHits
	a.PageMisses += b.PageMisses
	a.Writebacks += b.Writebacks
	a.WALRecords += b.WALRecords
	a.WALBytes += b.WALBytes
	a.WALSyncs += b.WALSyncs
	a.SegAppends += b.SegAppends
	a.SegBytes += b.SegBytes
	a.Checkpoints += b.Checkpoints
	a.CompactedFiles += b.CompactedFiles
	a.CompactedBytes += b.CompactedBytes
	return a
}

func subStore(a, b store.Stats) store.Stats {
	a.PageHits -= b.PageHits
	a.PageMisses -= b.PageMisses
	a.Writebacks -= b.Writebacks
	a.WALRecords -= b.WALRecords
	a.WALBytes -= b.WALBytes
	a.WALSyncs -= b.WALSyncs
	a.SegAppends -= b.SegAppends
	a.SegBytes -= b.SegBytes
	a.Checkpoints -= b.Checkpoints
	a.CompactedFiles -= b.CompactedFiles
	a.CompactedBytes -= b.CompactedBytes
	return a
}

// heapSampler records the peak of live-plus-unswept heap objects while
// it runs.
type heapSampler struct {
	stop chan struct{}
	done chan uint64
}

func sampleHeap(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peak stops the sampler and returns the highest heap it saw, in bytes.
func (h *heapSampler) peak() uint64 {
	close(h.stop)
	return <-h.done
}

// storedBytes is what the OSDs hold for the volume: the bytes of every
// file under a durable cluster's data dir, or the in-memory block
// stores' block bytes.
func storedBytes(e *env) (int64, error) {
	var n int64
	if e.dir != "" {
		err := filepath.WalkDir(e.dir, func(_ string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
			return nil
		})
		return n, err
	}
	for _, o := range e.c.OSDs {
		st := o.Store()
		for _, b := range st.Blocks() {
			n += int64(st.Size(b))
		}
	}
	return n, nil
}
