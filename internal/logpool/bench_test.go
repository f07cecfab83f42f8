package logpool

import (
	"testing"
	"time"

	"repro/internal/wire"
)

// newBenchPool returns a pool with a no-op recycler, so a long run
// rotates through sealed units instead of blocking once both fill.
func newBenchPool(b *testing.B) *Pool {
	p := MustNewPool(Config{Name: "b", Mode: Overwrite, UnitSize: 1 << 30, MaxUnits: 2})
	r := StartRecycler(p, 1, func(BlockExtents, time.Duration) time.Duration { return 0 })
	b.Cleanup(func() {
		p.Close()
		r.Wait()
	})
	b.ReportAllocs()
	return p
}

// BenchmarkAppendHotBlock measures the append fast path under maximal
// temporal locality (every record hits one block) — the workload TSUE's
// two-level index is optimized for.
func BenchmarkAppendHotBlock(b *testing.B) {
	p := newBenchPool(b)
	block := wire.BlockID{Ino: 1}
	data := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Append(block, uint32(i%256)*4096, data, time.Duration(i))
	}
}

// BenchmarkAppendHotOverwrite rewrites one 4 KiB range on every
// iteration: after the first append each record lies inside an existing
// extent and is applied in place, so it allocates nothing.
func BenchmarkAppendHotOverwrite(b *testing.B) {
	p := newBenchPool(b)
	block := wire.BlockID{Ino: 1}
	data := make([]byte, 4096)
	p.Append(block, 0, data, 0)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Append(block, 0, data, time.Duration(i))
	}
}

// BenchmarkAppendScattered measures appends across many blocks (the
// first index level).
func BenchmarkAppendScattered(b *testing.B) {
	p := newBenchPool(b)
	data := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		block := wire.BlockID{Ino: uint64(i % 1024)}
		p.Append(block, uint32(i%64)*4096, data, time.Duration(i))
	}
}

// BenchmarkLookupCacheHit measures the read-cache fast path (§3.3.3).
func BenchmarkLookupCacheHit(b *testing.B) {
	p := MustNewPool(Config{Name: "b", Mode: Overwrite, UnitSize: 1 << 30, MaxUnits: 2})
	defer p.Close()
	block := wire.BlockID{Ino: 1}
	p.Append(block, 0, make([]byte, 64<<10), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := p.Lookup(block, uint32(i%60)<<10, 4096); !ok {
			b.Fatal("expected hit")
		}
	}
}
