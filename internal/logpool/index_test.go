package logpool

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func mk(n int, fill byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = fill
	}
	return b
}

func TestInsertDisjoint(t *testing.T) {
	bi := &blockIndex{mode: Overwrite}
	bi.insert(100, mk(10, 1), 0)
	bi.insert(300, mk(10, 2), 0)
	bi.insert(0, mk(10, 3), 0)
	if len(bi.extents) != 3 {
		t.Fatalf("extents = %d, want 3", len(bi.extents))
	}
	// Sorted by offset.
	if bi.extents[0].Off != 0 || bi.extents[1].Off != 100 || bi.extents[2].Off != 300 {
		t.Fatalf("not sorted: %+v", bi.extents)
	}
	if bi.bytes != 30 {
		t.Fatalf("bytes = %d, want 30", bi.bytes)
	}
}

func TestInsertAdjacentConcatenates(t *testing.T) {
	bi := &blockIndex{mode: Overwrite}
	bi.insert(0, mk(8, 1), 0)
	bi.insert(8, mk(8, 2), 0) // touching: must concatenate
	if len(bi.extents) != 1 {
		t.Fatalf("adjacent extents not merged: %d", len(bi.extents))
	}
	e := bi.extents[0]
	if e.Off != 0 || len(e.Data) != 16 || e.Data[0] != 1 || e.Data[8] != 2 {
		t.Fatalf("merged extent wrong: %+v", e)
	}
}

func TestInsertOverwriteNewestWins(t *testing.T) {
	bi := &blockIndex{mode: Overwrite}
	bi.insert(0, mk(16, 1), 0)
	bi.insert(4, mk(4, 9), 0) // overlap in the middle
	if len(bi.extents) != 1 {
		t.Fatalf("extents = %d, want 1", len(bi.extents))
	}
	d := bi.extents[0].Data
	want := []byte{1, 1, 1, 1, 9, 9, 9, 9, 1, 1, 1, 1, 1, 1, 1, 1}
	if !bytes.Equal(d, want) {
		t.Fatalf("data = %v, want %v", d, want)
	}
	if bi.bytes != 16 {
		t.Fatalf("bytes = %d, want 16", bi.bytes)
	}
}

func TestInsertXorFolds(t *testing.T) {
	bi := &blockIndex{mode: XorFold}
	bi.insert(0, []byte{0x0f, 0x0f}, 0)
	bi.insert(0, []byte{0xf0, 0x01}, 0)
	if len(bi.extents) != 1 {
		t.Fatalf("extents = %d, want 1", len(bi.extents))
	}
	if !bytes.Equal(bi.extents[0].Data, []byte{0xff, 0x0e}) {
		t.Fatalf("xor result wrong: %v", bi.extents[0].Data)
	}
}

func TestInsertSpansMultipleExtents(t *testing.T) {
	bi := &blockIndex{mode: Overwrite}
	bi.insert(0, mk(4, 1), 0)
	bi.insert(8, mk(4, 2), 0)
	bi.insert(2, mk(8, 7), 0) // bridges both
	if len(bi.extents) != 1 {
		t.Fatalf("extents = %d, want 1", len(bi.extents))
	}
	e := bi.extents[0]
	if e.Off != 0 || len(e.Data) != 12 {
		t.Fatalf("span wrong: off=%d len=%d", e.Off, len(e.Data))
	}
	want := []byte{1, 1, 7, 7, 7, 7, 7, 7, 7, 7, 2, 2}
	if !bytes.Equal(e.Data, want) {
		t.Fatalf("data = %v, want %v", e.Data, want)
	}
}

func TestInsertNoMergeKeepsAll(t *testing.T) {
	bi := &blockIndex{mode: NoMerge}
	bi.insert(0, mk(8, 1), 0)
	bi.insert(0, mk(8, 2), 0)
	bi.insert(4, mk(8, 3), 0)
	if len(bi.extents) != 3 {
		t.Fatalf("NoMerge must keep all records: %d", len(bi.extents))
	}
	if bi.bytes != 24 {
		t.Fatalf("bytes = %d, want 24", bi.bytes)
	}
}

func TestInsertEmptyIgnored(t *testing.T) {
	bi := &blockIndex{mode: Overwrite}
	bi.insert(5, nil, 0)
	if len(bi.extents) != 0 {
		t.Fatal("empty insert must be ignored")
	}
}

func TestLookupCoverage(t *testing.T) {
	bi := &blockIndex{mode: Overwrite}
	bi.insert(100, mk(50, 4), 0)
	if _, ok := bi.lookup(100, 50); !ok {
		t.Fatal("full extent lookup must hit")
	}
	if d, ok := bi.lookup(110, 20); !ok || len(d) != 20 || d[0] != 4 {
		t.Fatal("interior lookup must hit")
	}
	if _, ok := bi.lookup(90, 20); ok {
		t.Fatal("partially covered lookup must miss")
	}
	if _, ok := bi.lookup(140, 20); ok {
		t.Fatal("right-overhang lookup must miss")
	}
	if _, ok := bi.lookup(0, 10); ok {
		t.Fatal("uncovered lookup must miss")
	}
}

func TestLookupNoMergeNewestWins(t *testing.T) {
	bi := &blockIndex{mode: NoMerge}
	bi.insert(0, mk(8, 1), 0)
	bi.insert(0, mk(8, 2), 0)
	d, ok := bi.lookup(0, 8)
	if !ok || d[0] != 2 {
		t.Fatalf("NoMerge lookup must serve newest: ok=%v d=%v", ok, d)
	}
}

func TestOverlay(t *testing.T) {
	bi := &blockIndex{mode: Overwrite}
	bi.insert(4, []byte{9, 9}, 0)
	bi.insert(10, []byte{8}, 0)
	dst := mk(12, 0)
	bi.overlay(0, dst)
	want := []byte{0, 0, 0, 0, 9, 9, 0, 0, 0, 0, 8, 0}
	if !bytes.Equal(dst, want) {
		t.Fatalf("overlay = %v, want %v", dst, want)
	}
	// Window not starting at 0.
	dst = mk(4, 0)
	bi.overlay(3, dst)
	want = []byte{0, 9, 9, 0}
	if !bytes.Equal(dst, want) {
		t.Fatalf("offset overlay = %v, want %v", dst, want)
	}
}

func TestOverlayNoMergeOrder(t *testing.T) {
	bi := &blockIndex{mode: NoMerge}
	bi.insert(0, mk(4, 1), 0)
	bi.insert(2, mk(4, 2), 0)
	dst := mk(6, 0)
	bi.overlay(0, dst)
	want := []byte{1, 1, 2, 2, 2, 2}
	if !bytes.Equal(dst, want) {
		t.Fatalf("overlay = %v, want %v", dst, want)
	}
}

func TestBitmapFastMiss(t *testing.T) {
	bi := &blockIndex{mode: Overwrite}
	bi.insert(0, mk(16, 1), 0)
	if bi.mayContain(1<<20, 1<<20+16) {
		t.Fatal("bitmap false positive far away")
	}
	if !bi.mayContain(0, 16) {
		t.Fatal("bitmap false negative")
	}
}

func TestVTracksEarliest(t *testing.T) {
	bi := &blockIndex{mode: Overwrite}
	bi.insert(0, mk(4, 1), 100)
	bi.insert(2, mk(4, 2), 50)
	if bi.extents[0].V != 50 {
		t.Fatalf("V = %v, want earliest 50", bi.extents[0].V)
	}
}

// Property: after arbitrary overwrite-mode inserts, the index equals a
// naive byte-map model, extents are sorted, disjoint and non-adjacent.
func TestInsertOverwriteMatchesModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bi := &blockIndex{mode: Overwrite}
		model := map[uint32]byte{}
		for i := 0; i < 60; i++ {
			off := uint32(rng.Intn(400))
			n := 1 + rng.Intn(40)
			data := make([]byte, n)
			rng.Read(data)
			bi.insert(off, data, 0)
			for j, b := range data {
				model[off+uint32(j)] = b
			}
		}
		// Extents must reproduce the model exactly.
		covered := map[uint32]byte{}
		var total int64
		for i, e := range bi.extents {
			if i > 0 && bi.extents[i-1].End() >= e.Off {
				t.Logf("extents overlap/adjacent at %d", i)
				return false
			}
			for j, b := range e.Data {
				covered[e.Off+uint32(j)] = b
			}
			total += int64(len(e.Data))
		}
		if total != bi.bytes {
			t.Logf("bytes accounting off: %d != %d", total, bi.bytes)
			return false
		}
		if len(covered) != len(model) {
			t.Logf("coverage size %d != %d", len(covered), len(model))
			return false
		}
		for k, v := range model {
			if covered[k] != v {
				t.Logf("byte %d: %d != %d", k, covered[k], v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: XOR-mode index equals a naive XOR byte model.
func TestInsertXorMatchesModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bi := &blockIndex{mode: XorFold}
		model := map[uint32]byte{}
		for i := 0; i < 60; i++ {
			off := uint32(rng.Intn(300))
			n := 1 + rng.Intn(30)
			data := make([]byte, n)
			rng.Read(data)
			bi.insert(off, data, 0)
			for j, b := range data {
				model[off+uint32(j)] ^= b
			}
		}
		for _, e := range bi.extents {
			for j, b := range e.Data {
				if model[e.Off+uint32(j)] != b {
					return false
				}
				delete(model, e.Off+uint32(j))
			}
		}
		// Whatever remains in the model must be zero bytes (XOR of
		// overlaps can cancel, but the extent still covers them).
		for _, v := range model {
			if v != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: extents remain sorted after random inserts in merge modes.
func TestExtentsSortedInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, mode := range []MergeMode{Overwrite, XorFold} {
		bi := &blockIndex{mode: mode}
		for i := 0; i < 500; i++ {
			bi.insert(uint32(rng.Intn(10000)), mk(1+rng.Intn(100), byte(i)), 0)
		}
		if !sort.SliceIsSorted(bi.extents, func(i, j int) bool { return bi.extents[i].Off < bi.extents[j].Off }) {
			t.Fatalf("%v: extents unsorted", mode)
		}
	}
}

func TestMergeModeString(t *testing.T) {
	for m, want := range map[MergeMode]string{Overwrite: "overwrite", XorFold: "xorfold", NoMerge: "nomerge"} {
		if m.String() != want {
			t.Fatalf("%v", m)
		}
	}
	if MergeMode(9).String() == "" {
		t.Fatal("unknown mode should stringify")
	}
}

func TestExtentEnd(t *testing.T) {
	e := Extent{Off: 10, Data: mk(5, 0)}
	if e.End() != 15 {
		t.Fatal("End wrong")
	}
}

// diffRange picks the next insert range for TestInsertDifferential:
// inside, straddling or adjacent to an existing extent, or anywhere,
// 512 B-aligned or not, 1 B to 64 KiB long, clipped to span.
func diffRange(rng *rand.Rand, bi *blockIndex, span uint32) (off, n uint32) {
	aligned := rng.Intn(2) == 0
	if aligned {
		n = 512 * uint32(1+rng.Intn(128))
	} else {
		n = 1 + uint32(rng.Intn(1<<rng.Intn(17)))
	}
	off = uint32(rng.Intn(int(span)))
	if len(bi.extents) > 0 {
		e := bi.extents[rng.Intn(len(bi.extents))]
		switch rng.Intn(5) {
		case 0, 1: // inside
			off = e.Off + uint32(rng.Intn(len(e.Data)))
			n = 1 + uint32(rng.Intn(int(e.End()-off)))
			if aligned && e.Off%512 == 0 && len(e.Data) >= 512 {
				off = e.Off + 512*uint32(rng.Intn(len(e.Data)/512))
				n = 512 * uint32(1+rng.Intn(int(e.End()-off)/512))
			}
		case 2: // straddling the end
			inside := 1 + uint32(rng.Intn(min(len(e.Data), int(n))))
			off, n = e.End()-inside, inside+n
		case 3: // adjacent after or before
			if rng.Intn(2) == 0 || e.Off < n {
				off = e.End()
			} else {
				off = e.Off - n
			}
		}
	}
	if off >= span {
		off = span - 1
	}
	return off, min(n, span-off)
}

// TestInsertDifferential checks seeded random insert sequences in both
// merge modes against a flat byte-array model, through overlay and
// lookup, and checks the index invariants: extents sorted, disjoint and
// non-adjacent, bytes equal to their summed length, and each extent's V
// the minimum over the records folded into it.
func TestInsertDifferential(t *testing.T) {
	const span = 256 << 10
	random := make([]byte, 1<<20)
	rand.New(rand.NewSource(0)).Read(random)
	allTrue := make([]bool, span)
	for i := range allTrue {
		allTrue[i] = true
	}
	for _, mode := range []MergeMode{Overwrite, XorFold} {
		for seed := int64(1); seed <= 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			bi := &blockIndex{mode: mode}
			model := make([]byte, span)
			covered := make([]bool, span)
			type rec struct {
				off, end uint32
				v        time.Duration
			}
			var recs []rec
			for i := 0; i < 150; i++ {
				off, n := diffRange(rng, bi, span)
				from := rng.Intn(len(random) - int(n))
				data := random[from : from+int(n)]
				v := time.Duration(rng.Intn(1000))
				bi.insert(off, data, v)
				recs = append(recs, rec{off, off + n, v})
				if mode == XorFold {
					for j, b := range data {
						model[off+uint32(j)] ^= b
					}
				} else {
					copy(model[off:], data)
				}
				copy(covered[off:off+n], allTrue)
			}

			var total int64
			inExtent := make([]bool, span)
			for i, e := range bi.extents {
				if i > 0 && bi.extents[i-1].End() >= e.Off {
					t.Fatalf("%v seed %d: extents %d and %d overlap or touch", mode, seed, i-1, i)
				}
				total += int64(len(e.Data))
				minV := time.Duration(-1)
				for _, r := range recs {
					if r.off >= e.Off && r.end <= e.End() && (minV < 0 || r.v < minV) {
						minV = r.v
					}
				}
				if e.V != minV {
					t.Fatalf("%v seed %d: extent at %d has V %v, want %v", mode, seed, e.Off, e.V, minV)
				}
				copy(inExtent[e.Off:e.End()], allTrue)
			}
			if total != bi.bytes {
				t.Fatalf("%v seed %d: bytes = %d, extents sum to %d", mode, seed, bi.bytes, total)
			}
			if !slices.Equal(inExtent, covered) {
				t.Fatalf("%v seed %d: extents do not cover exactly the inserted bytes", mode, seed)
			}

			// Through overlay: covered bytes read the model, the rest
			// keep the base content. holes[i] counts uncovered bytes
			// below i, for the lookup checks.
			base := random[:span]
			got := append([]byte(nil), base...)
			bi.overlay(0, got)
			holes := make([]int, span+1)
			for i := range got {
				want, hole := base[i], 1
				if covered[i] {
					want, hole = model[i], 0
				}
				if got[i] != want {
					t.Fatalf("%v seed %d: overlay byte %d = %d, want %d", mode, seed, i, got[i], want)
				}
				holes[i+1] = holes[i] + hole
			}
			for q := 0; q < 200; q++ {
				off, n := diffRange(rng, bi, span)
				data, ok := bi.lookup(off, n)
				if full := holes[off+n] == holes[off]; ok != full {
					t.Fatalf("%v seed %d: lookup(%d, %d) hit = %v, want %v", mode, seed, off, n, ok, full)
				}
				if ok && !bytes.Equal(data, model[off:off+n]) {
					t.Fatalf("%v seed %d: lookup(%d, %d) returned stale bytes", mode, seed, off, n)
				}
			}
		}
	}
}

// An update inside one existing extent is applied in place.
func TestInsertInsideExtentAllocatesNothing(t *testing.T) {
	for _, mode := range []MergeMode{Overwrite, XorFold} {
		bi := &blockIndex{mode: mode}
		bi.insert(0, make([]byte, 64<<10), 0)
		data := mk(4096, 7)
		if allocs := testing.AllocsPerRun(100, func() { bi.insert(8192, data, 1) }); allocs != 0 {
			t.Fatalf("%v: %v allocs per inside insert, want 0", mode, allocs)
		}
	}
}
