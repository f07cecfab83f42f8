package mdslog

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/wire"
)

// frameRecord renders one framed record the way Append lays it down.
func frameRecord(t testing.TB, r Record) []byte {
	t.Helper()
	payload, err := encodeRecord(r)
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	rec[8] = byte(r.Kind)
	copy(rec[frameHeader:], payload)
	binary.LittleEndian.PutUint32(rec[4:8], crc32.Checksum(rec[8:], castagnoli))
	return rec
}

func validLogBytes(t testing.TB) []byte {
	t.Helper()
	var b []byte
	for _, r := range sampleRecords() {
		b = append(b, frameRecord(t, r)...)
	}
	return b
}

// FuzzMDSLogReplay feeds arbitrary bytes to the op-log scanner as a
// crash-left log file. Whatever the corruption, Open must not error or
// panic, must recover only a committed prefix (every returned record
// re-encodes to the exact bytes it was decoded from, in order, from
// offset zero), must truncate the file to that prefix, and a second
// Open must see exactly the same records — no unacked mutation can be
// resurrected by replaying garbage.
func FuzzMDSLogReplay(f *testing.F) {
	valid := validLogBytes(f)
	f.Add(valid)                 // clean log
	f.Add(valid[:len(valid)-3])  // torn tail mid-record
	f.Add([]byte{})              // empty file
	f.Add(valid[:frameHeader-2]) // short header
	bitflip := bytes.Clone(valid)
	bitflip[len(bitflip)/2] ^= 0x40 // corrupt a byte in the middle
	f.Add(bitflip)
	huge := make([]byte, frameHeader)
	binary.LittleEndian.PutUint32(huge[0:4], 1<<30) // implausible length
	f.Add(huge)
	zeroKind := bytes.Clone(frameRecord(f, Record{Kind: KindAddNode, Node: 3}))
	zeroKind[8] = 0 // CRC now wrong too, but exercise the kind path
	f.Add(zeroKind)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "oplog.bin"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, st, recs, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open on corrupt log errored: %v", err)
		}
		if st != nil {
			t.Fatalf("no snapshot on disk, got state %+v", st)
		}
		tail := l.Size()
		if tail < 0 || tail > int64(len(data)) {
			t.Fatalf("recovered tail %d out of range [0, %d]", tail, len(data))
		}
		// The recovered records must be exactly the committed prefix:
		// re-encoding and re-framing them reproduces data[:tail].
		var refr []byte
		for _, r := range recs {
			refr = append(refr, frameRecord(t, r)...)
		}
		if int64(len(refr)) != tail || !bytes.Equal(refr, data[:tail]) {
			t.Fatalf("recovered records do not re-encode to the committed prefix (%d records, tail %d)", len(recs), tail)
		}
		// The file was truncated to the committed prefix.
		if info, err := os.Stat(filepath.Join(dir, "oplog.bin")); err != nil || info.Size() != tail {
			t.Fatalf("log file size %v (err %v), want %d", info, err, tail)
		}
		// The log stays usable: an append after recovery commits.
		if err := l.Append(Record{Kind: KindAddNode, Node: wire.NodeID(7)}); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		l.Close()

		// Recovery is deterministic: reopening yields the prefix plus
		// the one appended record.
		_, _, recs2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("second Open errored: %v", err)
		}
		if len(recs2) != len(recs)+1 {
			t.Fatalf("second Open saw %d records, want %d", len(recs2), len(recs)+1)
		}
		if !reflect.DeepEqual(recs2[:len(recs)], recs) && len(recs) > 0 {
			t.Fatal("second Open disagreed about the committed prefix")
		}
	})
}
