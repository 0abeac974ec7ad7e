package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/golc"
	"repro/internal/kv"
)

// frame wraps payload in a frame whose CRC verifies.
func frame(payload []byte) []byte {
	b := make([]byte, frameHeader, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(b, uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:], crc32.Checksum(payload, crcTable))
	return append(b, payload...)
}

// hugeCountCheckpoint is a 28-byte checkpoint image whose CRC verifies
// and whose entry count is 2^64-1, with no entries.
func hugeCountCheckpoint() []byte {
	p := make([]byte, 16)
	binary.LittleEndian.PutUint64(p, 7)
	binary.LittleEndian.PutUint64(p[8:], ^uint64(0))
	return append(slices.Clone(ckptMagic), frame(p)...)
}

// hugeCountRecord is a framed 12-byte record payload whose write count
// is 2^26, with no writes.
func hugeCountRecord() []byte {
	p := make([]byte, 12)
	binary.LittleEndian.PutUint64(p, 1)
	binary.LittleEndian.PutUint32(p[8:], 1<<26)
	return frame(p)
}

// TestDecodeHugeCountCheckpoint: a checkpoint whose count the payload
// cannot hold is corrupt, and Open says so instead of panicking.
func TestDecodeHugeCountCheckpoint(t *testing.T) {
	img := hugeCountCheckpoint()
	if len(img) != 28 {
		t.Fatalf("image is %d bytes, want 28", len(img))
	}
	if _, _, err := decodeCheckpoint(img); err == nil {
		t.Fatal("decodeCheckpoint accepted an image with no room for its entries")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ckptName), img, 0o644); err != nil {
		t.Fatal(err)
	}
	rt := testRuntime(t)
	_, _, err := Open(Options{Dir: dir, Runtime: rt, Policy: golc.Block}, testStore(rt))
	if err == nil || !strings.Contains(err.Error(), "wal: checkpoint corrupt") {
		t.Fatalf("Open = %v, want a checkpoint-corrupt error", err)
	}
}

// TestDecodeHugeCountRecord: a record whose count the payload cannot
// hold is truncated, and decoding it allocates no more than the payload
// could need.
func TestDecodeHugeCountRecord(t *testing.T) {
	payload, _, ok, err := nextFrame(hugeCountRecord())
	if !ok || err != nil {
		t.Fatalf("nextFrame: ok=%v err=%v", ok, err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err = decodeRecord(payload)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("decodeRecord = %v, want a truncation error", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("decoding a 12-byte payload allocated %d bytes", n)
	}
}

// pairsOf splits data at zero bytes into (key, value) pairs: the fuzzer's
// bytes as a write-set or a store image. An empty value makes the write
// a delete, which encodes no value.
func pairsOf(data []byte) []kv.Write {
	parts := bytes.Split(data, []byte{0})
	var batch []kv.Write
	for i := 0; i+1 < len(parts); i += 2 {
		k, v := string(parts[i]), string(parts[i+1])
		batch = append(batch, kv.Write{Key: k, Value: v, Delete: v == ""})
	}
	return batch
}

// FuzzWALDecode: the decoders never panic on any bytes, whether read as
// a segment (a run of frames, each a redo record) or as a checkpoint
// file, and what the encoders write decodes to what they were given.
// testdata/fuzz/FuzzWALDecode holds the inputs of the two regression
// tests above, so every plain go test runs them here too.
func FuzzWALDecode(f *testing.F) {
	f.Add(appendRecord(nil, 3, put("k", "v")))
	f.Add(encodeCheckpoint(9, []kv.KV{{Key: "k", Value: "v"}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		for rest := data; ; {
			payload, next, ok, err := nextFrame(rest)
			if !ok || err != nil {
				break
			}
			decodeRecord(payload)
			rest = next
		}
		decodeCheckpoint(data)

		batch := pairsOf(data)
		payload, rest, ok, err := nextFrame(appendRecord(nil, 5, batch))
		if !ok || err != nil || len(rest) != 0 {
			t.Fatalf("own record: ok=%v rest=%d err=%v", ok, len(rest), err)
		}
		lsn, got, err := decodeRecord(payload)
		if err != nil || lsn != 5 || !slices.Equal(got, batch) {
			t.Fatalf("record round trip: lsn=%d err=%v\n got %+v\nwant %+v", lsn, err, got, batch)
		}
		var entries []kv.KV
		for _, w := range batch {
			entries = append(entries, kv.KV{Key: w.Key, Value: w.Value})
		}
		lsn, gotEntries, err := decodeCheckpoint(encodeCheckpoint(6, entries))
		if err != nil || lsn != 6 || !slices.Equal(gotEntries, entries) {
			t.Fatalf("checkpoint round trip: lsn=%d err=%v\n got %+v\nwant %+v", lsn, err, gotEntries, entries)
		}
	})
}
