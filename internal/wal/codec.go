package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/kv"
)

// On-disk framing. Every record in a segment file — and the single
// payload of a checkpoint file — is one frame:
//
//	u32  payload length (little-endian)
//	u32  CRC-32 (IEEE) of the payload
//	payload
//
// A frame whose length runs past the end of the file is a torn tail
// (the process died mid-write); a frame whose CRC does not match is
// corruption. Recovery treats both the same way: the log ends at the
// last frame that verifies, and everything after it is truncated.
//
// A redo-record payload is one committed write-set:
//
//	u64  LSN
//	u32  write count
//	per write: u8 delete flag, u32 key len, key, u32 value len, value
//
// LSNs are assigned contiguously from 1 by the staging latch, so a
// valid log is a gapless ascending LSN sequence; recovery uses that as
// an extra integrity check on top of the CRCs.
const (
	frameHeader = 8
	// maxFrame caps a frame's declared payload length. A torn or
	// corrupt length field is random bytes; without a cap, recovery
	// would trust it and try to allocate gigabytes.
	maxFrame = 1 << 28
)

var crcTable = crc32.IEEETable

// recordSize returns the encoded frame size of a write-set record.
func recordSize(batch []kv.Write) int {
	n := frameHeader + 8 + 4
	for _, w := range batch {
		n += 1 + 4 + len(w.Key) + 4
		if !w.Delete {
			n += len(w.Value)
		}
	}
	return n
}

// appendRecord appends one framed redo record to dst and returns the
// extended slice. Deletes encode an empty value regardless of w.Value.
func appendRecord(dst []byte, lsn uint64, batch []kv.Write) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, recordSize(batch))...)
	p := dst[off+frameHeader:]
	binary.LittleEndian.PutUint64(p[0:], lsn)
	binary.LittleEndian.PutUint32(p[8:], uint32(len(batch)))
	o := 12
	for _, w := range batch {
		if w.Delete {
			p[o] = 1
		} else {
			p[o] = 0
		}
		o++
		binary.LittleEndian.PutUint32(p[o:], uint32(len(w.Key)))
		o += 4
		o += copy(p[o:], w.Key)
		v := w.Value
		if w.Delete {
			v = ""
		}
		binary.LittleEndian.PutUint32(p[o:], uint32(len(v)))
		o += 4
		o += copy(p[o:], v)
	}
	binary.LittleEndian.PutUint32(dst[off:], uint32(len(p)))
	binary.LittleEndian.PutUint32(dst[off+4:], crc32.Checksum(p, crcTable))
	return dst
}

// nextFrame extracts the first frame's payload from b. ok=false with
// err=nil means b is empty (clean end of log); err non-nil means the
// frame is torn or corrupt and the log ends here.
func nextFrame(b []byte) (payload, rest []byte, ok bool, err error) {
	if len(b) == 0 {
		return nil, nil, false, nil
	}
	if len(b) < frameHeader {
		return nil, nil, false, fmt.Errorf("torn frame header: %d trailing bytes", len(b))
	}
	n := binary.LittleEndian.Uint32(b)
	if n > maxFrame {
		return nil, nil, false, fmt.Errorf("frame length %d exceeds cap %d: corrupt header", n, maxFrame)
	}
	if len(b) < frameHeader+int(n) {
		return nil, nil, false, fmt.Errorf("torn frame: header declares %d payload bytes, %d present", n, len(b)-frameHeader)
	}
	payload = b[frameHeader : frameHeader+int(n)]
	if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(b[4:]); got != want {
		return nil, nil, false, fmt.Errorf("frame CRC mismatch: stored %08x, computed %08x", want, got)
	}
	return payload, b[frameHeader+int(n):], true, nil
}

// decodeRecord decodes a redo-record payload produced by appendRecord.
func decodeRecord(p []byte) (lsn uint64, batch []kv.Write, err error) {
	if len(p) < 12 {
		return 0, nil, fmt.Errorf("record payload too short: %d bytes", len(p))
	}
	lsn = binary.LittleEndian.Uint64(p)
	count := int(binary.LittleEndian.Uint32(p[8:]))
	p = p[12:]
	// The count is the payload's own word: trust it only as far as the
	// bytes left can hold writes of at least 9 bytes each.
	batch = make([]kv.Write, 0, min(count, len(p)/9))
	for i := 0; i < count; i++ {
		if len(p) < 5 {
			return 0, nil, fmt.Errorf("record truncated at write %d/%d", i, count)
		}
		del := p[0] == 1
		klen := int(binary.LittleEndian.Uint32(p[1:]))
		p = p[5:]
		if len(p) < klen+4 {
			return 0, nil, fmt.Errorf("record key truncated at write %d/%d", i, count)
		}
		key := string(p[:klen])
		vlen := int(binary.LittleEndian.Uint32(p[klen:]))
		p = p[klen+4:]
		if len(p) < vlen {
			return 0, nil, fmt.Errorf("record value truncated at write %d/%d", i, count)
		}
		batch = append(batch, kv.Write{Key: key, Value: string(p[:vlen]), Delete: del})
		p = p[vlen:]
	}
	if len(p) != 0 {
		return 0, nil, fmt.Errorf("record has %d trailing bytes", len(p))
	}
	return lsn, batch, nil
}

// Checkpoint files are ckptMagic followed by one frame whose payload
// is the store image the log can be replayed on top of:
//
//	u64  checkpoint LSN (every record with LSN ≤ this is reflected)
//	u64  entry count
//	per entry: u32 key len, key, u32 value len, value
var ckptMagic = []byte("LCKP")

// encodeCheckpoint builds a complete checkpoint file image.
func encodeCheckpoint(lsn uint64, entries []kv.KV) []byte {
	n := 8 + 8
	for _, e := range entries {
		n += 4 + len(e.Key) + 4 + len(e.Value)
	}
	p := make([]byte, n)
	binary.LittleEndian.PutUint64(p, lsn)
	binary.LittleEndian.PutUint64(p[8:], uint64(len(entries)))
	o := 16
	for _, e := range entries {
		binary.LittleEndian.PutUint32(p[o:], uint32(len(e.Key)))
		o += 4
		o += copy(p[o:], e.Key)
		binary.LittleEndian.PutUint32(p[o:], uint32(len(e.Value)))
		o += 4
		o += copy(p[o:], e.Value)
	}
	out := make([]byte, 0, len(ckptMagic)+frameHeader+len(p))
	out = append(out, ckptMagic...)
	var h [frameHeader]byte
	binary.LittleEndian.PutUint32(h[0:], uint32(len(p)))
	binary.LittleEndian.PutUint32(h[4:], crc32.Checksum(p, crcTable))
	out = append(out, h[:]...)
	return append(out, p...)
}

// decodeCheckpoint parses and verifies a checkpoint file image.
func decodeCheckpoint(b []byte) (lsn uint64, entries []kv.KV, err error) {
	if len(b) < len(ckptMagic) || string(b[:len(ckptMagic)]) != string(ckptMagic) {
		return 0, nil, fmt.Errorf("checkpoint magic missing")
	}
	p, rest, ok, err := nextFrame(b[len(ckptMagic):])
	if err != nil || !ok {
		if err == nil {
			err = fmt.Errorf("checkpoint has no payload frame")
		}
		return 0, nil, err
	}
	if len(rest) != 0 {
		return 0, nil, fmt.Errorf("checkpoint has %d trailing bytes", len(rest))
	}
	if len(p) < 16 {
		return 0, nil, fmt.Errorf("checkpoint payload too short: %d bytes", len(p))
	}
	lsn = binary.LittleEndian.Uint64(p)
	count := binary.LittleEndian.Uint64(p[8:])
	p = p[16:]
	// As in decodeRecord: an entry is at least 8 bytes.
	entries = make([]kv.KV, 0, min(count, uint64(len(p)/8)))
	for i := uint64(0); i < count; i++ {
		if len(p) < 4 {
			return 0, nil, fmt.Errorf("checkpoint truncated at entry %d/%d", i, count)
		}
		klen := int(binary.LittleEndian.Uint32(p))
		p = p[4:]
		if len(p) < klen+4 {
			return 0, nil, fmt.Errorf("checkpoint key truncated at entry %d/%d", i, count)
		}
		key := string(p[:klen])
		vlen := int(binary.LittleEndian.Uint32(p[klen:]))
		p = p[klen+4:]
		if len(p) < vlen {
			return 0, nil, fmt.Errorf("checkpoint value truncated at entry %d/%d", i, count)
		}
		entries = append(entries, kv.KV{Key: key, Value: string(p[:vlen])})
		p = p[vlen:]
	}
	if len(p) != 0 {
		return 0, nil, fmt.Errorf("checkpoint has %d trailing payload bytes", len(p))
	}
	return lsn, entries, nil
}
