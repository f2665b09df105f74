package snapfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
)

// Record streams are snapfile's append-only sibling of the sealed
// container: a small versioned header followed by a sequence of framed,
// individually checksummed records. Where a container is written once
// and verified whole, a record segment grows one record at a time and
// is expected to end mid-record after a crash — so verification is a
// prefix property: ScanRecords returns every record up to (and
// excluding) the first frame that is truncated, corrupt or implausible,
// and reports how the scan ended. The job ledger (internal/jobstore)
// builds its write-ahead log on exactly this contract.
//
// Frame layout, all little-endian, 8-byte aligned:
//
//	u32 body length (unpadded)
//	u32 zero (reserved; non-zero rejects the frame)
//	u64 checksum over the zero-padded body, seeded with the length
//	body, zero-padded to a multiple of 8
//
// The checksum covers the padding too, so a flipped byte anywhere in a
// frame — length, reserved word, body or pad — invalidates that frame
// and ends the scan there: replay never resurrects a half-written or
// bit-rotten record, and never skips over one either.

// recMagic identifies a record segment; the trailing digits version the
// framing, so layout changes make old readers fail loudly on new files.
const recMagic = "SNAPR001"

// recHeaderSize is the segment header: magic (8) + kind (4) +
// kindVersion (4).
const recHeaderSize = 16

// frameHeaderSize is the per-record frame prefix: body length (4) +
// reserved zero (4) + checksum (8).
const frameHeaderSize = 16

// MaxRecordBytes caps one record's body. A frame whose length field
// exceeds it is treated as corruption (the scan ends), and Append
// rejects oversized bodies before writing anything.
const MaxRecordBytes = 64 << 20

// recChecksumSeed separates record-frame checksum chains from container
// checksums and graph fingerprints that share the same mixer.
const recChecksumSeed = 0x4a0b5bed_c0ffee01

// ErrRecordTooLarge is returned by Append for bodies over MaxRecordBytes.
var ErrRecordTooLarge = errors.New("snapfile: record exceeds MaxRecordBytes")

// frameChecksum sums one frame: the body length is folded into the seed
// so a corrupted length cannot pair with an honest body, then the
// padded body is chained through the splitmix64 mixer.
func frameChecksum(bodyLen int, padded []byte) uint64 {
	return mixSum64(mix64(recChecksumSeed^uint64(bodyLen)), padded)
}

// RecordWriter appends framed records to one segment file. It is not
// safe for concurrent use; the owning store serializes appends.
type RecordWriter struct {
	f    *os.File
	path string
	size int64
}

// CreateRecords creates a new record segment at path (failing if it
// already exists — segments are never reopened for append, a restart
// rotates to a fresh one) and writes its header.
func CreateRecords(path string, kind, kindVersion uint32) (*RecordWriter, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("snapfile: creating record segment: %w", err)
	}
	var hdr [recHeaderSize]byte
	copy(hdr[:], recMagic)
	binary.LittleEndian.PutUint32(hdr[8:], kind)
	binary.LittleEndian.PutUint32(hdr[12:], kindVersion)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("snapfile: writing segment header: %w", err)
	}
	return &RecordWriter{f: f, path: path, size: recHeaderSize}, nil
}

// Size returns the bytes written so far, header included — the
// rotation trigger of the segment's owner.
func (w *RecordWriter) Size() int64 { return w.size }

// Path returns the segment's file path.
func (w *RecordWriter) Path() string { return w.path }

// Append frames body and writes it to the segment with one write call,
// so a crash leaves at most one torn frame at the tail (which the
// scanner's checksum rejects). The body is copied before the call
// returns; the caller may reuse it.
func (w *RecordWriter) Append(body []byte) error {
	if len(body) > MaxRecordBytes {
		return fmt.Errorf("%w (%d bytes)", ErrRecordTooLarge, len(body))
	}
	padded := align8(int64(len(body)))
	frame := make([]byte, frameHeaderSize+padded)
	binary.LittleEndian.PutUint32(frame, uint32(len(body)))
	copy(frame[frameHeaderSize:], body)
	binary.LittleEndian.PutUint64(frame[8:], frameChecksum(len(body), frame[frameHeaderSize:]))
	n, err := w.f.Write(frame)
	w.size += int64(n)
	if err != nil {
		return fmt.Errorf("snapfile: appending record: %w", err)
	}
	return nil
}

// Sync flushes the segment to stable storage.
func (w *RecordWriter) Sync() error { return w.f.Sync() }

// Close syncs and closes the segment file.
func (w *RecordWriter) Close() error {
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// ScanResult describes how a record scan ended, alongside the records
// it recovered.
type ScanResult struct {
	// Records are the verified record bodies, in append order. Each is a
	// private copy; the segment file can be deleted afterwards.
	Records [][]byte
	// Clean reports that the segment ended exactly on a frame boundary.
	// False means the tail was truncated or corrupt: Tail says why, and
	// Records holds the longest valid prefix.
	Clean bool
	// Tail is empty for a clean scan, otherwise a one-line diagnosis of
	// the first bad frame ("truncated frame", "checksum mismatch", ...).
	Tail string
	// Bytes is the verified prefix length in bytes (header included) —
	// where an append-after-recovery would resume if segments were
	// reopened (they are not; the owner rotates instead).
	Bytes int64
}

// ScanRecords opens the segment at path and returns every record of its
// longest valid prefix. Only the segment header is mandatory: a missing
// or misheadered file is an error, while any defect after the header —
// truncation mid-frame, a flipped byte, an implausible length — merely
// ends the scan early with Clean=false. The caller decides whether a
// dirty tail is a crash artifact (expected; rotate and move on) or a
// reason to alarm.
func ScanRecords(path string, kind, kindVersion uint32) (*ScanResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < recHeaderSize {
		return nil, fmt.Errorf("snapfile: %s is %d bytes, smaller than the %d-byte segment header", path, len(data), recHeaderSize)
	}
	if string(data[:8]) != recMagic {
		return nil, fmt.Errorf("snapfile: %s: bad record-segment magic %q (want %q)", path, data[:8], recMagic)
	}
	if k := binary.LittleEndian.Uint32(data[8:]); k != kind {
		return nil, fmt.Errorf("snapfile: %s: kind %#x, want %#x", path, k, kind)
	}
	if v := binary.LittleEndian.Uint32(data[12:]); v != kindVersion {
		return nil, fmt.Errorf("snapfile: %s: record format version %d, want %d", path, v, kindVersion)
	}
	res := &ScanResult{Clean: true, Bytes: recHeaderSize}
	off := int64(recHeaderSize)
	size := int64(len(data))
	stop := func(why string) (*ScanResult, error) {
		res.Clean = false
		res.Tail = why
		return res, nil
	}
	for off < size {
		if size-off < frameHeaderSize {
			return stop("truncated frame header")
		}
		bodyLen := int64(binary.LittleEndian.Uint32(data[off:]))
		reserved := binary.LittleEndian.Uint32(data[off+4:])
		want := binary.LittleEndian.Uint64(data[off+8:])
		if reserved != 0 {
			return stop("nonzero reserved word")
		}
		if bodyLen > MaxRecordBytes {
			return stop("implausible record length")
		}
		padded := align8(bodyLen)
		if size-off-frameHeaderSize < padded {
			return stop("truncated record body")
		}
		body := data[off+frameHeaderSize : off+frameHeaderSize+padded]
		if frameChecksum(int(bodyLen), body) != want {
			return stop("checksum mismatch")
		}
		res.Records = append(res.Records, append([]byte(nil), body[:bodyLen]...))
		off += frameHeaderSize + padded
		res.Bytes = off
	}
	return res, nil
}
