// Package snapfile is the on-disk container format shared by every
// artifact snapshot in this repository: a small versioned header, a
// list of u64 metadata words, and a list of 8-byte-aligned binary
// sections, the whole payload covered by a 64-bit checksum.
//
// The container makes three promises its consumers (the graph CSR
// codec, the partition codec, the engine's disk cache tier) build on:
//
//   - writes are atomic: the file is written to a temporary name in
//     the destination directory and renamed into place, so a reader —
//     even one in another process sharing the directory — only ever
//     observes complete files, never torn ones;
//   - corruption is detected, not served: Open verifies the magic,
//     the container version, the caller's kind/kindVersion pair, every
//     section bound, and the payload checksum before returning; a
//     truncated file, a flipped byte or a stale format all surface as
//     an error the caller turns into a cache miss;
//   - reads are zero-copy where the platform allows: on unix the file
//     is mmapped and sections alias the mapping (file-backed read-only
//     pages the kernel can reclaim under pressure), elsewhere — or
//     when mapping fails — the payload is read with one ReadFull into
//     a fresh 8-byte-aligned arena.
//
// All integers are little-endian. Big-endian hosts transparently take
// the copying decode path, so the format is portable even though the
// fast path reinterprets bytes in place.
package snapfile

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
)

// magic identifies a snapfile container; the trailing digits are the
// container version — bumping the layout changes the magic, so an old
// reader rejects a new file with "bad magic" instead of misparsing it.
const magic = "SNAPF001"

// headerSize is the fixed prefix: magic (8) + kind (4) + kindVersion
// (4) + metaCount (4) + sectionCount (4) + payload checksum (8).
const headerSize = 32

// Limits keep a corrupt header from demanding absurd allocations
// before the checksum has had a chance to reject the file.
const (
	maxMetaWords   = 1 << 10
	maxSections    = 1 << 10
	maxSectionSize = int64(1) << 40
)

// File is one opened container. Sections alias an mmapped region or a
// private arena; either way they are read-only and remain valid for
// the lifetime of the process (snapfile never unmaps — see Open).
type File struct {
	// Meta is the writer's metadata words, verbatim.
	Meta []uint64
	// Mapped reports whether the sections alias an mmap region (true)
	// or a private heap arena (false) — a diagnostic, not a semantic
	// difference.
	Mapped bool

	sections [][]byte
}

// NumSections returns the number of payload sections.
func (f *File) NumSections() int { return len(f.sections) }

// Section returns the i-th payload section. The bytes are read-only:
// they may alias a shared file mapping.
func (f *File) Section(i int) []byte { return f.sections[i] }

// align8 rounds n up to the next multiple of 8.
func align8(n int64) int64 { return (n + 7) &^ 7 }

// mixSum64 is the payload checksum: a running splitmix64 chain over
// the payload's 8-byte words. Order-dependent (a swapped pair of words
// changes the sum) and full-avalanche per word, which is exactly what
// detecting truncation, bit flips and block swaps needs; it makes no
// cryptographic claims.
func mixSum64(h uint64, b []byte) uint64 {
	for len(b) >= 8 {
		h = mix64(h ^ binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	if len(b) > 0 {
		var tail [8]byte
		copy(tail[:], b)
		h = mix64(h ^ binary.LittleEndian.Uint64(tail[:]))
	}
	return h
}

// mix64 is the splitmix64 finalizer (the same bijection package graph
// uses for fingerprints).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// checksumSeed distinguishes a snapfile checksum chain from the graph
// fingerprint chains that use the same mixer.
const checksumSeed = 0x5eedc0de5eedc0de

// encode renders the container into one contiguous buffer.
func encode(kind, kindVersion uint32, meta []uint64, sections [][]byte) ([]byte, error) {
	if len(meta) > maxMetaWords {
		return nil, fmt.Errorf("snapfile: %d meta words exceed the format cap %d", len(meta), maxMetaWords)
	}
	if len(sections) > maxSections {
		return nil, fmt.Errorf("snapfile: %d sections exceed the format cap %d", len(sections), maxSections)
	}
	// Layout: header, meta words, section table ({offset,length} pairs),
	// then the sections themselves, each 8-byte aligned and zero-padded.
	tableOff := int64(headerSize) + int64(len(meta))*8
	payloadOff := tableOff + int64(len(sections))*16
	off := payloadOff
	offsets := make([]int64, len(sections))
	for i, s := range sections {
		if int64(len(s)) > maxSectionSize {
			return nil, fmt.Errorf("snapfile: section %d is %d bytes, beyond the format cap", i, len(s))
		}
		offsets[i] = off
		off += align8(int64(len(s)))
	}
	buf := make([]byte, off)
	copy(buf, magic)
	binary.LittleEndian.PutUint32(buf[8:], kind)
	binary.LittleEndian.PutUint32(buf[12:], kindVersion)
	binary.LittleEndian.PutUint32(buf[16:], uint32(len(meta)))
	binary.LittleEndian.PutUint32(buf[20:], uint32(len(sections)))
	for i, w := range meta {
		binary.LittleEndian.PutUint64(buf[headerSize+8*i:], w)
	}
	for i, s := range sections {
		binary.LittleEndian.PutUint64(buf[tableOff+16*int64(i):], uint64(offsets[i]))
		binary.LittleEndian.PutUint64(buf[tableOff+16*int64(i)+8:], uint64(len(s)))
		copy(buf[offsets[i]:], s)
	}
	// The checksum covers everything after the header — meta words,
	// section table, payload and padding — so any post-header corruption
	// is caught by one sequential pass at open time.
	binary.LittleEndian.PutUint64(buf[24:], mixSum64(checksumSeed, buf[headerSize:]))
	return buf, nil
}

// Write atomically writes a container to path: the encoded bytes go to
// a temporary file in the destination directory, are synced, and are
// renamed into place. Concurrent writers of the same path race benignly
// (last rename wins; both files were complete); concurrent readers
// never observe a partial file.
func Write(path string, kind, kindVersion uint32, meta []uint64, sections [][]byte) error {
	buf, err := encode(kind, kindVersion, meta, sections)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snap-*.tmp")
	if err != nil {
		return fmt.Errorf("snapfile: creating temp file in %s: %w", dir, err)
	}
	tmpName := tmp.Name()
	// Any failure from here on removes the temp file: a half-written
	// temp must never survive to be mistaken for an artifact.
	fail := func(e error) error {
		tmp.Close()
		os.Remove(tmpName)
		return e
	}
	if _, err := tmp.Write(buf); err != nil {
		return fail(fmt.Errorf("snapfile: writing %s: %w", path, err))
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("snapfile: syncing %s: %w", path, err))
	}
	if err := tmp.Close(); err != nil {
		return fail(fmt.Errorf("snapfile: closing %s: %w", path, err))
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("snapfile: publishing %s: %w", path, err)
	}
	return nil
}

// Open maps (or reads) the container at path and verifies it end to
// end: magic, container version, the expected kind/kindVersion, header
// sanity, section bounds and the payload checksum. Any mismatch is an
// error; a verified File never lies about its contents.
//
// The returned sections stay valid for the life of the process: when
// a verified file was mmapped the mapping is deliberately never
// unmapped, because snapshot consumers (the engine's artifact cache)
// hand the aliasing slices to long-lived immutable values whose
// lifetime no single caller controls. A rejected file's mapping is
// released before Open returns. The cost is one VMA per open mapping;
// the pages themselves are file-backed, read-only and reclaimable by
// the kernel, so resident memory tracks actual use, not mapping count.
func Open(path string, kind, kindVersion uint32) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("snapfile: stat %s: %w", path, err)
	}
	size := st.Size()
	if size < headerSize {
		return nil, fmt.Errorf("snapfile: %s is %d bytes, smaller than the %d-byte header (truncated?)", path, size, headerSize)
	}
	if size%8 != 0 {
		return nil, fmt.Errorf("snapfile: %s has unaligned size %d (truncated?)", path, size)
	}

	data, mapped, err := readOrMap(f, size)
	if err != nil {
		return nil, fmt.Errorf("snapfile: reading %s: %w", path, err)
	}
	// A rejected file must not keep its mapping: only a verified File's
	// sections are handed out. The error is formatted first, since its
	// arguments may alias the mapping.
	reject := func(format string, args ...any) (*File, error) {
		err := fmt.Errorf(format, args...)
		if mapped {
			munmap(data)
		}
		return nil, err
	}

	if string(data[:8]) != magic {
		return reject("snapfile: %s: bad magic %q (want %q)", path, data[:8], magic)
	}
	if k := binary.LittleEndian.Uint32(data[8:]); k != kind {
		return reject("snapfile: %s: kind %#x, want %#x", path, k, kind)
	}
	if v := binary.LittleEndian.Uint32(data[12:]); v != kindVersion {
		return reject("snapfile: %s: format version %d, want %d", path, v, kindVersion)
	}
	nMeta := int64(binary.LittleEndian.Uint32(data[16:]))
	nSec := int64(binary.LittleEndian.Uint32(data[20:]))
	if nMeta > maxMetaWords || nSec > maxSections {
		return reject("snapfile: %s: implausible header (%d meta words, %d sections)", path, nMeta, nSec)
	}
	tableOff := int64(headerSize) + nMeta*8
	payloadOff := tableOff + nSec*16
	if payloadOff > size {
		return reject("snapfile: %s: header needs %d bytes but file has %d (truncated?)", path, payloadOff, size)
	}
	if want, got := binary.LittleEndian.Uint64(data[24:]), mixSum64(checksumSeed, data[headerSize:]); want != got {
		return reject("snapfile: %s: checksum mismatch (stored %016x, computed %016x) — corrupt or tampered", path, want, got)
	}

	out := &File{Meta: make([]uint64, nMeta), Mapped: mapped, sections: make([][]byte, nSec)}
	for i := int64(0); i < nMeta; i++ {
		out.Meta[i] = binary.LittleEndian.Uint64(data[headerSize+8*i:])
	}
	for i := int64(0); i < nSec; i++ {
		off := int64(binary.LittleEndian.Uint64(data[tableOff+16*i:]))
		length := int64(binary.LittleEndian.Uint64(data[tableOff+16*i+8:]))
		if off < payloadOff || off%8 != 0 || length < 0 || length > maxSectionSize || off+length > size {
			return reject("snapfile: %s: section %d [%d, %d+%d) out of bounds", path, i, off, off, length)
		}
		out.sections[i] = data[off : off+length : off+length]
	}
	return out, nil
}

// readOrMap produces the file's contents: an mmap view when the
// platform supports it, otherwise one ReadFull into a fresh 8-byte-
// aligned arena (a []uint64 reinterpreted, so typed zero-copy views of
// the sections stay correctly aligned either way).
func readOrMap(f *os.File, size int64) (data []byte, mapped bool, err error) {
	if b, err := mmapFile(f, size); err == nil {
		return b, true, nil
	}
	buf, err := readAligned(f, size)
	return buf, false, err
}
