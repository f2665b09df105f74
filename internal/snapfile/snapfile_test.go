package snapfile

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const (
	testKind    = 0x74534554 // "TEST"
	testVersion = 3
)

// writeContainer writes a representative container — meta words, an
// odd-length section (exercises padding), an empty section and a
// word-aligned section — and returns its path.
func writeContainer(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "c.snap")
	meta := []uint64{1, 0xdeadbeef, 1 << 60}
	sections := [][]byte{
		[]byte("odd-length payload!"),
		nil,
		AsBytes64([]int64{-1, 0, 42, 1 << 50}),
	}
	if err := Write(path, testKind, testVersion, meta, sections); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return path
}

func TestRoundTrip(t *testing.T) {
	path := writeContainer(t)
	f, err := Open(path, testKind, testVersion)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if len(f.Meta) != 3 || f.Meta[0] != 1 || f.Meta[1] != 0xdeadbeef || f.Meta[2] != 1<<60 {
		t.Fatalf("meta = %v", f.Meta)
	}
	if f.NumSections() != 3 {
		t.Fatalf("sections = %d, want 3", f.NumSections())
	}
	if got := string(f.Section(0)); got != "odd-length payload!" {
		t.Fatalf("section 0 = %q", got)
	}
	if len(f.Section(1)) != 0 {
		t.Fatalf("empty section came back %d bytes", len(f.Section(1)))
	}
	xs, err := Int64s(f.Section(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) != 4 || xs[0] != -1 || xs[3] != 1<<50 {
		t.Fatalf("int64 section = %v", xs)
	}
	// No temp files may survive a successful publish.
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("directory holds %d entries after Write, want just the snapshot", len(ents))
	}
}

func TestOpenRejectsWrongKindAndVersion(t *testing.T) {
	path := writeContainer(t)
	if _, err := Open(path, testKind+1, testVersion); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Fatalf("wrong kind: err = %v", err)
	}
	if _, err := Open(path, testKind, testVersion+1); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("wrong version: err = %v", err)
	}
}

// TestOpenRejectsEveryByteFlip flips each byte of the container in turn
// and asserts Open fails every time: magic, header fields, meta, table,
// payload and even the zero padding are all covered by a check.
func TestOpenRejectsEveryByteFlip(t *testing.T) {
	path := writeContainer(t)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mut := filepath.Join(t.TempDir(), "mut.snap")
	for i := range orig {
		buf := append([]byte(nil), orig...)
		buf[i] ^= 0x40
		if err := os.WriteFile(mut, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(mut, testKind, testVersion); err == nil {
			t.Fatalf("flipping byte %d of %d went undetected", i, len(orig))
		}
	}
}

// TestOpenRejectsTruncation chops the container at every 8-byte
// boundary (and one unaligned length) and asserts Open fails.
func TestOpenRejectsTruncation(t *testing.T) {
	path := writeContainer(t)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mut := filepath.Join(t.TempDir(), "trunc.snap")
	lengths := []int{0, 7, 8, headerSize - 8, headerSize, len(orig) - 8, len(orig) - 3}
	for n := headerSize; n < len(orig); n += 8 {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		if err := os.WriteFile(mut, orig[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(mut, testKind, testVersion); err == nil {
			t.Fatalf("truncation to %d of %d bytes went undetected", n, len(orig))
		}
	}
}

func TestTypedViewsRejectRaggedSections(t *testing.T) {
	if _, err := Int32s(make([]byte, 6)); err == nil {
		t.Error("Int32s accepted a 6-byte section")
	}
	if _, err := Int64s(make([]byte, 12)); err == nil {
		t.Error("Int64s accepted a 12-byte section")
	}
}

func TestViewRoundTrip(t *testing.T) {
	xs32 := []int32{-5, 0, 7, 1 << 30}
	got32, err := Int32s(AsBytes32(xs32))
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs32 {
		if got32[i] != xs32[i] {
			t.Fatalf("int32 view round trip: %v -> %v", xs32, got32)
		}
	}
	xs64 := []int64{-5, 0, 7, 1 << 60}
	got64, err := Int64s(AsBytes64(xs64))
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs64 {
		if got64[i] != xs64[i] {
			t.Fatalf("int64 view round trip: %v -> %v", xs64, got64)
		}
	}
}

// TestRejectedOpenReleasesMapping: Open maps a file before verifying
// it, so every rejection must unmap again. 200 opens of a corrupt file
// may not leave 200 mappings behind.
func TestRejectedOpenReleasesMapping(t *testing.T) {
	mapCount := func() int {
		b, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Skipf("no /proc/self/maps: %v", err)
		}
		return strings.Count(string(b), "\n")
	}
	path := writeContainer(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x40 // payload byte: only the checksum catches it
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	before := mapCount()
	for i := 0; i < 200; i++ {
		if _, err := Open(path, testKind, testVersion); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("open %d of the corrupt file: err = %v, want a checksum mismatch", i, err)
		}
	}
	if grew := mapCount() - before; grew >= 10 {
		t.Fatalf("200 rejected opens grew the process's mappings by %d, want < 10", grew)
	}
}
