package snapfile

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"unsafe"
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

// TestBigEndianViews runs the copying branches every big-endian host
// takes, by pretending this host is one. Values round-trip through
// AsBytes32/AsBytes64, a written-then-opened container and
// Int32s/Int64s; the copying encoders must write the bytes the
// little-endian views alias, and the copying decoders must return
// private copies equal to the little-endian views.
func TestBigEndianViews(t *testing.T) {
	xs32 := []int32{-5, 0, 7, 1 << 30, -1 << 31}
	xs64 := []int64{-5, 0, 7, 1 << 60, -1 << 63}
	dir := t.TempDir()
	roundTrip := func(name string) (raw []byte, f *File, got32 []int32, got64 []int64) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := Write(path, testKind, testVersion, nil, [][]byte{AsBytes32(xs32), AsBytes64(xs64)}); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if f, err = Open(path, testKind, testVersion); err != nil {
			t.Fatal(err)
		}
		if got32, err = Int32s(f.Section(0)); err != nil {
			t.Fatal(err)
		}
		if got64, err = Int64s(f.Section(1)); err != nil {
			t.Fatal(err)
		}
		return raw, f, got32, got64
	}
	leRaw, _, le32, le64 := roundTrip("le.snap")

	host := hostLittleEndian
	hostLittleEndian = false
	t.Cleanup(func() { hostLittleEndian = host })

	beRaw, f, be32, be64 := roundTrip("be.snap")
	if !bytes.Equal(leRaw, beRaw) {
		t.Fatal("the copying encoders wrote other bytes than the little-endian views")
	}
	if !slices.Equal(be32, xs32) || !slices.Equal(be64, xs64) || !slices.Equal(be32, le32) || !slices.Equal(be64, le64) {
		t.Fatalf("copying round trip = %v, %v; little-endian views = %v, %v; want %v, %v", be32, be64, le32, le64, xs32, xs64)
	}
	if unsafe.Pointer(&be32[0]) == unsafe.Pointer(&f.Section(0)[0]) || unsafe.Pointer(&be64[0]) == unsafe.Pointer(&f.Section(1)[0]) {
		t.Fatal("the copying decoders aliased the section instead of copying it")
	}
}

// TestOpenLeavesNoMapping: Open reads a file into the heap and keeps
// no mapping of it, whether it accepts the file or rejects it. 1,000
// opens of a valid file and 200 of a corrupt one may not leave a
// mapping each behind.
func TestOpenLeavesNoMapping(t *testing.T) {
	mapCount := func() int {
		b, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Skipf("no /proc/self/maps: %v", err)
		}
		return strings.Count(string(b), "\n")
	}
	valid := writeContainer(t)
	data, err := os.ReadFile(valid)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x40 // payload byte: only the checksum catches it
	corrupt := filepath.Join(t.TempDir(), "corrupt.snap")
	if err := os.WriteFile(corrupt, data, 0o644); err != nil {
		t.Fatal(err)
	}
	before := mapCount()
	for i := 0; i < 1000; i++ {
		if _, err := Open(valid, testKind, testVersion); err != nil {
			t.Fatalf("open %d of the valid file: %v", i, err)
		}
	}
	for i := 0; i < 200; i++ {
		if _, err := Open(corrupt, testKind, testVersion); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("open %d of the corrupt file: err = %v, want a checksum mismatch", i, err)
		}
	}
	if grew := mapCount() - before; grew >= 10 {
		t.Fatalf("1000 accepted and 200 rejected opens grew the process's mappings by %d, want < 10", grew)
	}
}
