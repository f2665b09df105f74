package partition

import (
	"encoding/binary"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/snapfile"
)

func snapResult() *Result {
	part := make([]int32, 300)
	for i := range part {
		part[i] = int32(i % 8)
	}
	return &Result{Part: part, K: 8, Cut: 1234, MaxBlock: 40, Balance: 1.0316}
}

func TestResultSnapshotRoundTrip(t *testing.T) {
	r := snapResult()
	path := filepath.Join(t.TempDir(), "p.snap")
	if err := WriteResultSnapshot(path, "part:key", r); err != nil {
		t.Fatalf("WriteResultSnapshot: %v", err)
	}
	got, note, err := OpenResultSnapshot(path)
	if err != nil {
		t.Fatalf("OpenResultSnapshot: %v", err)
	}
	if note != "part:key" {
		t.Fatalf("note = %q", note)
	}
	if got.K != r.K || got.Cut != r.Cut || got.MaxBlock != r.MaxBlock || got.Balance != r.Balance {
		t.Fatalf("scalars = %+v, want %+v", got, r)
	}
	if !reflect.DeepEqual(got.Part, r.Part) {
		t.Fatal("assignment array differs after round trip")
	}
}

// rewrap re-publishes the container at path with a tweak applied to its
// meta words and Part section — a checksum-valid file the codec's own
// shape checks must still reject.
func rewrap(t *testing.T, path string, tweak func(meta []uint64, part []int32)) {
	t.Helper()
	f, err := snapfile.Open(path, resultKind, resultVersion)
	if err != nil {
		t.Fatal(err)
	}
	part, err := snapfile.Int32s(f.Section(0))
	if err != nil {
		t.Fatal(err)
	}
	part = append([]int32(nil), part...)
	meta := append([]uint64(nil), f.Meta...)
	tweak(meta, part)
	sections := [][]byte{snapfile.AsBytes32(part), f.Section(1)}
	if err := snapfile.Write(path, resultKind, resultVersion, meta, sections); err != nil {
		t.Fatal(err)
	}
}

func TestResultSnapshotRejectsOutOfRangeBlock(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.snap")
	if err := WriteResultSnapshot(path, "k", snapResult()); err != nil {
		t.Fatal(err)
	}
	rewrap(t, path, func(_ []uint64, part []int32) { part[17] = 8 }) // K is 8, valid blocks [0,8)
	if _, _, err := OpenResultSnapshot(path); err == nil {
		t.Fatal("out-of-range block id went undetected")
	}
}

func TestResultSnapshotRejectsImplausibleK(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.snap")
	if err := WriteResultSnapshot(path, "k", snapResult()); err != nil {
		t.Fatal(err)
	}
	rewrap(t, path, func(meta []uint64, _ []int32) { meta[0] = math.MaxUint64 })
	if _, _, err := OpenResultSnapshot(path); err == nil {
		t.Fatal("implausible K went undetected")
	}
}

func TestResultSnapshotRejectsLengthMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.snap")
	if err := WriteResultSnapshot(path, "k", snapResult()); err != nil {
		t.Fatal(err)
	}
	rewrap(t, path, func(meta []uint64, _ []int32) { meta[4]++ })
	if _, _, err := OpenResultSnapshot(path); err == nil {
		t.Fatal("part-length/header mismatch went undetected")
	}
}

// FuzzOpenResultSnapshot feeds the partition snapshot decoder
// fuzzer-chosen meta words (8 little-endian bytes each), Part bytes and
// a note, written through snapfile.Write so every input passes the
// container checksum and reaches OpenResultSnapshot's own checks. It
// must never panic, and whatever it accepts must be a usable
// partition: K ≥ 1, one block per vertex as meta word 4 says, every
// block in [0, K), and the note it was given.
func FuzzOpenResultSnapshot(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.snap")
	if err := WriteResultSnapshot(path, "part:seed", snapResult()); err != nil {
		f.Fatal(err)
	}
	sf, err := snapfile.Open(path, resultKind, resultVersion)
	if err != nil {
		f.Fatal(err)
	}
	metaBytes := func(meta []uint64) []byte {
		b := make([]byte, 8*len(meta))
		for i, w := range meta {
			binary.LittleEndian.PutUint64(b[8*i:], w)
		}
		return b
	}
	part := append([]byte(nil), sf.Section(0)...)
	f.Add(metaBytes(sf.Meta), part, string(sf.Section(1)))
	kZero := append([]uint64(nil), sf.Meta...)
	kZero[0] = 0
	f.Add(metaBytes(kZero), part, "k=0")
	f.Add(metaBytes(sf.Meta), part[:13], "short part")

	f.Fuzz(func(t *testing.T, metaRaw, partRaw []byte, note string) {
		meta := make([]uint64, len(metaRaw)/8)
		for i := range meta {
			meta[i] = binary.LittleEndian.Uint64(metaRaw[8*i:])
		}
		path := filepath.Join(t.TempDir(), "p.snap")
		if err := snapfile.Write(path, resultKind, resultVersion, meta, [][]byte{partRaw, []byte(note)}); err != nil {
			t.Skip(err) // beyond the container's caps: not a decoder input
		}
		r, gotNote, err := OpenResultSnapshot(path)
		if err != nil {
			return
		}
		if r.K < 1 {
			t.Fatalf("accepted K = %d", r.K)
		}
		if uint64(len(r.Part)) != meta[4] {
			t.Fatalf("accepted %d part entries, meta word 4 says %d", len(r.Part), meta[4])
		}
		for v, b := range r.Part {
			if b < 0 || int(b) >= r.K {
				t.Fatalf("accepted vertex %d in block %d, outside [0, %d)", v, b, r.K)
			}
		}
		if gotNote != note {
			t.Fatalf("note = %q, want %q", gotNote, note)
		}
	})
}

func BenchmarkResultSnapshotWrite(b *testing.B) {
	r := &Result{Part: make([]int32, 100000), K: 64, Cut: 1, MaxBlock: 1, Balance: 1}
	for i := range r.Part {
		r.Part[i] = int32(i % 64)
	}
	path := filepath.Join(b.TempDir(), "p.snap")
	b.SetBytes(int64(len(r.Part)) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteResultSnapshot(path, "bench", r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResultSnapshotOpen(b *testing.B) {
	r := &Result{Part: make([]int32, 100000), K: 64, Cut: 1, MaxBlock: 1, Balance: 1}
	for i := range r.Part {
		r.Part[i] = int32(i % 64)
	}
	path := filepath.Join(b.TempDir(), "p.snap")
	if err := WriteResultSnapshot(path, "bench", r); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(r.Part)) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := OpenResultSnapshot(path); err != nil {
			b.Fatal(err)
		}
	}
}
