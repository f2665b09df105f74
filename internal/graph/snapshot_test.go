package graph

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/snapfile"
)

// snapTestGraph builds a deterministic random graph big enough that the
// snapshot's sections all have real payloads.
func snapTestGraph(n, m int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(i-1, i, int64(rng.Intn(9)+1)) // spanning path keeps it connected
	}
	for i := n - 1; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(u, v, int64(rng.Intn(9)+1))
		}
	}
	return b.Build()
}

func TestSnapshotRoundTripPreservesFingerprint(t *testing.T) {
	g := snapTestGraph(500, 2000, 7)
	path := filepath.Join(t.TempDir(), "g.snap")
	if err := g.WriteSnapshot(path, "note: the artifact key"); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	got, note, err := OpenSnapshot(path)
	if err != nil {
		t.Fatalf("OpenSnapshot: %v", err)
	}
	if note != "note: the artifact key" {
		t.Fatalf("note = %q", note)
	}
	if got.N() != g.N() || got.M() != g.M() {
		t.Fatalf("loaded n=%d m=%d, want %d/%d", got.N(), got.M(), g.N(), g.M())
	}
	if got.TotalVertexWeight() != g.TotalVertexWeight() || got.TotalEdgeWeight() != g.TotalEdgeWeight() {
		t.Fatal("weight totals differ after round trip")
	}
	if got.Fingerprint() != g.Fingerprint() {
		t.Fatalf("fingerprint %s after round trip, want %s", got.Fingerprint(), g.Fingerprint())
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("loaded graph fails validation: %v", err)
	}
}

func TestSnapshotRejectsTruncation(t *testing.T) {
	g := snapTestGraph(200, 800, 3)
	dir := t.TempDir()
	path := filepath.Join(dir, "g.snap")
	if err := g.WriteSnapshot(path, "k"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0, 0.25, 0.5, 0.99} {
		n := int(float64(len(data)) * frac)
		n -= n % 8 // aligned truncation: the harder case (size checks pass)
		trunc := filepath.Join(dir, "trunc.snap")
		if err := os.WriteFile(trunc, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := OpenSnapshot(trunc); err == nil {
			t.Fatalf("truncation to %d/%d bytes went undetected", n, len(data))
		}
	}
}

func TestSnapshotRejectsFlippedByte(t *testing.T) {
	g := snapTestGraph(200, 800, 3)
	dir := t.TempDir()
	path := filepath.Join(dir, "g.snap")
	if err := g.WriteSnapshot(path, "k"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A handful of strategic offsets: header, meta, early payload, the
	// middle of the adjacency section, the last byte.
	for _, off := range []int{9, 40, 100, len(data) / 2, len(data) - 1} {
		buf := append([]byte(nil), data...)
		buf[off] ^= 0x01
		flip := filepath.Join(dir, "flip.snap")
		if err := os.WriteFile(flip, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := OpenSnapshot(flip); err == nil {
			t.Fatalf("flipped byte at %d went undetected", off)
		}
	}
}

func TestSnapshotRejectsWrongVersion(t *testing.T) {
	g := snapTestGraph(50, 100, 1)
	path := filepath.Join(t.TempDir(), "g.snap")
	if err := g.WriteSnapshot(path, "k"); err != nil {
		t.Fatal(err)
	}
	// Re-wrap the same payload under a future codec version: a valid
	// container the current reader must refuse rather than misparse.
	f, err := snapfile.Open(path, snapshotKind, snapshotVersion)
	if err != nil {
		t.Fatal(err)
	}
	sections := make([][]byte, f.NumSections())
	for i := range sections {
		sections[i] = f.Section(i)
	}
	if err := snapfile.Write(path, snapshotKind, snapshotVersion+1, f.Meta, sections); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenSnapshot(path); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version: err = %v", err)
	}
}

func TestSnapshotRejectsFingerprintMismatch(t *testing.T) {
	g := snapTestGraph(50, 100, 1)
	path := filepath.Join(t.TempDir(), "g.snap")
	if err := g.WriteSnapshot(path, "k"); err != nil {
		t.Fatal(err)
	}
	// A checksum-valid container whose stored fingerprint names another
	// graph — only the codec's recompute-and-compare can catch this.
	f, err := snapfile.Open(path, snapshotKind, snapshotVersion)
	if err != nil {
		t.Fatal(err)
	}
	meta := append([]uint64(nil), f.Meta...)
	meta[4] ^= 1 // fingerprint hi
	sections := make([][]byte, f.NumSections())
	for i := range sections {
		sections[i] = f.Section(i)
	}
	if err := snapfile.Write(path, snapshotKind, snapshotVersion, meta, sections); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenSnapshot(path); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("fingerprint mismatch: err = %v", err)
	}
}

func TestSnapshotRejectsShapeMismatch(t *testing.T) {
	g := snapTestGraph(50, 100, 1)
	path := filepath.Join(t.TempDir(), "g.snap")
	if err := g.WriteSnapshot(path, "k"); err != nil {
		t.Fatal(err)
	}
	// Claim one vertex more than the sections hold.
	f, err := snapfile.Open(path, snapshotKind, snapshotVersion)
	if err != nil {
		t.Fatal(err)
	}
	meta := append([]uint64(nil), f.Meta...)
	meta[0]++
	sections := make([][]byte, f.NumSections())
	for i := range sections {
		sections[i] = f.Section(i)
	}
	if err := snapfile.Write(path, snapshotKind, snapshotVersion, meta, sections); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenSnapshot(path); err == nil {
		t.Fatal("section/header shape mismatch went undetected")
	}
}

// csrTotals sums the vertex weights and, as FromCSR does, the weights
// of half-edges (v, u) with u > v, skipping whatever a malformed CSR
// puts out of range.
func csrTotals(xadj, adj []int32, ew, vw []int64) (tvw, tew int64) {
	for _, w := range vw {
		tvw += w
	}
	for v := 0; v+1 < len(xadj); v++ {
		for i := max(int(xadj[v]), 0); i < int(xadj[v+1]) && i < len(adj) && i < len(ew); i++ {
			if int(adj[i]) > v {
				tew += ew[i]
			}
		}
	}
	return tvw, tew
}

// FuzzOpenGraphSnapshot writes fuzzer-chosen CSR arrays through
// snapfile.Write with the header a writer would give them: their
// vertex and edge counts, their weight totals plus fuzzed offsets, and
// their true fingerprint. Every input therefore passes the container
// checksum and the fingerprint compare and reaches OpenSnapshot's own
// checks. It must never panic, and every graph it accepts must be
// walkable: every neighbor of every vertex in [0, N), with the header's
// totals and the note it was given.
func FuzzOpenGraphSnapshot(f *testing.F) {
	i32 := func(xs ...int32) []byte { return snapfile.AsBytes32(xs) }
	i64 := func(xs ...int64) []byte { return snapfile.AsBytes64(xs) }
	g := FromEdgeList(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	f.Add(i32(g.xadj...), i32(g.adj...), i64(g.ew...), i64(g.vw...), int64(0), int64(0), "square")
	f.Add(i32(g.xadj...), i32(g.adj...), i64(g.ew...), i64(g.vw...), int64(1), int64(0), "vertex total off by one")
	// Two vertices whose neighbors are 7 and -3.
	f.Add(i32(0, 1, 2), i32(7, -3), i64(1, 1), i64(1, 1), int64(0), int64(0), "out-of-range neighbors")
	// Row 0 ends at offset 100, past the two half-edges there are.
	f.Add(i32(0, 100, 2, 2), i32(1, 2), i64(1, 1), i64(1, 1, 1), int64(0), int64(0), "offset past adjacency")

	f.Fuzz(func(t *testing.T, xadjRaw, adjRaw, ewRaw, vwRaw []byte, dvw, dew int64, note string) {
		xadj, adj := ints32(xadjRaw), ints32(adjRaw)
		ew, vw := ints64(ewRaw), ints64(vwRaw)
		tvw, tew := csrTotals(xadj, adj, ew, vw)
		raw := &Graph{xadj: xadj, adj: adj, ew: ew, vw: vw, m: len(adj) / 2}
		fp := raw.Fingerprint()
		meta := []uint64{uint64(len(vw)), uint64(len(adj) / 2), uint64(tvw + dvw), uint64(tew + dew), fp.Hi, fp.Lo}
		path := filepath.Join(t.TempDir(), "g.snap")
		if err := snapfile.Write(path, snapshotKind, snapshotVersion, meta, [][]byte{xadjRaw, adjRaw, ewRaw, vwRaw, []byte(note)}); err != nil {
			t.Skip(err) // beyond the container's caps: not a decoder input
		}
		got, gotNote, err := OpenSnapshot(path)
		if err != nil {
			return
		}
		for v := 0; v < got.N(); v++ {
			nbr, _ := got.Neighbors(v)
			for _, u := range nbr {
				if u < 0 || int(u) >= got.N() {
					t.Fatalf("accepted vertex %d with neighbor %d, outside [0, %d)", v, u, got.N())
				}
			}
		}
		if uint64(got.TotalVertexWeight()) != meta[2] || uint64(got.TotalEdgeWeight()) != meta[3] {
			t.Fatalf("accepted totals (%d, %d), header says (%d, %d)",
				got.TotalVertexWeight(), got.TotalEdgeWeight(), int64(meta[2]), int64(meta[3]))
		}
		if gotNote != note {
			t.Fatalf("note = %q, want %q", gotNote, note)
		}
	})
}

// ints32 and ints64 decode little-endian words, dropping a ragged tail.
func ints32(b []byte) []int32 {
	xs := make([]int32, len(b)/4)
	for i := range xs {
		xs[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return xs
}

func ints64(b []byte) []int64 {
	xs := make([]int64, len(b)/8)
	for i := range xs {
		xs[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return xs
}

func TestFingerprintBytesSeparatesKeys(t *testing.T) {
	keys := []string{"", "a", "ab", "graph:net:p2p@1#1", "graph:net:p2p@1#2", "part:fp:00ff|k=64"}
	seen := map[Fingerprint]string{}
	for _, k := range keys {
		fp := FingerprintBytes([]byte(k))
		if prev, dup := seen[fp]; dup {
			t.Fatalf("keys %q and %q collide", prev, k)
		}
		seen[fp] = k
		if fp != FingerprintBytes([]byte(k)) {
			t.Fatalf("FingerprintBytes(%q) not deterministic", k)
		}
	}
}

// Snapshot codec microbenchmarks (bench-micro tracks these): encode =
// WriteSnapshot to a tmpfs-ish temp dir, decode = verified OpenSnapshot
// including the fingerprint recompute.
func BenchmarkSnapshotWrite(b *testing.B) {
	g := snapTestGraph(10000, 50000, 9)
	dir := b.TempDir()
	path := filepath.Join(dir, "g.snap")
	b.SetBytes(g.FootprintBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.WriteSnapshot(path, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotOpen(b *testing.B) {
	g := snapTestGraph(10000, 50000, 9)
	dir := b.TempDir()
	path := filepath.Join(dir, "g.snap")
	if err := g.WriteSnapshot(path, "bench"); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(g.FootprintBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := OpenSnapshot(path); err != nil {
			b.Fatal(err)
		}
	}
}
