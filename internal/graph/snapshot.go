package graph

import (
	"fmt"

	"repro/internal/snapfile"
)

// Snapshot codec: a Graph's CSR arrays persisted as one snapfile
// container, so re-loading a materialized graph costs one file read
// and a checksum pass instead of a two-pass parse or a netgen
// re-generation. The engine's disk cache tier writes and reads it.
//
// Layout (all little-endian, via snapfile):
//
//	meta:     n, m, total vertex weight, total edge weight,
//	          fingerprint hi, fingerprint lo
//	sections: xadj []int32, adj []int32, ew []int64, vw []int64,
//	          note (raw bytes)
//
// The note is an uninterpreted caller string — the engine stores the
// artifact-cache key there and refuses a snapshot whose note names a
// different key, so a file shuffled between cache slots (or a hash
// collision in a filename scheme) is detected instead of served.
//
// Verification on open is layered: snapfile checks container magic,
// version and payload checksum; this codec then checks every section
// length against the header counts, validates the CSR as FromCSR
// does, compares its weight totals to the header's and finally
// recomputes the CSR fingerprint and compares it to the stored one. A
// snapshot that opens successfully is therefore byte-equivalent to the
// graph that was written — corrupt, truncated, stale-version and
// mislabeled files all fail closed.

const (
	// snapshotKind tags graph CSR snapshots inside the snapfile
	// container ("GCSR" little-endian).
	snapshotKind = 0x52534347
	// snapshotVersion is the codec's format version; readers reject
	// other versions (the engine treats that as a cache miss).
	snapshotVersion = 1
	// snapshotMetaWords is the exact meta length this version writes.
	snapshotMetaWords = 6
)

// WriteSnapshot atomically writes g's CSR arrays to path in the binary
// snapshot format. note is an arbitrary caller string stored verbatim
// and returned (and verifiable) at open time; the engine's disk cache
// stores the artifact key there, mapingest stores the source path.
func (g *Graph) WriteSnapshot(path, note string) error {
	fp := g.Fingerprint()
	meta := []uint64{
		uint64(g.N()), uint64(g.m),
		uint64(g.tvw), uint64(g.tew),
		fp.Hi, fp.Lo,
	}
	sections := [][]byte{
		snapfile.AsBytes32(g.xadj),
		snapfile.AsBytes32(g.adj),
		snapfile.AsBytes64(g.ew),
		snapfile.AsBytes64(g.vw),
		[]byte(note),
	}
	return snapfile.Write(path, snapshotKind, snapshotVersion, meta, sections)
}

// OpenSnapshot loads a graph snapshot written by WriteSnapshot and
// returns the graph plus the writer's note. On little-endian hosts the
// CSR arrays are typed views of the private heap arena snapfile.Open
// reads the file into, so the graph holds the file's memory for
// exactly as long as it lives; big-endian hosts decode copies. Either
// way the graph is immutable and safe to share, like every other Graph.
//
// The snapshot is verified before anything is returned: container
// checksum (via snapfile), section shapes against the header counts,
// the CSR itself (FromCSR), weight totals against the header, and a
// recomputed CSR fingerprint against the stored one. Any
// mismatch — truncation, a flipped byte, a wrong format version, a
// snapshot of a different graph under this path — is an error, never a
// silently wrong graph.
func OpenSnapshot(path string) (*Graph, string, error) {
	f, err := snapfile.Open(path, snapshotKind, snapshotVersion)
	if err != nil {
		return nil, "", err
	}
	if len(f.Meta) != snapshotMetaWords || f.NumSections() != 5 {
		return nil, "", fmt.Errorf("graph: snapshot %s: unexpected shape (%d meta words, %d sections)", path, len(f.Meta), f.NumSections())
	}
	n := int64(f.Meta[0])
	m := int64(f.Meta[1])
	const maxDim = int64(1) << 34 // beyond any CSR this repo can hold in int32 offsets
	if n < 0 || m < 0 || n > maxDim || m > maxDim {
		return nil, "", fmt.Errorf("graph: snapshot %s: implausible sizes n=%d m=%d", path, n, m)
	}
	xadj, err := snapfile.Int32s(f.Section(0))
	if err != nil {
		return nil, "", fmt.Errorf("graph: snapshot %s: xadj: %w", path, err)
	}
	adj, err := snapfile.Int32s(f.Section(1))
	if err != nil {
		return nil, "", fmt.Errorf("graph: snapshot %s: adj: %w", path, err)
	}
	ew, err := snapfile.Int64s(f.Section(2))
	if err != nil {
		return nil, "", fmt.Errorf("graph: snapshot %s: ew: %w", path, err)
	}
	vw, err := snapfile.Int64s(f.Section(3))
	if err != nil {
		return nil, "", fmt.Errorf("graph: snapshot %s: vw: %w", path, err)
	}
	if int64(len(xadj)) != n+1 || int64(len(adj)) != 2*m || int64(len(ew)) != 2*m || int64(len(vw)) != n {
		return nil, "", fmt.Errorf("graph: snapshot %s: section shapes (%d,%d,%d,%d) disagree with header n=%d m=%d",
			path, len(xadj), len(adj), len(ew), len(vw), n, m)
	}
	g, err := FromCSR(xadj, adj, ew, vw)
	if err != nil {
		return nil, "", fmt.Errorf("graph: snapshot %s: %w", path, err)
	}
	if uint64(g.tvw) != f.Meta[2] || uint64(g.tew) != f.Meta[3] {
		return nil, "", fmt.Errorf("graph: snapshot %s: weight totals (%d, %d) disagree with header (%d, %d)",
			path, g.tvw, g.tew, int64(f.Meta[2]), int64(f.Meta[3]))
	}
	want := Fingerprint{Hi: f.Meta[4], Lo: f.Meta[5]}
	if got := g.Fingerprint(); got != want {
		return nil, "", fmt.Errorf("graph: snapshot %s: fingerprint %s does not match header %s — file does not hold the graph it claims",
			path, got, want)
	}
	return g, string(f.Section(4)), nil
}
