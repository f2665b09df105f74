package partition

import (
	"fmt"
	"math"

	"repro/internal/snapfile"
)

// Snapshot codec for Result: the sibling of the graph CSR snapshot,
// persisting a k-way partition (the assignment array plus its quality
// scalars) in the same snapfile container — atomic writes, checksum
// verification, one heap read per load. The engine's disk cache tier
// uses it to make partitions outlive the process: a warm restart
// re-serves a multilevel partition for the cost of a file read instead
// of a full recursive-bisection run.
//
// Layout (all little-endian, via snapfile):
//
//	meta:     K, Cut, MaxBlock, Balance (IEEE-754 bits), len(Part)
//	sections: Part []int32, note (raw bytes)
//
// The note carries the caller's label (the engine stores the artifact
// key); a mismatch between where a file sits and what its note says is
// detected by the caller, not served.

const (
	// resultKind tags partition snapshots inside the snapfile container
	// ("PART" little-endian).
	resultKind = 0x54524150
	// resultVersion is the codec's format version; other versions are
	// rejected (the engine treats that as a cache miss).
	resultVersion = 1
	// resultMetaWords is the exact meta length this version writes.
	resultMetaWords = 5
)

// WriteResultSnapshot atomically writes r to path in the binary
// snapshot format. note is stored verbatim for the reader to verify
// (the engine's disk tier stores the artifact-cache key).
func WriteResultSnapshot(path, note string, r *Result) error {
	meta := []uint64{
		uint64(r.K), uint64(r.Cut), uint64(r.MaxBlock),
		math.Float64bits(r.Balance), uint64(len(r.Part)),
	}
	sections := [][]byte{snapfile.AsBytes32(r.Part), []byte(note)}
	return snapfile.Write(path, resultKind, resultVersion, meta, sections)
}

// OpenResultSnapshot loads a partition snapshot written by
// WriteResultSnapshot, returning the result and the writer's note. The
// container checksum and the section shape are verified first; every
// block id is then ranged against K, so a verified snapshot can be
// consumed without further bounds checks. The Part array may alias a
// read-only file mapping — it is immutable, like every cached
// partition (pipeline consumers copy before mutating).
func OpenResultSnapshot(path string) (*Result, string, error) {
	f, err := snapfile.Open(path, resultKind, resultVersion)
	if err != nil {
		return nil, "", err
	}
	if len(f.Meta) != resultMetaWords || f.NumSections() != 2 {
		return nil, "", fmt.Errorf("partition: snapshot %s: unexpected shape (%d meta words, %d sections)", path, len(f.Meta), f.NumSections())
	}
	part, err := snapfile.Int32s(f.Section(0))
	if err != nil {
		return nil, "", fmt.Errorf("partition: snapshot %s: part: %w", path, err)
	}
	if int64(len(part)) != int64(f.Meta[4]) {
		return nil, "", fmt.Errorf("partition: snapshot %s: %d part entries, header says %d", path, len(part), f.Meta[4])
	}
	k := int64(f.Meta[0])
	if k < 1 || k > math.MaxInt32 {
		return nil, "", fmt.Errorf("partition: snapshot %s: implausible K %d", path, k)
	}
	for i, b := range part {
		if int64(b) < 0 || int64(b) >= k {
			return nil, "", fmt.Errorf("partition: snapshot %s: vertex %d assigned to block %d, outside [0, %d)", path, i, b, k)
		}
	}
	r := &Result{
		Part:     part,
		K:        int(k),
		Cut:      int64(f.Meta[1]),
		MaxBlock: int64(f.Meta[2]),
		Balance:  math.Float64frombits(f.Meta[3]),
	}
	return r, string(f.Section(1)), nil
}
