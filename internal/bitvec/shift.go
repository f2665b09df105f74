package bitvec

// ShiftOp moves the source digits selected by Mask left by Delta
// positions (right when Delta is negative).
type ShiftOp struct {
	Delta int8
	Mask  uint64
}

// ShiftTable is a compiled form of Permutation.Apply: digits that move
// by the same distance are gathered into one masked shift, so applying
// the permutation costs one mask-shift-or per *distinct displacement*
// instead of one extract-shift-or per digit. Structured permutations
// (identity, reversal, rotations) collapse to a handful of ops, and
// even a uniformly random permutation executes fewer, branch-free
// word-sized operations than the digit loop.
//
// A table is compiled once per hierarchy and applied once per vertex,
// which is what makes the trade profitable. CompileInto reuses the op
// slice, so recompiling on a warm table does not allocate.
type ShiftTable struct {
	ops []ShiftOp
}

// CompileInto compiles p (result digit j = source digit p[j]) into t.
func (t *ShiftTable) CompileInto(p Permutation) {
	var masks [2*MaxDim - 1]uint64
	for j, src := range p {
		masks[j-int(src)+MaxDim-1] |= 1 << src
	}
	t.gather(&masks)
}

// CompileInverseInto compiles the inverse of p into t without
// materializing the inverse permutation: if p moves source digit src to
// position j, the inverse moves digit j back to src.
func (t *ShiftTable) CompileInverseInto(p Permutation) {
	var masks [2*MaxDim - 1]uint64
	for j, src := range p {
		masks[int(src)-j+MaxDim-1] |= 1 << j
	}
	t.gather(&masks)
}

func (t *ShiftTable) gather(masks *[2*MaxDim - 1]uint64) {
	t.ops = t.ops[:0]
	for i, m := range masks {
		if m != 0 {
			t.ops = append(t.ops, ShiftOp{Delta: int8(i - (MaxDim - 1)), Mask: m})
		}
	}
}

// Apply permutes the digits of l according to the compiled table.
func (t *ShiftTable) Apply(l Label) Label {
	var r uint64
	for _, op := range t.ops {
		if op.Delta >= 0 {
			r |= (uint64(l) & op.Mask) << uint(op.Delta)
		} else {
			r |= (uint64(l) & op.Mask) >> uint(-op.Delta)
		}
	}
	return Label(r)
}
