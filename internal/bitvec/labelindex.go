package bitvec

import "math/bits"

// fibMult is 2^64 / φ, the multiplicative constant of Fibonacci hashing.
// Labels are structured (lp prefix ∘ small extension counter), so
// low-order bits alone would cluster badly; the multiply-shift spreads
// every label bit into the top bits that pick the slot.
const fibMult = 0x9E3779B97F4A7C15

// LabelIndex is an open-addressed hash index from Label to a small
// non-negative integer (a vertex or coarse-vertex id). It replaces
// map[Label]int32 in the TIMER hot loops: the table is a power-of-two
// slot array probed linearly from a Fibonacci hash, it is reset (not
// reallocated) between uses, and lookups compile to a handful of
// instructions with no interface or hash-function indirection.
//
// Values must be >= 0; the zero value of the struct is an empty index
// that Reset must size before first use. Not safe for concurrent use.
type LabelIndex struct {
	keys []Label
	// vals holds value+1 so that 0 marks an empty slot and Reset is a
	// plain memclr of this slice; keys need no clearing (a stale key
	// under an empty slot is never read).
	vals  []int32
	mask  uint64
	shift uint
	n     int
}

// NewLabelIndex returns an index pre-sized for capacity entries.
func NewLabelIndex(capacity int) *LabelIndex {
	ix := &LabelIndex{}
	ix.Reset(capacity)
	return ix
}

// Reset empties the index and ensures room for capacity entries at a
// load factor of at most 1/2. The slot array is reused whenever it is
// already large enough, so a warm index resets without allocating.
func (ix *LabelIndex) Reset(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	need := 1 << uint(bits.Len(uint(2*capacity-1))) // pow2 >= 2*capacity
	if need < 4 {
		need = 4
	}
	if len(ix.vals) >= need {
		clear(ix.vals)
		ix.n = 0
		return
	}
	ix.keys = make([]Label, need)
	ix.vals = make([]int32, need)
	ix.mask = uint64(need - 1)
	ix.shift = uint(64 - bits.TrailingZeros(uint(need)))
	ix.n = 0
}

// slot returns the first probe position of key.
func (ix *LabelIndex) slot(key Label) uint64 {
	return (uint64(key) * fibMult) >> ix.shift
}

// Get returns the value stored under key.
func (ix *LabelIndex) Get(key Label) (int32, bool) {
	for i := ix.slot(key); ; i = (i + 1) & ix.mask {
		v := ix.vals[i]
		if v == 0 {
			return 0, false
		}
		if ix.keys[i] == key {
			return v - 1, true
		}
	}
}

// Put stores value under key, replacing any existing entry.
func (ix *LabelIndex) Put(key Label, value int32) {
	for i := ix.slot(key); ; i = (i + 1) & ix.mask {
		v := ix.vals[i]
		if v == 0 {
			ix.keys[i] = key
			ix.vals[i] = value + 1
			ix.n++
			ix.maybeGrow()
			return
		}
		if ix.keys[i] == key {
			ix.vals[i] = value + 1
			return
		}
	}
}

// PutIfAbsent stores value under key unless the key is present. It
// returns the value now stored and whether the key was already there.
func (ix *LabelIndex) PutIfAbsent(key Label, value int32) (int32, bool) {
	for i := ix.slot(key); ; i = (i + 1) & ix.mask {
		v := ix.vals[i]
		if v == 0 {
			ix.keys[i] = key
			ix.vals[i] = value + 1
			ix.n++
			ix.maybeGrow()
			return value, false
		}
		if ix.keys[i] == key {
			return v - 1, true
		}
	}
}

// maybeGrow rehashes into a doubled table when the load factor passes
// 1/2. Callers that Reset with the entry count up front never trigger
// it; it is the safety net for uses that underestimate.
func (ix *LabelIndex) maybeGrow() {
	if 2*ix.n <= len(ix.vals) {
		return
	}
	oldKeys, oldVals := ix.keys, ix.vals
	need := 2 * len(oldVals)
	ix.keys = make([]Label, need)
	ix.vals = make([]int32, need)
	ix.mask = uint64(need - 1)
	ix.shift = uint(64 - bits.TrailingZeros(uint(need)))
	for i, v := range oldVals {
		if v == 0 {
			continue
		}
		k := oldKeys[i]
		for j := ix.slot(k); ; j = (j + 1) & ix.mask {
			if ix.vals[j] == 0 {
				ix.keys[j] = k
				ix.vals[j] = v
				break
			}
		}
	}
}
