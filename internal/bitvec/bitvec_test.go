package bitvec

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

func TestBitOps(t *testing.T) {
	l := Label(0b1010)
	if l.Bit(0) != 0 || l.Bit(1) != 1 || l.Bit(2) != 0 || l.Bit(3) != 1 {
		t.Errorf("bits of 1010 wrong: %v %v %v %v", l.Bit(3), l.Bit(2), l.Bit(1), l.Bit(0))
	}
	if got := l.SetBit(0, 1); got != 0b1011 {
		t.Errorf("SetBit(0,1) = %s", got.String(4))
	}
	if got := l.SetBit(3, 0); got != 0b0010 {
		t.Errorf("SetBit(3,0) = %s", got.String(4))
	}
}

func TestHamming(t *testing.T) {
	cases := []struct {
		a, b Label
		want int
	}{
		{0b0000, 0b0000, 0},
		{0b0000, 0b1111, 4},
		{0b1010, 0b0101, 4},
		{0b1010, 0b1000, 1},
		{0b1100, 0b1010, 2},
	}
	for _, c := range cases {
		if got := Hamming(c.a, c.b); got != c.want {
			t.Errorf("Hamming(%04b,%04b) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestHammingMasked(t *testing.T) {
	a, b := Label(0b1111), Label(0b0000)
	if got := HammingMasked(a, b, Mask(0, 2)); got != 2 {
		t.Errorf("masked hamming = %d, want 2", got)
	}
	if got := HammingMasked(a, b, Mask(2, 4)); got != 2 {
		t.Errorf("masked hamming = %d, want 2", got)
	}
	if got := HammingMasked(a, b, 0); got != 0 {
		t.Errorf("masked hamming with empty mask = %d, want 0", got)
	}
}

func TestSignedCost(t *testing.T) {
	// ext = 2 low digits (sign -1), lp = 2 high digits (sign +1).
	plus, minus := Mask(2, 4), Mask(0, 2)
	cases := []struct {
		a, b Label
		want int
	}{
		{0b0000, 0b0000, 0},
		{0b1100, 0b0000, 2},  // two lp digits differ
		{0b0011, 0b0000, -2}, // two le digits differ
		{0b1111, 0b0000, 0},  // both cancel
		{0b0100, 0b0001, 0},  // one of each
	}
	for _, c := range cases {
		if got := SignedCost(c.a, c.b, plus, minus); got != c.want {
			t.Errorf("SignedCost(%04b,%04b) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestMask(t *testing.T) {
	if Mask(0, 0) != 0 {
		t.Error("empty mask should be 0")
	}
	if Mask(0, 64) != ^uint64(0) {
		t.Error("full mask should be all ones")
	}
	if Mask(1, 3) != 0b110 {
		t.Errorf("Mask(1,3) = %b", Mask(1, 3))
	}
	if Mask(62, 64) != uint64(0b11)<<62 {
		t.Errorf("Mask(62,64) wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("Mask(3,1) should panic")
		}
	}()
	Mask(3, 1)
}

// TestStringParseRoundTrip checks String against strconv's base-2
// parser: the digits String prints parse back to the label.
func TestStringParseRoundTrip(t *testing.T) {
	for _, s := range []string{"0", "1", "0000", "1111", "010101", "1000000000000001"} {
		v, err := strconv.ParseUint(s, 2, 64)
		if err != nil {
			t.Fatal(err)
		}
		if got := Label(v).String(len(s)); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestIdentityReverse(t *testing.T) {
	id := Identity(4)
	l := Label(0b1011)
	if id.Apply(l) != l {
		t.Error("identity permutation must not change labels")
	}
	rev := Reverse(4)
	if got := rev.Apply(l); got != 0b1101 {
		t.Errorf("Reverse.Apply(1011) = %s, want 1101", got.String(4))
	}
}

// Valid reports whether p is a bijection on {0, ..., len(p)-1}.
func (p Permutation) Valid() bool {
	seen := uint64(0)
	for _, x := range p {
		if int(x) >= len(p) {
			return false
		}
		if seen&(1<<x) != 0 {
			return false
		}
		seen |= 1 << x
	}
	return true
}

// Inverse returns the inverse permutation, the reference that
// TestShiftTableMatchesApply checks CompileInverseInto against.
func (p Permutation) Inverse() Permutation {
	inv := make(Permutation, len(p))
	for j, src := range p {
		inv[src] = uint8(j)
	}
	return inv
}

func TestPermutationInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		dim := 1 + rng.Intn(MaxDim)
		p := Random(rng, dim)
		if !p.Valid() {
			t.Fatalf("Random produced invalid permutation %v", p)
		}
		inv := p.Inverse()
		if !inv.Valid() {
			t.Fatalf("inverse invalid: %v", inv)
		}
		l := Label(rng.Uint64())
		if dim < 64 {
			l &= Label(Mask(0, dim))
		}
		if got := inv.Apply(p.Apply(l)); got != l {
			t.Fatalf("dim %d: inverse(apply(l)) = %x, want %x", dim, got, l)
		}
	}
}

// Property: Hamming is a metric (symmetry + triangle inequality) and
// permutation-invariant.
func TestHammingProperties(t *testing.T) {
	f := func(a, b, c uint64, seed int64) bool {
		la, lb, lc := Label(a), Label(b), Label(c)
		if Hamming(la, lb) != Hamming(lb, la) {
			return false
		}
		if Hamming(la, lc) > Hamming(la, lb)+Hamming(lb, lc) {
			return false
		}
		p := Random(rand.New(rand.NewSource(seed)), 64)
		return Hamming(p.Apply(la), p.Apply(lb)) == Hamming(la, lb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: SignedCost decomposes as the difference of two masked
// Hamming distances.
func TestSignedCostDecomposition(t *testing.T) {
	f := func(a, b uint64, split uint8) bool {
		s := int(split % 65)
		plus, minus := Mask(s, 64), Mask(0, s)
		la, lb := Label(a), Label(b)
		return SignedCost(la, lb, plus, minus) ==
			HammingMasked(la, lb, plus)-HammingMasked(la, lb, minus)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHamming(b *testing.B) {
	x, y := Label(0xdeadbeefcafebabe), Label(0x0123456789abcdef)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += Hamming(x, y)
	}
	_ = sink
}

func BenchmarkSignedCost(b *testing.B) {
	x, y := Label(0xdeadbeefcafebabe), Label(0x0123456789abcdef)
	plus, minus := Mask(10, 40), Mask(0, 10)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += SignedCost(x, y, plus, minus)
	}
	_ = sink
}
