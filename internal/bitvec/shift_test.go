package bitvec

import (
	"math/rand"
	"testing"
)

// TestShiftTableMatchesApply checks the compiled table against the
// digit-by-digit Apply on structured and random permutations across the
// full dimension range.
func TestShiftTableMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for dim := 1; dim <= MaxDim; dim++ {
		perms := []Permutation{Identity(dim), Reverse(dim), Random(rng, dim)}
		for _, p := range perms {
			var tab ShiftTable
			tab.CompileInto(p)
			var inv ShiftTable
			inv.CompileInverseInto(p)
			pinv := p.Inverse()
			for trial := 0; trial < 20; trial++ {
				l := Label(rng.Uint64()) & Label(Mask(0, dim))
				if got, want := tab.Apply(l), p.Apply(l); got != want {
					t.Fatalf("dim %d: table.Apply(%x) = %x, Apply = %x", dim, l, got, want)
				}
				if got, want := inv.Apply(l), pinv.Apply(l); got != want {
					t.Fatalf("dim %d: inverse table.Apply(%x) = %x, Inverse().Apply = %x", dim, l, got, want)
				}
				if got := inv.Apply(tab.Apply(l)); got != l {
					t.Fatalf("dim %d: inverse(forward(%x)) = %x", dim, l, got)
				}
			}
		}
	}
}

// TestShiftTableStructuredOps pins the collapse property that makes the
// table worthwhile: structured permutations compile to few ops.
func TestShiftTableStructuredOps(t *testing.T) {
	var tab ShiftTable
	tab.CompileInto(Identity(32))
	if n := len(tab.ops); n != 1 {
		t.Errorf("identity compiles to %d ops, want 1", n)
	}
	tab.CompileInto(Reverse(16))
	if n := len(tab.ops); n != 16 {
		t.Errorf("reversal on 16 digits compiles to %d ops, want 16", n)
	}
}

// TestShiftTableRecompileNoAlloc: a warm table recompiles in place.
func TestShiftTableRecompileNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p, q := Random(rng, 24), Random(rng, 24)
	var tab ShiftTable
	tab.CompileInto(p)
	tab.CompileInto(q) // reach the high-water op count
	allocs := testing.AllocsPerRun(10, func() {
		tab.CompileInto(p)
		tab.CompileInto(q)
	})
	if allocs != 0 {
		t.Errorf("warm CompileInto allocates %.1f times, want 0", allocs)
	}
}

func BenchmarkPermutationApply(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	p := Random(rng, 16)
	labels := make([]Label, 2048)
	for i := range labels {
		labels[i] = Label(rng.Uint64()) & Label(Mask(0, 16))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var acc Label
		for _, l := range labels {
			acc ^= p.Apply(l)
		}
		_ = acc
	}
}

func BenchmarkShiftTableApply(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	p := Random(rng, 16)
	labels := make([]Label, 2048)
	for i := range labels {
		labels[i] = Label(rng.Uint64()) & Label(Mask(0, 16))
	}
	var tab ShiftTable
	tab.CompileInto(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var acc Label
		for _, l := range labels {
			acc ^= tab.Apply(l)
		}
		_ = acc
	}
}
