package partition

import (
	"math"
	"math/rand"
	"testing"
)

// TestSeedRNGMatchesMathRand pins the scratch generator, and with it
// lazySource, to rand.NewSource draw for draw, across the seeds
// math/rand normalizes specially (0, ±1, ±(2^31−1), the int64 extremes)
// and a spread of random ones. One scratch is reseeded throughout, as
// the partitioner reuses it, so a stale register word read before being
// rewritten would show.
func TestSeedRNGMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, int32max, -int32max, int32max - 1, int32max + 1, 89482311,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1}
	r := rand.New(rand.NewSource(7))
	for len(seeds) < 320 {
		seeds = append(seeds, int64(r.Uint64()))
	}
	sc := NewScratch()
	for i, seed := range seeds {
		got := sc.seedRNG(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for d := 0; d < 2000; d++ {
			// Mix the two entry points the way rand.Rand's helpers do.
			if (d+i)%3 == 0 {
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d draw %d: Int63 = %d, want %d", seed, d, g, w)
				}
				continue
			}
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: Uint64 = %d, want %d", seed, d, g, w)
			}
		}
	}
}
