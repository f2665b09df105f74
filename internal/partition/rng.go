package partition

import "math/rand"

// The partitioner reseeds its generator at every recursion node (K−1
// times per Partition, once per DRB bisection), and many nodes draw only
// a handful of values. math/rand's Seed fills its whole 607-word
// register with 1,841 Lehmer steps up front; lazySource produces the
// same stream but computes each seeded word on first read.
//
// math/rand's generator is an additive lagged Fibonacci register of
// rngLen words with tap distance rngTap. Seed(s) sets word i to
//
//	x(21+3i)<<40 ^ x(22+3i)<<20 ^ x(23+3i) ^ cooked[i]
//
// where x(k) = s·48271^k mod (2^31−1), and each draw adds the tap word
// to the feed word, stores the sum in the feed slot and returns it.
// During the first rngLen draws the feed slot has never been written,
// and the tap slot has not been written during the first rngTap draws,
// so those reads take the seeded word directly; every later draw is the
// plain lagged-Fibonacci step over slots already written.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	// lehmerA is the multiplier of math/rand's seeding generator.
	lehmerA = 48271
)

var (
	// seedPow[i] holds 48271^k mod (2^31−1) for the three steps k that
	// make up seeded word i.
	seedPow [rngLen][3]uint64
	// cooked is math/rand's fixed register mask, recovered at init.
	cooked [rngLen]int64
)

func init() {
	p := uint64(1)
	for k := 1; k <= 20; k++ {
		p = p * lehmerA % int32max
	}
	for i := range seedPow {
		for j := range seedPow[i] {
			p = p * lehmerA % int32max
			seedPow[i][j] = p
		}
	}
	// Seed 1's first rngLen outputs determine its seeded register: a
	// draw past rngTap adds a known earlier output to its feed word, and
	// each earlier draw adds a recovered word to its feed word.
	src := rand.NewSource(1).(rand.Source64)
	var out [rngLen + 1]int64 // out[j] is draw j, 1-based
	for j := 1; j <= rngLen; j++ {
		out[j] = int64(src.Uint64())
	}
	var reg [rngLen]int64
	for j := rngTap + 1; j <= rngLen; j++ {
		reg[(2*rngLen-rngTap-j)%rngLen] = out[j] - out[j-rngTap]
	}
	for j := 1; j <= rngTap; j++ {
		reg[rngLen-rngTap-j] = out[j] - reg[rngLen-j]
	}
	for i := range cooked {
		cooked[i] = reg[i] ^ seedBits(1, i)
	}
}

// seedBits is seeded word i of the register for normalized seed s,
// before the cooked mask.
func seedBits(s uint64, i int) int64 {
	p := &seedPow[i]
	x0 := int64(s * p[0] % int32max)
	x1 := int64(s * p[1] % int32max)
	x2 := int64(s * p[2] % int32max)
	return x0<<40 ^ x1<<20 ^ x2
}

// lazySource is a rand.Source64 whose stream equals
// rand.NewSource(seed)'s draw for draw, with an O(1) Seed.
type lazySource struct {
	tap, feed int
	drawn     int    // draws since Seed, up to rngLen
	seed      uint64 // normalized seed in [1, 2^31−2]
	vec       [rngLen]int64
}

// Seed resets the stream, normalizing seed exactly as math/rand does.
func (r *lazySource) Seed(seed int64) {
	r.tap, r.feed, r.drawn = 0, rngLen-rngTap, 0
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	r.seed = uint64(seed)
}

// Uint64 returns the next value of the stream.
func (r *lazySource) Uint64() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	var x int64
	if r.drawn < rngLen {
		r.drawn++
		t := r.vec[r.tap]
		if r.drawn <= rngTap {
			t = r.word(r.tap)
		}
		x = r.word(r.feed) + t
	} else {
		x = r.vec[r.feed] + r.vec[r.tap]
	}
	r.vec[r.feed] = x
	return uint64(x)
}

// word is seeded register word i.
func (r *lazySource) word(i int) int64 { return seedBits(r.seed, i) ^ cooked[i] }

// Int63 returns the next value of the stream with its top bit cleared.
func (r *lazySource) Int63() int64 { return int64(r.Uint64() & rngMask) }
