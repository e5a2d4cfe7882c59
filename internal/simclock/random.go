package simclock

import (
	"math"
	"math/rand"
)

// Jitter returns a duration uniformly drawn from [base-spread, base+spread],
// clamped to be non-negative. It is the standard way subsystems model
// per-node variability (boot times, disk speeds, ...).
func Jitter(rng *rand.Rand, base, spread Time) Time {
	if spread <= 0 {
		if base < 0 {
			return 0
		}
		return base
	}
	d := base - spread + Time(rng.Int63n(int64(2*spread)+1))
	if d < 0 {
		return 0
	}
	return d
}

// Exponential returns an exponentially distributed duration with the given
// mean, clamped to [0, 20*mean] to keep simulations bounded. Both the cap
// and the draw saturate at the largest Time rather than wrap.
func Exponential(rng *rand.Rand, mean Time) Time {
	if mean <= 0 {
		return 0
	}
	limit := Time(math.MaxInt64)
	if mean <= limit/20 {
		limit = 20 * mean
	}
	// float64(MaxInt64) is 2^63: a draw below it converts to a Time, one
	// at or above it has no Time to convert to.
	f := rng.ExpFloat64() * float64(mean)
	if f >= float64(math.MaxInt64) {
		return limit
	}
	return min(Time(f), limit)
}

// Bernoulli reports true with probability p.
func Bernoulli(rng *rand.Rand, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return rng.Float64() < p
}

// Pick returns a uniformly random element of xs. It panics on an empty
// slice, mirroring the behaviour of indexing.
func Pick[T any](rng *rand.Rand, xs []T) T {
	return xs[rng.Intn(len(xs))]
}

// Shuffled returns a shuffled copy of xs, leaving the input untouched.
func Shuffled[T any](rng *rand.Rand, xs []T) []T {
	out := make([]T, len(xs))
	copy(out, xs)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
