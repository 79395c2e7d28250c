package planner

import (
	"math"
	"math/big"
	"math/bits"
)

// frac is an exact non-negative rational for utilization accounting on
// the planning hot path, its numerator over the (unreduced) lcm of the
// denominators added: periods divide the bounded hyperperiod, so most
// adds find den a multiple of theirs and need no gcd. Arithmetic runs
// allocation-free with 128-bit overflow guards; a value that would
// overflow spills into math/big once and stays there. Both regimes are
// exact — frac trades none of big.Rat's precision, only its mallocs.
type frac struct {
	num, den int64 // den > 0, a multiple of every den added; meaningful iff spill == nil
	spill    *big.Rat
}

// zeroFrac is the additive identity.
func zeroFrac() frac { return frac{num: 0, den: 1} }

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// add adds num/den in place. Inputs outside (0, MaxInt64] (callers
// validate specs first, so this is defensive) take the big path, which
// is correct for any rational.
func (f *frac) add(num, den int64) {
	if f.spill == nil && num >= 0 && den > 0 {
		da, db := f.den/den, int64(1)
		if f.den%den != 0 {
			g := gcd64(f.den, den)
			da, db = f.den/g, den/g // lcm(f.den, den) = f.den * db
		}
		hi1, lo1 := bits.Mul64(uint64(f.num), uint64(db))
		hi2, lo2 := bits.Mul64(uint64(num), uint64(da))
		hiD, loD := bits.Mul64(uint64(f.den), uint64(db))
		sum, carry := bits.Add64(lo1, lo2, 0)
		if hi1|hi2|hiD|carry == 0 && sum <= math.MaxInt64 && loD <= math.MaxInt64 {
			f.num, f.den = int64(sum), int64(loD)
			return
		}
	}
	if f.spill == nil {
		f.spill = big.NewRat(f.num, f.den)
	}
	f.spill.Add(f.spill, big.NewRat(num, den))
}

// cmp returns -1, 0, or +1 comparing f against o.
func (f *frac) cmp(o *frac) int {
	if f.spill == nil && o.spill == nil {
		hiL, loL := bits.Mul64(uint64(f.num), uint64(o.den))
		hiR, loR := bits.Mul64(uint64(o.num), uint64(f.den))
		switch {
		case hiL != hiR:
			if hiL < hiR {
				return -1
			}
			return 1
		case loL != loR:
			if loL < loR {
				return -1
			}
			return 1
		}
		return 0
	}
	return f.rat().Cmp(o.rat())
}

// cmpInt compares f against the non-negative integer v.
func (f *frac) cmpInt(v int64) int {
	if f.spill != nil {
		return f.spill.Cmp(new(big.Rat).SetInt64(v))
	}
	hi, lo := bits.Mul64(uint64(v), uint64(f.den))
	switch {
	case hi != 0 || uint64(f.num) < lo:
		return -1
	case uint64(f.num) > lo:
		return 1
	}
	return 0
}

// clone returns an independent copy (the spilled representation is
// deep-copied so the copy can be mutated freely).
func (f *frac) clone() frac {
	if f.spill != nil {
		return frac{spill: new(big.Rat).Set(f.spill)}
	}
	return *f
}

// rat returns the value as a fresh big.Rat (reporting only).
func (f *frac) rat() *big.Rat {
	if f.spill != nil {
		return new(big.Rat).Set(f.spill)
	}
	return big.NewRat(f.num, f.den)
}
