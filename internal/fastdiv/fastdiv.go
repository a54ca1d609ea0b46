package fastdiv

import "math/bits"

// Divisor is a precomputed divisor. The zero value is not usable; build
// one with New.
type Divisor struct {
	d     uint64
	m     uint64 // ceil(2^64/d) when d is not a power of two and below 2^32, else 0
	mask  uint64 // d-1 when d is a power of two
	shift uint8  // log2(d) when d is a power of two
	pow2  bool
}

// New precomputes division by d, which must be at least 1.
func New(d uint64) Divisor {
	if d == 0 {
		panic("fastdiv: division by zero")
	}
	v := Divisor{d: d}
	switch {
	case d&(d-1) == 0:
		v.pow2 = true
		v.mask = d - 1
		v.shift = uint8(bits.TrailingZeros64(d))
	case d>>32 == 0:
		v.m = ^uint64(0)/d + 1
	}
	return v
}

// Mod returns x % d.
func (v Divisor) Mod(x uint64) uint64 {
	if v.pow2 {
		return x & v.mask
	}
	if x>>32 == 0 && v.m != 0 {
		hi, _ := bits.Mul64(v.m*x, v.d)
		return hi
	}
	return x % v.d
}

// Div returns x / d.
func (v Divisor) Div(x uint64) uint64 {
	if v.pow2 {
		return x >> v.shift
	}
	if x>>32 == 0 && v.m != 0 {
		hi, _ := bits.Mul64(v.m, x)
		return hi
	}
	return x / v.d
}

// DivMod returns x / d and x % d.
func (v Divisor) DivMod(x uint64) (q, r uint64) {
	q = v.Div(x)
	return q, x - q*v.d
}
