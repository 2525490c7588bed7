// Package fixedpoint implements Q16.16 fixed-point arithmetic, the
// number format a floating-point-less microcontroller such as the
// MSP430F1611 would use to run the prediction algorithm. It backs the
// cycle-accounting MCU model in internal/mcu and the float-vs-fixed
// accuracy ablation.
//
// Values are stored in an int64 carrying a 32-bit Q16.16 payload
// (16 integer bits, 16 fractional bits); arithmetic saturates at the
// 32-bit Q16.16 range instead of wrapping, mirroring a careful embedded
// implementation.
package fixedpoint

import (
	"fmt"
	"math"
)

// Q is a Q16.16 fixed-point number.
type Q int64

// FracBits is the number of fractional bits.
const FracBits = 16

// One is the Q16.16 representation of 1.0.
const One Q = 1 << FracBits

// Max and Min are the saturation bounds (the 32-bit Q16.16 range).
const (
	Max Q = math.MaxInt32
	Min Q = math.MinInt32
)

// Eps is the smallest positive Q16.16 increment (2^-16 ≈ 1.5e-5).
const Eps Q = 1

// FromFloat converts a float64 to Q16.16 with round-to-nearest and
// saturation.
func FromFloat(f float64) Q {
	if math.IsNaN(f) {
		return 0
	}
	v := math.Round(f * float64(One))
	if v > float64(Max) {
		return Max
	}
	if v < float64(Min) {
		return Min
	}
	return Q(v)
}

// FromInt converts an integer with saturation.
func FromInt(i int) Q { return sat(int64(i) << FracBits) }

// Float converts back to float64 (exact: Q16.16 ⊂ float64).
func (q Q) Float() float64 { return float64(q) / float64(One) }

// Int returns the integer part, truncating toward zero.
func (q Q) Int() int {
	if q >= 0 {
		return int(q >> FracBits)
	}
	return -int((-q) >> FracBits)
}

// String renders the value with five decimal places.
func (q Q) String() string { return fmt.Sprintf("%.5f", q.Float()) }

func sat(v int64) Q {
	if v > int64(Max) {
		return Max
	}
	if v < int64(Min) {
		return Min
	}
	return Q(v)
}

// Add returns a+b with saturation.
func Add(a, b Q) Q { return sat(int64(a) + int64(b)) }

// Sub returns a−b with saturation.
func Sub(a, b Q) Q { return sat(int64(a) - int64(b)) }

// Neg returns −a with saturation (Min negates to Max).
func Neg(a Q) Q { return sat(-int64(a)) }

// Abs returns |a| with saturation.
func Abs(a Q) Q {
	if a < 0 {
		return Neg(a)
	}
	return a
}

// Mul returns a·b in Q16.16 with rounding and saturation. The
// intermediate product uses 64 bits, as the MSP430's hardware multiplier
// chain (MAC) would accumulate.
func Mul(a, b Q) Q {
	p := int64(a) * int64(b)
	// The arithmetic shift floors, so adding half an LSB first gives
	// round-half-up for either sign.
	p += 1 << (FracBits - 1)
	return sat(p >> FracBits)
}

// Div returns a/b in Q16.16 with rounding and saturation. Division by
// zero saturates toward the sign of a (a careful embedded port would
// guard the call; the metric here is graceful degradation, not a trap).
func Div(a, b Q) Q {
	if b == 0 {
		if a >= 0 {
			return Max
		}
		return Min
	}
	n := int64(a) << FracBits
	// Round to nearest by biasing with half the divisor.
	half := int64(b) / 2
	if (n >= 0) == (b > 0) {
		n += half
	} else {
		n -= half
	}
	return sat(n / int64(b))
}
