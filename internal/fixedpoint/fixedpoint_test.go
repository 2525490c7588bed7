package fixedpoint

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFromFloatRoundTrip(t *testing.T) {
	cases := []float64{0, 1, -1, 0.5, -0.5, 3.25, 1000.125, -2047.5}
	for _, f := range cases {
		q := FromFloat(f)
		if q.Float() != f {
			t.Errorf("round trip %v -> %v", f, q.Float())
		}
	}
}

func TestFromFloatRounding(t *testing.T) {
	// 2^-17 rounds to one LSB (ties away from zero under math.Round).
	q := FromFloat(1.0 / (1 << 17))
	if q != 1 {
		t.Errorf("half-LSB rounds to %d, want 1", q)
	}
	if FromFloat(math.NaN()) != 0 {
		t.Error("NaN should map to 0")
	}
	if FromFloat(1e12) != Max {
		t.Error("overflow should saturate to Max")
	}
	if FromFloat(-1e12) != Min {
		t.Error("underflow should saturate to Min")
	}
}

func TestFromIntAndInt(t *testing.T) {
	if FromInt(5) != 5*One {
		t.Error("FromInt")
	}
	if FromInt(100000) != Max {
		t.Error("FromInt should saturate")
	}
	if FromInt(-100000) != Min {
		t.Error("FromInt should saturate negative")
	}
	if FromInt(7).Int() != 7 {
		t.Error("Int round trip")
	}
	if FromFloat(-3.75).Int() != -3 {
		t.Errorf("Int truncation toward zero: got %d", FromFloat(-3.75).Int())
	}
}

func TestString(t *testing.T) {
	if One.String() != "1.00000" {
		t.Errorf("String = %q", One.String())
	}
}

func TestAddSubSaturate(t *testing.T) {
	if Add(Max, One) != Max {
		t.Error("Add should saturate high")
	}
	if Sub(Min, One) != Min {
		t.Error("Sub should saturate low")
	}
	if Add(FromInt(2), FromInt(3)) != FromInt(5) {
		t.Error("Add arithmetic")
	}
	if Sub(FromInt(2), FromInt(3)) != FromInt(-1) {
		t.Error("Sub arithmetic")
	}
}

func TestNegAbs(t *testing.T) {
	if Neg(One) != -One {
		t.Error("Neg")
	}
	if Neg(Min) != Max {
		t.Error("Neg(Min) must saturate to Max")
	}
	if Abs(FromInt(-3)) != FromInt(3) {
		t.Error("Abs")
	}
	if Abs(Min) != Max {
		t.Error("Abs(Min) must saturate")
	}
}

func TestMul(t *testing.T) {
	if Mul(FromFloat(1.5), FromFloat(2)) != FromFloat(3) {
		t.Error("1.5*2")
	}
	if Mul(FromFloat(-1.5), FromFloat(2)) != FromFloat(-3) {
		t.Error("-1.5*2")
	}
	if Mul(Max, FromInt(2)) != Max {
		t.Error("Mul should saturate")
	}
	if Mul(Min, FromInt(2)) != Min {
		t.Error("Mul should saturate negative")
	}
	// Small-value precision: 0.5 * 0.5 = 0.25 exactly.
	if Mul(FromFloat(0.5), FromFloat(0.5)) != FromFloat(0.25) {
		t.Error("0.5*0.5")
	}
}

func TestDiv(t *testing.T) {
	if Div(FromInt(3), FromInt(2)) != FromFloat(1.5) {
		t.Error("3/2")
	}
	if Div(FromInt(-3), FromInt(2)) != FromFloat(-1.5) {
		t.Error("-3/2")
	}
	if Div(One, 0) != Max {
		t.Error("1/0 should saturate positive")
	}
	if Div(-One, 0) != Min {
		t.Error("-1/0 should saturate negative")
	}
	if Div(0, 0) != Max {
		t.Error("0/0 convention")
	}
}

func TestMulCommutes(t *testing.T) {
	f := func(a, b int32) bool {
		qa, qb := Q(a), Q(b)
		return Mul(qa, qb) == Mul(qb, qa)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestMulMatchesFloatWithinEps(t *testing.T) {
	f := func(a, b int16) bool {
		// int16 keeps products within Q16.16 range: |a·b| < 2^15·2^15·2^-16 = 2^14.
		qa, qb := FromFloat(float64(a)/256), FromFloat(float64(b)/256)
		got := Mul(qa, qb).Float()
		want := qa.Float() * qb.Float()
		return math.Abs(got-want) <= 2*Eps.Float()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDivMatchesFloatWithinEps(t *testing.T) {
	f := func(a, b int16) bool {
		if b == 0 {
			return true
		}
		qa, qb := FromFloat(float64(a)), FromFloat(float64(b))
		got := Div(qa, qb).Float()
		want := float64(a) / float64(b)
		if math.Abs(want) > 30000 { // beyond Q16.16 range
			return true
		}
		return math.Abs(got-want) <= 2*Eps.Float()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestAddAssociativeWithoutSaturation(t *testing.T) {
	f := func(a, b, c int16) bool {
		qa, qb, qc := Q(a), Q(b), Q(c)
		return Add(Add(qa, qb), qc) == Add(qa, Add(qb, qc))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
