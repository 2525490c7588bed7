package fleet

import (
	"math"
	"testing"
)

// sinCosRef is the always-draw reference for the noise stream: Box-Muller
// with separate math.Sin and math.Cos calls and its own spare, drawing
// its uniforms from a prng stream that nothing else touches.
type sinCosRef struct {
	p        prng
	spare    float64
	hasSpare bool
}

func (r *sinCosRef) norm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	u1 := r.p.Float64()
	for u1 == 0 {
		u1 = r.p.Float64()
	}
	u2 := r.p.Float64()
	rad := math.Sqrt(-2 * math.Log(u1))
	theta := 2 * math.Pi * u2
	r.spare = rad * math.Sin(theta)
	r.hasSpare = true
	return rad * math.Cos(theta)
}

// samePosition reports whether p sits where the reference does in the
// noise stream: the same splitmix state and the same open pair.
func samePosition(p *prng, r *sinCosRef) bool {
	return p.s == r.p.s && (p.held != spareNone) == r.hasSpare
}

// TestNormFloat64MatchesSinCos pins the per-node noise stream: over 2¹⁷
// draws from several node seeds, NormFloat64 equals the separate Sin/Cos
// reference bit for bit, spares included. The sequences also interleave
// SkipNorm (every 3rd draw, and alternating 48- and 47-slot night
// blocks); after every draw the generator must sit at the reference's
// stream position, and every evaluated draw, lazy spares included, must
// equal the reference's draw at that position.
func TestNormFloat64MatchesSinCos(t *testing.T) {
	const seeds, draws = 8, 1 << 17
	patterns := []struct {
		name string
		skip func(d int) bool
	}{
		{"draw-only", func(int) bool { return false }},
		{"every-3rd-skipped", func(d int) bool { return d%3 == 2 }},
		{"48-slot-nights", func(d int) bool { return d/48%2 == 1 }},
		{"47-slot-nights", func(d int) bool { return d/47%2 == 1 }},
	}
	for _, pat := range patterns {
		for i := 0; i < seeds; i++ {
			got := prng{s: nodeSeed(int64(i), 1000*i)}
			want := sinCosRef{p: got}
			for d := 0; d < draws; d++ {
				w := want.norm()
				if pat.skip(d) {
					got.SkipNorm()
				} else if g := got.NormFloat64(); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s seed %d draw %d: %v, reference %v", pat.name, i, d, g, w)
				}
				if !samePosition(&got, &want) {
					t.Fatalf("%s seed %d draw %d: generator at %+v, reference at %+v", pat.name, i, d, got, want)
				}
			}
		}
	}
}

// skipBound returns the smallest σ in [0, 0.5] at which noiseSkipExact
// turns false, by bisection over the float64 bit patterns (which order
// non-negative floats); it returns 0.5 if there is none.
func skipBound() float64 {
	lo, hi := uint64(0), math.Float64bits(0.5)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if noiseSkipExact(math.Float64frombits(mid)) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return math.Float64frombits(lo)
}

// streamAt returns the prng state whose next() returns v.
func streamAt(v uint64) uint64 {
	unshift := func(y uint64, k uint) uint64 {
		x := y
		for i := uint(0); i < 64/k+1; i++ {
			x = y ^ x>>k
		}
		return x
	}
	inverse := func(c uint64) uint64 { // c odd; Newton's iteration mod 2⁶⁴
		inv := c
		for i := 0; i < 5; i++ {
			inv *= 2 - c*inv
		}
		return inv
	}
	v = unshift(v, 31)
	v *= inverse(0x94d049bb133111eb)
	v = unshift(v, 27)
	v *= inverse(0xbf58476d1ce4e5b9)
	v = unshift(v, 30)
	return v - 0x9e3779b97f4a7c15
}

// TestNoiseSkipBound checks the night-skip bound at its edges: maxAbsNorm
// is the largest |z| the generator returns and it is reachable; below the
// bound a zero reading stays +0 for both extreme draws, while at σ = 0.5
// it turns into −0, which is why larger σ keep the full draw; and
// sampleNode wires the bound into each node.
func TestNoiseSkipBound(t *testing.T) {
	b := skipBound()
	if b < 0.116 || b > 0.117 {
		t.Fatalf("skip bound %v, want ≈ 1/8.5717", b)
	}
	if r := math.Sqrt(-2 * math.Log(0x1p-52)); !(r < maxAbsNorm-0.01) {
		t.Fatalf("second-largest radius %v not below maxAbsNorm %v", r, maxAbsNorm)
	}
	for _, tc := range []struct{ u2, z float64 }{{0.25, maxAbsNorm}, {0.75, -maxAbsNorm}} {
		p := prng{u1: 0x1p-53, u2: tc.u2, held: spareLazy}
		if z := p.NormFloat64(); z != tc.z {
			t.Fatalf("lazy spare (2⁻⁵³, %v) = %v, want %v", tc.u2, z, tc.z)
		}
	}
	if p := (prng{s: streamAt(0)}); p.Float64() != 0 {
		t.Fatal("streamAt(0) does not yield a rejected u1")
	}

	// observe(+0) with the lazy spare z = −maxAbsNorm pending, skipping or
	// drawing.
	extreme := func(sigma float64, skip bool) (float64, prng) {
		w := nodeWorld{noise: prng{u1: 0x1p-53, u2: 0.75, held: spareLazy}, sigma: sigma, skipDark: skip}
		return w.observe(0), w.noise
	}
	below := math.Nextafter(b, 0)
	for _, sigma := range []float64{0.02, below} {
		skipped, ps := extreme(sigma, true)
		drawn, pd := extreme(sigma, false)
		if math.Float64bits(skipped) != 0 || math.Float64bits(drawn) != 0 || ps != pd {
			t.Errorf("σ %v: skipped %v (%+v), drawn %v (%+v); want +0 at one position", sigma, skipped, ps, drawn, pd)
		}
	}
	if drawn, _ := extreme(0.5, false); !math.Signbit(drawn) {
		t.Errorf("σ 0.5: full draw of the extreme reads %v, want −0", drawn)
	}

	for _, tc := range []struct {
		sigma float64
		skip  bool
	}{{0.02, true}, {below, true}, {b, false}, {math.Nextafter(b, 1), false}, {0.5, false}} {
		cfg := DefaultConfig(1)
		cfg.NoiseSigma = tc.sigma
		if got := sampleNode(&cfg, 0).skipDark; got != tc.skip {
			t.Errorf("σ %v: node skipDark %t, want %t", tc.sigma, got, tc.skip)
		}
	}
}

// FuzzNoiseSkipMatchesFullDraw runs a node's sensor readings over a
// fuzzed day/night mask twice: with the night-skip and with every slot
// drawing. After every slot the readings must agree bit for bit and
// both generators must sit at the same stream position. mask has one
// byte per slot: b%4 == 0 is a +0 night, 1 a −0 night, anything else
// daylight at level·b/255.
func FuzzNoiseSkipMatchesFullDraw(f *testing.F) {
	b := skipBound()
	sigmas := []float64{0, 0.02, math.Nextafter(b, 0), b, math.Nextafter(b, 1), 0.5}
	seeds := []uint64{
		1,
		streamAt(0),       // the first u1 is 0 and is rejected
		streamAt(1 << 11), // the first u1 is 2⁻⁵³: r = maxAbsNorm
	}
	nights := make([]byte, 192) // two days of 48 night and 48 day slots
	for i := range nights {
		if i/48%2 == 1 {
			nights[i] = 255
		}
	}
	masks := [][]byte{
		nights,
		{0, 0, 0, 200, 0, 7, 6, 1, 0, 255, 3, 0, 0, 0, 2},
		{9, 9, 4, 9, 9, 4, 9, 9, 4, 9, 9, 4, 9, 9, 4, 9, 9, 4},
	}
	for i, sigma := range sigmas {
		for j, seed := range seeds {
			f.Add(sigma, seed, masks[(i+j)%len(masks)], 900.0)
		}
	}
	f.Fuzz(func(t *testing.T, sigma float64, seed uint64, mask []byte, level float64) {
		if !(sigma >= 0 && sigma <= 0.5) {
			t.Skip("σ outside the config's [0, 0.5]")
		}
		if !(level > 0 && level < 1e4) {
			level = 900
		}
		if len(mask) > 4096 {
			mask = mask[:4096]
		}
		cfg := DefaultConfig(1)
		cfg.NoiseSigma = sigma
		got := sampleNode(&cfg, 0)
		got.noise = prng{s: seed}
		ref := got
		ref.skipDark = false
		for slot, m := range mask {
			start := level * float64(m) / 255
			switch m % 4 {
			case 0:
				start = 0
			case 1:
				start = math.Copysign(0, -1)
			}
			g, w := got.observe(start), ref.observe(start)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("σ %v slot %d start %v: reading %v, full draw %v", sigma, slot, start, g, w)
			}
			if got.noise.s != ref.noise.s || (got.noise.held != spareNone) != (ref.noise.held != spareNone) {
				t.Fatalf("σ %v slot %d: stream at %+v, full draw at %+v", sigma, slot, got.noise, ref.noise)
			}
		}
	})
}
