package kde

import "math"

// cosQuarter replaces each x of xs with math.Cos(x), bit for bit, for
// 0 ≤ x < 3π/4. That range holds the cosine kernel's argument
// π/2·√d²·(1/b) for every d² < b², including the few ulps past π/2 that
// rounding can give it.
//
// It is the pure-Go math.cos (Cephes' reduction and polynomials; only
// s390x has an assembly Cos) with the reduction specialised to the range:
// the octant ⌊x·4/π⌋ is 0, 1 or 2, which math.cos maps to 0 (the cosine
// polynomial at z = x) or 2 (the negated sine polynomial at z = x − π/2).
// Both polynomials are evaluated and a bit mask picks one, so unlike
// math.Cos it has no data-dependent branch, and a block of terms costs
// one call. The expressions are math.cos's own, so on a target whose
// compiler fuses multiply-adds it fuses the same ones as in the math
// package of the same build; TestCosQuarterMatchesMathCos and
// FuzzCosQuarter hold that.
func cosQuarter(xs []float64) {
	const (
		// π/4 in three parts, math.cos's PI4A, PI4B, PI4C.
		pi4a = 7.85398125648498535156e-1  // 0x3fe921fb40000000
		pi4b = 3.77489470793079817668e-8  // 0x3e64442d00000000
		pi4c = 2.69515142907905952645e-15 // 0x3ce8469898cc5170
		// math's _sin and _cos coefficients.
		s0 = 1.58962301576546568060e-10  // 0x3de5d8fd1fd19ccd
		s1 = -2.50507477628578072866e-8  // 0xbe5ae5e5a9291f5d
		s2 = 2.75573136213857245213e-6   // 0x3ec71de3567d48a1
		s3 = -1.98412698295895385996e-4  // 0xbf2a01a019bfdf03
		s4 = 8.33333333332211858878e-3   // 0x3f8111111110f7d0
		s5 = -1.66666666666666307295e-1  // 0xbfc5555555555548
		c0 = -1.13585365213876817300e-11 // 0xbda8fa49a0861a9b
		c1 = 2.08757008419747316778e-9   // 0x3e21ee9d7b4e3f05
		c2 = -2.75573141792967388112e-7  // 0xbe927e4f7eac4bc6
		c3 = 2.48015872888517045348e-5   // 0x3efa01a019c844f5
		c4 = -1.38888888888730564116e-3  // 0xbf56c16c16c14f91
		c5 = 4.16666666666665929218e-2   // 0x3fa555555555554b
	)
	for i, x := range xs {
		sine := uint64(int64(x*(4/math.Pi))+1) >> 1 // 1 in octants 1 and 2
		y := float64(2 * sine)
		z := ((x - y*pi4a) - y*pi4b) - y*pi4c
		zz := z * z
		s := z + z*zz*((((((s0*zz)+s1)*zz+s2)*zz+s3)*zz+s4)*zz+s5)
		c := 1.0 - 0.5*zz + zz*zz*((((((c0*zz)+c1)*zz+c2)*zz+c3)*zz+c4)*zz+c5)
		mask := -sine
		xs[i] = math.Float64frombits(math.Float64bits(c)&^mask | (math.Float64bits(s)^(1<<63))&mask)
	}
}

// cosineArgs writes the cosine kernel's argument π/2·√d²·(1/b) over each
// d² of d2s and returns d2s.
func cosineArgs(d2s []float64, invB float64) []float64 {
	for j, d2 := range d2s {
		d2s[j] = math.Pi / 2 * math.Sqrt(d2) * invB
	}
	return d2s
}
