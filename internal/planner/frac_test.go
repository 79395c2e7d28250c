package planner

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// TestFracMatchesBigRat cross-checks the hot-path fraction arithmetic
// against math/big on random sums and comparisons, mixing small
// period-like denominators with values chosen to force the int64
// overflow spill.
func TestFracMatchesBigRat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dens := []int64{1, 2, 4, 8, 16, 100, 1_000_000, 20_000_000, 102_700_800,
		math.MaxInt64 - 1, math.MaxInt64}
	for trial := 0; trial < 500; trial++ {
		f := zeroFrac()
		want := new(big.Rat)
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			den := dens[rng.Intn(len(dens))]
			num := 1 + rng.Int63n(den)
			f.add(num, den)
			want.Add(want, big.NewRat(num, den))
		}
		if f.rat().Cmp(want) != 0 {
			t.Fatalf("trial %d: frac = %v, big.Rat = %v", trial, f.rat(), want)
		}
		for _, v := range []int64{0, 1, 2, 40} {
			if got, want := f.cmpInt(v), want.Cmp(new(big.Rat).SetInt64(v)); got != want {
				t.Fatalf("trial %d: cmpInt(%d) = %d, want %d (value %v)", trial, v, got, want, f.rat())
			}
		}
	}
}

// TestFracCmp pins pairwise comparison across the fast/spilled regimes.
func TestFracCmp(t *testing.T) {
	mk := func(pairs ...[2]int64) frac {
		f := zeroFrac()
		for _, p := range pairs {
			f.add(p[0], p[1])
		}
		return f
	}
	half := mk([2]int64{1, 2})
	threeEighths := mk([2]int64{1, 4}, [2]int64{1, 8})
	spilled := mk([2]int64{1, math.MaxInt64}, [2]int64{1, math.MaxInt64 - 1})
	if spilled.spill == nil {
		t.Fatal("coprime huge denominators did not spill to big.Rat")
	}
	for _, tc := range []struct {
		a, b frac
		want int
	}{
		{half, threeEighths, 1},
		{threeEighths, half, -1},
		{half, half, 0},
		{spilled, half, -1},
		{half, spilled, 1},
		{spilled, spilled, 0},
	} {
		if got := tc.a.cmp(&tc.b); got != tc.want {
			t.Errorf("cmp(%v, %v) = %d, want %d", tc.a.rat(), tc.b.rat(), got, tc.want)
		}
	}
	// A spilled accumulator keeps summing exactly.
	s := spilled.clone()
	s.add(1, 2)
	want := new(big.Rat).Add(spilled.rat(), big.NewRat(1, 2))
	if s.rat().Cmp(want) != 0 {
		t.Errorf("post-spill add: %v, want %v", s.rat(), want)
	}
}

// FuzzFracAdd sums a sequence of fractions decoded from the input — each
// denominator a period-like or PPM one, a small one, a raw 63-bit one or
// one just under MaxInt64, each numerator in [0, den] — and holds the
// frac to math/big: rat equals the big.Rat sum, cmpInt agrees on small
// integers, and cmp finds the same sum added in reverse order equal and
// that sum plus a little larger.
func FuzzFracAdd(f *testing.F) {
	f.Add([]byte{0, 1, 7, 0, 4, 9})
	f.Add([]byte{1, 63, 1, 1, 63, 1, 1, 63, 1, 1, 63, 1})
	f.Add([]byte{3, 0, 255, 3, 1, 255, 2, 7, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 5, 0, 2, 9})
	dens := []int64{1, 2, 4, 8, 16, 64, 100, 1_000_000, 2_633_400, 20_000_000, 102_702_600}
	f.Fuzz(func(t *testing.T, data []byte) {
		type term struct{ num, den int64 }
		var terms []term
		for len(data) >= 3 && len(terms) < 64 {
			kind, a, b := data[0]%4, data[1], data[2]
			data = data[3:]
			var den int64
			switch kind {
			case 0:
				den = dens[int(a)%len(dens)]
			case 1:
				den = int64(a) + 1
			case 2:
				var raw [8]byte
				data = data[copy(raw[:], data):]
				den = int64(binary.LittleEndian.Uint64(raw[:])&math.MaxInt64) | 1
			case 3:
				den = math.MaxInt64 - int64(a)
			}
			num := den / 256 * int64(b)
			if kind == 1 {
				num = int64(b) % (den + 1)
			}
			terms = append(terms, term{num, den})
		}
		fwd, rev, want := zeroFrac(), zeroFrac(), new(big.Rat)
		for i, tm := range terms {
			fwd.add(tm.num, tm.den)
			want.Add(want, big.NewRat(tm.num, tm.den))
			back := terms[len(terms)-1-i]
			rev.add(back.num, back.den)
		}
		if fwd.rat().Cmp(want) != 0 {
			t.Fatalf("%v: frac sums to %v, big.Rat to %v", terms, fwd.rat(), want)
		}
		for v := int64(0); v <= 3; v++ {
			if got, want := fwd.cmpInt(v), want.Cmp(new(big.Rat).SetInt64(v)); got != want {
				t.Fatalf("%v: cmpInt(%d) = %d, want %d (value %v)", terms, v, got, want, fwd.rat())
			}
		}
		if got := fwd.cmp(&rev); got != 0 {
			t.Fatalf("%v: the sum and its reverse compare %d", terms, got)
		}
		more := rev.clone()
		more.add(1, math.MaxInt64)
		if got, back := fwd.cmp(&more), more.cmp(&fwd); got != -1 || back != 1 {
			t.Fatalf("%v: the sum against it plus 1/MaxInt64 compares %d, and back %d", terms, got, back)
		}
	})
}
