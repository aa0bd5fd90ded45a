package matrix

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/agardist/agar/internal/gf256"
)

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("got %dx%d, want 2x3", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 0xAB)
	if got := m.Get(1, 2); got != 0xAB {
		t.Fatalf("Get(1,2) = %#x, want 0xAB", got)
	}
	if got := m.Get(0, 0); got != 0 {
		t.Fatalf("fresh matrix not zeroed: %#x", got)
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	for _, dims := range [][2]int{{0, 1}, {1, 0}, {-1, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			New(dims[0], dims[1])
		}()
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]byte{{1, 2}, {3, 4}})
	if m.Get(0, 1) != 2 || m.Get(1, 0) != 3 {
		t.Fatal("FromRows stored wrong values")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ragged FromRows did not panic")
			}
		}()
		FromRows([][]byte{{1, 2}, {3}})
	}()
}

func TestIdentity(t *testing.T) {
	for n := 1; n <= 8; n++ {
		id := Identity(n)
		if !id.IsIdentity() {
			t.Fatalf("Identity(%d) failed IsIdentity", n)
		}
	}
}

func TestMulByIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomMatrix(rng, 4, 4)
	if !m.Mul(Identity(4)).Equal(m) {
		t.Error("m * I != m")
	}
	if !Identity(4).Mul(m).Equal(m) {
		t.Error("I * m != m")
	}
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]byte{
		{1, 2},
		{3, 4},
	})
	b := FromRows([][]byte{
		{5, 6},
		{7, 8},
	})
	// Computed by hand over GF(2^8):
	// c00 = 1*5 ^ 2*7 = 5 ^ 14 = 11
	// c01 = 1*6 ^ 2*8 = 6 ^ 16 = 22
	// c10 = 3*5 ^ 4*7 = 15 ^ 28 = 19
	// c11 = 3*6 ^ 4*8 = 10 ^ 32 = 42
	want := FromRows([][]byte{
		{11, 22},
		{19, 42},
	})
	if got := a.Mul(b); !got.Equal(want) {
		t.Fatalf("Mul mismatch:\n%v\nwant:\n%v", got, want)
	}
}

func TestMulAssociativityQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomMatrix(r, 3, 4)
		b := randomMatrix(r, 4, 5)
		c := randomMatrix(r, 5, 2)
		return a.Mul(b).Mul(c).Equal(a.Mul(b.Mul(c)))
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Errorf("matrix multiplication not associative: %v", err)
	}
}

func TestInvertIdentity(t *testing.T) {
	inv, err := Identity(6).Invert()
	if err != nil {
		t.Fatal(err)
	}
	if !inv.IsIdentity() {
		t.Fatal("inverse of identity is not identity")
	}
}

func TestInvertKnown(t *testing.T) {
	m := FromRows([][]byte{
		{56, 23, 98},
		{3, 100, 200},
		{45, 201, 123},
	})
	inv, err := m.Invert()
	if err != nil {
		t.Fatal(err)
	}
	if !m.Mul(inv).IsIdentity() {
		t.Error("m * m^-1 != I")
	}
	if !inv.Mul(m).IsIdentity() {
		t.Error("m^-1 * m != I")
	}
}

func TestInvertRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		m := randomInvertible(r, n)
		inv, err := m.Invert()
		if err != nil {
			return false
		}
		return m.Mul(inv).IsIdentity() && inv.Mul(m).IsIdentity()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Errorf("invert round-trip failed: %v", err)
	}
}

func TestInvertSingular(t *testing.T) {
	// Row 1 = 2 * row 0, so the matrix is singular.
	m := FromRows([][]byte{
		{1, 2},
		{2, 4},
	})
	if _, err := m.Invert(); err != ErrSingular {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
}

func TestInvertZeroMatrix(t *testing.T) {
	if _, err := New(3, 3).Invert(); err != ErrSingular {
		t.Fatalf("expected ErrSingular for zero matrix, got %v", err)
	}
}

func TestInvertNonSquare(t *testing.T) {
	if _, err := New(2, 3).Invert(); err == nil {
		t.Fatal("expected error inverting non-square matrix")
	}
}

func TestVandermonde(t *testing.T) {
	v := Vandermonde(4, 3)
	for r := 0; r < 4; r++ {
		for c := 0; c < 3; c++ {
			if got, want := v.Get(r, c), gf256.Pow(byte(r), c); got != want {
				t.Fatalf("Vandermonde(%d,%d) = %d, want %d", r, c, got, want)
			}
		}
	}
	// First column is all ones, row 0 is 1,0,0,...
	if v.Get(0, 0) != 1 || v.Get(0, 1) != 0 {
		t.Error("Vandermonde row 0 should be e_0")
	}
}

func TestCauchyAllSquareSubmatricesInvertible(t *testing.T) {
	// The defining property of a Cauchy matrix: every square sub-matrix is
	// invertible. Verify for all 2x2 sub-matrices of a 4x4 Cauchy matrix.
	c := Cauchy(4, 4)
	for r1 := 0; r1 < 4; r1++ {
		for r2 := r1 + 1; r2 < 4; r2++ {
			for c1 := 0; c1 < 4; c1++ {
				for c2 := c1 + 1; c2 < 4; c2++ {
					sub := FromRows([][]byte{
						{c.Get(r1, c1), c.Get(r1, c2)},
						{c.Get(r2, c1), c.Get(r2, c2)},
					})
					if _, err := sub.Invert(); err != nil {
						t.Fatalf("2x2 Cauchy sub-matrix (%d,%d)x(%d,%d) singular", r1, r2, c1, c2)
					}
				}
			}
		}
	}
}

func TestCauchyPanicsWhenTooLarge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Cauchy(200, 100) did not panic")
		}
	}()
	Cauchy(200, 100)
}

func TestAugmentAndSubMatrix(t *testing.T) {
	a := FromRows([][]byte{{1, 2}, {3, 4}})
	b := FromRows([][]byte{{5}, {6}})
	aug := a.Augment(b)
	if aug.Cols() != 3 || aug.Get(0, 2) != 5 || aug.Get(1, 2) != 6 {
		t.Fatal("Augment wrong")
	}
	sub := aug.SubMatrix(0, 2, 2, 3)
	if !sub.Equal(b) {
		t.Fatal("SubMatrix did not recover augmented block")
	}
}

func TestSelectRows(t *testing.T) {
	m := FromRows([][]byte{{1}, {2}, {3}})
	s := m.SelectRows([]int{2, 0, 2})
	if s.Get(0, 0) != 3 || s.Get(1, 0) != 1 || s.Get(2, 0) != 3 {
		t.Fatal("SelectRows wrong")
	}
}

func TestSwapRows(t *testing.T) {
	m := FromRows([][]byte{{1, 2}, {3, 4}})
	m.SwapRows(0, 1)
	if m.Get(0, 0) != 3 || m.Get(1, 0) != 1 {
		t.Fatal("SwapRows wrong")
	}
	m.SwapRows(1, 1) // no-op must not corrupt
	if m.Get(1, 0) != 1 {
		t.Fatal("self-swap corrupted row")
	}
}

func TestRowCopyIsIndependent(t *testing.T) {
	m := FromRows([][]byte{{1, 2}})
	row := m.Row(0)
	row[0] = 99
	if m.Get(0, 0) != 1 {
		t.Fatal("Row() must return a copy")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := FromRows([][]byte{{1, 2}})
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.Get(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func randomMatrix(r *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	r.Read(m.data)
	return m
}

func randomInvertible(r *rand.Rand, n int) *Matrix {
	for {
		m := randomMatrix(r, n, n)
		if _, err := m.Invert(); err == nil {
			return m
		}
	}
}

func BenchmarkInvert9x9(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	m := randomInvertible(rng, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Invert(); err != nil {
			b.Fatal(err)
		}
	}
}
