package gf256

import (
	"bytes"
	"strconv"
	"testing"
	"testing/quick"
)

func TestAddIsXor(t *testing.T) {
	cases := []struct{ a, b, want byte }{
		{0, 0, 0},
		{1, 1, 0},
		{0x53, 0xCA, 0x99},
		{0xFF, 0x0F, 0xF0},
	}
	for _, c := range cases {
		if got := Add(c.a, c.b); got != c.want {
			t.Errorf("Add(%#x, %#x) = %#x, want %#x", c.a, c.b, got, c.want)
		}
		if got := Sub(c.a, c.b); got != c.want {
			t.Errorf("Sub(%#x, %#x) = %#x, want %#x", c.a, c.b, got, c.want)
		}
	}
}

func TestMulKnownValues(t *testing.T) {
	// Hand-checked products under polynomial 0x11D.
	cases := []struct{ a, b, want byte }{
		{0, 0, 0},
		{0, 21, 0},
		{1, 1, 1},
		{1, 0xFF, 0xFF},
		{2, 2, 4},
		{0x80, 2, 0x1D}, // wraps: x^8 ≡ x^4+x^3+x^2+1
		{3, 7, 9},       // (x+1)(x^2+x+1) = x^3+1... in GF(2): x^3 + x^2 + x + x^2 + x + 1 = x^3+1
	}
	for _, c := range cases {
		if got := Mul(c.a, c.b); got != c.want {
			t.Errorf("Mul(%#x, %#x) = %#x, want %#x", c.a, c.b, got, c.want)
		}
	}
}

func TestMulCommutativeExhaustive(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := a; b < 256; b++ {
			x, y := Mul(byte(a), byte(b)), Mul(byte(b), byte(a))
			if x != y {
				t.Fatalf("Mul not commutative at (%d,%d): %d != %d", a, b, x, y)
			}
		}
	}
}

func TestMulMatchesSchoolbook(t *testing.T) {
	// Carry-less "schoolbook" multiply with explicit polynomial reduction.
	ref := func(a, b byte) byte {
		var prod uint16
		for i := 0; i < 8; i++ {
			if b&(1<<i) != 0 {
				prod ^= uint16(a) << i
			}
		}
		for bit := 15; bit >= 8; bit-- {
			if prod&(1<<bit) != 0 {
				prod ^= uint16(Polynomial) << (bit - 8)
			}
		}
		return byte(prod)
	}
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if got, want := Mul(byte(a), byte(b)), ref(byte(a), byte(b)); got != want {
				t.Fatalf("Mul(%d,%d) = %d, schoolbook says %d", a, b, got, want)
			}
		}
	}
}

func TestInvExhaustive(t *testing.T) {
	for a := 1; a < 256; a++ {
		inv := Inv(byte(a))
		if got := Mul(byte(a), inv); got != 1 {
			t.Fatalf("a*Inv(a) != 1 for a=%d (inv=%d, product=%d)", a, inv, got)
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestLogZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Log(0) did not panic")
		}
	}()
	Log(0)
}

func TestExpLogRoundTrip(t *testing.T) {
	for a := 1; a < 256; a++ {
		if got := Exp(Log(byte(a))); got != byte(a) {
			t.Fatalf("Exp(Log(%d)) = %d", a, got)
		}
	}
	for n := 0; n < 255; n++ {
		if got := Log(Exp(n)); got != n {
			t.Fatalf("Log(Exp(%d)) = %d", n, got)
		}
	}
}

func TestExpPeriodicity(t *testing.T) {
	for n := 0; n < 300; n++ {
		if Exp(n) != Exp(n+255) {
			t.Fatalf("Exp not periodic with 255 at n=%d", n)
		}
	}
}

func TestPow(t *testing.T) {
	for a := 0; a < 256; a++ {
		want := byte(1)
		for n := 0; n < 10; n++ {
			if got := Pow(byte(a), n); got != want {
				t.Fatalf("Pow(%d, %d) = %d, want %d", a, n, got, want)
			}
			want = Mul(want, byte(a))
		}
	}
}

func TestGeneratorIsPrimitive(t *testing.T) {
	// Generator must enumerate all 255 nonzero elements before cycling.
	seen := make(map[byte]bool)
	x := byte(1)
	for i := 0; i < 255; i++ {
		if seen[x] {
			t.Fatalf("generator cycle shorter than 255 (repeat at step %d)", i)
		}
		seen[x] = true
		x = Mul(x, Generator)
	}
	if x != 1 {
		t.Fatalf("generator^255 = %d, want 1", x)
	}
}

// --- field axioms via property-based testing ---

func TestFieldAxiomsQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000}

	assoc := func(a, b, c byte) bool {
		return Mul(Mul(a, b), c) == Mul(a, Mul(b, c))
	}
	if err := quick.Check(assoc, cfg); err != nil {
		t.Errorf("multiplication not associative: %v", err)
	}

	distrib := func(a, b, c byte) bool {
		return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c))
	}
	if err := quick.Check(distrib, cfg); err != nil {
		t.Errorf("distributivity fails: %v", err)
	}

	addAssoc := func(a, b, c byte) bool {
		return Add(Add(a, b), c) == Add(a, Add(b, c))
	}
	if err := quick.Check(addAssoc, cfg); err != nil {
		t.Errorf("addition not associative: %v", err)
	}

	identity := func(a byte) bool {
		return Mul(a, 1) == a && Add(a, 0) == a
	}
	if err := quick.Check(identity, cfg); err != nil {
		t.Errorf("identity elements wrong: %v", err)
	}

	selfInverse := func(a byte) bool {
		return Add(a, a) == 0
	}
	if err := quick.Check(selfInverse, cfg); err != nil {
		t.Errorf("characteristic-2 self-inverse fails: %v", err)
	}
}

// --- slice kernels ---

func TestMulSlice(t *testing.T) {
	src := []byte{0, 1, 2, 3, 0xFF, 0x80, 0x1D}
	dst := make([]byte, len(src))
	for c := 0; c < 256; c++ {
		MulSlice(byte(c), src, dst)
		for i := range src {
			if want := Mul(byte(c), src[i]); dst[i] != want {
				t.Fatalf("MulSlice c=%d i=%d: got %d want %d", c, i, dst[i], want)
			}
		}
	}
}

func TestMulSliceSpecialCases(t *testing.T) {
	src := []byte{9, 8, 7}
	dst := []byte{1, 2, 3}
	MulSlice(0, src, dst)
	if !bytes.Equal(dst, []byte{0, 0, 0}) {
		t.Errorf("MulSlice by 0 should zero dst, got %v", dst)
	}
	MulSlice(1, src, dst)
	if !bytes.Equal(dst, src) {
		t.Errorf("MulSlice by 1 should copy src, got %v", dst)
	}
}

func TestMulAddSlice(t *testing.T) {
	src := []byte{5, 0, 17, 200}
	dst := []byte{1, 2, 3, 4}
	orig := append([]byte(nil), dst...)
	MulAddSlice(7, src, dst)
	for i := range src {
		if want := Add(orig[i], Mul(7, src[i])); dst[i] != want {
			t.Fatalf("MulAddSlice i=%d: got %d want %d", i, dst[i], want)
		}
	}
	// c = 0 must leave dst untouched.
	before := append([]byte(nil), dst...)
	MulAddSlice(0, src, dst)
	if !bytes.Equal(dst, before) {
		t.Error("MulAddSlice by 0 modified dst")
	}
}

func TestSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	MulSlice(3, []byte{1, 2}, []byte{1})
}

func BenchmarkMul(b *testing.B) {
	var acc byte
	for i := 0; i < b.N; i++ {
		acc ^= Mul(byte(i), byte(i>>8))
	}
	_ = acc
}

// BenchmarkMulAddSlice is sized at the benchmark workloads' chunk sizes:
// 4 097 B (read-small) and 116 509 B (read-large).
func BenchmarkMulAddSlice(b *testing.B) {
	for _, n := range []int{4097, 116509} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			src := make([]byte, n)
			dst := make([]byte, n)
			for i := range src {
				src[i] = byte(i * 31)
			}
			b.SetBytes(int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MulAddSlice(0xA7, src, dst)
			}
		})
	}
}
