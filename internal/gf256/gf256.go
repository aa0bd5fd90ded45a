// Package gf256 implements arithmetic over the finite field GF(2^8).
//
// The field is constructed from the irreducible polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11D), the same generator polynomial used by
// most Reed-Solomon deployments. Addition and subtraction are XOR;
// multiplication and inversion are performed through exp/log tables built
// once at package initialisation.
//
// The package also provides slice kernels (MulSlice, MulAddSlice) used by the
// erasure codec's encode and reconstruct inner loops. Two implementations
// produce identical bytes:
//
//   - On amd64 with AVX2 (detected once at start-up with CPUID/XGETBV; no
//     GOAMD64 level required) an assembly kernel multiplies 32 bytes per
//     step with two VPSHUFB lookups into the coefficient's 4-bit split
//     tables (nibbleTables: 16 products of the low nibble, 16 of the high).
//     Go code handles the bytes past the last 32-byte multiple.
//   - Everywhere else — other architectures, amd64 without AVX2, and any
//     build with -tags purego — a pure-Go kernel walks the coefficient's
//     cached 256-byte product row (mulRows) eight bytes at a time. It is also
//     the reference the assembly is tested against.
//
// Both kernels accept src and dst that are the same slice (MulSlice(c, row,
// row) scales in place); partially overlapping src and dst is unsupported.
package gf256

import (
	"crypto/subtle"
	"fmt"
)

// Polynomial is the irreducible polynomial that defines the field,
// x^8 + x^4 + x^3 + x^2 + 1.
const Polynomial = 0x11D

// Generator is the primitive element used to build the exp/log tables.
const Generator = 2

// Order is the number of elements in the field.
const Order = 256

var (
	// expTable[i] = Generator^i, doubled so Mul can skip the
	// (logA+logB) % 255 reduction; logTable[x] = i such that
	// Generator^i == x (logTable[0] unused).
	expTable, logTable = buildExpLog()

	// mulRows[c][x] = Mul(c, x): one 256-byte product row per coefficient
	// (64 KiB), the pure-Go kernel's lookup table.
	mulRows = buildMulRows()

	// useVector selects the assembly kernels. The amd64 build sets it once
	// at start-up when the CPU and the OS support AVX2; it is false in every
	// other build. Tests clear it to run both kernels in one go test.
	useVector bool
)

func buildExpLog() (exp [512]byte, log [256]byte) {
	x := 1
	for i := 0; i < 255; i++ {
		exp[i] = byte(x)
		log[x] = byte(i)
		x <<= 1
		if x >= Order {
			x ^= Polynomial
		}
	}
	for i := 255; i < 512; i++ {
		exp[i] = exp[i-255]
	}
	return exp, log
}

func buildMulRows() (rows [256][256]byte) {
	for c := 1; c < 256; c++ {
		for x := 1; x < 256; x++ {
			rows[c][x] = Mul(byte(c), byte(x))
		}
	}
	return rows
}

// Add returns a + b in GF(2^8). Addition is XOR.
func Add(a, b byte) byte { return a ^ b }

// Sub returns a - b in GF(2^8). Subtraction equals addition (XOR).
func Sub(a, b byte) byte { return a ^ b }

// Mul returns a * b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// Inv returns the multiplicative inverse of a. Inv panics if a is zero.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: zero has no inverse")
	}
	return expTable[255-int(logTable[a])]
}

// Exp returns Generator^n for n >= 0.
func Exp(n int) byte {
	if n < 0 {
		panic(fmt.Sprintf("gf256: negative exponent %d", n))
	}
	return expTable[n%255]
}

// Log returns the discrete logarithm of a to base Generator.
// Log panics if a is zero, which has no logarithm.
func Log(a byte) int {
	if a == 0 {
		panic("gf256: zero has no logarithm")
	}
	return int(logTable[a])
}

// Pow returns a raised to the power n (n >= 0).
func Pow(a byte, n int) byte {
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	return expTable[(int(logTable[a])*n)%255]
}

// MulSlice sets dst[i] = c * src[i] for every i. It panics if the slices
// have different lengths. src and dst may be the same slice.
func MulSlice(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic("gf256: MulSlice length mismatch")
	}
	switch c {
	case 0:
		clear(dst)
	case 1:
		copy(dst, src)
	default:
		n := mulVector(c, src, dst)
		mulGeneric(&mulRows[c], src[n:], dst[n:])
	}
}

// MulAddSlice sets dst[i] ^= c * src[i] for every i; that is, it accumulates
// the scaled source into dst. It panics if the slices have different lengths.
func MulAddSlice(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic("gf256: MulAddSlice length mismatch")
	}
	switch c {
	case 0:
	case 1:
		subtle.XORBytes(dst, dst, src)
	default:
		n := mulAddVector(c, src, dst)
		mulAddGeneric(&mulRows[c], src[n:], dst[n:])
	}
}

// mulGeneric sets dst[i] = row[src[i]], eight bytes per iteration with the
// bounds checks hoisted into the two fixed-size re-slices.
func mulGeneric(row *[256]byte, src, dst []byte) {
	for len(src) >= 8 && len(dst) >= 8 {
		s, d := src[:8:8], dst[:8:8]
		d[0] = row[s[0]]
		d[1] = row[s[1]]
		d[2] = row[s[2]]
		d[3] = row[s[3]]
		d[4] = row[s[4]]
		d[5] = row[s[5]]
		d[6] = row[s[6]]
		d[7] = row[s[7]]
		src, dst = src[8:], dst[8:]
	}
	for i, s := range src {
		dst[i] = row[s]
	}
}

// mulAddGeneric is mulGeneric for dst[i] ^= row[src[i]].
func mulAddGeneric(row *[256]byte, src, dst []byte) {
	for len(src) >= 8 && len(dst) >= 8 {
		s, d := src[:8:8], dst[:8:8]
		d[0] ^= row[s[0]]
		d[1] ^= row[s[1]]
		d[2] ^= row[s[2]]
		d[3] ^= row[s[3]]
		d[4] ^= row[s[4]]
		d[5] ^= row[s[5]]
		d[6] ^= row[s[6]]
		d[7] ^= row[s[7]]
		src, dst = src[8:], dst[8:]
	}
	for i, s := range src {
		dst[i] ^= row[s]
	}
}
