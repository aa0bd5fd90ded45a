package gf256

import (
	"bytes"
	"fmt"
	"testing"
)

// eachKernel runs fn on every kernel this build and CPU can execute: always
// the pure-Go one, and the assembly one when start-up selected it.
func eachKernel(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	selected := useVector
	defer func() { useVector = selected }()
	useVector = false
	t.Run("purego", fn)
	if selected {
		useVector = true
		t.Run("avx2", fn)
	}
}

// kernelCase is one call of a slice kernel: n bytes placed srcOff and dstOff
// into larger guard-filled buffers (so the windows are misaligned and a
// write outside them is seen), or one window used as both source and
// destination when alias is set. add selects MulAddSlice over MulSlice.
type kernelCase struct {
	add            bool
	c              byte
	n              int
	srcOff, dstOff int
	alias          bool
}

// check runs the case on source bytes in (k.n of them) and a destination
// that starts out as in with every bit of 0x5C flipped, and compares every
// byte with Mul. It returns a description of the first difference, or "".
func (k kernelCase) check(in []byte) string {
	const guard, pad = 0xA5, 64
	srcBuf := bytes.Repeat([]byte{guard}, k.srcOff+k.n+pad)
	dstBuf := bytes.Repeat([]byte{guard}, k.dstOff+k.n+pad)
	src, dst := srcBuf[k.srcOff:k.srcOff+k.n], dstBuf[k.dstOff:k.dstOff+k.n]
	var flip byte = 0x5C
	if k.alias {
		src, flip = dst, 0 // the source is also the initial destination
	}
	for i, b := range in {
		dst[i] = b ^ flip
	}
	copy(src, in)

	if k.add {
		MulAddSlice(k.c, src, dst)
	} else {
		MulSlice(k.c, src, dst)
	}

	for i := range dst {
		want := Mul(k.c, in[i])
		if k.add {
			want ^= in[i] ^ flip
		}
		if dst[i] != want {
			return fmt.Sprintf("%+v: byte %d = %#x, want %#x", k, i, dst[i], want)
		}
	}
	for _, g := range [][]byte{srcBuf[:k.srcOff], srcBuf[k.srcOff+k.n:], dstBuf[:k.dstOff], dstBuf[k.dstOff+k.n:]} {
		if bytes.Count(g, []byte{guard}) != len(g) {
			return fmt.Sprintf("%+v: wrote outside the destination window", k)
		}
	}
	if !k.alias && !bytes.Equal(src, in) {
		return fmt.Sprintf("%+v: modified the source", k)
	}
	return ""
}

// TestSliceKernelsMatchMul: every coefficient over every length 0–130 and
// the benchmark's two chunk sizes, then every source × destination offset
// 0–33 for a few coefficients and the lengths around the 32- and 64-byte
// steps; separate and exactly aliased windows throughout.
func TestSliceKernelsMatchMul(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		data := make([]byte, 116509) // takes every byte value, zero included
		for i := range data {
			data[i] = byte(i*167 + i>>8)
		}
		check := func(c byte, n, srcOff, dstOff int, alias bool) {
			t.Helper()
			for _, add := range []bool{false, true} {
				if msg := (kernelCase{add, c, n, srcOff, dstOff, alias}).check(data[:n]); msg != "" {
					t.Fatal(msg)
				}
			}
		}
		for c := 0; c < 256; c++ {
			for n := 0; n <= 130; n++ {
				check(byte(c), n, n%34, (n*7+c)%34, false)
				check(byte(c), n, 0, (n+c)%34, true)
			}
			for _, n := range []int{4097, 116509} {
				check(byte(c), n, c%34, (c*5)%34, false)
			}
		}
		for _, c := range []byte{0, 1, 2, 0x1D, 0xA7, 0xFF} {
			for _, n := range []int{31, 32, 33, 63, 64, 65, 96, 130} {
				for srcOff := 0; srcOff <= 33; srcOff++ {
					for dstOff := 0; dstOff <= 33; dstOff++ {
						check(c, n, srcOff, dstOff, false)
					}
					check(c, n, 0, srcOff, true)
				}
			}
		}
	})
}

func fuzzKernel(f *testing.F, add bool) {
	f.Add(byte(0), uint8(0), uint8(0), false, []byte{})
	f.Add(byte(1), uint8(1), uint8(33), true, []byte{0, 1, 2, 0xFF})
	f.Add(byte(0xA7), uint8(31), uint8(2), false, bytes.Repeat([]byte{0x80, 0, 0x1D}, 43))
	f.Fuzz(func(t *testing.T, c byte, srcOff, dstOff uint8, alias bool, data []byte) {
		eachKernel(t, func(t *testing.T) {
			k := kernelCase{add, c, len(data), int(srcOff % 34), int(dstOff % 34), alias}
			if msg := k.check(data); msg != "" {
				t.Fatal(msg)
			}
		})
	})
}

func FuzzMulSliceMatchesMul(f *testing.F)    { fuzzKernel(f, false) }
func FuzzMulAddSliceMatchesMul(f *testing.F) { fuzzKernel(f, true) }
