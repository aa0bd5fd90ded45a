//go:build amd64 && !purego

package gf256

// nibbleTables[c] holds coefficient c's 4-bit split tables, the layout
// VPSHUFB consumes: bytes 0–15 are c·x for x = 0…15 (the low nibble's
// products), bytes 16–31 are c·(x<<4) (the high nibble's). Because
// multiplication distributes over XOR, c·b == low[b&15] ^ high[b>>4].
// 256 coefficients × 32 B = 8 KiB.
var nibbleTables = buildNibbleTables()

func buildNibbleTables() (t [256][32]byte) {
	for c := range t {
		for x := 0; x < 16; x++ {
			t[c][x] = mulRows[c][x]
			t[c][16+x] = mulRows[c][x<<4]
		}
	}
	return t
}

func init() { useVector = hasAVX2() }

// hasAVX2 reports whether the CPU implements AVX2 and the OS saves the YMM
// registers across context switches.
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmState, ymmState = 1 << 1, 1 << 2
	if eax, _ := xgetbv(); eax&(xmmState|ymmState) != xmmState|ymmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// mulVector runs the assembly dst = c·src kernel over the longest prefix
// that is a multiple of 32 bytes and returns that prefix's length; the
// caller finishes the rest in Go.
func mulVector(c byte, src, dst []byte) int {
	n := len(src) &^ 31
	if !useVector || n == 0 {
		return 0
	}
	mulAVX2(&nibbleTables[c], src[:n], dst[:n])
	return n
}

// mulAddVector is mulVector for dst ^= c·src.
func mulAddVector(c byte, src, dst []byte) int {
	n := len(src) &^ 31
	if !useVector || n == 0 {
		return 0
	}
	mulAddAVX2(&nibbleTables[c], src[:n], dst[:n])
	return n
}

// mulAVX2 sets dst = c·src given c's split tables. len(src) must equal
// len(dst) and be a non-zero multiple of 32.
//
//go:noescape
func mulAVX2(tbl *[32]byte, src, dst []byte)

// mulAddAVX2 sets dst ^= c·src under the same preconditions.
//
//go:noescape
func mulAddAVX2(tbl *[32]byte, src, dst []byte)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
