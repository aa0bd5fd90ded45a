package erasure

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
)

// goldenChunks pins the SHA-256 of all 12 chunks Split produces for two
// seeded objects (the benchmark's 1 MiB and 36 KiB sizes) under both matrix
// constructions. The digests were recorded from the scalar log/exp codec
// that preceded the table and SIMD kernels, so a pass proves the encoded
// bytes — what sits in every store and crosses the wire — did not change.
var goldenChunks = []struct {
	cons   Construction
	size   int
	seed   int64
	sha256 [12]string
}{
	{Vandermonde, 1 << 20, 21, [12]string{
		"15d3617420d0f7b5b3ffb7b8c307a9c9c93c11239072c1eef4c4f4b3b49b1001",
		"f7d99313b5511f47c09362a7227bc732a53e19f72401735aad3ecd33497eca30",
		"a346c0668641805c0125623950adcf09fcaa0c939d4932e7f317bcb333fd2626",
		"241b4a8adce890d05d191cac0402b1beb9f69ffd5a7e1b007ff1f2a83e600a5a",
		"8bf0bb07a0ccb3cbafc5214ca0858bbda6d24289fe77d8a14852c4de4b549ca4",
		"d97a6801eccfbd972c24b6dc09ad7dd35517f18fd36a8674d9c946612d63a245",
		"b0c159dbda4a5f9782c570c6df3912d402e6e9d31b6568f2aeb2520c8fe40f16",
		"83169a8cd5837401ba74dfc064dbf722047998808cf10465442dc6cd9bfa6c9a",
		"56fd95d70d95fd57d68d66559fdbc647552deff065d7d41657c641eff92bf82f",
		"337002fa5ec0adda95b05dfb44391afbbbbdc135bad7d42db55ff6f912ebcedf",
		"7a050d064d2ff184c9e5ee0d88b8f7241392c0aad7b4cc5496bcee605d940bf3",
		"7cb63784b5f8c7e9c25a689f5570310050feaf5af4e2c535a8eacd519d4ceaf7",
	}},
	{Vandermonde, 36 << 10, 22, [12]string{
		"b27ccf9593dfea29106cc283db6611e5be3b57cb7c46c5023cee133d88e1b856",
		"693762967af36017cbf034ca9cfbc268cb110bb4542cdf566da6d9196311783f",
		"36ad1f36da6610c0c6615ad66e4267d83a75471952cee0ce46b0cc2d60c85c4d",
		"196300622250797975b18e5090b1f750daa3f848cda58bf60e279262ffd88fd3",
		"5a7d2ab5a9802863bb07a80cb9de5bd8125f5e01d9a85b7ffabb3e3f508a097b",
		"d2b53ffb2399da002e9720b1ca1a0b49fc28da2d17041376688d0c8404f39744",
		"f263d490c46ac3dafb60263e81eb7e128ab6fd346a3385e01bae75b8bc3a1145",
		"4a400f37070375c58ec8a398ddd04e5792ee02b38b21630f2b84cf22d1b8d6c8",
		"2dc05893aab523561cd13e68425794f7b75c6ba748e31152549ded8d1b166f36",
		"be3e95c62884c5140d01d47f1f95bd6a557609533e498b56b0c8abfb09ac7578",
		"b8a46a408a19ffe478cd6736805ab8c693b3ea3b6c060bce4b06b65109c501d8",
		"847a2d414c94110923c970e7538fea13f14a2deb99811c87e5e10bcbda8c2433",
	}},
	{Cauchy, 1 << 20, 21, [12]string{
		"15d3617420d0f7b5b3ffb7b8c307a9c9c93c11239072c1eef4c4f4b3b49b1001",
		"f7d99313b5511f47c09362a7227bc732a53e19f72401735aad3ecd33497eca30",
		"a346c0668641805c0125623950adcf09fcaa0c939d4932e7f317bcb333fd2626",
		"241b4a8adce890d05d191cac0402b1beb9f69ffd5a7e1b007ff1f2a83e600a5a",
		"8bf0bb07a0ccb3cbafc5214ca0858bbda6d24289fe77d8a14852c4de4b549ca4",
		"d97a6801eccfbd972c24b6dc09ad7dd35517f18fd36a8674d9c946612d63a245",
		"b0c159dbda4a5f9782c570c6df3912d402e6e9d31b6568f2aeb2520c8fe40f16",
		"83169a8cd5837401ba74dfc064dbf722047998808cf10465442dc6cd9bfa6c9a",
		"56fd95d70d95fd57d68d66559fdbc647552deff065d7d41657c641eff92bf82f",
		"1bb48b00089af99439df974dffc530abfa25dbd7becdc3d7ce1521588e296f5f",
		"271a36c22f2791767c088b1debc92e1f0ac9caee67d6fae517cc8b82eb70ef8c",
		"d5be832ac9e1461bd21099712fc4f76a70cfeec17490fb2daed2132ebc4bbb54",
	}},
	{Cauchy, 36 << 10, 22, [12]string{
		"b27ccf9593dfea29106cc283db6611e5be3b57cb7c46c5023cee133d88e1b856",
		"693762967af36017cbf034ca9cfbc268cb110bb4542cdf566da6d9196311783f",
		"36ad1f36da6610c0c6615ad66e4267d83a75471952cee0ce46b0cc2d60c85c4d",
		"196300622250797975b18e5090b1f750daa3f848cda58bf60e279262ffd88fd3",
		"5a7d2ab5a9802863bb07a80cb9de5bd8125f5e01d9a85b7ffabb3e3f508a097b",
		"d2b53ffb2399da002e9720b1ca1a0b49fc28da2d17041376688d0c8404f39744",
		"f263d490c46ac3dafb60263e81eb7e128ab6fd346a3385e01bae75b8bc3a1145",
		"4a400f37070375c58ec8a398ddd04e5792ee02b38b21630f2b84cf22d1b8d6c8",
		"2dc05893aab523561cd13e68425794f7b75c6ba748e31152549ded8d1b166f36",
		"ff2e205a0ed5e8857da2f3916c5a61f30b64b34779742433f096ff2b727212b6",
		"53f27d190be6bc324460f177e5210b8458a6ef9de40604154ce3fc6cf3c3d8a2",
		"d954046ffdf6cb0a67b04ea6820e79bb5b9a558442cbbd201a31a0262b4ad0a4",
	}},
}

func TestGoldenChunkDigests(t *testing.T) {
	for _, g := range goldenChunks {
		codec, err := NewWith(9, 3, g.cons)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, g.size)
		rand.New(rand.NewSource(g.seed)).Read(data)
		chunks, err := codec.Split(data)
		if err != nil {
			t.Fatal(err)
		}
		for i, ch := range chunks {
			sum := sha256.Sum256(ch)
			if got := hex.EncodeToString(sum[:]); got != g.sha256[i] {
				t.Errorf("%v %d B: chunk %d digest %s, want %s", g.cons, g.size, i, got, g.sha256[i])
			}
		}
	}
}

// TestDecodeEverySubsetOddSizes decodes from every 9-of-12 subset (all 220)
// at sizes around the header, the 8- and 32-byte kernel steps, the tile
// boundary, and the paper's object size less one.
func TestDecodeEverySubsetOddSizes(t *testing.T) {
	codec := mustCodec(t, 9, 3)
	for _, size := range []int{1, 7, 8, 9, 4096, 4097, 1<<20 - 1} {
		data := make([]byte, size)
		rand.New(rand.NewSource(int64(size))).Read(data)
		orig, err := codec.Split(data)
		if err != nil {
			t.Fatal(err)
		}
		n := codec.Total()
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				for c := b + 1; c < n; c++ {
					chunks := make([][]byte, n)
					copy(chunks, orig)
					chunks[a], chunks[b], chunks[c] = nil, nil, nil
					got, err := codec.Decode(chunks)
					if err != nil {
						t.Fatalf("size %d, lose {%d,%d,%d}: %v", size, a, b, c, err)
					}
					if !bytes.Equal(got, data) {
						t.Fatalf("size %d, lose {%d,%d,%d}: payload differs", size, a, b, c)
					}
				}
			}
		}
	}
}

// TestDecodeAllocations pins the read path's allocation count: with two data
// chunks missing and the decode matrix cached, Decode allocates the output
// buffer and two small slices of slice headers. The codec it replaced took 8.
func TestDecodeAllocations(t *testing.T) {
	codec := mustCodec(t, 9, 3)
	data := make([]byte, 36<<10)
	rand.New(rand.NewSource(4)).Read(data)
	chunks, _ := codec.Split(data)
	chunks[2], chunks[6], chunks[11] = nil, nil, nil
	decode := func() {
		if _, err := codec.Decode(chunks); err != nil {
			t.Fatal(err)
		}
	}
	decode() // caches the decode matrix
	if allocs := testing.AllocsPerRun(100, decode); allocs > 4 {
		t.Fatalf("Decode allocated %.0f times, want at most 4", allocs)
	}
}
