package erasure

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustCodec(t testing.TB, k, m int) *Codec {
	t.Helper()
	c, err := New(k, m)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		k, m int
		ok   bool
	}{
		{9, 3, true},
		{1, 0, true},
		{4, 2, true},
		{0, 3, false},
		{-1, 3, false},
		{200, 100, false}, // k+m > 256
		{255, 1, true},
	}
	for _, c := range cases {
		_, err := New(c.k, c.m)
		if (err == nil) != c.ok {
			t.Errorf("New(%d,%d): err=%v, want ok=%v", c.k, c.m, err, c.ok)
		}
	}
}

func TestSplitDecodeRoundTrip(t *testing.T) {
	codec := mustCodec(t, 9, 3)
	for _, size := range []int{0, 1, 8, 9, 100, 1023, 4096, 1 << 20} {
		data := make([]byte, size)
		rand.New(rand.NewSource(int64(size))).Read(data)
		chunks, err := codec.Split(data)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if len(chunks) != 12 {
			t.Fatalf("size %d: got %d chunks", size, len(chunks))
		}
		got, err := codec.Decode(chunks)
		if err != nil {
			t.Fatalf("size %d: decode: %v", size, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("size %d: round trip mismatch", size)
		}
	}
}

func TestSystematic(t *testing.T) {
	// The first k chunks must carry the raw payload (after the header).
	codec := mustCodec(t, 4, 2)
	data := []byte("hello systematic reed solomon world")
	chunks, err := codec.Split(data)
	if err != nil {
		t.Fatal(err)
	}
	var concat []byte
	for i := 0; i < 4; i++ {
		concat = append(concat, chunks[i]...)
	}
	if !bytes.Contains(concat, data) {
		t.Fatal("data chunks do not embed the original payload; codec is not systematic")
	}
}

func TestReconstructTooFewChunks(t *testing.T) {
	codec := mustCodec(t, 4, 2)
	chunks, _ := codec.Split([]byte("abcdefgh"))
	chunks[0], chunks[1], chunks[2] = nil, nil, nil // only 3 left < k=4
	if _, err := codec.Decode(chunks); err != ErrTooFewChunks {
		t.Fatalf("got %v, want ErrTooFewChunks", err)
	}
}

func TestReconstructWrongSlotCount(t *testing.T) {
	codec := mustCodec(t, 4, 2)
	chunks, _ := codec.Split([]byte("abcdefgh"))
	if _, err := codec.Decode(chunks[:5]); err != ErrChunkCount {
		t.Fatalf("got %v, want ErrChunkCount", err)
	}
}

func TestReconstructSizeMismatch(t *testing.T) {
	codec := mustCodec(t, 2, 1)
	chunks, _ := codec.Split([]byte("0123456789"))
	chunks[1] = chunks[1][:len(chunks[1])-1]
	if _, err := codec.Decode(chunks); err != ErrChunkSizeMism {
		t.Fatalf("got %v, want ErrChunkSizeMism", err)
	}
}

func TestDecodeWithCorruptHeader(t *testing.T) {
	codec := mustCodec(t, 3, 2)
	chunks, _ := codec.Split([]byte("payload"))
	// Blow up the length header so it claims more data than exists.
	for i := 0; i < 8 && i < len(chunks[0]); i++ {
		chunks[0][i] = 0xFF
	}
	if _, err := codec.Decode(chunks); err != ErrSizeHeaderBroken {
		t.Fatalf("got %v, want ErrSizeHeaderBroken", err)
	}
}

func TestDecodeDoesNotMutateInput(t *testing.T) {
	codec := mustCodec(t, 4, 2)
	chunks, _ := codec.Split([]byte("immutability matters"))
	chunks[0] = nil
	snapshot := make([][]byte, len(chunks))
	copy(snapshot, chunks)
	if _, err := codec.Decode(chunks); err != nil {
		t.Fatal(err)
	}
	for i := range chunks {
		if (chunks[i] == nil) != (snapshot[i] == nil) {
			t.Fatalf("Decode mutated caller slice at %d", i)
		}
	}
}

func TestCauchyConstruction(t *testing.T) {
	codec, err := NewWith(9, 3, Cauchy)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 3000)
	rand.New(rand.NewSource(3)).Read(data)
	chunks, err := codec.Split(data)
	if err != nil {
		t.Fatal(err)
	}
	// Lose three chunks and recover.
	chunks[0], chunks[4], chunks[10] = nil, nil, nil
	got, err := codec.Decode(chunks)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cauchy round trip failed")
	}
}

func TestConstructionString(t *testing.T) {
	if Vandermonde.String() != "vandermonde" || Cauchy.String() != "cauchy" {
		t.Fatal("construction names wrong")
	}
	if Construction(99).String() == "" {
		t.Fatal("unknown construction must still stringify")
	}
}

func TestChunkSize(t *testing.T) {
	codec := mustCodec(t, 9, 3)
	// 1 MB object: (1<<20 + 8) / 9 rounded up.
	want := (1<<20 + 8 + 8) / 9
	if got := codec.ChunkSize(1 << 20); got != want {
		t.Fatalf("ChunkSize(1MB) = %d, want %d", got, want)
	}
	chunks, _ := codec.Split(make([]byte, 1<<20))
	if len(chunks[0]) != codec.ChunkSize(1<<20) {
		t.Fatal("Split chunk size disagrees with ChunkSize")
	}
}

// Property: for random (k, m), random data and a random loss pattern of up to
// m chunks, decode recovers the original payload.
func TestReconstructQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(10)
		m := r.Intn(5)
		codec, err := New(k, m)
		if err != nil {
			return false
		}
		data := make([]byte, 1+r.Intn(2000))
		r.Read(data)
		chunks, err := codec.Split(data)
		if err != nil {
			return false
		}
		// Drop up to m random chunks.
		for _, i := range r.Perm(k + m)[:r.Intn(m+1)] {
			chunks[i] = nil
		}
		got, err := codec.Decode(chunks)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: parity is linear. Split gives equal-length payloads the same
// length header, so chunk by chunk split(a) ⊕ split(b) ⊕ split(a⊕b) ⊕
// split(0ⁿ) = 0: the four headers cancel in pairs, and so do the payloads.
func TestLinearityQuick(t *testing.T) {
	codec := mustCodec(t, 4, 2)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(512)
		a := make([]byte, n)
		b := make([]byte, n)
		r.Read(a)
		r.Read(b)
		xor := make([]byte, n)
		for i := range a {
			xor[i] = a[i] ^ b[i]
		}
		ca, _ := codec.Split(a)
		cb, _ := codec.Split(b)
		cx, _ := codec.Split(xor)
		cz, _ := codec.Split(make([]byte, n))
		for i := range ca {
			for j := range ca[i] {
				if ca[i][j]^cb[i][j]^cx[i][j]^cz[i][j] != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDecodeMatrixCaching(t *testing.T) {
	codec := mustCodec(t, 9, 3)
	data := make([]byte, 900)
	rand.New(rand.NewSource(5)).Read(data)
	orig, _ := codec.Split(data)
	// Same loss pattern twice must hit the cache and stay correct.
	for iter := 0; iter < 2; iter++ {
		chunks := make([][]byte, len(orig))
		copy(chunks, orig)
		chunks[0], chunks[1] = nil, nil
		got, err := codec.Decode(chunks)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("cached decode wrong")
		}
	}
	codec.mu.Lock()
	n := len(codec.invCache)
	codec.mu.Unlock()
	if n != 1 {
		t.Fatalf("expected exactly 1 cached decode matrix, got %d", n)
	}
}

func TestConcurrentDecode(t *testing.T) {
	codec := mustCodec(t, 9, 3)
	data := make([]byte, 9000)
	rand.New(rand.NewSource(9)).Read(data)
	orig, _ := codec.Split(data)

	done := make(chan error, 16)
	for g := 0; g < 16; g++ {
		go func(g int) {
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 20; i++ {
				chunks := make([][]byte, len(orig))
				copy(chunks, orig)
				for _, idx := range r.Perm(12)[:3] {
					chunks[idx] = nil
				}
				got, err := codec.Decode(chunks)
				if err != nil {
					done <- err
					return
				}
				if !bytes.Equal(got, data) {
					done <- fmt.Errorf("goroutine %d: decoded payload differs", g)
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 16; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func BenchmarkEncode1MB_RS9_3(b *testing.B) {
	codec := mustCodec(b, 9, 3)
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.Split(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncode1MB_RS9_3_InPlace recomputes parity into existing chunks: the
// coding loop alone, no allocation or payload copy. tileSize was picked
// with it.
func BenchmarkEncode1MB_RS9_3_InPlace(b *testing.B) {
	codec := mustCodec(b, 9, 3)
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(data)
	chunks, _ := codec.Split(data)
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		code(codec.coding, codec.k, chunks[:codec.k], chunks[codec.k:])
	}
}

// benchmarkDecode1MB decodes a 1 MiB object with the given chunks lost.
func benchmarkDecode1MB(b *testing.B, lost ...int) {
	codec := mustCodec(b, 9, 3)
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(2)).Read(data)
	orig, _ := codec.Split(data)
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chunks := make([][]byte, len(orig))
		copy(chunks, orig)
		for _, l := range lost {
			chunks[l] = nil
		}
		if _, err := codec.Decode(chunks); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode1MB_RS9_3_WorstCase(b *testing.B) { benchmarkDecode1MB(b, 0, 1, 2) }

// BenchmarkDecode1MB_RS9_3_Nearest is what a read from the nearest nine
// chunks sees: one or two data chunks replaced by nearer parity chunks.
func BenchmarkDecode1MB_RS9_3_Nearest(b *testing.B) {
	b.Run("lost1", func(b *testing.B) { benchmarkDecode1MB(b, 4, 10, 11) })
	b.Run("lost2", func(b *testing.B) { benchmarkDecode1MB(b, 4, 7, 11) })
}
