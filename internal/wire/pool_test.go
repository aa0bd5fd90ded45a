package wire

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestBufferPoolRecycles: a released buffer comes back on the next Get of
// the same class, and Outstanding tracks the Get/Put balance.
func TestBufferPoolRecycles(t *testing.T) {
	p := NewBufferPool()
	a := p.Get(1000)
	if len(a) != 1000 || cap(a) != 1024 {
		t.Fatalf("Get(1000): len %d cap %d, want 1000/1024", len(a), cap(a))
	}
	if p.Outstanding() != 1 {
		t.Fatalf("outstanding = %d", p.Outstanding())
	}
	a[0] = 0xAB
	p.Put(a)
	if p.Outstanding() != 0 {
		t.Fatalf("outstanding after Put = %d", p.Outstanding())
	}
	b := p.Get(700) // same 1KiB class: must be the recycled array
	if &a[0] != &b[0] {
		t.Fatal("same-class Get did not recycle the released buffer")
	}
	if len(b) != 700 {
		t.Fatalf("recycled len = %d", len(b))
	}
	p.Put(b)
}

// TestBufferPoolClassing: sizes map to the smallest covering class, tiny
// sizes share the smallest class, and the class caps hold.
func TestBufferPoolClassing(t *testing.T) {
	for _, tc := range []struct{ n, class int }{
		{0, 0}, {1, 0}, {512, 0}, {513, 1}, {1024, 1}, {1 << 16, 7}, {1<<16 + 1, 8}, {MaxFrame, poolClasses - 1},
	} {
		if c := classFor(tc.n); c != tc.class {
			t.Errorf("classFor(%d) = %d, want %d", tc.n, c, tc.class)
		}
	}
	if c := classFor(MaxFrame + 1); c != -1 {
		t.Errorf("classFor(MaxFrame+1) = %d, want -1", c)
	}

	// Oversize buffers are plain allocations; Put drops them silently but
	// still balances Outstanding.
	p := NewBufferPool()
	big := p.Get(MaxFrame + 1)
	if len(big) != MaxFrame+1 {
		t.Fatalf("oversize len = %d", len(big))
	}
	p.Put(big)
	if p.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", p.Outstanding())
	}
}

// TestBufferPoolGrownBufferRebinned: a pooled buffer that an append grew
// past its class returns to the class its new capacity fills.
func TestBufferPoolGrownBufferRebinned(t *testing.T) {
	p := NewBufferPool()
	buf := p.Get(512)[:0]
	buf = append(buf, make([]byte, 4096)...) // outgrows the 512B class
	p.Put(buf)
	got := p.Get(cap(buf))
	if cap(got) < 4096 {
		t.Fatalf("rebinned Get cap = %d, want >= 4096", cap(got))
	}
	if &got[0] != &buf[0] {
		t.Fatal("grown buffer was not rebinned into its new class")
	}
	p.Put(got)
}

// frameFor encodes m and returns the full wire bytes.
func frameFor(t *testing.T, m Message) []byte {
	t.Helper()
	buf, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestReadPooledRoundTrip: a pooled read returns the same message a plain
// Read would, owns its frame, and Release returns it to the pool.
func TestReadPooledRoundTrip(t *testing.T) {
	p := NewBufferPool()
	want := Message{Header: Header{Op: OpPut, Key: "k", Index: 3}, Body: []byte("hello body")}
	wireBytes := frameFor(t, want)

	m, err := ReadPooled(bytes.NewReader(wireBytes), p)
	if err != nil {
		t.Fatal(err)
	}
	if m.Header.Op != want.Header.Op || m.Header.Key != "k" || !bytes.Equal(m.Body, want.Body) {
		t.Fatalf("pooled read = %+v", m)
	}
	if p.Outstanding() != 1 {
		t.Fatalf("outstanding = %d, frame must be owned", p.Outstanding())
	}
	m.Release()
	if p.Outstanding() != 0 {
		t.Fatalf("outstanding after release = %d", p.Outstanding())
	}
	if m.Body != nil {
		t.Fatal("Release left Body aliasing a returned buffer")
	}
	m.Release() // second release must be a no-op
	if p.Outstanding() != 0 {
		t.Fatalf("double release corrupted the count: %d", p.Outstanding())
	}
}

// TestReadPooledErrorPathsDoNotLeak covers the satellite fix: every reject
// — truncated body, bad header length, header decode failure, torn length
// prefix — must return the pooled frame before reporting.
func TestReadPooledErrorPathsDoNotLeak(t *testing.T) {
	good := frameFor(t, Message{Header: Header{Op: OpGet, Key: "k"}, Body: []byte("bb")})

	truncated := good[:len(good)-1] // stream ends mid-body

	badHeaderLen := append([]byte(nil), good...)
	badHeaderLen[4], badHeaderLen[5] = 0xFF, 0xFF // header length > frame

	badJSON := append([]byte(nil), good...)
	badJSON[6] = '{' + 1 // corrupt the JSON header

	shortPrefix := good[:2] // stream dies inside the length prefix

	cases := map[string][]byte{
		"truncated":     truncated,
		"bad-headerlen": badHeaderLen,
		"bad-json":      badJSON,
		"short-prefix":  shortPrefix,
	}
	for name, stream := range cases {
		p := NewBufferPool()
		if _, err := ReadPooled(bytes.NewReader(stream), p); err == nil {
			t.Errorf("%s: read succeeded", name)
		}
		if n := p.Outstanding(); n != 0 {
			t.Errorf("%s: leaked %d pooled buffers", name, n)
		}
	}
}

// TestReadPooledOversizeRejectsBeforeAllocating: a hostile length prefix
// above MaxFrame is rejected without touching the pool.
func TestReadPooledOversizeRejectsBeforeAllocating(t *testing.T) {
	p := NewBufferPool()
	stream := []byte{0xFF, 0xFF, 0xFF, 0xFF} // ~4 GiB declared frame
	if _, err := ReadPooled(bytes.NewReader(stream), p); err != ErrFrameTooLarge {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	if p.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", p.Outstanding())
	}
}

// TestWriteVectoredParity: the vectored writer must emit byte-identical
// frames to Encode for a contiguous body, a segmented body, and no body.
func TestWriteVectoredParity(t *testing.T) {
	cases := map[string]Message{
		"contiguous": {Header: Header{Op: OpPut, Key: "k", Index: 1}, Body: []byte("abcdef")},
		"empty":      {Header: Header{Op: OpOK}},
		"segmented": {
			Header:   Header{Op: OpOK, Key: "k", Indices: []int{1, 2, 3}, Sizes: []int{2, 0, 3}},
			Segments: [][]byte{[]byte("ab"), nil, []byte("xyz")},
		},
	}
	for name, m := range cases {
		flat := Message{Header: m.Header, Body: m.Body}
		if m.Segments != nil {
			flat.Body = bytes.Join(m.Segments, nil)
		}
		want, err := Encode(flat)
		if err != nil {
			t.Fatal(err)
		}
		p := NewBufferPool()
		var got bytes.Buffer
		if err := WriteVectored(&got, m, p); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: vectored frame differs from Encode", name)
		}
		if p.Outstanding() != 0 {
			t.Errorf("%s: writer leaked %d buffers", name, p.Outstanding())
		}
		// And the result must decode back to the same message.
		back, err := Read(bytes.NewReader(got.Bytes()))
		if err != nil {
			t.Fatalf("%s: reread: %v", name, err)
		}
		if !bytes.Equal(back.Body, flat.Body) {
			t.Errorf("%s: body mismatch after round trip", name)
		}
	}
}

// TestWriteVectoredConsumesOwnedBuffers: success and every error path must
// release the message's pooled buffers — the server hands replies to the
// writer unconditionally.
func TestWriteVectoredConsumesOwnedBuffers(t *testing.T) {
	mk := func(p *BufferPool) Message {
		body := p.Get(64)
		m := Message{Header: Header{Op: OpOK}, Body: body}
		m.Own(p, body)
		return m
	}

	p := NewBufferPool()
	if err := WriteVectored(io.Discard, mk(p), p); err != nil {
		t.Fatal(err)
	}
	if p.Outstanding() != 0 {
		t.Fatalf("success path leaked %d", p.Outstanding())
	}

	// Header too large to frame.
	m := mk(p)
	m.Header.Key = strings.Repeat("x", 0x10000)
	if err := WriteVectored(io.Discard, m, p); err == nil {
		t.Fatal("oversized header accepted")
	}
	if p.Outstanding() != 0 {
		t.Fatalf("header-error path leaked %d", p.Outstanding())
	}

	// Body pushes the frame past MaxFrame.
	m = mk(p)
	m.Body = make([]byte, MaxFrame)
	if err := WriteVectored(io.Discard, m, p); err != ErrFrameTooLarge {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	if p.Outstanding() != 0 {
		t.Fatalf("oversize path leaked %d", p.Outstanding())
	}

	// A failing writer still consumes the message.
	m = mk(p)
	if err := WriteVectored(failWriter{}, m, p); err == nil {
		t.Fatal("failing writer reported success")
	}
	if p.Outstanding() != 0 {
		t.Fatalf("write-error path leaked %d", p.Outstanding())
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

// TestPackBatchViewsAliases: the segments returned by PackBatchViews alias
// the chunk map's values — no copying on the reply path.
func TestPackBatchViewsAliases(t *testing.T) {
	chunks := map[int][]byte{2: []byte("bb"), 0: []byte("aaaa"), 7: {}}
	indices, sizes, segs, err := PackBatchViews(chunks)
	if err != nil {
		t.Fatal(err)
	}
	wantIdx := []int{0, 2, 7}
	wantSz := []int{4, 2, 0}
	for i := range wantIdx {
		if indices[i] != wantIdx[i] || sizes[i] != wantSz[i] {
			t.Fatalf("indices %v sizes %v", indices, sizes)
		}
	}
	if &segs[0][0] != &chunks[0][0] || &segs[1][0] != &chunks[2][0] {
		t.Fatal("segments do not alias the chunk data")
	}
}

// TestUnpackBatchCopiesSurviveFrameReuse is the aliasing-safety heart of
// the pooled read path: chunks unpacked (copied) from a pooled request
// frame must stay intact after the frame is released, recycled by the next
// read, and overwritten — while UnpackBatchViews chunks, by contract,
// alias the frame and may not outlive its release.
func TestUnpackBatchCopiesSurviveFrameReuse(t *testing.T) {
	p := NewBufferPool()
	chunks := map[int][]byte{0: bytes.Repeat([]byte{0xAA}, 100), 3: bytes.Repeat([]byte{0xBB}, 50)}
	indices, sizes, body, err := PackBatch(chunks)
	if err != nil {
		t.Fatal(err)
	}
	req := Message{Header: Header{Op: OpMPut, Key: "k", Indices: indices, Sizes: sizes}, Body: body}
	wireBytes := frameFor(t, req)

	m, err := ReadPooled(bytes.NewReader(wireBytes), p)
	if err != nil {
		t.Fatal(err)
	}
	copied, err := UnpackBatch(m.Header.Indices, m.Header.Sizes, m.Body)
	if err != nil {
		t.Fatal(err)
	}
	views, err := UnpackBatchViews(m.Header.Indices, m.Header.Sizes, m.Body)
	if err != nil {
		t.Fatal(err)
	}
	// The views alias the pooled frame; the copies must not.
	if &views[0][0] == &copied[0][0] {
		t.Fatal("UnpackBatch returned aliasing chunks")
	}

	frameBase := &m.Body[0]
	m.Release()

	// Force reuse of the released frame and scribble over it, as the next
	// connection's read would.
	scratch := p.Get(len(wireBytes))
	if &scratch[0] != frameBase {
		t.Skip("pool did not hand back the same array (size class drift)")
	}
	for i := range scratch {
		scratch[i] = 0x5C
	}

	for idx, want := range chunks {
		if !bytes.Equal(copied[idx], want) {
			t.Fatalf("copied chunk %d corrupted by frame reuse", idx)
		}
	}
	// And the views did observe the scribble — proving they alias, which is
	// why handlers must copy (or finish) before Release.
	if views[0][0] != 0x5C {
		t.Fatal("views unexpectedly do not alias the frame")
	}
	p.Put(scratch)
}
