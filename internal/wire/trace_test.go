package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"testing"

	"github.com/agardist/agar/internal/trace"
)

// legacyHeader is the Header exactly as it existed before trace context
// was added (PR 7 framing). The parity test encodes through it to prove
// untraced frames are byte-identical to what old clients and servers
// produce — the interoperability contract for mixed-version deployments.
type legacyHeader struct {
	Op      string           `json:"op"`
	Key     string           `json:"key,omitempty"`
	Index   int              `json:"index,omitempty"`
	Keys    []string         `json:"keys,omitempty"`
	Indices []int            `json:"indices,omitempty"`
	Region  string           `json:"region,omitempty"`
	Seq     int64            `json:"seq,omitempty"`
	Delta   bool             `json:"delta,omitempty"`
	Base    int64            `json:"base,omitempty"`
	Sizes   []int            `json:"sizes,omitempty"`
	Error   string           `json:"error,omitempty"`
	Stats   map[string]int64 `json:"stats,omitempty"`
	Groups  map[string][]int `json:"groups,omitempty"`
}

// legacyEncode frames a legacy header + body the way Encode does.
func legacyEncode(t *testing.T, h legacyHeader, body []byte) []byte {
	t.Helper()
	hdr, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	total := 2 + len(hdr) + len(body)
	buf := make([]byte, 4+total)
	binary.BigEndian.PutUint32(buf, uint32(total))
	binary.BigEndian.PutUint16(buf[4:], uint16(len(hdr)))
	off := 6 + copy(buf[6:], hdr)
	copy(buf[off:], body)
	return buf
}

// TestHeaderTraceParity pins the absent-field guarantee: a request or
// reply that carries no trace context encodes to the byte-identical frame
// the pre-trace protocol produced.
func TestHeaderTraceParity(t *testing.T) {
	cases := []struct {
		name   string
		now    Header
		legacy legacyHeader
		body   []byte
	}{
		{
			name:   "put request",
			now:    Header{Op: OpPut, Key: "obj-7", Index: 3},
			legacy: legacyHeader{Op: OpPut, Key: "obj-7", Index: 3},
		},
		{
			name:   "mget request with region",
			now:    Header{Op: OpMGet, Key: "obj-1", Indices: []int{0, 2, 5}, Region: "dublin"},
			legacy: legacyHeader{Op: OpMGet, Key: "obj-1", Indices: []int{0, 2, 5}, Region: "dublin"},
		},
		{
			name:   "batched ok reply",
			now:    Header{Op: OpOK, Indices: []int{0, 1}, Sizes: []int{3, 2}},
			legacy: legacyHeader{Op: OpOK, Indices: []int{0, 1}, Sizes: []int{3, 2}},
			body:   []byte("abcde"),
		},
		{
			name:   "error reply",
			now:    Header{Op: OpError, Error: "no such chunk"},
			legacy: legacyHeader{Op: OpError, Error: "no such chunk"},
		},
	}
	for _, tc := range cases {
		got, err := Encode(Message{Header: tc.now, Body: tc.body})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := legacyEncode(t, tc.legacy, tc.body)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: traced-protocol frame differs from legacy framing\n got %q\nwant %q", tc.name, got, want)
		}
	}
}

// TestHeaderTraceFieldsCoverLegacy guards the parity test itself: if a
// future PR adds a Header field the legacy twin does not know about, this
// fails and forces the parity table to be revisited.
func TestHeaderTraceFieldsCoverLegacy(t *testing.T) {
	// Fields added after the pre-trace protocol: the trace context (PR 8)
	// and the version headers, which have their own parity suite in
	// version_test.go.
	traceFields := map[string]bool{
		"Trace": true, "Span": true, "TFlags": true, "Anns": true,
		"Ver": true, "Vers": true, "KeyVers": true,
	}
	now := reflect.TypeOf(Header{})
	old := reflect.TypeOf(legacyHeader{})
	for i := 0; i < now.NumField(); i++ {
		f := now.Field(i)
		if traceFields[f.Name] {
			continue
		}
		lf, ok := old.FieldByName(f.Name)
		if !ok {
			t.Errorf("Header field %s missing from legacyHeader — update the parity test", f.Name)
			continue
		}
		if lf.Tag.Get("json") != f.Tag.Get("json") {
			t.Errorf("Header field %s json tag %q differs from legacy %q", f.Name, f.Tag.Get("json"), lf.Tag.Get("json"))
		}
	}
}

// TestHeaderTraceRoundTrip checks traced frames carry the context and
// annotations through an encode/decode cycle.
func TestHeaderTraceRoundTrip(t *testing.T) {
	ctx := trace.New()
	req := Message{Header: Header{
		Op: OpMGet, Key: "obj-9", Indices: []int{0, 1},
		Trace: ctx.TraceID.String(), Span: ctx.SpanID.String(), TFlags: ctx.Flags,
	}}
	buf, err := Encode(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(buf[4:])
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.Trace != ctx.TraceID.String() || got.Header.Span != ctx.SpanID.String() || got.Header.TFlags != trace.FlagSampled {
		t.Fatalf("trace context mangled: %+v", got.Header)
	}
	reply := Message{Header: Header{
		Op: OpOK,
		Anns: []trace.Annotation{
			{Name: "queue", OffUS: 0, DurUS: 12},
			{Name: "exec", OffUS: 12, DurUS: 340},
		},
	}}
	buf, err = Encode(reply)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(buf[4:])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Header.Anns, reply.Header.Anns) {
		t.Fatalf("annotations mangled: %+v", back.Header.Anns)
	}
}

// FuzzTraceHeaderRoundTrip fuzzes the trace header fields through an
// encode/decode cycle: any (trace, span, flags, annotation) combination
// must survive unchanged, and the empty context must add zero bytes over
// the equivalent untraced frame.
func FuzzTraceHeaderRoundTrip(f *testing.F) {
	f.Add("0011223344556677", "8899aabbccddeeff", 1, "exec", int64(5), int64(120))
	f.Add("", "", 0, "", int64(0), int64(0))
	f.Add("ffffffffffffffff", "0000000000000001", 3, "p0/queue", int64(-4), int64(1<<40))
	f.Fuzz(func(t *testing.T, tr, span string, flags int, annName string, off, dur int64) {
		h := Header{Op: OpPut, Key: "k", Trace: tr, Span: span, TFlags: flags}
		if annName != "" {
			h.Anns = []trace.Annotation{{Name: annName, OffUS: off, DurUS: dur}}
		}
		buf, err := Encode(Message{Header: h})
		if err != nil {
			t.Skip() // e.g. header too large from a huge fuzz string
		}
		got, err := Decode(buf[4:])
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.Header.Trace != tr || got.Header.Span != span || got.Header.TFlags != flags {
			t.Fatalf("context mangled: got %+v", got.Header)
		}
		if !reflect.DeepEqual(got.Header.Anns, h.Anns) {
			t.Fatalf("annotations mangled: got %+v want %+v", got.Header.Anns, h.Anns)
		}
		if tr == "" && span == "" && flags == 0 && annName == "" {
			plain, err := Encode(Message{Header: Header{Op: OpPut, Key: "k"}})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, plain) {
				t.Fatalf("zero trace context changed framing:\n got %q\nwant %q", buf, plain)
			}
		}
	})
}
