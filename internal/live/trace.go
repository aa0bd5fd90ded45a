package live

import (
	"sort"
	"sync"
	"time"

	"github.com/agardist/agar/internal/trace"
)

// Span is one timed exchange inside a single live read: the hint lookup,
// a batched cache/peer/store round trip, a single-chunk store fallback, a
// degraded-wave fetch, or the erasure decode. Offsets are relative to the
// read's start so traces from different reads compare directly.
type Span struct {
	// Name identifies the exchange: "hint", "cache-mget",
	// "peer-mget:<region>", "store-mget:<region>", "store-get:<region>",
	// "degraded-get:<region>", "decode".
	Name string `json:"name"`
	// StartMS is the span's offset from the read's start, in milliseconds.
	StartMS float64 `json:"start_ms"`
	// DurMS is the span's duration in milliseconds.
	DurMS float64 `json:"dur_ms"`
	// Chunks is how many chunks the exchange produced (0 for hint/decode).
	Chunks int `json:"chunks,omitempty"`
	// Bytes is the payload volume the exchange produced.
	Bytes int `json:"bytes,omitempty"`
	// Err carries the exchange's failure, if any — a store fault, an
	// unreachable region, a failed decode.
	Err string `json:"err,omitempty"`
	// Remote holds the server-side annotations the exchange's reply
	// carried (the handler's execute time) — real measured
	// server time nested under this client-observed span, offsets
	// relative to the server receiving the frame. Empty for exchanges
	// that were not traced or whose server predates trace headers.
	Remote []trace.Annotation `json:"remote,omitempty"`
}

// ReadTrace is the span breakdown of one live read — what ReadDetailed
// spent its wall clock on. Spans from concurrent fetch goroutines overlap;
// sort order is by start offset.
type ReadTrace struct {
	Key string `json:"key"`
	// TraceID is the read's propagated trace identifier: the same ID the
	// servers' flight recorders retained the read's ops under, so a slow
	// client trace can be joined against every /debug/traces it touched.
	TraceID string  `json:"trace_id,omitempty"`
	TotalMS float64 `json:"total_ms"`
	Spans   []Span  `json:"spans"`
}

// traceCollector accumulates spans from the read's concurrent fetch
// goroutines. The mutex is off every fetch's wait path — goroutines record
// a span only after their network exchange completes.
type traceCollector struct {
	start time.Time
	ctx   trace.Context // the read's root context (zero: untraced)
	mu    sync.Mutex
	spans []Span
}

func newTraceCollector(start time.Time) *traceCollector {
	return &traceCollector{start: start}
}

// span records one exchange that began at t0 and just ended.
func (t *traceCollector) span(name string, t0 time.Time, chunks, bytes int, err error) {
	t.spanRemote(name, t0, chunks, bytes, err, nil)
}

// spanRemote is span carrying the server-side annotations the exchange's
// reply returned — the graft point where real server time joins the
// client's span tree.
func (t *traceCollector) spanRemote(name string, t0 time.Time, chunks, bytes int, err error, remote []trace.Annotation) {
	s := Span{
		Name:    name,
		StartMS: float64(t0.Sub(t.start)) / float64(time.Millisecond),
		DurMS:   float64(time.Since(t0)) / float64(time.Millisecond),
		Chunks:  chunks,
		Bytes:   bytes,
		Remote:  remote,
	}
	if err != nil {
		s.Err = err.Error()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// finish seals the trace: spans sorted by start offset, total set.
func (t *traceCollector) finish(key string) *ReadTrace {
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].StartMS != spans[j].StartMS {
			return spans[i].StartMS < spans[j].StartMS
		}
		return spans[i].Name < spans[j].Name
	})
	return &ReadTrace{
		Key:     key,
		TraceID: t.ctx.TraceID.String(),
		TotalMS: float64(time.Since(t.start)) / float64(time.Millisecond),
		Spans:   spans,
	}
}
