// Package metrics is the dependency-free instrumentation registry every
// server in the system reports through: counters, gauges (static and
// function-backed), and fixed-bucket histograms, exposed in Prometheus
// text format by Handler.
//
// The hot path is lock-free: counters and histograms are atomics, and
// labelled metrics hand out pre-interned children (With) at construction
// time, so recording an observation never allocates and never takes the
// registry lock. The registry lock is only held while registering families,
// interning children, and gathering a scrape.
//
// A Registry backs the Prometheus /metrics endpoint, the servers' only
// counter surface. The package also includes a
// parser for its own exposition format (ParseText) plus histogram quantile
// and delta helpers, so scrape-side tooling — the scenario live runner, the
// golden tests — needs no external client library.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is a metric family's exposition type.
type Kind string

// Family kinds, matching the Prometheus text-format TYPE names.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// DefBuckets are the default latency buckets in seconds: 100µs to 10s,
// roughly ×2.5 per step — wide enough for a localhost round trip and a
// scaled WAN fetch to land in different buckets.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 10,
}

// ExponentialBuckets returns n bucket upper bounds starting at start and
// multiplying by factor — the usual way to cover several decades of
// latency with few buckets.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("metrics: ExponentialBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// Counter is a monotonically increasing atomic count.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n panics — counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("metrics: counter decrement")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution. Observations are lock-free:
// one atomic add on the matched bucket, one on the count, and a CAS loop
// folding the value into the float sum.
type Histogram struct {
	bounds []float64       // ascending upper bounds; +Inf is implicit
	counts []atomic.Uint64 // len(bounds)+1, non-cumulative; last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // math.Float64bits
	// exemplars holds, per bucket, the trace ID of the last observation
	// that landed there with a trace attached — the jump from "this bucket
	// has a tail" to "here is one concrete slow request to look up".
	exemplars []atomic.Pointer[Exemplar]
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram buckets not ascending: %v", bounds))
		}
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{
		bounds:    b,
		counts:    make([]atomic.Uint64, len(b)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(b)+1),
	}
}

// Exemplar ties one histogram bucket to a concrete traced request: the
// trace ID the observation carried and the observed value. BucketLE is the
// bucket's upper bound (+Inf for the overflow bucket) when gathered.
type Exemplar struct {
	BucketLE float64
	TraceID  string
	Value    float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bucket whose upper bound is >= v (le semantics); beyond the
	// last bound lands in the +Inf bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveExemplar records one value and, when traceID is non-empty, pins
// it as the matched bucket's exemplar — last writer wins, one atomic store
// over Observe's cost, still lock-free.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	h.Observe(v)
	if traceID == "" {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.exemplars[i].Store(&Exemplar{TraceID: traceID, Value: v})
}

// ObserveDurationExemplar records a duration in seconds with a trace-ID
// exemplar (empty traceID degrades to a plain observation).
func (h *Histogram) ObserveDurationExemplar(d time.Duration, traceID string) {
	h.ObserveExemplar(d.Seconds(), traceID)
}

// Count returns how many values have been observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// snapshot returns cumulative bucket counts (last entry is +Inf == total),
// the sum, and the count, reading each atomic once. The three are not one
// consistent cut under concurrent observation — fine for monitoring, and
// cumulative counts are re-monotonised so a torn read never yields a
// decreasing bucket sequence.
func (h *Histogram) snapshot() ([]uint64, float64, uint64) {
	buckets := make([]uint64, len(h.counts))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		buckets[i] = cum
	}
	count := h.count.Load()
	if count < cum {
		count = cum
	}
	buckets[len(buckets)-1] = count
	return buckets, h.Sum(), count
}

// snapshotExemplars copies the non-empty bucket exemplars, stamping each
// with its bucket's upper bound (+Inf for the overflow bucket).
func (h *Histogram) snapshotExemplars() []Exemplar {
	var out []Exemplar
	for i := range h.exemplars {
		e := h.exemplars[i].Load()
		if e == nil {
			continue
		}
		le := math.Inf(1)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		out = append(out, Exemplar{BucketLE: le, TraceID: e.TraceID, Value: e.Value})
	}
	return out
}

// child is one labelled instance inside a family: exactly one of the
// concrete metric pointers (or the value function) is set.
type child struct {
	values  []string
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64
}

func (c *child) value() float64 {
	switch {
	case c.fn != nil:
		return c.fn()
	case c.counter != nil:
		return float64(c.counter.Value())
	case c.gauge != nil:
		return float64(c.gauge.Value())
	}
	return 0
}

// family is one registered metric name: its type, help, label schema, and
// interned children.
type family struct {
	name, help string
	kind       Kind
	labels     []string
	buckets    []float64 // histograms only

	mu       sync.Mutex
	children map[string]*child
	order    []*child
}

func (f *family) intern(values []string, make func() *child) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := make()
	c.values = append([]string(nil), values...)
	f.children[key] = c
	f.order = append(f.order, c)
	return c
}

// Registry holds metric families and serves them in exposition format.
// The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup returns the named family, creating it on first registration and
// panicking if a re-registration disagrees on kind, labels, or buckets —
// that is a programming error, not runtime input.
func (r *Registry) lookup(name, help string, kind Kind, labels []string, buckets []float64) *family {
	if name == "" {
		panic("metrics: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || !equalStrings(f.labels, labels) || !equalFloats(f.buckets, buckets) {
			panic(fmt.Sprintf("metrics: conflicting re-registration of %s", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels:   append([]string(nil), labels...),
		buckets:  append([]float64(nil), buckets...),
		children: make(map[string]*child),
	}
	r.families[name] = f
	return f
}

// CounterVec is a counter family with labels; With interns children.
type CounterVec struct{ f *family }

// NewCounterVec registers (or returns) a counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.lookup(name, help, KindCounter, labels, nil)}
}

// With returns the child for the given label values, interning it on first
// use. Call at construction time and keep the pointer: the returned Counter
// is lock-free.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.intern(values, func() *child { return &child{counter: &Counter{}} }).counter
}

// NewCounter registers an unlabelled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	return r.NewCounterVec(name, help).With()
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// NewGaugeVec registers (or returns) a gauge family.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.lookup(name, help, KindGauge, labels, nil)}
}

// With returns the interned child gauge for the label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.intern(values, func() *child { return &child{gauge: &Gauge{}} }).gauge
}

// NewGauge registers an unlabelled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	return r.NewGaugeVec(name, help).With()
}

// FuncVec is a family of function-backed values (gauge or counter kind):
// the function is called at gather time, so existing atomics can be exposed
// without shadow state.
type FuncVec struct{ f *family }

// NewGaugeFuncVec registers a labelled function-backed gauge family.
func (r *Registry) NewGaugeFuncVec(name, help string, labels ...string) *FuncVec {
	return &FuncVec{r.lookup(name, help, KindGauge, labels, nil)}
}

// NewCounterFuncVec registers a labelled function-backed counter family —
// for monotonic totals that already live in someone else's atomics.
func (r *Registry) NewCounterFuncVec(name, help string, labels ...string) *FuncVec {
	return &FuncVec{r.lookup(name, help, KindCounter, labels, nil)}
}

// Bind attaches the value function for one label combination. Binding the
// same combination twice panics — one owner per time series.
func (v *FuncVec) Bind(fn func() float64, values ...string) {
	created := false
	v.f.intern(values, func() *child { created = true; return &child{fn: fn} })
	if !created {
		panic(fmt.Sprintf("metrics: duplicate Bind of %s%v", v.f.name, values))
	}
}

// NewGaugeFunc registers an unlabelled function-backed gauge.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.NewGaugeFuncVec(name, help).Bind(fn)
}

// NewCounterFunc registers an unlabelled function-backed counter.
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) {
	r.NewCounterFuncVec(name, help).Bind(fn)
}

// HistogramVec is a histogram family with labels and shared buckets.
type HistogramVec struct{ f *family }

// NewHistogramVec registers (or returns) a histogram family. Nil or empty
// buckets use DefBuckets.
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	return &HistogramVec{r.lookup(name, help, KindHistogram, labels, buckets)}
}

// With returns the interned child histogram for the label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	f := v.f
	return f.intern(values, func() *child { return &child{hist: newHistogram(f.buckets)} }).hist
}

// NewHistogram registers an unlabelled histogram.
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	return r.NewHistogramVec(name, help, buckets).With()
}

// Family is a gathered snapshot of one metric family.
type Family struct {
	Name    string
	Help    string
	Kind    Kind
	Labels  []string
	Buckets []float64 // histogram upper bounds (+Inf implicit)
	Samples []Sample
}

// Sample is one gathered time series.
type Sample struct {
	// LabelValues aligns with the family's Labels.
	LabelValues []string
	// Value is the counter or gauge value (unused for histograms).
	Value float64
	// BucketCounts are cumulative counts per bucket; the last entry is the
	// +Inf bucket and equals Count. Histograms only.
	BucketCounts []uint64
	// Sum and Count are the histogram's running sum and observation count.
	Sum   float64
	Count uint64
	// Exemplars are the histogram's per-bucket trace-ID exemplars (only
	// buckets that have seen a traced observation appear).
	Exemplars []Exemplar
}

// Gather snapshots every family, sorted by name with samples sorted by
// label values — the stable order the exposition format and golden tests
// rely on.
func (r *Registry) Gather() []Family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	out := make([]Family, 0, len(fams))
	for _, f := range fams {
		f.mu.Lock()
		children := append([]*child(nil), f.order...)
		f.mu.Unlock()
		sort.Slice(children, func(i, j int) bool {
			return lessStrings(children[i].values, children[j].values)
		})
		fam := Family{
			Name: f.name, Help: f.help, Kind: f.kind,
			Labels:  append([]string(nil), f.labels...),
			Buckets: append([]float64(nil), f.buckets...),
		}
		for _, c := range children {
			s := Sample{LabelValues: append([]string(nil), c.values...)}
			if c.hist != nil {
				s.BucketCounts, s.Sum, s.Count = c.hist.snapshot()
				s.Exemplars = c.hist.snapshotExemplars()
			} else {
				s.Value = c.value()
			}
			fam.Samples = append(fam.Samples, s)
		}
		out = append(out, fam)
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func lessStrings(a, b []string) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
