package monitor

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"github.com/agardist/agar/internal/metrics"
)

// Health drives the /debug/health readiness endpoint: each GET (or each
// explicit Tick under virtual time) collects the sources, evaluates the
// rule set, and reports 200 when no rule fires, 503 with the failing
// rules when one does. Evaluation is on-demand — no background goroutine
// — so a health check against a wedged server reflects that instant, and
// soaks can drive the same evaluator on a virtual clock.
type Health struct {
	// Now supplies the evaluation instant (default time.Now) — inject a
	// virtual clock's Now for soak tests.
	Now func() time.Time

	mu        sync.Mutex
	collector *Collector
	eval      *Evaluator
	alerts    []Alert
}

// NewHealth wires a collector and rule set into a health endpoint.
func NewHealth(c *Collector, rules []Rule) *Health {
	return &Health{
		collector: c,
		eval:      NewEvaluator(c.Store, rules),
	}
}

// NewRegistryHealth is the server-binary convenience: watch one
// in-process registry under the default per-server rules.
func NewRegistryHealth(instance string, reg *metrics.Registry, rules []Rule) *Health {
	st := NewStore(256)
	return NewHealth(&Collector{
		Store:   st,
		Sources: []Source{RegistrySource{Name: instance, Registry: reg}},
	}, rules)
}

// Tick collects once and evaluates once at instant now, returning the
// alert transitions produced. Scrape errors are tolerated — rules judge
// whatever data arrived.
func (h *Health) Tick(now time.Time) []Alert {
	h.mu.Lock()
	defer h.mu.Unlock()
	_ = h.collector.Collect(now)
	alerts := h.eval.Eval(now)
	h.alerts = append(h.alerts, alerts...)
	return alerts
}

// Status is the JSON document /debug/health serves.
type Status struct {
	// Status is "ok" or "failing".
	Status    string       `json:"status"`
	CheckedAt time.Time    `json:"checked_at"`
	Rules     []RuleStatus `json:"rules"`
}

// Check ticks once at the injected clock's now and reports the standing.
func (h *Health) Check() Status {
	now := time.Now()
	if h.Now != nil {
		now = h.Now()
	}
	h.Tick(now)
	h.mu.Lock()
	defer h.mu.Unlock()
	st := Status{Status: "ok", CheckedAt: now, Rules: h.eval.Status()}
	for _, r := range st.Rules {
		if r.State == StateFiring {
			st.Status = "failing"
		}
	}
	return st
}

// Alerts returns every transition recorded since construction.
func (h *Health) Alerts() []Alert {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]Alert(nil), h.alerts...)
}

// ServeHTTP implements the /debug/health endpoint: 200 with the status
// document when every rule holds, 503 with the same document when one
// fires. Readiness probes key on the code; humans read the body.
func (h *Health) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	st := h.Check()
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if st.Status != "ok" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(st)
}

// DefaultServerRules is the rule set every server binary mounts under
// /debug/health: server saturation (requests in flight), goroutine and
// heap growth, and (for cache servers, which register the family) digest
// staleness.
// Thresholds are deliberately loose — readiness, not alerting.
func DefaultServerRules() []Rule {
	return []Rule{
		{
			Name:   "queue-saturation",
			Kind:   KindThreshold,
			Metric: metrics.NameServerQueueDepth,
			Max:    F(256),
		},
		{
			Name:   "goroutine-growth",
			Kind:   KindRate,
			Metric: metrics.NameGoGoroutines,
			Window: 2 * time.Minute,
			Max:    F(50), // +50 goroutines/s sustained over 2m = a leak
		},
		{
			Name:   "heap-growth",
			Kind:   KindRate,
			Metric: metrics.NameGoHeapAllocBytes,
			Window: 2 * time.Minute,
			Max:    F(64 << 20), // +64 MiB/s sustained growth
		},
		{
			Name:   "digest-stale",
			Kind:   KindThreshold,
			Metric: metrics.NameCoopDigestAgeMS,
			Max:    F(60_000),
		},
	}
}

// DefaultWatchRules is the richer rule set agar-mon evaluates against a
// live cluster: everything in DefaultServerRules plus the SLO-shaped
// forms that need windowed history — the read p99 ceiling and the
// hit-ratio burn rate.
func DefaultWatchRules() []Rule {
	rules := DefaultServerRules()
	rules = append(rules,
		Rule{
			Name:     "read-p99-ceiling",
			Kind:     KindThreshold,
			Metric:   metrics.NameServerOpExecute,
			Quantile: 0.99,
			Window:   time.Minute,
			Max:      F(0.5), // 500 ms server-side execute p99
		},
		Rule{
			Name:      "hit-ratio-floor",
			Kind:      KindThreshold,
			Metric:    metrics.NameCacheHits,
			DenMetric: metrics.NameCacheGets,
			Window:    5 * time.Minute,
			Min:       F(0.05),
			For:       time.Minute,
		},
	)
	return rules
}
