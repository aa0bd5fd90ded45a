// Package monitor is the watch side of the observability layer: where
// internal/metrics emits signals, this package judges them. It keeps a
// scrape-side time-series store (fixed-size per-series rings filled from
// /metrics endpoints or in-process registries), evaluates declarative SLO
// rules over those series (threshold, rate-of-change, and two-window
// burn-rate forms) into timestamped alert events, detects drift across a
// long soak by comparing early-window and late-window aggregates, and
// serves the /debug/health readiness endpoint every server binary mounts.
// Everything is clock-injectable, so soak scenarios evaluate the same
// rules on virtual time that agar-mon evaluates against a live cluster.
package monitor

import (
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/agardist/agar/internal/metrics"
)

// defaultCapacity bounds each series ring when NewStore is given no size:
// at agar-mon's 2 s poll interval it retains ~34 minutes; a soak sampling
// once per virtual minute retains 17 hours.
const defaultCapacity = 1024

// Point is one scalar observation.
type Point struct {
	T time.Time
	V float64
}

// histPoint is one retained histogram scrape (cumulative, not windowed).
type histPoint struct {
	t time.Time
	s metrics.Sample
}

// scalarSeries is a fixed-size ring of points for one label set.
type scalarSeries struct {
	labels map[string]string
	ring   []Point
	start  int // index of the oldest point
	n      int
}

func (s *scalarSeries) append(capacity int, p Point) {
	if len(s.ring) < capacity {
		s.ring = append(s.ring, p)
		s.n = len(s.ring)
		return
	}
	s.ring[(s.start+s.n)%len(s.ring)] = p
	s.start = (s.start + 1) % len(s.ring)
}

// points returns the retained points oldest-first.
func (s *scalarSeries) points() []Point {
	out := make([]Point, 0, s.n)
	for i := 0; i < s.n; i++ {
		out = append(out, s.ring[(s.start+i)%len(s.ring)])
	}
	return out
}

// histSeries is the histogram twin: a ring of cumulative snapshots plus
// the family's bucket bounds, so windows delta and take quantiles.
type histSeries struct {
	labels map[string]string
	bounds []float64
	ring   []histPoint
	start  int
	n      int
}

func (s *histSeries) append(capacity int, p histPoint) {
	if len(s.ring) < capacity {
		s.ring = append(s.ring, p)
		s.n = len(s.ring)
		return
	}
	s.ring[(s.start+s.n)%len(s.ring)] = p
	s.start = (s.start + 1) % len(s.ring)
}

func (s *histSeries) snapshots() []histPoint {
	out := make([]histPoint, 0, s.n)
	for i := 0; i < s.n; i++ {
		out = append(out, s.ring[(s.start+i)%len(s.ring)])
	}
	return out
}

// Store is the scrape-side time-series store: per-series fixed-size rings
// keyed by metric name and label set. Memory is bounded by construction —
// series count × ring capacity — so it can watch a cluster (or run under a
// multi-hour soak) without growing. Safe for concurrent use.
type Store struct {
	mu       sync.RWMutex
	capacity int
	scalars  map[string]map[string]*scalarSeries // name → label sig → ring
	hists    map[string]map[string]*histSeries
}

// NewStore returns an empty store whose rings retain up to capacity points
// each (<= 0 selects the default of 1024).
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = defaultCapacity
	}
	return &Store{
		capacity: capacity,
		scalars:  make(map[string]map[string]*scalarSeries),
		hists:    make(map[string]map[string]*histSeries),
	}
}

// labelSig builds a stable signature from a label set.
func labelSig(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('\xfe')
		b.WriteString(labels[k])
		b.WriteByte('\xff')
	}
	return b.String()
}

// copyLabels defends against callers mutating their maps after the fact.
func copyLabels(labels map[string]string) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	out := make(map[string]string, len(labels))
	for k, v := range labels {
		out[k] = v
	}
	return out
}

// matches reports whether the series labels satisfy every constraint.
func matches(labels, want map[string]string) bool {
	for k, v := range want {
		if labels[k] != v {
			return false
		}
	}
	return true
}

// Append records one scalar observation at instant t.
func (st *Store) Append(name string, labels map[string]string, t time.Time, v float64) {
	sig := labelSig(labels)
	st.mu.Lock()
	defer st.mu.Unlock()
	byName := st.scalars[name]
	if byName == nil {
		byName = make(map[string]*scalarSeries)
		st.scalars[name] = byName
	}
	s := byName[sig]
	if s == nil {
		s = &scalarSeries{labels: copyLabels(labels)}
		byName[sig] = s
	}
	s.append(st.capacity, Point{T: t, V: v})
}

// AppendHist records one cumulative histogram snapshot at instant t. The
// bucket counts are copied; bounds are taken from the first append and
// describe every later snapshot of the series.
func (st *Store) AppendHist(name string, labels map[string]string, bounds []float64, t time.Time, sample metrics.Sample) {
	sig := labelSig(labels)
	cp := sample
	cp.BucketCounts = append([]uint64(nil), sample.BucketCounts...)
	cp.Exemplars = nil
	st.mu.Lock()
	defer st.mu.Unlock()
	byName := st.hists[name]
	if byName == nil {
		byName = make(map[string]*histSeries)
		st.hists[name] = byName
	}
	s := byName[sig]
	if s == nil {
		s = &histSeries{labels: copyLabels(labels), bounds: append([]float64(nil), bounds...)}
		byName[sig] = s
	}
	s.append(st.capacity, histPoint{t: t, s: cp})
}

// Series is one scalar series' retained points, oldest-first.
type Series struct {
	Name   string
	Labels map[string]string
	Points []Point
}

// Select returns every scalar series under name whose labels satisfy the
// match constraints (nil matches all), points oldest-first. The result is
// a copy; ordering across series is stable (by label signature).
func (st *Store) Select(name string, match map[string]string) []Series {
	st.mu.RLock()
	defer st.mu.RUnlock()
	byName := st.scalars[name]
	if byName == nil {
		return nil
	}
	sigs := make([]string, 0, len(byName))
	for sig, s := range byName {
		if matches(s.labels, match) {
			sigs = append(sigs, sig)
		}
	}
	sort.Strings(sigs)
	out := make([]Series, 0, len(sigs))
	for _, sig := range sigs {
		s := byName[sig]
		out = append(out, Series{Name: name, Labels: copyLabels(s.labels), Points: s.points()})
	}
	return out
}

// HistWindow is one histogram series' windowed delta: the increase between
// the first and last snapshots inside a time window, plus the bucket
// bounds needed to take quantiles of it.
type HistWindow struct {
	Name   string
	Labels map[string]string
	Bounds []float64
	// Delta is the windowed increase (DeltaSample of the window's last and
	// first snapshots); Delta.Count is the observations inside the window.
	Delta metrics.Sample
}

// HistDeltas returns, per matching histogram series, the delta between the
// last and first retained snapshots with timestamps in [from, to]. Series
// with fewer than two snapshots in the window are omitted — one snapshot
// bounds no interval.
func (st *Store) HistDeltas(name string, match map[string]string, from, to time.Time) []HistWindow {
	st.mu.RLock()
	defer st.mu.RUnlock()
	byName := st.hists[name]
	if byName == nil {
		return nil
	}
	sigs := make([]string, 0, len(byName))
	for sig, s := range byName {
		if matches(s.labels, match) {
			sigs = append(sigs, sig)
		}
	}
	sort.Strings(sigs)
	var out []HistWindow
	for _, sig := range sigs {
		s := byName[sig]
		var first, last *histPoint
		for _, hp := range s.snapshots() {
			if hp.t.Before(from) || hp.t.After(to) {
				continue
			}
			hp := hp
			if first == nil {
				first = &hp
			}
			last = &hp
		}
		if first == nil || last == nil || first.t.Equal(last.t) {
			continue
		}
		out = append(out, HistWindow{
			Name:   name,
			Labels: copyLabels(s.labels),
			Bounds: append([]float64(nil), s.bounds...),
			Delta:  metrics.DeltaSample(last.s, first.s),
		})
	}
	return out
}
