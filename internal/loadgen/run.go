package loadgen

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// recorder accumulates per-kind completion latencies during the measured
// window. Slices are preallocated from the expected op count so the
// steady-state record path is one lock and two appends.
type recorder struct {
	mu      sync.Mutex
	samples map[string][]time.Duration
	errs    map[string]int64
	// inWindow counts measured ops whose *completion* landed inside the
	// measured window. Ops that resolve during the post-window drain still
	// contribute latency samples (their lateness is the point), but only
	// in-window completions count as achieved throughput — otherwise a
	// saturated server that eventually drains its backlog would score 100%
	// efficiency at any offered rate.
	inWindow int64
	// slow holds the SlowK slowest in-window completions, ascending by
	// latency so index 0 is the cheapest to displace.
	slow []SlowOp
}

// noteSlow offers one in-window completion to the slow set. Caller holds mu.
func (r *recorder) noteSlow(op Op, lat time.Duration) {
	l := float64(lat) / float64(time.Microsecond)
	if len(r.slow) == SlowK && l <= r.slow[0].LatUs {
		return
	}
	i := sort.Search(len(r.slow), func(i int) bool { return r.slow[i].LatUs >= l })
	r.slow = append(r.slow, SlowOp{})
	copy(r.slow[i+1:], r.slow[i:])
	r.slow[i] = SlowOp{Kind: op.Kind, Key: op.Key, Trace: op.Trace, LatUs: l}
	if len(r.slow) > SlowK {
		r.slow = r.slow[1:]
	}
}

func newRecorder(cfg *Config) *recorder {
	expected := int(cfg.Rate*cfg.Duration.Seconds())/len(cfg.Mix) + 16
	r := &recorder{
		samples: make(map[string][]time.Duration, len(cfg.Mix)),
		errs:    make(map[string]int64, len(cfg.Mix)),
	}
	for _, w := range cfg.Mix {
		r.samples[w.Kind] = make([]time.Duration, 0, expected)
	}
	return r
}

func (r *recorder) record(op Op, lat time.Duration, err error, inWindow bool) {
	r.mu.Lock()
	r.samples[op.Kind] = append(r.samples[op.Kind], lat)
	if err != nil {
		r.errs[op.Kind]++
	}
	if inWindow {
		r.inWindow++
		r.noteSlow(op, lat)
	}
	r.mu.Unlock()
}

// Run drives one open-loop point: ops are issued on the fixed-rate
// schedule for Warmup+Duration, each op's latency is measured from its
// *scheduled* arrival time (coordinated-omission safe — if the Issuer or
// server stalls, the backlog drains late and every queued op's lateness is
// recorded), and the achieved rate is measured ops *completed inside the
// measured window* over that window — late drain completions contribute
// latency samples but not throughput, so overload shows up as achieved
// falling off the offered line. Run blocks until every issued op has
// resolved or WaitTimeout expires.
func Run(cfg Config, issuer Issuer) (Point, error) {
	if err := cfg.validate(); err != nil {
		return Point{}, err
	}
	picker := newOpPicker(&cfg)
	rec := newRecorder(&cfg)
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	start := time.Now()
	measureFrom := start.Add(cfg.Warmup)
	end := measureFrom.Add(cfg.Duration)

	var wg sync.WaitGroup
	var maxLag time.Duration // scheduler-goroutine private
	var issued int64
	for i := 0; ; i++ {
		sched := start.Add(time.Duration(i) * interval)
		if !sched.Before(end) {
			break
		}
		if d := time.Until(sched); d > 0 {
			time.Sleep(d)
		}
		op := picker.pick()
		measured := !sched.Before(measureFrom)
		if measured {
			issued++
			if lag := time.Since(sched); lag > maxLag {
				maxLag = lag
			}
		}
		sent, schedAt := op, sched
		wg.Add(1)
		issuer.Issue(op, func(err error) {
			if measured {
				now := time.Now()
				rec.record(sent, now.Sub(schedAt), err, !now.After(end))
			}
			wg.Done()
		})
	}

	waitTimeout := cfg.WaitTimeout
	if waitTimeout <= 0 {
		waitTimeout = 30 * time.Second
	}
	settled := make(chan struct{})
	go func() {
		wg.Wait()
		close(settled)
	}()
	select {
	case <-settled:
	case <-time.After(waitTimeout):
		return Point{}, fmt.Errorf("loadgen: ops still unresolved %v after the last issue", waitTimeout)
	}

	pt := Point{
		OfferedOps:   cfg.Rate,
		DurationS:    cfg.Duration.Seconds(),
		WarmupS:      cfg.Warmup.Seconds(),
		SendLagMaxUs: float64(maxLag) / float64(time.Microsecond),
		Ops:          make(map[string]KindStats, len(rec.samples)),
	}
	rec.mu.Lock()
	for kind, lats := range rec.samples {
		if len(lats) == 0 {
			continue
		}
		pt.Ops[kind] = summarize(lats, rec.errs[kind])
	}
	pt.AchievedOps = float64(rec.inWindow) / cfg.Duration.Seconds()
	for i := len(rec.slow) - 1; i >= 0; i-- { // slowest first
		pt.SlowOps = append(pt.SlowOps, rec.slow[i])
	}
	rec.mu.Unlock()
	return pt, nil
}

// Sweep runs one point per offered rate, ascending, against the Issuer
// that mkIssuer builds for each point (a fresh issuer per point keeps one
// saturated rung's backlog from bleeding into the next). progress, when
// non-nil, is called after each point.
func Sweep(base Config, rates []float64, mkIssuer func() (Issuer, func(), error), progress func(Point)) ([]Point, error) {
	if len(rates) == 0 {
		return nil, fmt.Errorf("loadgen: empty rate ladder")
	}
	points := make([]Point, 0, len(rates))
	for _, rate := range rates {
		cfg := base
		cfg.Rate = rate
		issuer, done, err := mkIssuer()
		if err != nil {
			return points, fmt.Errorf("loadgen: issuer for %v ops/s: %w", rate, err)
		}
		pt, err := Run(cfg, issuer)
		if done != nil {
			done()
		}
		if err != nil {
			return points, fmt.Errorf("loadgen: point at %v ops/s: %w", rate, err)
		}
		points = append(points, pt)
		if progress != nil {
			progress(pt)
		}
	}
	return points, nil
}
