package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/agardist/agar/internal/cache"
)

// How a run spends its -seconds. The shares are the same on every commit;
// only -seconds (BENCHMARK.json's run_seconds) scales them.
const (
	// Untraced invocation: open-loop window, then closed-loop segment.
	openShare   = 0.65
	closedShare = 0.35
	// Traced invocation: an untraced reference window, the traced window,
	// then the layer probes.
	refShare    = 0.25
	tracedShare = 0.45
	probeShare  = 0.30
	// warmShare of -seconds (at most warmMax) runs before the first window at
	// the workload's rate and is discarded.
	warmShare = 0.1
	warmMax   = time.Second
	// setUps is how many times the untraced invocation sets the system up;
	// setup_s and reconfig_s are the medians, the last rig is measured.
	setUps = 3
	// rotateAt and reconfigAt2 place wan-mixed's popularity shift and its two
	// reconfigurations under load, as shares of the open-loop window.
	rotateAt    = 0.4
	reconfigAt2 = 0.7
	// A workload whose op stream has no writes measures write_p50_us with
	// quiescent bursts of sequential whole-object updates: one burst before
	// the open-loop window, one after it, one after the closed-loop segment.
	burstWrites = 25
	// closedOpsFactor sizes the closed-loop op stream as a multiple of the
	// open-loop rate; every workload's capacity is below it.
	closedOpsFactor = 6
	// slice is the unit the measured phases are cut into before the quiet
	// share of them is kept (see quiet and workload.QuietShare); cpuSlice is
	// the coarser unit of CPU accounting, whose clock ticks in milliseconds.
	slice    = 250 * time.Millisecond
	cpuSlice = time.Second
)

// value is one measured number with the count of samples behind it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// report is everything one invocation measured; -out appends it as a line.
type report struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Traced    bool             `json:"traced"`
	Env       env              `json:"env"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Valid     bool             `json:"valid"`
	Notes     []string         `json:"notes,omitempty"`
	Metrics   map[string]value `json:"metrics"`
}

type env struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Lanes      int    `json:"lanes"`
	Transport  string `json:"transport"`
}

type options struct {
	seed     uint64
	seconds  float64
	traced   bool
	setUps   int
	rowsDir  string
	spansOut string
}

// run is the state of one invocation.
type run struct {
	w      workload
	o      options
	g      *rig
	stream *opStream
	rep    *report
	phases []phaseRows // kept for -rows
	bursts [][]float64 // write-burst latencies, µs, one slice per burst
}

type phaseRows struct {
	name string
	rows []row
}

func (r *run) set(name string, v float64, n int) {
	r.rep.Metrics[name] = value{Value: v, Unit: unitOf(name), N: n}
}

func (r *run) note(format string, args ...any) {
	r.rep.Notes = append(r.rep.Notes, fmt.Sprintf(format, args...))
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runWorkload performs one invocation: set-up, warm-up, the measured
// phases of the chosen pass, teardown.
func runWorkload(w workload, o options) (*report, error) {
	lanes := runtime.NumCPU()
	r := &run{w: w, o: o, stream: newOpStream(w, o.seed), rep: &report{
		Workload: w.Name, Seed: o.seed, Seconds: o.seconds, Traced: o.traced, Valid: true,
		Env: env{
			GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
			Lanes: lanes, Transport: "loopback TCP, client lanes, servers and node in one process",
		},
		Metrics: make(map[string]value),
	}}
	defer func() {
		if r.g != nil {
			r.g.close()
		}
	}()
	var setupS, reconfigS []float64
	for i := 0; i < o.setUps; i++ {
		if r.g != nil {
			r.g.close()
			r.g = nil
			debug.FreeOSMemory() // every set-up starts from an empty heap, like the first
		}
		t0 := time.Now()
		g, err := setUp(w, o.seed, lanes)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		reconfigS = append(reconfigS, g.reconfigS)
		r.g = g
	}
	r.set("setup_s", median(setupS), len(setupS))
	r.set("reconfig_s", median(reconfigS), len(reconfigS))

	warm := min(seconds(o.seconds*warmShare), warmMax)
	rows, _ := r.runStream("warm", warm, true, false, nil)
	r.count(rows)
	if o.traced {
		r.tracedPass()
	} else {
		r.untracedPass()
	}
	g := r.g
	r.g = nil
	g.close() // panics if a server's buffer pool leaked

	if o.rowsDir != "" {
		if err := r.writeRows(); err != nil {
			return nil, err
		}
	}
	return r.rep, nil
}

// runStream runs the next stretch of the op stream as one phase and keeps
// its rows.
func (r *run) runStream(name string, window time.Duration, openLoop, traced bool, hooks []hook) ([]row, time.Time) {
	n := int(r.w.Rate * window.Seconds())
	if !openLoop {
		n *= closedOpsFactor
	}
	rows, t0 := r.g.runPhase(phase{ops: r.stream.next(n), openLoop: openLoop, window: window, traced: traced, hooks: hooks})
	r.phases = append(r.phases, phaseRows{name: name, rows: rows})
	return rows, t0
}

// count adds a phase's operations to the invocation's attempted and failed
// totals; the first few failures are kept as notes.
func (r *run) count(rows []row) {
	for i := range rows {
		r.rep.Attempted++
		if err := rows[i].Err; err != nil {
			r.rep.Failed++
			if r.rep.Failed <= 5 {
				r.note("op %d (%s %s) failed: %v", rows[i].ID, rows[i].Kind, r.g.keys[rows[i].Key], err)
			}
		}
	}
}

// quiet keeps the quiet share of a phase's slices. The sandbox this runs in
// slows down for seconds at a time when its host is busy, always in the
// same direction, and a window-wide statistic then measures the host. So a
// phase is cut into quarter-second slices, the slices are ranked by score
// (lower is quieter), and only the best ceil(share × n) are used; what is
// reported is a statistic of the operations pooled from those. A share of
// 1 keeps the whole window.
func quiet[T any](slices []T, share float64, score func(T) float64) []T {
	ranked := append([]T(nil), slices...)
	sort.SliceStable(ranked, func(i, j int) bool { return score(ranked[i]) < score(ranked[j]) })
	keep := int(math.Ceil(share * float64(len(ranked))))
	return ranked[:min(max(keep, 1), len(ranked))]
}

// sliceLatencies cuts an open-loop phase's operations of one kind into
// slices by due time and returns each slice's latencies in µs. A failed
// operation stays in: its latency is the time to failure.
func sliceLatencies(rows []row, kind opKind) [][]float64 {
	var out [][]float64
	for i := range rows {
		if rows[i].Kind != kind {
			continue
		}
		s := int(rows[i].Due / slice)
		for len(out) <= s {
			out = append(out, nil)
		}
		out[s] = append(out[s], micros(rows[i].End-rows[i].Due))
	}
	return out
}

// quietPool pools the latencies of the quiet slices, ranked by the same
// statistic that is then taken over the pool: a slice with a low median can
// still hold a stall that would own the mean.
func quietPool(slices [][]float64, share float64, stat func([]float64) float64) []float64 {
	return flatten(quiet(nonEmpty(slices), share, stat))
}

// nonEmpty drops the slices nothing fell into (a slow rate, a window's
// ragged end), which would otherwise rank as the quietest.
func nonEmpty[T any](slices [][]T) [][]T {
	var out [][]T
	for _, s := range slices {
		if len(s) > 0 {
			out = append(out, s)
		}
	}
	return out
}

func flatten(slices [][]float64) []float64 {
	var all []float64
	for _, s := range slices {
		all = append(all, s...)
	}
	return all
}

// windowHooks returns wan-mixed's reconfigurations under load: one where
// the popularity rotates, one later. They are issued at fixed op indices on
// their own goroutine, the second after the first has returned, and each
// duration lands in dst.
func (r *run) windowHooks(ops int, dst *[]float64) []hook {
	if r.w.RotateBy == 0 {
		return nil
	}
	r.stream.rotateAt = r.stream.n + int(rotateAt*float64(ops))
	var mu sync.Mutex
	reconfigure := func() {
		mu.Lock()
		defer mu.Unlock()
		t0 := time.Now()
		r.g.cluster.Node().ForceReconfigure()
		*dst = append(*dst, float64(time.Since(t0))/float64(time.Millisecond))
	}
	return []hook{
		{At: int(rotateAt * float64(ops)), Fn: reconfigure},
		{At: int(reconfigAt2 * float64(ops)), Fn: reconfigure},
	}
}

// windowResult is one open-loop window with the counters taken around it.
type windowResult struct {
	rows       []row
	t0         time.Time
	proc       procCounters
	cache      cache.Stats
	underLoad  []float64 // reconfigurations issued inside the window, ms
	sampled    sampled
	elapsedSec float64
}

// openWindow runs one open-loop window. Only the window an invocation
// measures shifts wan-mixed's popularity (shift); a reference window before
// it runs on the popularity the cache was set up for.
func (r *run) openWindow(name string, share float64, traced, shift bool) windowResult {
	window := seconds(r.o.seconds * share)
	ops := int(r.w.Rate * window.Seconds())
	var res windowResult
	var hooks []hook
	if shift {
		hooks = r.windowHooks(ops, &res.underLoad)
	}
	smp := startSampler(r.g)
	stats := r.g.cluster.Node().Cache().Stats
	proc0, cache0 := readProc(), stats()
	res.rows, res.t0 = r.runStream(name, window, true, traced, hooks)
	res.elapsedSec = time.Since(res.t0).Seconds()
	res.proc = readProc().since(proc0)
	res.cache = cacheSince(stats(), cache0)
	res.sampled = smp.stop()
	r.count(res.rows)
	return res
}

func (r *run) untracedPass() {
	r.writeBurst()
	win := r.openWindow("open", openShare, false, true)
	r.generatorCheck(win)
	r.writeBurst()

	window := seconds(r.o.seconds * closedShare)
	rows, _ := r.runStream("closed", window, false, false, nil)
	r.count(rows)
	if len(rows) == int(r.w.Rate*window.Seconds())*closedOpsFactor {
		r.note("closed-loop op stream ran out before the segment ended: peak_ops_s is understated")
	}
	r.writeBurst()

	r.latencyMetrics(win, "read_p50_us", "read_mean_us", "write_p50_us")
	r.set("cpu_ms_per_op", r.cpuPerOp(win), len(win.rows))
	// Completions per whole slice of the segment; the quiet slices are the
	// ones that completed most.
	perSlice := make([]float64, max(int(window/slice), 1))
	for i := range rows {
		if s := int(rows[i].End / slice); s < len(perSlice) && rows[i].Err == nil {
			perSlice[s]++
		}
	}
	best := quiet(perSlice, r.w.QuietShare, func(n float64) float64 { return -n })
	r.set("peak_ops_s", mean(best)/min(window, slice).Seconds(), int(mean(best)*float64(len(best))))
}

// latencyMetrics reports a window's read median and mean and its write
// median over the quiet share of its slices. A read-only workload's write
// latency comes from the write bursts instead, one slice per burst.
func (r *run) latencyMetrics(win windowResult, readP50, readMean, writeP50 string) {
	reads := sliceLatencies(win.rows, opRead)
	pool := quietPool(reads, r.w.QuietShare, median)
	r.set(readP50, median(pool), len(pool))
	pool = quietPool(reads, r.w.QuietShare, mean)
	r.set(readMean, mean(pool), len(pool))
	writes := sliceLatencies(win.rows, opWrite)
	if r.w.WriteFrac == 0 {
		writes = r.bursts
	}
	pool = quietPool(writes, r.w.QuietShare, median)
	r.set(writeP50, median(pool), len(pool))
}

// cpuPerOp is the process's CPU time (user plus system; the whole system is
// one process) per completed operation, in ms, over the quiet share of the
// window's sampling intervals.
func (r *run) cpuPerOp(win windowResult) float64 {
	ticks := quiet(win.sampled.ticks, r.w.QuietShare, func(t tick) float64 { return t.cpuMS / float64(max(t.ops, 1)) })
	cpu, ops := 0.0, int64(0)
	for _, t := range ticks {
		cpu, ops = cpu+t.cpuMS, ops+t.ops
	}
	return cpu / float64(max(ops, 1))
}

// lagLimit is the share of the window's median read latency the
// generator's median start lag may reach before the run is marked invalid.
const lagLimit = 0.2

// generatorCheck reports how late the generator itself started operations
// (start minus the later of due time and lane free) and the rate it
// achieved, and marks the run invalid when the lag is a visible part of
// what it measured.
func (r *run) generatorCheck(win windowResult) {
	var lag []float64
	for i := range win.rows {
		if win.rows[i].Lane >= 0 {
			lag = append(lag, micros(win.rows[i].Lag))
		}
	}
	sl := sortedCopy(lag)
	r.set("gen.start_lag_p50_us", percentile(sl, 0.5), len(sl))
	r.set("gen.start_lag_p99_us", percentile(sl, 0.99), len(sl))
	r.set("gen.achieved_ops_s", float64(len(lag))/win.elapsedSec, len(lag))
	if p50 := median(flatten(sliceLatencies(win.rows, opRead))); percentile(sl, 0.5) > lagLimit*p50 {
		r.rep.Valid = false
		r.note("invalid: median generator lag %.0f µs exceeds %.0f %% of the median read latency %.0f µs", percentile(sl, 0.5), lagLimit*100, p50)
	}
}

// writeBurst is the quiescent write measurement of a read-only workload:
// sequential whole-object updates of keys drawn from the op stream, on lane
// 0, each read back through the oracle. A workload with writes in its
// stream measures them there and skips the bursts.
func (r *run) writeBurst() {
	if r.w.WriteFrac > 0 {
		return
	}
	g, ln := r.g, r.g.lanes[0]
	rows := make([]row, 0, 2*burstWrites)
	var lat []float64
	t0 := time.Now()
	for _, o := range r.stream.nextWrites(burstWrites) {
		wr := g.execute(ln, 0, phase{}, t0, o)
		lat = append(lat, micros(wr.End-wr.Start))
		o.Kind = opRead
		rows = append(rows, wr, g.execute(ln, 0, phase{}, t0, o))
	}
	r.bursts = append(r.bursts, lat)
	r.phases = append(r.phases, phaseRows{name: "write-burst", rows: rows})
	r.count(rows)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCounters are the Go runtime's allocation and GC totals, or the
// difference of two readings.
type procCounters struct {
	mallocs, bytes uint64
	gcCycles       uint32
	gcPause        time.Duration
}

func readProc() procCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procCounters{mallocs: m.Mallocs, bytes: m.TotalAlloc, gcCycles: m.NumGC, gcPause: time.Duration(m.PauseTotalNs)}
}

func (c procCounters) since(start procCounters) procCounters {
	return procCounters{mallocs: c.mallocs - start.mallocs, bytes: c.bytes - start.bytes,
		gcCycles: c.gcCycles - start.gcCycles, gcPause: c.gcPause - start.gcPause}
}

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
