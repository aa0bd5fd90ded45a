package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/agardist/agar/internal/live"
)

// span is one timed interval the benchmark recorded. Spans of one operation
// share Op; Parent is the ID of the span that caused this one (0: a root).
// Times are µs from the traced window's t0. Spans are kept in memory and
// written once, after the measurement.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"` // op id; -1 for layer probes
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	// Roots carry the operation; probe spans carry how many calls they cover.
	Kind  string  `json:"kind,omitempty"`
	Key   string  `json:"key,omitempty"`
	Due   float64 `json:"due_us,omitempty"`
	Calls int     `json:"calls,omitempty"`
	// Server-side time the exchange's reply reported, µs.
	QueueUS int64 `json:"server_queue_us,omitempty"`
	ExecUS  int64 `json:"server_exec_us,omitempty"`
}

type spanLog struct{ spans []span }

func (l *spanLog) add(s span) int {
	s.ID = len(l.spans) + 1
	l.spans = append(l.spans, s)
	return s.ID
}

func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readBudget is one traced read split along its blocking path. The four
// parts sum to the read's service time by construction: self is what is
// left after the hint exchange, the fetch stretch (hint end to last fetch
// end — parallel exchanges, so it follows the slowest) and the decode.
type readBudget struct {
	hint, fetch, decode, self float64 // µs
	exchanges                 []span  // the hint and every fetch exchange
}

// serverTimes sums the queue-wait and execute annotations a reply carried.
func serverTimes(s live.Span) (queue, exec int64) {
	for _, a := range s.Remote {
		switch {
		case strings.HasSuffix(a.Name, "queue"):
			queue += a.DurUS
		case strings.HasSuffix(a.Name, "exec"):
			exec += a.DurUS
		}
	}
	return queue, exec
}

// record turns one traced row into spans — a root for the operation and,
// for a read, the spans ReadDetailed already returned, re-parented under
// it — and returns the read's budget.
func (l *spanLog) record(rw *row, key string) (readBudget, bool) {
	root := l.add(span{Op: rw.ID, Name: rw.Kind.String(), Start: micros(rw.Start), End: micros(rw.End),
		Kind: rw.Kind.String(), Key: key, Due: micros(rw.Due)})
	if rw.Trace == nil {
		return readBudget{}, false
	}
	var b readBudget
	start := micros(rw.Start)
	hintEnd, fetchEnd := start, start
	var fetches []span
	for _, s := range rw.Trace.Spans {
		q, e := serverTimes(s)
		sp := span{Parent: root, Op: rw.ID, Name: s.Name, Start: start + s.StartMS*1000,
			End: start + (s.StartMS+s.DurMS)*1000, QueueUS: q, ExecUS: e}
		switch s.Name {
		case "hint":
			l.add(sp)
			b.hint, hintEnd = s.DurMS*1000, sp.End
			b.exchanges = append(b.exchanges, sp)
		case "decode":
			l.add(sp)
			b.decode = s.DurMS * 1000
		default:
			fetches = append(fetches, sp)
			fetchEnd = max(fetchEnd, sp.End)
		}
	}
	if len(fetches) > 0 {
		fetch := l.add(span{Parent: root, Op: rw.ID, Name: "fetch", Start: hintEnd, End: fetchEnd})
		for _, sp := range fetches {
			sp.Parent = fetch
			l.add(sp)
		}
		b.fetch = fetchEnd - hintEnd
		b.exchanges = append(b.exchanges, fetches...)
	}
	b.self = micros(rw.End-rw.Start) - b.hint - b.fetch - b.decode
	return b, true
}

// tracedPass is the -trace 1 invocation: an untraced reference window, the
// same window again with spans recorded, then the quiescent layer probes.
// The read budget is taken over the same quiet share of the traced window's
// slices as the end-to-end latencies, so the two can be set side by side.
func (r *run) tracedPass() {
	reg0 := r.g.cluster.Registry().Gather()
	r.writeBurst()
	ref := r.openWindow("reference", refShare, false, false)
	win := r.openWindow("traced", tracedShare, true, true)
	r.generatorCheck(win)
	r.writeBurst()

	// Every operation becomes spans; a successful read also yields a budget,
	// filed under the slice it was due in.
	log := &spanLog{}
	var slices [][]tracedRead
	cacheChunks, staleDrops, nReads := 0, 0, 0
	for i := range win.rows {
		rw := &win.rows[i]
		b, ok := log.record(rw, r.g.keys[rw.Key])
		if rw.Kind == opRead {
			nReads++
			cacheChunks += rw.CacheChunks
			staleDrops += rw.StaleDrops
		}
		if !ok || rw.Err != nil {
			continue
		}
		s := int(rw.Due / slice)
		for len(slices) <= s {
			slices = append(slices, nil)
		}
		slices[s] = append(slices[s], tracedRead{latency: micros(rw.End - rw.Due), service: micros(rw.End - rw.Start), budget: b})
	}
	var hint, fetch, decode, self, service, exchanges []float64
	server := map[string]*serverTime{"hint": {}, "cache-mget": {}, "store-mget": {}}
	for _, reads := range quiet(nonEmpty(slices), r.w.QuietShare, func(reads []tracedRead) float64 {
		lat := make([]float64, len(reads))
		for i := range reads {
			lat[i] = reads[i].latency
		}
		return median(lat)
	}) {
		for _, rd := range reads {
			b := rd.budget
			hint, fetch, decode, self = append(hint, b.hint), append(fetch, b.fetch), append(decode, b.decode), append(self, b.self)
			service = append(service, rd.service)
			exchanges = append(exchanges, float64(len(b.exchanges)))
			for _, x := range b.exchanges {
				op, _, _ := strings.Cut(x.Name, ":") // "store-mget:<region>" → "store-mget"
				if t := server[op]; t != nil {
					t.queue, t.exec = append(t.queue, float64(x.QueueUS)), append(t.exec, float64(x.ExecUS))
				}
			}
		}
	}
	r.set("live.read.service_us", median(service), len(service))
	r.set("live.read.hint_us", median(hint), len(hint))
	r.set("live.read.fetch_us", median(fetch), len(fetch))
	r.set("live.read.decode_us", median(decode), len(decode))
	r.set("live.read.self_us", median(self), len(self))
	r.set("live.read.exchanges_per_read", mean(exchanges), len(exchanges))
	r.set("live.read.cache_chunks_per_read", float64(cacheChunks)/float64(max(nReads, 1)), nReads)
	r.set("live.read.stale_drops", float64(staleDrops), nReads)
	for op, t := range server {
		// Server-side annotations are whole microseconds, so the mean, not
		// the median, is what resolves a change.
		name := strings.ReplaceAll(op, "-", "_")
		r.set("live.server.queue_wait_us."+name, mean(t.queue), len(t.queue))
		r.set("live.server.exec_us."+name, mean(t.exec), len(t.exec))
	}

	// Tail percentiles over the whole window, by the textbook definition:
	// they do not repeat on this sandbox (README, "Spread"), so they are
	// recorded here without a bound instead of gating a change.
	allReads := sortedCopy(flatten(sliceLatencies(win.rows, opRead)))
	r.set("live.read.p99_us", percentile(allReads, 0.99), len(allReads))
	allWrites := sliceLatencies(win.rows, opWrite)
	if r.w.WriteFrac == 0 {
		allWrites = r.bursts
	}
	sw := sortedCopy(flatten(allWrites))
	r.set("live.write.p99_us", percentile(sw, 0.99), len(sw))
	r.latencyMetrics(win, "live.read.p50_us", "live.read.mean_us", "live.write.p50_us")

	dropped := int64(0)
	for _, ln := range r.g.lanes {
		_, d := ln.reader.PopulationBackPressure()
		dropped += d
	}
	r.set("live.populate.dropped", float64(dropped), 0)
	r.set("live.populate.depth_max", float64(win.sampled.populateDepthMax), 0)
	r.set("live.server.queue_depth_max", float64(win.sampled.queueDepthMax), 0)

	r.set("cache.hit_frac", float64(win.cache.Hits)/float64(max(win.cache.Gets, 1)), int(win.cache.Gets))
	r.set("cache.evictions", float64(win.cache.Evictions), 0)
	r.set("cache.admission_rejects", float64(win.cache.AdmissionRejects), 0)

	done := max(len(win.rows), 1)
	r.set("proc.cpu_ms_per_op", r.cpuPerOp(win), done)
	r.set("proc.allocs_per_op", float64(win.proc.mallocs)/float64(done), done)
	r.set("proc.alloc_kb_per_op", float64(win.proc.bytes)/1024/float64(done), done)
	r.set("proc.gc_cycles", float64(win.proc.gcCycles), 0)
	r.set("proc.gc_pause_ms", float64(win.proc.gcPause)/float64(time.Millisecond), 0)
	r.set("proc.goroutines_max", float64(win.sampled.goroutinesMax), 0)

	r.set("core.reconfigure_ms", r.rep.Metrics["reconfig_s"].Value*1000, 1)
	r.set("core.reconfig_under_load_ms", median(win.underLoad), len(win.underLoad))
	r.set("core.configured_objects", float64(r.g.configuredObjects), 0)
	r.set("core.configured_chunks", float64(r.g.configuredChunks), 0)

	// Tracing here is the benchmark keeping the spans the program produces on
	// every read anyway, so the overhead is expected to be noise around 0.
	// Like is compared with like: the reference window saw no popularity
	// shift, so only the traced window's reads from before its shift count.
	like := win.rows
	if r.w.RotateBy > 0 {
		for len(like) > 0 && like[len(like)-1].ID >= r.stream.rotateAt {
			like = like[:len(like)-1]
		}
	}
	p50 := func(rows []row) float64 {
		return median(quietPool(sliceLatencies(rows, opRead), r.w.QuietShare, median))
	}
	r.set("trace.overhead_frac", p50(like)/p50(ref.rows)-1, len(like))

	r.layerProbes(log, win.t0, seconds(r.o.seconds*probeShare))
	r.serverDeltas(reg0)
	r.set("proc.rss_mb_peak", peakRSSMB(), 0)

	if r.o.spansOut != "" {
		if err := log.write(r.o.spansOut); err != nil {
			r.note("spans not written: %v", err)
		} else {
			r.note("%d spans written to %s", len(log.spans), r.o.spansOut)
		}
	}
}

// tracedRead is one successful read of the traced window: its latency from
// due time, its service time, and how the service time splits up.
type tracedRead struct {
	latency, service float64 // µs
	budget           readBudget
}

// serverTime collects the server-side annotations of one kind of exchange.
type serverTime struct{ queue, exec []float64 }

// writeRows dumps every phase's raw per-op rows, so any reported number can
// be recomputed from them.
func (r *run) writeRows() error {
	if err := os.MkdirAll(r.o.rowsDir, 0o755); err != nil {
		return err
	}
	pass := "untraced"
	if r.o.traced {
		pass = "traced"
	}
	path := fmt.Sprintf("%s/%s-seed%d-%s.csv", r.o.rowsDir, r.w.Name, r.o.seed, pass)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "phase,op,kind,key,lane,due_us,start_us,end_us,ok,cache_chunks")
	for _, p := range r.phases {
		for i := range p.rows {
			rw := &p.rows[i]
			fmt.Fprintf(w, "%s,%d,%s,%s,%d,%.1f,%.1f,%.1f,%t,%d\n", p.name, rw.ID, rw.Kind, keyName(rw.Key), rw.Lane,
				float64(rw.Due)/1e3, float64(rw.Start)/1e3, float64(rw.End)/1e3, rw.Err == nil, rw.CacheChunks)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
