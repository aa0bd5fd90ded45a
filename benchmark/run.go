package main

import (
	"errors"
	"sync"
	"time"

	"github.com/agardist/agar/internal/live"
)

// drainGrace is how long after its window an open-loop phase keeps starting
// overdue operations; whatever has not started by then has failed.
const drainGrace = 5 * time.Second

var errNotStarted = errors.New("not started within 5 s of the window's end")

// row is the raw record of one operation; every reported number can be
// recomputed from the rows. Offsets are from the phase's t0.
type row struct {
	op
	Lane        int
	Start, End  time.Duration
	Lag         time.Duration // start minus the later of due time and lane free
	Err         error
	CacheChunks int
	StaleDrops  int
	Trace       *live.ReadTrace // traced phases only
}

// hook runs fn on its own goroutine when operation At is handed to a lane —
// how wan-mixed issues reconfigurations concurrently with load.
type hook struct {
	At int
	Fn func()
}

type phase struct {
	ops      []op
	openLoop bool
	// window is the measured length: an open loop's last due offset falls
	// inside it, a closed loop stops handing out operations after it.
	window time.Duration
	traced bool
	hooks  []hook
}

// scheduler hands operations to lanes in due order. On a read-only workload
// an operation goes to whichever lane asks first. On a workload with writes
// every key belongs to one lane (rig.owner) and all its operations run
// there, in due order: a key then has one writer whose writes carry
// ascending versions (two concurrent writers would make the system refuse
// one with StaleError), and a read never overlaps a write of its own key
// (which the program under test answers with "only n of k chunks" when the
// read sees the write half applied — a failure of the system, but one the
// benchmark must not provoke to measure a workload on which nothing fails).
// A lane that meets another lane's operation moves it to that lane's queue
// and takes the next.
type scheduler struct {
	mu     sync.Mutex
	ops    []op
	next   int
	pinned [][]int
	owned  bool // keys belong to lanes
	hooks  []hook
	wg     *sync.WaitGroup
}

func (s *scheduler) claim(g *rig, li int) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if q := s.pinned[li]; len(q) > 0 {
		s.pinned[li] = q[1:]
		return q[0], true
	}
	for s.next < len(s.ops) {
		i := s.next
		s.next++
		for len(s.hooks) > 0 && s.hooks[0].At <= i {
			fn := s.hooks[0].Fn
			s.hooks = s.hooks[1:]
			s.wg.Add(1)
			go func() { defer s.wg.Done(); fn() }()
		}
		if s.owned {
			if to := g.owner[s.ops[i].Key]; to != li {
				s.pinned[to] = append(s.pinned[to], i)
				continue
			}
		}
		return i, true
	}
	return 0, false
}

// runPhase drives one phase to completion and returns one row per
// operation that was started or that failed to start in time, plus the
// instant the rows' offsets count from.
func (g *rig) runPhase(p phase) ([]row, time.Time) {
	rows := make([]row, len(p.ops))
	done := make([]bool, len(p.ops))
	var hookWG sync.WaitGroup
	s := &scheduler{ops: p.ops, pinned: make([][]int, len(g.lanes)), owned: g.w.WriteFrac > 0, hooks: p.hooks, wg: &hookWG}
	cutoff := p.window
	if p.openLoop {
		cutoff += drainGrace
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	for li, ln := range g.lanes {
		wg.Add(1)
		go func(li int, ln *lane) {
			defer wg.Done()
			for time.Since(t0) < cutoff {
				i, ok := s.claim(g, li)
				if !ok {
					return
				}
				rows[i] = g.execute(ln, li, p, t0, p.ops[i])
				done[i] = true
			}
		}(li, ln)
	}
	wg.Wait()
	hookWG.Wait()
	out := rows[:0]
	for i := range rows {
		switch {
		case done[i]:
			out = append(out, rows[i])
		case p.openLoop:
			out = append(out, row{op: p.ops[i], Lane: -1, Start: cutoff, End: cutoff, Err: errNotStarted})
		}
	}
	return out, t0
}

// execute runs one operation on a lane. A write's payload is built before
// the wait for its due time, so building it costs no latency.
func (g *rig) execute(ln *lane, li int, p phase, t0 time.Time, o op) row {
	r := row{op: o, Lane: li}
	key := g.keys[o.Key]
	var payload []byte
	if o.Kind == opWrite {
		payload = g.pm.fill(ln.buf, o.Key, o.Seq)
	}
	ready := time.Since(t0)
	if p.openLoop {
		if wait := o.Due - ready; wait > 0 {
			sleepFor(wait)
		}
	} else {
		r.Due = ready
	}
	if o.Kind == opWrite {
		r.Start = time.Since(t0)
		_, err := ln.writer.WriteSession(key, payload, ln.sess)
		r.End = time.Since(t0)
		if err == nil {
			g.acks.ack(o.Key, o.Seq)
		}
		r.Err = err
	} else {
		minSeq := g.acks.acked(o.Key)
		r.Start = time.Since(t0)
		data, info, err := ln.reader.ReadSession(key, ln.sess)
		r.End = time.Since(t0)
		if err == nil {
			err = checkPayload(data, o.Key, g.pm.size(), minSeq)
		}
		r.Err, r.CacheChunks, r.StaleDrops = err, info.CacheChunks, info.StaleDrops
		if p.traced {
			r.Trace = info.Trace
		}
	}
	r.Lag = r.Start - max(r.Due, ready)
	g.completed.Add(1)
	return r
}
