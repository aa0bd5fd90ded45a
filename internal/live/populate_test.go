package live

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// blockingSink gates PutMultiVer on a channel so tests can hold workers busy
// deterministically, and records every applied fill.
type blockingSink struct {
	gate chan struct{} // receive to proceed; closed = never block

	mu      sync.Mutex
	applied []popJob
}

func newBlockingSink() *blockingSink {
	return &blockingSink{gate: make(chan struct{})}
}

func (s *blockingSink) PutMultiVer(key string, chunks map[int][]byte, ver uint64) error {
	<-s.gate
	s.mu.Lock()
	s.applied = append(s.applied, popJob{key: key, chunks: chunks, ver: ver})
	s.mu.Unlock()
	return nil
}

func (s *blockingSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.applied)
}

func chunksFor(i int) map[int][]byte {
	return map[int][]byte{i: {byte(i)}}
}

// TestPopulatorOverflowDropsWithoutBlocking holds the single worker on a
// blocked fill, overfills the one-slot queue, and checks that the excess
// enqueues are shed immediately — counted, reported false, and never
// blocking the (simulated) read path.
func TestPopulatorOverflowDropsWithoutBlocking(t *testing.T) {
	sink := newBlockingSink()
	p := newPopulator(sink, 1, 1)
	defer func() { close(sink.gate); p.close() }()

	// First job is picked up by the worker and parks on the gate; second
	// fills the queue. Poll until the queue slot is genuinely occupied so
	// the overflow below is deterministic.
	if !p.enqueue("job-0", chunksFor(0), 0) {
		t.Fatal("first enqueue dropped")
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(p.jobs) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked the first job up")
		}
		time.Sleep(time.Millisecond)
	}
	if !p.enqueue("job-1", chunksFor(1), 0) {
		t.Fatal("queue-filling enqueue dropped")
	}

	// Queue full, worker blocked: every further enqueue must shed, fast.
	const overflow = 5
	startedAt := time.Now()
	for i := 0; i < overflow; i++ {
		if p.enqueue("job-overflow", chunksFor(2+i), 0) {
			t.Fatalf("overflow enqueue %d accepted with a full queue", i)
		}
	}
	if elapsed := time.Since(startedAt); elapsed > time.Second {
		t.Fatalf("overflow enqueues took %v — enqueue blocked", elapsed)
	}
	if got := p.droppedCount(); got != overflow {
		t.Fatalf("droppedCount = %d, want %d", got, overflow)
	}

	// Empty chunk maps are a no-op success, not a drop.
	if !p.enqueue("empty", nil, 0) {
		t.Fatal("empty fill reported dropped")
	}
	if got := p.droppedCount(); got != overflow {
		t.Fatalf("droppedCount moved to %d on an empty fill", got)
	}
}

// TestFlushPopulationWaitsForEveryQueuedFill checks flush determinism:
// after flush returns, every accepted fill has been applied to the sink,
// and flushing an idle populator returns immediately.
func TestFlushPopulationWaitsForEveryQueuedFill(t *testing.T) {
	sink := newBlockingSink()
	close(sink.gate) // workers never block
	p := newPopulator(sink, 2, 64)
	defer p.close()

	p.flush() // idle flush must not hang

	const jobs = 40
	accepted := 0
	for i := 0; i < jobs; i++ {
		if p.enqueue("k", chunksFor(i), 0) {
			accepted++
		}
	}
	p.flush()
	if got := sink.count(); got != accepted {
		t.Fatalf("after flush %d fills applied, %d accepted", got, accepted)
	}
	p.flush() // second flush is a no-op
	if got := sink.count(); got != accepted {
		t.Fatalf("second flush changed applied fills to %d", got)
	}
}

// TestPopulatorCloseSheddingAndIdempotence: close drains the queue, is
// callable twice, and enqueues after close are shed.
func TestPopulatorCloseSheddingAndIdempotence(t *testing.T) {
	sink := newBlockingSink()
	close(sink.gate)
	p := newPopulator(sink, 1, 8)
	p.enqueue("k", chunksFor(0), 0)
	p.close()
	p.close()
	if p.enqueue("late", chunksFor(1), 0) {
		t.Fatal("enqueue accepted after close")
	}
	if sink.count() != 1 {
		t.Fatalf("close applied %d fills, want 1", sink.count())
	}
}

// TestPopulatorConcurrentEndOfReadFills exercises the pool the way
// concurrent readers do — many goroutines enqueuing end-of-read fills
// while another flushes — and is meaningful under -race: every fill must
// either land exactly once or be counted dropped.
func TestPopulatorConcurrentEndOfReadFills(t *testing.T) {
	sink := newBlockingSink()
	close(sink.gate)
	p := newPopulator(sink, 3, 16)

	const readers, fills = 8, 50
	var acceptedTotal atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < fills; i++ {
				if p.enqueue("obj", chunksFor(g*fills+i), 0) {
					acceptedTotal.Add(1)
				}
				if i%10 == 0 {
					p.flush()
				}
			}
		}(g)
	}
	wg.Wait()
	p.flush()
	applied := int64(sink.count())
	dropped := p.droppedCount()
	if applied != acceptedTotal.Load() {
		t.Fatalf("applied %d, accepted %d", applied, acceptedTotal.Load())
	}
	if applied+dropped != readers*fills {
		t.Fatalf("applied %d + dropped %d != %d enqueued", applied, dropped, readers*fills)
	}
	p.close()
}
