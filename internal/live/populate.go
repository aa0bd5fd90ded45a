package live

import "sync"

// popJob is one pending cache fill: the hinted chunks of one object that a
// read had to fetch from the backend, plus the write version they were read
// at (zero for legacy unversioned data).
type popJob struct {
	key    string
	chunks map[int][]byte
	ver    uint64
}

// chunkSink is where the populator writes batched fills — the narrow slice
// of *RemoteCache it needs, injectable for tests.
type chunkSink interface {
	PutMultiVer(key string, chunks map[int][]byte, ver uint64) error
}

// populator applies end-of-read cache fills on a bounded async worker pool,
// so readers hand hinted-but-missed chunks off and return immediately
// instead of blocking on cache round trips. The queue is bounded and
// enqueue never blocks: when it is full the incoming fill is simply
// dropped (the next read of that object re-hints and re-fetches it),
// which is an acceptable failure mode for a best-effort cache warmer.
type populator struct {
	cache chunkSink
	jobs  chan popJob
	wg    sync.WaitGroup

	mu      sync.Mutex
	cond    *sync.Cond
	pending int
	dropped int64
	closed  bool
}

// newPopulator starts workers goroutines draining a queue of the given
// depth into the cache via batched PutMultiVer calls.
func newPopulator(cache chunkSink, workers, queue int) *populator {
	p := &populator{cache: cache, jobs: make(chan popJob, queue)}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

func (p *populator) worker() {
	defer p.wg.Done()
	for job := range p.jobs {
		// Best effort: a failed fill just means the next read re-fetches. A
		// versioned fill carries the version the chunks were read at, so the
		// server can refuse it if a newer write has already raised the floor
		// — an unversioned fill of versioned data would dodge that check and
		// reintroduce pre-write chunks after an invalidation.
		_ = p.cache.PutMultiVer(job.key, job.chunks, job.ver)
		p.mu.Lock()
		p.pending--
		if p.pending == 0 {
			p.cond.Broadcast()
		}
		p.mu.Unlock()
	}
}

// enqueue hands a fill to the pool without blocking; it reports false when
// the job was dropped (full queue or closed pool).
func (p *populator) enqueue(key string, chunks map[int][]byte, ver uint64) bool {
	if len(chunks) == 0 {
		return true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	select {
	case p.jobs <- popJob{key: key, chunks: chunks, ver: ver}:
		p.pending++
		return true
	default:
		p.dropped++
		return false
	}
}

// flush blocks until every queued fill has been applied — deterministic
// teardown for tests and benchmarks.
func (p *populator) flush() {
	p.mu.Lock()
	for p.pending > 0 {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// droppedCount reports how many fills were shed under queue pressure.
func (p *populator) droppedCount() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dropped
}

// depth reports the fills enqueued but not yet applied — the client-side
// twin of the server's dispatch_queue_depth gauge.
func (p *populator) depth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pending
}

// close stops the workers after the queue drains. Safe to call twice;
// enqueue after close drops the job.
func (p *populator) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	close(p.jobs)
	p.wg.Wait()
}
