package live

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/agardist/agar/internal/wire"
)

// pipelineWindow is the default bound on frames a PipelinedCache keeps in
// flight on its connection.
const pipelineWindow = 64

// PendingReply is one in-flight pipelined call's future. Wait blocks until
// the reply (or the connection's failure) arrives; replies resolve in send
// order, the wire contract the server guarantees.
type PendingReply struct {
	done chan struct{}
	resp wire.Message
	err  error
}

// Wait blocks for the reply.
func (p *PendingReply) Wait() (wire.Message, error) {
	<-p.done
	return p.resp, p.err
}

// PipelinedCache is the opt-in pipelining client adapter for a cache
// server: instead of the request/response rhythm RemoteCache's pooled
// connections produce, it sends frames back to back on one connection and
// matches replies to requests in FIFO order. Keeping several frames in
// flight hides the round trip between replies — the server starts each
// frame as soon as it has written the previous reply — and it is how the
// open-loop load generator drives a server to saturation without a thread
// per in-flight op.
//
// Go issues a call without blocking for its reply (beyond the in-flight
// window, which applies back-pressure); the returned PendingReply resolves
// when the reply frame arrives; a synchronous call is Go plus Wait. The
// caller builds the request frame itself, so it can stamp the trace header
// per op. An adapter is safe for concurrent use;
// a transport error fails every in-flight and subsequent call, and Close
// releases the connection.
type PipelinedCache struct {
	conn net.Conn
	// wmu serializes frame writes; the in-order pend queue is filled under
	// the same lock, so queue order is exactly wire order.
	wmu sync.Mutex
	// emu guards werr alone and is never held across a blocking call, so
	// the reader can mark the adapter broken while a writer is stuck —
	// that mark (plus closing the conn) is what un-sticks the writer.
	emu       sync.Mutex
	werr      error
	pend      chan *PendingReply
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// loadErr reports the sticky transport error, if any.
func (p *PipelinedCache) loadErr() error {
	p.emu.Lock()
	defer p.emu.Unlock()
	return p.werr
}

// storeErr records the first transport error; later ones lose.
func (p *PipelinedCache) storeErr(err error) {
	p.emu.Lock()
	if p.werr == nil {
		p.werr = err
	}
	p.emu.Unlock()
}

// DialPipelined connects a pipelining adapter to the cache server at addr
// with the given in-flight window (0 means the default, which matches the
// server's per-connection pipeline depth).
func DialPipelined(addr string, window int) (*PipelinedCache, error) {
	if window <= 0 {
		window = pipelineWindow
	}
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("live: dial %s: %w", addr, err)
	}
	p := &PipelinedCache{conn: conn, pend: make(chan *PendingReply, window)}
	p.wg.Add(1)
	go p.readLoop()
	return p, nil
}

// readLoop resolves pending calls in FIFO order — the server answers in
// request order on one connection, so the head of the queue always owns
// the next frame. The reader owns resolution of everything that enters
// the queue: after a transport error it keeps consuming entries, failing
// each immediately, until Close closes the queue — so a call that was
// mid-enqueue when the connection broke still resolves.
func (p *PipelinedCache) readLoop() {
	defer p.wg.Done()
	br := bufio.NewReaderSize(p.conn, connReadBuffer)
	var failed error
	for pr := range p.pend {
		if failed != nil {
			pr.err = failed
			close(pr.done)
			continue
		}
		resp, err := wire.Read(br)
		if err != nil {
			failed = fmt.Errorf("live: pipelined read: %w", err)
			p.fail(failed)
			pr.err = failed
			close(pr.done)
			continue
		}
		if resp.Header.Op == wire.OpError {
			pr.err = fmt.Errorf("wire: remote error: %s", resp.Header.Error)
		}
		pr.resp = resp
		close(pr.done)
	}
}

// fail marks the adapter broken so later Go calls refuse immediately. It
// must not touch wmu: a writer may hold it while blocked on the window,
// waiting for this very reader to drain.
func (p *PipelinedCache) fail(err error) {
	p.storeErr(err)
	p.conn.Close()
}

// Go sends one request frame and returns its in-order reply future. It
// blocks only while the in-flight window is full or another goroutine is
// mid-write — never for the server's reply.
func (p *PipelinedCache) Go(req wire.Message) *PendingReply {
	pr := &PendingReply{done: make(chan struct{})}
	p.wmu.Lock()
	if err := p.loadErr(); err != nil {
		p.wmu.Unlock()
		pr.err = err
		close(pr.done)
		return pr
	}
	// Reserve the reply slot before writing: the reader must know about
	// the frame the moment its reply can exist. The buffered channel is
	// the in-flight window; blocking here is the back-pressure.
	p.pend <- pr
	if err := wire.Write(p.conn, req); err != nil {
		p.storeErr(fmt.Errorf("live: pipelined write: %w", err))
		p.wmu.Unlock()
		p.conn.Close()
		return pr // the reader fails it with the read error
	}
	p.wmu.Unlock()
	return pr
}

// Close tears the connection down and fails any in-flight calls. The
// connection closes before the write lock is taken: that kicks the reader
// into its drain-and-fail mode, which frees any Go blocked on a full
// window (it holds the write lock while it waits), which in turn lets
// Close acquire the lock and retire the queue.
func (p *PipelinedCache) Close() {
	p.closeOnce.Do(func() {
		p.conn.Close()
		p.storeErr(net.ErrClosed)
		// Taking wmu waits out any writer (the drain triggered above frees
		// a blocked one); with it held, nothing can enqueue, so the queue
		// can close and the reader can retire.
		p.wmu.Lock()
		close(p.pend)
		p.wmu.Unlock()
	})
	p.wg.Wait()
}
