package monitor_test

// End-to-end readiness flip against a real wire server: saturate a cache
// server with pipelined batch reads until /debug/health
// answers 503 with the queue rule firing, stop the load, and watch it
// recover to 200. This is the contract the soak scenarios and deployment
// probes both rely on: red under pressure, green after the drain.

import (
	"bytes"
	"net"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/agardist/agar/internal/cache"
	"github.com/agardist/agar/internal/live"
	"github.com/agardist/agar/internal/metrics"
	"github.com/agardist/agar/internal/monitor"
	"github.com/agardist/agar/internal/wire"
)

func TestHealthFlipUnderSaturation(t *testing.T) {
	reg := metrics.NewRegistry()
	c := cache.NewSharded(64<<20, 4, func() cache.Policy { return cache.NewLRU() })
	srv, err := live.NewCacheServerOpts("127.0.0.1:0", c, nil, live.ServerOptions{
		Registry: reg, Region: "test",
	})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	defer srv.Close()

	// The rule under test: any request in flight is "saturated". A real
	// deployment uses DefaultServerRules' looser ceiling; pinning the flip
	// mechanics only needs the threshold to sit below the load we generate.
	health := monitor.NewRegistryHealth("test", reg, []monitor.Rule{{
		Name:   "queue-saturation",
		Kind:   monitor.KindThreshold,
		Metric: metrics.NameServerQueueDepth,
		Max:    monitor.F(0),
	}})
	hsrv := httptest.NewServer(health)
	defer hsrv.Close()

	// Seed chunks so the saturating mgets do real work.
	seed := live.NewRemoteCache(srv.Addr())
	payload := make([]byte, 8<<10)
	indices := make([]int, 32)
	chunks := make(map[int][]byte, len(indices))
	for i := range indices {
		indices[i] = i
		chunks[i] = payload
	}
	if err := seed.PutMultiVer("obj", chunks, 0); err != nil {
		t.Fatalf("seed mput: %v", err)
	}
	seed.Close()

	probe := func() int {
		resp, err := hsrv.Client().Get(hsrv.URL)
		if err != nil {
			t.Fatalf("probe: %v", err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := probe(); code != 200 {
		t.Fatalf("idle health = %d, want 200", code)
	}

	// Saturate: several clients keep a deep pipeline of wide batch reads
	// in flight so the server's in-flight gauge is visibly non-zero.
	frame, err := wire.Encode(wire.Message{Header: wire.Header{Op: wire.OpMGet, Key: "obj", Indices: indices}})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			if err := pipelineUntil(conn, frame, 16, stop); err != nil {
				t.Error(err)
			}
		}()
	}

	sawRed := false
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if probe() == 503 {
			sawRed = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if !sawRed {
		t.Fatal("health never went red under saturation")
	}

	// Drained: the gauge reads zero again, so the endpoint recovers.
	sawGreen := false
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if probe() == 200 {
			sawGreen = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !sawGreen {
		t.Fatal("health never recovered after the load stopped")
	}
}

// pipelineUntil keeps window copies of one request frame in flight on conn
// until stop closes: it writes a burst of window frames, reads their
// replies, and repeats.
func pipelineUntil(conn net.Conn, frame []byte, window int, stop <-chan struct{}) error {
	burst := bytes.Repeat(frame, window)
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		if _, err := conn.Write(burst); err != nil {
			return err
		}
		for i := 0; i < window; i++ {
			if _, err := wire.Read(conn); err != nil {
				return err
			}
		}
	}
}
