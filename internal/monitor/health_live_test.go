package monitor_test

// End-to-end readiness flip against a real wire server: saturate a cache
// server with pipelined batch reads until /debug/health
// answers 503 with the queue rule firing, stop the load, and watch it
// recover to 200. This is the contract the soak scenarios and deployment
// probes both rely on: red under pressure, green after the drain.

import (
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/agardist/agar/internal/cache"
	"github.com/agardist/agar/internal/live"
	"github.com/agardist/agar/internal/metrics"
	"github.com/agardist/agar/internal/monitor"
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
	seed, err := live.DialPipelined(srv.Addr(), 16)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	payload := make([]byte, 8<<10)
	indices := make([]int, 32)
	for i := range indices {
		indices[i] = i
		if err := seed.Put("obj", i, payload); err != nil {
			t.Fatalf("seed put %d: %v", i, err)
		}
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
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		cl, err := live.DialPipelined(srv.Addr(), 64)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cl.Close()
			var pending []*live.PendingReply
			for {
				select {
				case <-stop:
					for _, p := range pending {
						_, _ = p.Wait()
					}
					return
				default:
				}
				pending = append(pending, cl.GoMGet("obj", indices))
				if len(pending) >= 16 {
					_, _ = pending[0].Wait()
					pending = pending[1:]
				}
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
