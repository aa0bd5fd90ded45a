package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/agardist/agar/internal/cache"
	"github.com/agardist/agar/internal/geo"
)

const testChunkBytes = 1 << 10

func newTestNode(t testing.TB, region geo.RegionID, cacheSlots int) *Node {
	t.Helper()
	matrix := geo.DefaultMatrix()
	n := NewNode(NodeParams{
		Region:         region,
		Regions:        geo.DefaultRegions(),
		Placement:      geo.NewRoundRobin(geo.DefaultRegions(), false),
		K:              9,
		M:              3,
		CacheBytes:     int64(cacheSlots) * testChunkBytes,
		ChunkBytes:     testChunkBytes,
		ReconfigPeriod: 30 * time.Second,
		CacheLatency:   20 * time.Millisecond,
	})
	n.RegionManager().WarmUp(func(r geo.RegionID) time.Duration {
		return matrix.Get(region, r)
	}, 2)
	return n
}

func TestManagerReconfigureCachesHottestObjects(t *testing.T) {
	n := newTestNode(t, geo.Frankfurt, 18) // room for two full objects
	// Skewed access: object-0 hot, object-1 warm, object-2 barely touched.
	for i := 0; i < 100; i++ {
		n.HandleRead("object-0")
	}
	for i := 0; i < 50; i++ {
		n.HandleRead("object-1")
	}
	n.HandleRead("object-2")

	cfg := n.ForceReconfigure()
	if cfg.Weight == 0 || cfg.Weight > 18 {
		t.Fatalf("config weight %d", cfg.Weight)
	}
	if len(cfg.ChunksFor("object-0")) == 0 {
		t.Fatal("hottest object not cached")
	}
	// The hottest object must get at least as many chunks as the coldest
	// configured one.
	if h, c := len(cfg.ChunksFor("object-0")), len(cfg.ChunksFor("object-2")); c > h {
		t.Fatalf("hot object has %d chunks, cold has %d", h, c)
	}
}

func TestManagerHintMatchesConfig(t *testing.T) {
	n := newTestNode(t, geo.Frankfurt, 9)
	for i := 0; i < 10; i++ {
		n.HandleRead("object-0")
	}
	n.ForceReconfigure()
	hint := n.Manager().HintFor("object-0")
	cfg := n.Manager().Active()
	want := cfg.ChunksFor("object-0")
	if len(hint.CacheChunks) != len(want) {
		t.Fatalf("hint %v vs config %v", hint.CacheChunks, want)
	}
	// Unknown keys get an empty hint.
	if got := n.Manager().HintFor("never-seen"); len(got.CacheChunks) != 0 {
		t.Fatalf("hint for unknown key: %v", got)
	}
}

func TestManagerAppliesAdmissionAndEviction(t *testing.T) {
	n := newTestNode(t, geo.Frankfurt, 9)
	store := n.Cache()

	// Before any reconfiguration nothing is admitted.
	if err := store.Put(cache.EntryID{Key: "object-0", Index: 4}, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 0 {
		t.Fatal("pre-config insert should be rejected by admission")
	}

	for i := 0; i < 10; i++ {
		n.HandleRead("object-0")
	}
	n.ForceReconfigure()
	cfgChunks := n.Manager().Active().ChunksFor("object-0")
	if len(cfgChunks) == 0 {
		t.Fatal("expected object-0 configured")
	}

	// Configured chunks are admitted...
	if err := store.Put(cache.EntryID{Key: "object-0", Index: cfgChunks[0]}, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 1 {
		t.Fatal("configured chunk rejected")
	}
	// ...others are not.
	if err := store.Put(cache.EntryID{Key: "object-9", Index: 0}, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 1 {
		t.Fatal("unconfigured chunk admitted")
	}

	// A reconfiguration that drops object-0 stops admitting its chunks but
	// does not delete resident ones: like the memcached prototype, stale
	// chunks age out of the LRU tail under insertion pressure.
	for i := 0; i < 500; i++ {
		n.HandleRead("object-7") // new hot object
	}
	// Let object-0's popularity decay over several idle periods.
	for i := 0; i < 6; i++ {
		n.ForceReconfigure()
	}
	if chunks := n.Manager().Active().ChunksFor("object-0"); len(chunks) != 0 {
		t.Skipf("object-0 still configured (%v); decay too slow in this setup", chunks)
	}
	// Residents survive (lazy eviction) and still appear in hints...
	resident := store.IndicesOf("object-0")
	hint := n.Manager().HintFor("object-0")
	if len(hint.CacheChunks) < len(resident) {
		t.Fatalf("hint %v omits resident chunks %v", hint.CacheChunks, resident)
	}
	// ...but new inserts for the dropped object are refused by admission.
	if err := store.Put(cache.EntryID{Key: "object-0", Index: 0}, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	for _, idx := range store.IndicesOf("object-0") {
		if idx == 0 {
			t.Fatal("admission filter admitted a de-configured chunk")
		}
	}
}

func TestManagerRespectsCapacity(t *testing.T) {
	for _, slots := range []int{5, 9, 45, 90} {
		n := newTestNode(t, geo.Frankfurt, slots)
		for obj := 0; obj < 50; obj++ {
			for r := 0; r < 60-obj; r++ {
				n.HandleRead(fmt.Sprintf("object-%d", obj))
			}
		}
		cfg := n.ForceReconfigure()
		if cfg.Weight > slots {
			t.Fatalf("slots=%d: config weight %d", slots, cfg.Weight)
		}
		if slots >= 9 && cfg.Weight == 0 {
			t.Fatalf("slots=%d: empty config despite traffic", slots)
		}
	}
}

func TestManagerSolverVariants(t *testing.T) {
	pop := map[string]float64{}
	for i := 0; i < 30; i++ {
		pop[fmt.Sprintf("object-%d", i)] = float64(100 - 3*i)
	}
	values := map[Solver]float64{}
	for _, solver := range []Solver{SolverPopulate, SolverExact, SolverGreedy} {
		matrix := geo.DefaultMatrix()
		rm := NewRegionManager(geo.Frankfurt, geo.DefaultRegions(), geo.NewRoundRobin(geo.DefaultRegions(), false), 12)
		rm.WarmUp(func(r geo.RegionID) time.Duration { return matrix.Get(geo.Frankfurt, r) }, 1)
		cm := NewCacheManager(ManagerParams{
			K:            9,
			CacheSlots:   45,
			CacheLatency: 20 * time.Millisecond,
			Solver:       solver,
		}, NewMonitor(0.8), rm, nil)
		cfg := cm.Compute(pop)
		if cfg.Weight > 45 {
			t.Fatalf("%v overflowed capacity", solver)
		}
		values[solver] = cfg.Value
	}
	if values[SolverPopulate] > values[SolverExact]+1e-6 {
		t.Fatalf("populate (%v) beat exact (%v)?", values[SolverPopulate], values[SolverExact])
	}
	if values[SolverGreedy] > values[SolverExact]+1e-6 {
		t.Fatalf("greedy (%v) beat exact (%v)?", values[SolverGreedy], values[SolverExact])
	}
}

// alternatingSource is a popularity source whose periods close on two
// snapshots in turn.
type alternatingSource struct {
	snapshots [2]map[string]float64
	periods   int
}

func (a *alternatingSource) Record(string) {}

func (a *alternatingSource) EndPeriod() map[string]float64 {
	a.periods++
	return a.snapshots[a.periods%2]
}

// newExactManager builds a manager on the exact solver over Frankfurt's view
// of the default deployment, governing a cache of the given slot count.
func newExactManager(source PopularitySource, slots int) (*CacheManager, *cache.Cache) {
	matrix := geo.DefaultMatrix()
	rm := NewRegionManager(geo.Frankfurt, geo.DefaultRegions(), geo.NewRoundRobin(geo.DefaultRegions(), false), 12)
	rm.WarmUp(func(r geo.RegionID) time.Duration { return matrix.Get(geo.Frankfurt, r) }, 1)
	store := cache.New(int64(slots)*testChunkBytes, cache.NewLRU())
	cm := NewCacheManager(ManagerParams{
		K:            9,
		CacheSlots:   slots,
		CacheLatency: 20 * time.Millisecond,
		Solver:       SolverExact,
	}, source, rm, store)
	return cm, store
}

// TestReconfigurePublishesHintsAndAdmissionTogether alternates two
// configurations through back-to-back reconfigurations while another
// goroutine inserts chunks the active configuration names. A put that ran
// entirely under one configuration must be admitted: hints and admission
// switch together. (Hints also carry already-resident chunks, which an
// old configuration's admission may no longer cover, so only the configured
// set is checked.) Run under -race.
func TestReconfigurePublishesHintsAndAdmissionTogether(t *testing.T) {
	source := &alternatingSource{snapshots: [2]map[string]float64{
		{"object-a": 100, "object-b": 1},
		{"object-a": 1, "object-b": 100},
	}}
	cm, store := newExactManager(source, 9)
	first, second := cm.Reconfigure(), cm.Reconfigure()
	if len(first.ChunksFor("object-b")) == len(second.ChunksFor("object-b")) {
		t.Fatalf("the two snapshots configure object-b alike: %v and %v", first, second)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				cm.Reconfigure()
			}
		}
	}()

	payload := make([]byte, 8)
	checked := 0
	for i := 0; i < 20000 || checked < 100; i++ {
		key := [2]string{"object-a", "object-b"}[i%2]
		before := cm.Active()
		rejects := store.Stats().AdmissionRejects
		chunks := before.ChunksFor(key)
		for _, idx := range chunks {
			if err := store.Put(cache.EntryID{Key: key, Index: idx}, payload); err != nil {
				t.Errorf("put %s#%d: %v", key, idx, err)
			}
		}
		if cm.Active() != before {
			continue // a reconfiguration overlapped the puts
		}
		checked++
		if got := store.Stats().AdmissionRejects - rejects; got != 0 {
			t.Errorf("%d of %s's configured chunks %v refused while their configuration was active", got, key, chunks)
			break
		}
	}
	close(stop)
	wg.Wait()
	if checked < 100 {
		t.Fatalf("only %d put rounds ran under a single configuration", checked)
	}
}

// TestManagerLastRun checks the description a reconfiguration leaves behind
// and hands its observer.
func TestManagerLastRun(t *testing.T) {
	source := &alternatingSource{snapshots: [2]map[string]float64{
		{"object-a": 100, "object-b": 1, "object-c": 0},
		{"object-a": 1, "object-b": 100},
	}}
	cm, _ := newExactManager(source, 9)
	if run := cm.LastRun(); run != (ReconfigRun{}) {
		t.Fatalf("run before any reconfiguration: %+v", run)
	}
	var observed []ReconfigRun
	cm.OnReconfigure(func(run ReconfigRun) { observed = append(observed, run) })

	cfg := cm.Reconfigure() // the second snapshot: periods close on [1] first
	run := cm.LastRun()
	if run.Solver != SolverExact || run.Value != cfg.Value || run.Weight != cfg.Weight || run.Keys != 2 {
		t.Fatalf("first run %+v for config %v", run, cfg)
	}
	if run.MovedKeys != len(cfg.Options) || run.Duration <= 0 {
		t.Fatalf("first run moved %d keys in %v, config holds %d", run.MovedKeys, run.Duration, len(cfg.Options))
	}
	next := cm.Reconfigure()
	moved := 0
	for _, key := range []string{"object-a", "object-b"} {
		if fmt.Sprint(cfg.ChunksFor(key)) != fmt.Sprint(next.ChunksFor(key)) {
			moved++
		}
	}
	if run = cm.LastRun(); run.MovedKeys != moved || moved == 0 || run.Keys != 2 {
		t.Fatalf("second run %+v, want %d moved keys of 2 (object-c has no popularity)", run, moved)
	}
	if len(observed) != 2 || observed[1] != run {
		t.Fatalf("observer saw %+v, last run %+v", observed, run)
	}
	cm.Reconfigure()
	cm.Reconfigure()
	if got := cm.LastRun().MovedKeys; got != moved {
		t.Fatalf("alternating back moved %d keys, want %d", got, moved)
	}
}

func TestSolverString(t *testing.T) {
	if SolverPopulate.String() != "populate" || SolverExact.String() != "exact" ||
		SolverGreedy.String() != "greedy" || Solver(9).String() == "" {
		t.Fatal("solver names wrong")
	}
}

func TestNodeMaybeReconfigure(t *testing.T) {
	n := newTestNode(t, geo.Sydney, 18)
	base := time.Date(2026, 6, 12, 0, 0, 0, 0, time.UTC)
	if !n.MaybeReconfigure(base) {
		t.Fatal("first call must reconfigure")
	}
	if n.MaybeReconfigure(base.Add(10 * time.Second)) {
		t.Fatal("reconfigured before the period elapsed")
	}
	if !n.MaybeReconfigure(base.Add(31 * time.Second)) {
		t.Fatal("did not reconfigure after the period")
	}
	if n.Manager().Runs() != 2 {
		t.Fatalf("runs = %d", n.Manager().Runs())
	}
}

func TestNodeStartStop(t *testing.T) {
	n := newTestNode(t, geo.Frankfurt, 9)
	n.Start()
	n.Start() // idempotent
	n.Stop()
	n.Stop() // idempotent
}

func TestNodeStopWithoutStart(t *testing.T) {
	n := newTestNode(t, geo.Frankfurt, 9)
	n.Stop() // must not hang or panic
}

func TestNodeHandleReadRecords(t *testing.T) {
	n := newTestNode(t, geo.Frankfurt, 9)
	n.HandleRead("k")
	n.HandleRead("k")
	if n.Monitor().CurrentFrequency("k") != 2 {
		t.Fatal("HandleRead did not record")
	}
}

// BenchmarkRequestMonitor measures the per-request monitor+hint cost the
// paper reports as ~0.5 ms (§VI). In-process it is far cheaper; the paper's
// figure includes a UDP round trip.
func BenchmarkRequestMonitor(b *testing.B) {
	n := newTestNode(b, geo.Frankfurt, 90)
	for i := 0; i < 300; i++ {
		n.HandleRead(fmt.Sprintf("object-%d", i))
	}
	n.ForceReconfigure()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.HandleRead(fmt.Sprintf("object-%d", i%300))
	}
}

// BenchmarkCacheManager measures a full reconfiguration over 300 tracked
// objects, the operation the paper reports at ~5 ms (§VI).
func BenchmarkCacheManager(b *testing.B) {
	n := newTestNode(b, geo.Frankfurt, 90)
	zipfish := func(i int) int { return 1 + 3000/(i+1) }
	for i := 0; i < 300; i++ {
		for j := 0; j < zipfish(i); j++ {
			n.Monitor().Record(fmt.Sprintf("object-%d", i))
		}
	}
	pop := n.Monitor().EndPeriod()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Manager().Compute(pop)
	}
}
