package live

import (
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/agardist/agar/internal/core"
	"github.com/agardist/agar/internal/geo"
)

// startReconfigCluster boots a cluster whose node reconfigures only when
// told to and records Zipf-skewed popularity for the given number of keys.
func startReconfigCluster(t *testing.T, keys, slots int) *Cluster {
	t.Helper()
	cluster, err := StartCluster(ClusterConfig{
		ClientRegion:   geo.Frankfurt,
		CacheBytes:     int64(slots) * 2048,
		ChunkBytes:     2048,
		ReconfigPeriod: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	node := cluster.Node()
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("object-%04d", i)
		for n := 1 + int(2000*math.Pow(float64(i+1), -1.1)); n > 0; n-- {
			node.HandleRead(key)
		}
	}
	return cluster
}

// TestLiveClusterSolvesExactly: the configuration a live cluster puts in
// force is the optimum of the knapsack over the popularity it closed the
// period on — ExactMCKP's value and weight on an option set built
// independently from the same snapshot — and POPULATE does no better.
func TestLiveClusterSolvesExactly(t *testing.T) {
	const keys, slots = 120, 108
	cluster := startReconfigCluster(t, keys, slots)
	node := cluster.Node()
	cfg := node.ForceReconfigure()
	if run := node.Manager().LastRun(); run.Solver != core.SolverExact || run.Keys != keys {
		t.Fatalf("live reconfiguration ran %+v", run)
	}

	perKey := make(map[string][]core.Option)
	for key, pop := range node.Monitor().Popularity() {
		plan := node.RegionManager().Plan(key)
		perKey[key] = core.GenerateOptions(key, pop, plan, 9, core.DefaultWeightGrid(9), 20*time.Millisecond)
	}
	set := core.NewOptionSet(perKey)
	want := core.ExactMCKP(set, slots)
	if cfg.Value != want.Value || cfg.Weight != want.Weight || cfg.Weight == 0 {
		t.Fatalf("live config w=%d v=%v, ExactMCKP w=%d v=%v", cfg.Weight, cfg.Value, want.Weight, want.Value)
	}
	if heuristic := core.Populate(set, slots, core.PopulateParams{}); heuristic.Value > cfg.Value+1e-6 {
		t.Fatalf("POPULATE value %v above the live optimum %v", heuristic.Value, cfg.Value)
	}
}

// TestLiveReconfigureAtPaperScale guards the reason live clusters solve
// exactly: 1000 keys over 900 slots reconfigure in milliseconds (POPULATE
// needs tens of seconds), so one second leaves a wide margin on a busy host.
func TestLiveReconfigureAtPaperScale(t *testing.T) {
	cluster := startReconfigCluster(t, 1000, 900)
	start := time.Now()
	cfg := cluster.Node().ForceReconfigure()
	if took := time.Since(start); took > time.Second {
		t.Fatalf("1000 keys x 900 slots reconfigured in %v, want under 1s", took)
	}
	if cfg.Weight != 900 {
		t.Fatalf("configured %d of 900 slots", cfg.Weight)
	}
}
