package core

import (
	"testing"

	"github.com/agardist/agar/internal/geo"
)

func TestDefaultCacheShards(t *testing.T) {
	cases := []struct {
		slots int64
		want  int
	}{
		{0, 1}, {90, 1}, {256, 1}, {1023, 1}, {1024, 2}, {2047, 2},
		{2048, 4}, {4096, 8}, {8192, 16}, {1 << 20, 16},
	}
	for _, c := range cases {
		if got := defaultCacheShards(c.slots); got != c.want {
			t.Errorf("defaultCacheShards(%d) = %d, want %d", c.slots, got, c.want)
		}
	}
}

func TestNodeCacheShardWiring(t *testing.T) {
	mk := func(cacheBytes int64) int {
		n := NewNode(NodeParams{
			Region:     geo.Frankfurt,
			Regions:    geo.DefaultRegions(),
			Placement:  geo.NewRoundRobin(geo.DefaultRegions(), false),
			K:          4,
			M:          2,
			CacheBytes: cacheBytes,
			ChunkBytes: 1024,
		})
		return n.Cache().ShardCount()
	}
	if got := mk(90 * 1024); got != 1 {
		t.Errorf("evaluation-scale cache sharded %d ways, want 1", got)
	}
	if got := mk(4096 * 1024); got != 8 {
		t.Errorf("large cache sharded %d ways, want 8", got)
	}
}
