package live

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/agardist/agar/internal/geo"
)

// payloadFor builds a self-describing object body: "<key>#<seq>|" repeated
// to size. A decode that mixes chunk generations cannot reproduce any
// seq's exact payload, so byte-comparing against the parsed seq's
// regeneration catches torn reads, not just stale ones.
func payloadFor(key string, seq, size int) []byte {
	unit := []byte(fmt.Sprintf("%s#%06d|", key, seq))
	out := bytes.Repeat(unit, size/len(unit)+1)
	return out[:size]
}

// parseSeq recovers the seq a payload claims to be, or -1 when the bytes
// are not any generation's exact payload (a torn read).
func parseSeq(key string, got []byte, size int) int {
	head := string(got)
	if i := strings.IndexByte(head, '|'); i > 0 {
		parts := strings.Split(head[:i], "#")
		if len(parts) == 2 && parts[0] == key {
			if seq, err := strconv.Atoi(parts[1]); err == nil {
				if bytes.Equal(got, payloadFor(key, seq, size)) {
					return seq
				}
			}
		}
	}
	return -1
}

// TestVersionedWritesReadYourWritesRace runs concurrent session writers
// against concurrent sessionless readers on one live deployment — the
// -race workout of the versioned write path. Every writer must read its
// own write back immediately (read-your-writes through its session), and
// no reader may ever decode a torn object: a read either returns some
// complete write's exact payload or fails cleanly while a write is in
// flight.
func TestVersionedWritesReadYourWritesRace(t *testing.T) {
	cluster, err := StartCluster(ClusterConfig{
		K:            4,
		M:            2,
		ClientRegion: geo.Frankfurt,
		CacheBytes:   60 * 2048,
		ChunkBytes:   2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	const (
		writers  = 3
		readers  = 2
		rounds   = 6
		objBytes = 4_000
	)
	w := NewNetworkWriter(cluster, geo.Frankfurt)
	defer w.Close()
	reader, err := NewNetworkReader(cluster, geo.Frankfurt)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()

	keyOf := func(i int) string { return fmt.Sprintf("rw-obj-%d", i) }
	// Seed every key with generation 0 so readers always have something to
	// decode while the writers churn.
	for i := 0; i < writers; i++ {
		if _, err := w.Write(keyOf(i), payloadFor(keyOf(i), 0, objBytes)); err != nil {
			t.Fatal(err)
		}
	}

	errCh := make(chan error, writers+readers)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess := NewSession()
			key := keyOf(i)
			for seq := 1; seq <= rounds; seq++ {
				payload := payloadFor(key, seq, objBytes)
				ver, err := w.WriteSession(key, payload, sess)
				if err != nil {
					errCh <- fmt.Errorf("write %s seq %d: %w", key, seq, err)
					return
				}
				got, info, err := reader.ReadSession(key, sess)
				if err != nil {
					errCh <- fmt.Errorf("read-your-writes %s seq %d (ver %d): %w", key, seq, ver, err)
					return
				}
				if !bytes.Equal(got, payload) {
					errCh <- fmt.Errorf("read-your-writes violated: %s seq %d returned seq %d (ver %d, read ver %d)",
						key, seq, parseSeq(key, got, objBytes), ver, info.Version)
					return
				}
				if info.Version < ver {
					errCh <- fmt.Errorf("session read of %s settled on ver %d below the write's %d", key, info.Version, ver)
					return
				}
			}
			errCh <- nil
		}(i)
	}
	for j := 0; j < readers; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < writers*rounds; n++ {
				key := keyOf(n % writers)
				got, _, err := reader.ReadDetailed(key)
				if err != nil {
					// A read racing a write may legitimately fail (the old
					// generation is already invalidated, the new one not yet
					// everywhere) — what it must never do is decode garbage.
					continue
				}
				if parseSeq(key, got, objBytes) < 0 {
					errCh <- fmt.Errorf("torn read of %s: no generation matches %d bytes", key, len(got))
					return
				}
			}
			errCh <- nil
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Quiesced: every key reads back as its final generation.
	for i := 0; i < writers; i++ {
		got, info, err := reader.ReadDetailed(keyOf(i))
		if err != nil {
			t.Fatalf("final read of %s: %v", keyOf(i), err)
		}
		if seq := parseSeq(keyOf(i), got, objBytes); seq != rounds {
			t.Fatalf("final read of %s returned seq %d, want %d", keyOf(i), seq, rounds)
		}
		if info.Version == 0 {
			t.Fatalf("final read of %s reports no version", keyOf(i))
		}
	}
}

// TestCrossRegionInvalidationDropsStaleMirror drives the digest-borne
// invalidation across two peered deployments: Dublin updates an object its
// peer mesh had advertised, and after the next digest Frankfurt must never
// again serve the pre-write payload — its raised floor drops both its own
// cached chunks and the stale store chunks, so a read returns the new
// generation or fails, never the old bytes.
func TestCrossRegionInvalidationDropsStaleMirror(t *testing.T) {
	fra, dub, _ := startPeeredClusters(t, 1, 4_000)
	const objBytes = 4_000
	key := "object-0"

	// Dublin writes generation 1 through the versioned path and re-reads it
	// so its cache repopulates at the new version.
	w := NewNetworkWriter(dub, geo.Dublin)
	defer w.Close()
	v1, err := w.Write(key, payloadFor(key, 1, objBytes))
	if err != nil {
		t.Fatal(err)
	}
	warmCluster(t, dub, geo.Dublin, key)
	if got := uint64(dub.Versions().Get(key)); got != v1 {
		t.Fatalf("dublin floor %d after write %d", got, v1)
	}

	// Frankfurt warms its own cache with the seeded (pre-write) payload —
	// the state the invalidation must kill.
	warmCluster(t, fra, geo.Frankfurt, key)

	// The digest carries the key's version: Frankfurt's floor rises and its
	// pre-write chunks are dropped server-side.
	if failed := dub.PushDigests(); failed != 0 {
		t.Fatalf("%d digest pushes failed", failed)
	}
	if got := uint64(fra.Versions().Get(key)); got != v1 {
		t.Fatalf("frankfurt floor %d after digest, want %d", got, v1)
	}

	reader, err := NewNetworkReader(fra, geo.Frankfurt)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	for i := 0; i < 5; i++ {
		got, info, err := reader.ReadDetailed(key)
		if err != nil {
			// Frankfurt's own backend only has the pre-write generation and
			// the peer may not cover k chunks: failing is coherent,
			// serving the old bytes is not.
			continue
		}
		if seq := parseSeq(key, got, objBytes); seq != 1 {
			t.Fatalf("post-invalidation read %d returned generation %d (ver %d, stale drops %d)",
				i, seq, info.Version, info.StaleDrops)
		}
	}

	// The raised floor also refuses direct stale write-backs: a pre-write
	// chunk can no longer be re-admitted into Frankfurt's cache.
	fraCache := NewRemoteCache(fra.CacheAddr())
	defer fraCache.Close()
	if err := fraCache.PutMultiVer(key, map[int][]byte{0: {1, 2, 3}}, v1-1); err == nil {
		t.Fatal("stale write-back admitted after invalidation")
	}
}

// TestWriteSessionStampsAboveReadVersion is the HLC receive rule on the
// write path: a writer whose clock lags the version a session has read must
// still stamp above it. Writer A runs 10 s ahead and writes the key; a
// session reads that version; writer B, on wall time, then writes through
// the session. B must win with a newer version, and the key must read back
// B's bytes — without the rule B's own stamp is older than what the
// session saw, the stores refuse it as stale, and A's bytes stay.
func TestWriteSessionStampsAboveReadVersion(t *testing.T) {
	cluster, err := StartCluster(ClusterConfig{
		K:            4,
		M:            2,
		ClientRegion: geo.Frankfurt,
		CacheBytes:   60 * 2048,
		ChunkBytes:   2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	const key, size = "skewed-obj", 4_000
	ahead := NewNetworkWriter(cluster, geo.Frankfurt)
	defer ahead.Close()
	ahead.SetClock(func() time.Time { return time.Now().Add(10 * time.Second) })
	if _, err := ahead.Write(key, payloadFor(key, 1, size)); err != nil {
		t.Fatal(err)
	}

	reader, err := NewNetworkReader(cluster, geo.Frankfurt)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	sess := NewSession()
	_, info, err := reader.ReadSession(key, sess)
	if err != nil {
		t.Fatal(err)
	}
	v1 := info.Version

	wall := NewNetworkWriter(cluster, geo.Frankfurt)
	defer wall.Close()
	v2, err := wall.WriteSession(key, payloadFor(key, 2, size), sess)
	if err != nil {
		t.Fatalf("write after reading v%d: %v", v1, err)
	}
	if v2 <= v1 {
		t.Fatalf("write stamped v%d, not above the read version v%d", v2, v1)
	}
	got, _, err := reader.ReadSession(key, sess)
	if err != nil {
		t.Fatal(err)
	}
	if seq := parseSeq(key, got, size); seq != 2 {
		t.Fatalf("read back generation %d, want the session write's 2", seq)
	}
}
