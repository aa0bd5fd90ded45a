// Versioned write path: the backend.Store half of the hybrid-logical-clock
// coherence design (docs/WRITES.md).
//
// A versioned chunk is stored with its version prefixed to the payload
// (8 bytes, big endian), and every versioned key carries a persisted
// version record at store.VersionIndex in the same bucket. Reads consult
// the record to know whether a key's chunks are framed; writes enforce
// last-writer-wins against it — a put older than the record is refused
// with a StaleError instead of clobbering newer data. The record is written
// after the chunks it describes, so a reported version is never newer than
// the data a concurrent reader fetched (reads check the record first; see
// docs/WRITES.md for the torn-window analysis).
//
// The in-memory record cache assumes one Store instance owns its bucket's
// write traffic — the live deployment's one-store-server-per-region shape.
// A fresh Store over the same bucket (a restart, a crash rescan) lazily
// reloads the records and observes exactly the persisted floors.
package backend

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/agardist/agar/internal/store"
)

// StaleError reports a versioned mutation that lost to a newer version;
// Cur is the version it lost to. errors.Is(err, ErrStale) matches it.
type StaleError struct {
	Cur uint64
}

// ErrStale is the errors.Is target for StaleError.
var ErrStale = errors.New("backend: version is stale")

func (e *StaleError) Error() string {
	return fmt.Sprintf("backend: stale write (current version %d)", e.Cur)
}

// Is makes errors.Is(err, ErrStale) match.
func (e *StaleError) Is(target error) bool { return target == ErrStale }

// versionFramedLen is the per-chunk version prefix length.
const versionFramedLen = 8

// frameVersioned prefixes the chunk payload with its version.
func frameVersioned(data []byte, ver uint64) []byte {
	out := make([]byte, versionFramedLen+len(data))
	for i := 0; i < versionFramedLen; i++ {
		out[i] = byte(ver >> (8 * (versionFramedLen - 1 - i)))
	}
	copy(out[versionFramedLen:], data)
	return out
}

// unframeVersioned splits a version-framed chunk. Chunks shorter than the
// prefix read as unversioned raw bytes — the transitional form while a
// key's first versioned write is in flight.
func unframeVersioned(raw []byte) ([]byte, uint64) {
	if len(raw) < versionFramedLen {
		return raw, 0
	}
	var ver uint64
	for i := 0; i < versionFramedLen; i++ {
		ver = ver<<8 | uint64(raw[i])
	}
	return raw[versionFramedLen:], ver
}

// versionCache lazily mirrors the bucket's persisted version records.
// Values include zero ("no record"), so unversioned keys cost one blob
// read ever, not one per read.
type versionCache struct {
	mu   sync.Mutex
	vers map[string]uint64
}

// ensureVersions initialises the cache on first use.
func (s *Store) ensureVersions() *versionCache {
	s.verOnce.Do(func() { s.verCache = &versionCache{vers: make(map[string]uint64)} })
	return s.verCache
}

// VersionOf returns the key's version floor in this bucket: the persisted
// record, through the in-memory cache. Zero means the key has never been
// written through the versioned path here.
func (s *Store) VersionOf(key string) (uint64, error) {
	vc := s.ensureVersions()
	vc.mu.Lock()
	ver, ok := vc.vers[key]
	vc.mu.Unlock()
	if ok {
		return ver, nil
	}
	ver, err := store.GetVersion(context.Background(), s.blob, s.bucket, key)
	if err != nil {
		return 0, err
	}
	vc.mu.Lock()
	if cached, ok := vc.vers[key]; ok && cached > ver {
		ver = cached // a concurrent write raced the load
	} else {
		vc.vers[key] = ver
	}
	vc.mu.Unlock()
	return ver, nil
}

// raiseVersion persists the record and raises the cache when ver is newer
// than the current floor.
func (s *Store) raiseVersion(key string, ver uint64) error {
	cur, err := s.VersionOf(key)
	if err != nil {
		return err
	}
	if ver <= cur {
		return nil
	}
	if err := store.PutVersion(context.Background(), s.blob, s.bucket, key, ver); err != nil {
		return err
	}
	vc := s.ensureVersions()
	vc.mu.Lock()
	if vc.vers[key] < ver {
		vc.vers[key] = ver
	}
	vc.mu.Unlock()
	return nil
}

// PutVer stores a chunk at the given write version. Version zero is the
// legacy path (identical to Put). A version older than the key's floor is
// refused with a StaleError — last writer wins, the HLC conflict rule.
func (s *Store) PutVer(id ChunkID, data []byte, ver uint64) error {
	if ver == 0 {
		return s.Put(id, data)
	}
	if s.isDown() {
		return ErrDown
	}
	cur, err := s.VersionOf(id.Key)
	if err != nil {
		return err
	}
	if ver < cur {
		return &StaleError{Cur: cur}
	}
	if err := s.blob.PutChunk(context.Background(), s.bucket, id.blobID(), frameVersioned(data, ver)); err != nil {
		return err
	}
	return s.raiseVersion(id.Key, ver)
}

// PutMultiVer stores several chunks of one key at one write version,
// then raises the key's persisted record once — chunks first, record
// second, so a concurrent reader never sees a version newer than the data
// it read.
func (s *Store) PutMultiVer(key string, chunks map[int][]byte, ver uint64) error {
	if ver == 0 {
		for idx, data := range chunks {
			if err := s.Put(ChunkID{Key: key, Index: idx}, data); err != nil {
				return err
			}
		}
		return nil
	}
	if s.isDown() {
		return ErrDown
	}
	cur, err := s.VersionOf(key)
	if err != nil {
		return err
	}
	if ver < cur {
		return &StaleError{Cur: cur}
	}
	for idx, data := range chunks {
		id := ChunkID{Key: key, Index: idx}
		if err := s.blob.PutChunk(context.Background(), s.bucket, id.blobID(), frameVersioned(data, ver)); err != nil {
			return err
		}
	}
	return s.raiseVersion(key, ver)
}

// GetMultiVer reads chunks of one key with their write versions: it reads
// the key's version floor first (so the reported floor is never newer than the chunk data that
// follows), then fetches whichever requested chunks exist. It returns the
// chunks keyed by index, their per-chunk versions (nil when the key is
// unversioned), and the floor.
func (s *Store) GetMultiVer(key string, indices []int) (map[int][]byte, map[int]uint64, uint64, error) {
	floor, err := s.VersionOf(key)
	if err != nil {
		return nil, nil, 0, err
	}
	chunks, err := s.GetMulti(key, indices)
	if err != nil {
		return nil, nil, 0, err
	}
	if floor == 0 {
		return chunks, nil, 0, nil
	}
	vers := make(map[int]uint64, len(chunks))
	for idx, raw := range chunks {
		payload, ver := unframeVersioned(raw)
		chunks[idx] = payload
		vers[idx] = ver
	}
	return chunks, vers, floor, nil
}
