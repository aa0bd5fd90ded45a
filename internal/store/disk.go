package store

import (
	"context"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Disk is the filesystem blob store. The object layout is
//
//	<root>/<bucket>/<escaped key>/<chunk index>
//
// with object keys path-escaped so arbitrary key bytes cannot climb out of
// their bucket. Chunk writes are atomic: the payload lands in a same-dir
// temp file first and is renamed into place, so a crash mid-write leaves
// either the old chunk or a stray temp file — never a torn chunk. Open
// rescans the tree, sweeps leftover temp files, and rebuilds the in-memory
// index, so a restarted store serves exactly the completed writes.
type Disk struct {
	root string

	mu  sync.RWMutex
	idx map[string]map[string]map[int]int64 // bucket -> key -> index -> bytes

	tmpSeq atomic.Int64
}

// tmpSuffix marks in-flight chunk writes; rescan deletes stragglers.
const tmpSuffix = ".tmp"

// NewDisk opens (creating if needed) a disk blob store rooted at dir and
// rescans any existing layout.
func NewDisk(dir string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: disk root: %w", err)
	}
	d := &Disk{root: dir, idx: make(map[string]map[string]map[int]int64)}
	if err := d.rescan(); err != nil {
		return nil, err
	}
	return d, nil
}

// rescan rebuilds the index from the on-disk layout and removes temp files
// left by interrupted writes.
func (d *Disk) rescan() error {
	buckets, err := os.ReadDir(d.root)
	if err != nil {
		return fmt.Errorf("store: rescan: %w", err)
	}
	for _, b := range buckets {
		if !b.IsDir() {
			continue
		}
		bucket := b.Name()
		keyDirs, err := os.ReadDir(filepath.Join(d.root, bucket))
		if err != nil {
			return fmt.Errorf("store: rescan %s: %w", bucket, err)
		}
		for _, kd := range keyDirs {
			if !kd.IsDir() {
				continue
			}
			key, err := url.PathUnescape(kd.Name())
			if err != nil {
				continue // not one of ours; leave it alone
			}
			dir := filepath.Join(d.root, bucket, kd.Name())
			chunks, err := os.ReadDir(dir)
			if err != nil {
				return fmt.Errorf("store: rescan %s/%s: %w", bucket, kd.Name(), err)
			}
			for _, c := range chunks {
				name := c.Name()
				if strings.HasSuffix(name, tmpSuffix) {
					os.Remove(filepath.Join(dir, name)) // torn write: sweep it
					continue
				}
				idx, err := strconv.Atoi(name)
				if err != nil || idx < 0 {
					continue
				}
				info, err := c.Info()
				if err != nil {
					return fmt.Errorf("store: rescan %s/%s/%s: %w", bucket, kd.Name(), name, err)
				}
				d.index(bucket, key)[idx] = info.Size()
			}
		}
	}
	return nil
}

// index returns (creating) the bucket/key chunk-size map. Callers hold mu.
func (d *Disk) index(bucket, key string) map[int]int64 {
	b := d.idx[bucket]
	if b == nil {
		b = make(map[string]map[int]int64)
		d.idx[bucket] = b
	}
	k := b[key]
	if k == nil {
		k = make(map[int]int64)
		b[key] = k
	}
	return k
}

// escapeKey encodes an object key as a single safe path segment.
// url.PathEscape leaves "." and ".." bare, and either would resolve keyDir
// outside the bucket (".." climbs to the store root, so DeleteObject would
// RemoveAll the whole store) — encode the dots explicitly. PathEscape never
// itself emits "%2E", so the encoding stays collision-free and
// url.PathUnescape in rescan round-trips it.
func escapeKey(key string) string {
	switch esc := url.PathEscape(key); esc {
	case ".":
		return "%2E"
	case "..":
		return "%2E%2E"
	default:
		return esc
	}
}

// keyDir returns the directory holding a key's chunks.
func (d *Disk) keyDir(bucket, key string) string {
	return filepath.Join(d.root, bucket, escapeKey(key))
}

func (d *Disk) chunkPath(bucket string, id ChunkID) string {
	return filepath.Join(d.keyDir(bucket, id.Key), strconv.Itoa(id.Index))
}

// PutChunk implements BlobStore with an atomic temp-file-and-rename write.
func (d *Disk) PutChunk(_ context.Context, bucket string, id ChunkID, data []byte) error {
	if err := validBucket(bucket); err != nil {
		return err
	}
	if id.Index < 0 {
		return fmt.Errorf("store: negative chunk index %d", id.Index)
	}
	dir := d.keyDir(bucket, id.Key)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: put %q/%d: %w", id.Key, id.Index, err)
	}
	tmp := filepath.Join(dir, fmt.Sprintf(".%d%s", d.tmpSeq.Add(1), tmpSuffix))
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("store: put %q/%d: %w", id.Key, id.Index, err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := os.Rename(tmp, d.chunkPath(bucket, id)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: put %q/%d: %w", id.Key, id.Index, err)
	}
	d.index(bucket, id.Key)[id.Index] = int64(len(data))
	return nil
}

// GetChunk implements BlobStore.
func (d *Disk) GetChunk(_ context.Context, bucket string, id ChunkID) ([]byte, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if _, ok := d.idx[bucket][id.Key][id.Index]; !ok {
		return nil, ErrNotFound
	}
	data, err := os.ReadFile(d.chunkPath(bucket, id))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("store: get %q/%d: %w", id.Key, id.Index, err)
	}
	return data, nil
}

// GetChunks implements BlobStore.
func (d *Disk) GetChunks(ctx context.Context, bucket, key string, indices []int) (map[int][]byte, error) {
	out := make(map[int][]byte, len(indices))
	for _, idx := range indices {
		data, err := d.GetChunk(ctx, bucket, ChunkID{Key: key, Index: idx})
		if err == ErrNotFound {
			continue
		}
		if err != nil {
			return nil, err
		}
		out[idx] = data
	}
	return out, nil
}

// DeleteChunk implements BlobStore.
func (d *Disk) DeleteChunk(_ context.Context, bucket string, id ChunkID) (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.idx[bucket][id.Key][id.Index]; !ok {
		return false, nil
	}
	if err := os.Remove(d.chunkPath(bucket, id)); err != nil && !os.IsNotExist(err) {
		return false, fmt.Errorf("store: delete %q/%d: %w", id.Key, id.Index, err)
	}
	delete(d.idx[bucket][id.Key], id.Index)
	if len(d.idx[bucket][id.Key]) == 0 {
		delete(d.idx[bucket], id.Key)
		os.Remove(d.keyDir(bucket, id.Key)) // best-effort empty-dir cleanup
	}
	return true, nil
}

// DeleteObject implements BlobStore.
func (d *Disk) DeleteObject(_ context.Context, bucket, key string) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.idx[bucket][key])
	if n == 0 {
		return 0, nil
	}
	if err := os.RemoveAll(d.keyDir(bucket, key)); err != nil {
		return 0, fmt.Errorf("store: delete object %q: %w", key, err)
	}
	delete(d.idx[bucket], key)
	return n, nil
}

// List implements BlobStore.
func (d *Disk) List(_ context.Context, bucket string) ([]string, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.idx[bucket]))
	for k := range d.idx[bucket] {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}

// Stats implements BlobStore.
func (d *Disk) Stats(_ context.Context, bucket string) (Stats, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var st Stats
	for _, chunks := range d.idx[bucket] {
		for _, size := range chunks {
			st.Chunks++
			st.Bytes += size
		}
	}
	return st, nil
}

// Close implements BlobStore. Completed writes are already durable.
func (d *Disk) Close() error { return nil }
