package ashare

import (
	"bytes"
	"encoding/gob"
	"sort"
	"strings"
	"sync"

	"atum"
)

// Index is the metadata index of §4.2: a complete, local, soft-state copy of
// the file→replica mapping with search over the namespace. The paper backs
// it with SQLite; this implementation is a pure-Go ordered store with the
// same semantics (insert, delete, lookup, substring search).
type Index struct {
	mu       sync.RWMutex
	files    map[FileKey]FileMeta
	replicas map[FileKey]map[atum.NodeID]bool
}

// NewIndex creates an empty index.
func NewIndex() *Index {
	return &Index{
		files:    make(map[FileKey]FileMeta),
		replicas: make(map[FileKey]map[atum.NodeID]bool),
	}
}

// Put inserts or updates a file record.
func (ix *Index) Put(meta FileMeta) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.files[meta.Key] = meta
}

// Delete removes a file and its replica records.
func (ix *Index) Delete(key FileKey) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	delete(ix.files, key)
	delete(ix.replicas, key)
}

// Lookup returns the metadata for a file. The record is a copy: callers may
// keep or mutate it (ChunkDigests included) without corrupting the index.
func (ix *Index) Lookup(key FileKey) (FileMeta, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	m, ok := ix.files[key]
	return m.clone(), ok
}

// AddReplica records that node stores a replica of key.
func (ix *Index) AddReplica(key FileKey, node atum.NodeID) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	set, ok := ix.replicas[key]
	if !ok {
		set = make(map[atum.NodeID]bool)
		ix.replicas[key] = set
	}
	set[node] = true
}

// Replicas returns the known replica holders of key, sorted.
func (ix *Index) Replicas(key FileKey) []atum.NodeID {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]atum.NodeID, 0, len(ix.replicas[key]))
	for n := range ix.replicas[key] {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the number of indexed files.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.files)
}

// Search returns files whose owner/name contains the term, sorted by key.
// Like Lookup, the records are copies — mutating them cannot corrupt the
// index.
func (ix *Index) Search(term string) []FileMeta {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var out []FileMeta
	for k, m := range ix.files {
		if strings.Contains(k.String(), term) {
			out = append(out, m.clone())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key.String() < out[j].Key.String() })
	return out
}

// encodeRecord/decodeRecord serialize index update broadcasts.
func encodeRecord(v any) []byte {
	registerOnce.Do(registerTypes)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&recordEnvelope{V: v}); err != nil {
		panic("ashare: encode: " + err.Error())
	}
	return buf.Bytes()
}

func decodeRecord(b []byte) (any, error) {
	registerOnce.Do(registerTypes)
	var env recordEnvelope
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&env); err != nil {
		return nil, err
	}
	return env.V, nil
}

type recordEnvelope struct {
	V any
}

var registerOnce sync.Once

func registerTypes() {
	gob.Register(putRecord{})
	gob.Register(replicaRecord{})
	gob.Register(deleteRecord{})
	gob.Register(chunkRequest{})
	gob.Register(chunkResponse{})
}
