// The Backend interface and the default JSONL implementation.
//
// A Backend is the raw content-addressed byte layer under a Store: an
// opaque-payload map keyed by canonical content hash (plus derived keys
// such as "<hash>/front"). Store layers JSON encoding, telemetry and the
// legacy convenience API on top, so every backend stays small and every
// consumer (the experiment scheduler, the serving daemon, the dispatch
// coordinator) is oblivious to which one is underneath.
package store

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/journal"
)

// Backend is a content-addressed byte store over one local file.
// Implementations must be safe for concurrent use by multiple goroutines;
// the embedded backend is additionally safe for concurrent use by
// multiple processes.
//
// Contract, shared by every implementation and pinned by the conformance
// suite in backend_test.go:
//
//   - Get returns (payload, true, nil) for a stored hash, (nil, false,
//     nil) for an absent one, and a non-nil error only for I/O failures
//     — absence is never an error.
//   - Put overwrites: the last write for a hash wins, matching the
//     append-log semantics the JSONL format always had.
//   - Scan visits every distinct stored hash exactly once, in first-
//     insertion order, with its latest payload; fn's error aborts the scan.
//   - Len counts the distinct hashes the index holds; Corrupt counts the
//     undecodable records skipped (and, for the embedded backend, healed)
//     since open.
//   - Close releases resources. Get/Scan stay readable from the
//     in-memory index after Close; Put fails.
type Backend interface {
	Get(hash string) (payload []byte, ok bool, err error)
	Put(hash string, payload []byte) error
	Scan(fn func(hash string, payload []byte) error) error
	Len() int
	Corrupt() int
	Close() error
}

// record is one JSONL line — also the line shape of Export (storectl
// cat), and therefore a frozen contract (docs/STORAGE.md).
type record struct {
	Hash    string          `json:"hash"`
	Payload json.RawMessage `json:"payload"`
}

// index is the in-memory payload map both file backends keep: every
// record is read at open, so a warm Get takes no file lock and reads no
// file. Results here are small JSON records, which makes the trade cheap.
type index struct {
	mu    sync.Mutex
	mem   map[string][]byte
	order []string // first-insertion order, for deterministic iteration
}

// setLocked records payload as hash's latest; the caller holds mu.
func (x *index) setLocked(hash string, payload []byte) {
	if x.mem == nil {
		x.mem = map[string][]byte{}
	}
	if _, seen := x.mem[hash]; !seen {
		x.order = append(x.order, hash)
	}
	x.mem[hash] = payload
}

func (x *index) Get(hash string) ([]byte, bool, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	p, ok := x.mem[hash]
	return p, ok, nil
}

func (x *index) Scan(fn func(hash string, payload []byte) error) error {
	x.mu.Lock()
	hashes := append([]string(nil), x.order...)
	x.mu.Unlock()
	for _, h := range hashes {
		x.mu.Lock()
		p := x.mem[h]
		x.mu.Unlock()
		if err := fn(h, p); err != nil {
			return err
		}
	}
	return nil
}

func (x *index) Len() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return len(x.mem)
}

// jsonlBackend is the default file format: an internal/journal log of
// record lines, written with one write per Put and no fsync, fully
// indexed in memory at open. It is bit-compatible with every store file
// written since the format was introduced; Open auto-detects it (anything
// without the embedded backend's magic header).
//
// Concurrency: safe within one process. Handles on one JSONL file append
// whole lines without overwriting each other's, but each handle's index
// sees only its own writes until a reopen — use the embedded backend when
// daemons must share a file.
type jsonlBackend struct {
	index
	log *journal.Log[record]
}

// openJSONL loads (or creates) the JSONL file at path. Undecodable lines
// — e.g. the tail of a run killed mid-write — are skipped and counted in
// Corrupt(); every well-formed record is kept. A record whose hash
// repeats overwrites the earlier payload (last writer wins).
func openJSONL(path string) (*jsonlBackend, error) {
	b := &jsonlBackend{}
	log, err := journal.Open(path, false, func(r *record) bool {
		if r.Hash == "" || len(r.Payload) == 0 {
			return false
		}
		b.setLocked(r.Hash, r.Payload) // b is not shared yet
		return true
	})
	if err != nil {
		return nil, err
	}
	b.log = log
	return b, nil
}

func (b *jsonlBackend) Put(hash string, payload []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.log.Append(record{Hash: hash, Payload: payload}); err != nil {
		return fmt.Errorf("store: put %.12s…: %w", hash, err)
	}
	b.setLocked(hash, append([]byte(nil), payload...))
	return nil
}

func (b *jsonlBackend) Corrupt() int { return b.log.Corrupt() }

// Close closes the backing file. The in-memory index stays readable;
// further Puts fail.
func (b *jsonlBackend) Close() error { return b.log.Close() }
