// Package store persists per-job experiment results keyed by a canonical
// content hash of the job specification, over a pluggable storage
// backend.
//
// The store is the substrate of the experiment orchestrator's -resume and
// caching behavior and of the serving daemon's restart-safe result cache:
// a scheduler asks Get(hash) before running a job and Put(hash, result)
// after, so a re-run — or a run killed halfway and re-invoked — skips
// every finished cell. Payloads are opaque JSON; keys are the hex SHA-256
// content hash (Hash) plus derived keys such as "<hash>/front".
//
// Two file backends implement the same content-addressed contract (the
// Backend interface in backend.go; docs/STORAGE.md is the operator-facing
// matrix):
//
//   - JSONL (default): one {"hash":...,"payload":...} object per line,
//     append-only, written per Put, corrupt-line tolerant (an
//     internal/journal log). Bit-compatible with every store file this
//     repo ever wrote. Single-process.
//   - Embedded: a single-file, CRC-framed binary log safe for several
//     daemons on one host via flock(2); torn tails from a SIGKILLed
//     writer are detected and healed (embedded.go).
//
// Open auto-detects the format (an embedded file carries a magic header;
// anything else is JSONL), so existing callers and store files keep
// working unchanged. A store is shared across hosts through a
// coordinator (internal/coord), which owns the one store of a cluster.
//
// A Store can be instrumented with telemetry counters (Instrument) so a
// serving daemon's /metrics endpoint reports cache traffic — lookups,
// hits and writes — without the store growing a metrics dependency on its
// own hot path beyond three nil checks.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/telemetry"
)

// Hash returns the canonical content hash (hex SHA-256) of any
// JSON-marshalable value. The value is marshaled, decoded into generic
// form and re-marshaled, so object keys are serialized in sorted order and
// insignificant whitespace is dropped: two values that represent the same
// logical object hash identically regardless of field order or
// formatting. Numbers are kept as their literal JSON tokens (json.Number),
// so no float re-formatting can perturb the hash.
func Hash(v any) (string, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("store: hash: %w", err)
	}
	canon, err := canonicalize(raw)
	if err != nil {
		return "", fmt.Errorf("store: hash: %w", err)
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}

// canonicalize round-trips raw JSON through generic decoding so maps
// (and therefore object keys) re-marshal sorted.
func canonicalize(raw []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	return json.Marshal(v)
}

// Store is a hash-keyed result cache over one Backend. All methods are
// safe for concurrent use. Create one with Open (auto-detect), OpenKind,
// or a specific constructor (OpenJSONL, OpenEmbedded).
type Store struct {
	b    Backend
	kind string // "jsonl" or "embedded"
	path string

	// Optional telemetry (Instrument); nil counters are simply not bumped.
	mu                  sync.Mutex
	cPuts, cGets, cHits *telemetry.Counter
}

// Open loads (or creates) the store file at path, auto-detecting the
// backend: a file carrying the embedded magic header is an embedded
// store, anything else — including a new or empty file — is the default
// JSONL format.
func Open(path string) (*Store, error) {
	return OpenKind("auto", path)
}

// OpenKind opens the file at path as an explicit backend kind: "jsonl",
// "embedded", or "auto"/"" for Open's detection.
func OpenKind(kind, path string) (*Store, error) {
	switch kind {
	case "", "auto":
		if sniffEmbedded(path) {
			return OpenEmbedded(path)
		}
		return OpenJSONL(path)
	case "jsonl":
		return OpenJSONL(path)
	case "embedded":
		return OpenEmbedded(path)
	default:
		return nil, CheckKind(kind)
	}
}

// CheckKind reports whether OpenKind accepts kind, so a daemon refuses a
// bad backend flag even when it opens no store.
func CheckKind(kind string) error {
	switch kind {
	case "", "auto", "jsonl", "embedded":
		return nil
	}
	return fmt.Errorf("store: unknown backend kind %q (valid: auto, jsonl, embedded)", kind)
}

// sniffEmbedded reports whether the file at path starts with the embedded
// backend's magic header. A missing, unreadable or short file is not
// embedded; the real open reports why it cannot be used.
func sniffEmbedded(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	hdr := make([]byte, len(embMagic))
	if _, err := io.ReadFull(f, hdr); err != nil {
		return false
	}
	return string(hdr) == embMagic
}

// OpenJSONL opens target as a JSONL store (the default file format).
func OpenJSONL(path string) (*Store, error) {
	b, err := openJSONL(path)
	if err != nil {
		return nil, err
	}
	return &Store{b: b, kind: "jsonl", path: path}, nil
}

// OpenEmbedded opens target as an embedded (single-file binary log)
// store, creating it if absent. The file may be shared by several
// processes on one host; see embeddedBackend.
func OpenEmbedded(path string) (*Store, error) {
	b, err := openEmbedded(path)
	if err != nil {
		return nil, err
	}
	return &Store{b: b, kind: "embedded", path: path}, nil
}

// Instrument attaches telemetry counters: puts counts Put calls, gets
// counts Get/Decode lookups, hits the lookups that found a record. Any
// counter may be nil. Instrument may be called at any time, including
// between operations of a live daemon (in practice it is called once,
// right after Open).
func (s *Store) Instrument(puts, gets, hits *telemetry.Counter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cPuts, s.cGets, s.cHits = puts, gets, hits
}

func (s *Store) bump(c **telemetry.Counter) {
	s.mu.Lock()
	if *c != nil {
		(*c).Inc()
	}
	s.mu.Unlock()
}

// Get returns the stored payload for hash, if present. A backend I/O
// error (e.g. the embedded file could not be locked for a cold read)
// reads as a miss here — the cache is advisory on this legacy path; use
// Decode where a failure must be distinguished from absence.
func (s *Store) Get(hash string) (json.RawMessage, bool) {
	s.bump(&s.cGets)
	p, ok, err := s.b.Get(hash)
	if err != nil || !ok {
		return nil, false
	}
	s.bump(&s.cHits)
	return p, true
}

// Decode unmarshals the stored payload for hash into out, reporting
// whether the hash was present. A present-but-undecodable payload is an
// error (the caller's schema disagrees with the record), and so is a
// backend I/O failure — absence alone is (false, nil).
func (s *Store) Decode(hash string, out any) (bool, error) {
	s.bump(&s.cGets)
	p, ok, err := s.b.Get(hash)
	if err != nil {
		return false, err
	}
	if !ok {
		return false, nil
	}
	s.bump(&s.cHits)
	if err := json.Unmarshal(p, out); err != nil {
		return true, fmt.Errorf("store: payload for %.12s…: %w", hash, err)
	}
	return true, nil
}

// Put marshals payload and stores it under hash, overwriting any earlier
// record (last writer wins). The record is written to the file when Put
// returns.
func (s *Store) Put(hash string, payload any) error {
	raw, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("store: put: %w", err)
	}
	return s.PutRaw(hash, raw)
}

// PutRaw stores an already-marshaled JSON payload under hash. The payload
// must be valid JSON — the JSONL format embeds it verbatim in its record
// line, so garbage here would corrupt the line for every later reader.
func (s *Store) PutRaw(hash string, raw json.RawMessage) error {
	if !json.Valid(raw) {
		return fmt.Errorf("store: put %.12s…: payload is not valid JSON", hash)
	}
	s.bump(&s.cPuts)
	return s.b.Put(hash, raw)
}

// Scan visits every stored record in first-insertion order.
func (s *Store) Scan(fn func(hash string, payload json.RawMessage) error) error {
	return s.b.Scan(func(h string, p []byte) error { return fn(h, p) })
}

// Export writes every record as JSONL — exactly the default backend's
// file format, so the output of Export (storectl cat) is itself a valid
// JSONL store file. This is the migration path between backends; see
// docs/STORAGE.md.
func (s *Store) Export(w io.Writer) error {
	enc := json.NewEncoder(w)
	return s.b.Scan(func(h string, p []byte) error {
		return enc.Encode(record{Hash: h, Payload: p})
	})
}

// Len counts distinct stored hashes, answered from the backend's index.
func (s *Store) Len() int { return s.b.Len() }

// Hashes returns the distinct stored hashes in first-insertion order.
func (s *Store) Hashes() []string {
	var hs []string
	if err := s.b.Scan(func(h string, _ []byte) error { hs = append(hs, h); return nil }); err != nil {
		return nil
	}
	return hs
}

// Corrupt reports how many undecodable records the backend skipped (and,
// for the embedded backend, healed) since open.
func (s *Store) Corrupt() int { return s.b.Corrupt() }

// Kind names the backend: "jsonl" or "embedded".
func (s *Store) Kind() string { return s.kind }

// Path returns the backing file's path.
func (s *Store) Path() string { return s.path }

// Close releases the backend's resources. For file backends the
// in-memory index stays readable; further Puts fail.
func (s *Store) Close() error { return s.b.Close() }
