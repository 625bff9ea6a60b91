package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// backendsUnderTest returns a constructor for each backend kind so the
// conformance suite below runs identically against both.
func backendsUnderTest(t *testing.T) map[string]func(t *testing.T) *Store {
	t.Helper()
	return map[string]func(t *testing.T) *Store{
		"jsonl": func(t *testing.T) *Store {
			s, err := OpenJSONL(filepath.Join(t.TempDir(), "s.jsonl"))
			if err != nil {
				t.Fatalf("OpenJSONL: %v", err)
			}
			return s
		},
		"embedded": func(t *testing.T) *Store {
			s, err := OpenEmbedded(filepath.Join(t.TempDir(), "s.emb"))
			if err != nil {
				t.Fatalf("OpenEmbedded: %v", err)
			}
			return s
		},
	}
}

// TestBackendConformance pins the shared Backend contract for every
// implementation: miss → hit, overwrite (last writer wins), derived
// "/front" keys, Scan order and completeness, Decode error semantics.
func TestBackendConformance(t *testing.T) {
	for kind, open := range backendsUnderTest(t) {
		t.Run(kind, func(t *testing.T) {
			s := open(t)
			defer s.Close()

			if s.Kind() != kind {
				t.Fatalf("Kind() = %q, want %q", s.Kind(), kind)
			}
			if _, ok := s.Get("absent"); ok {
				t.Fatal("Get on empty store reported a hit")
			}
			var out map[string]any
			if ok, err := s.Decode("absent", &out); ok || err != nil {
				t.Fatalf("Decode(absent) = (%v, %v), want (false, nil)", ok, err)
			}

			type payload struct {
				N int    `json:"n"`
				S string `json:"s"`
			}
			hashes := make([]string, 6)
			for i := range hashes {
				h, err := Hash(map[string]int{"cell": i})
				if err != nil {
					t.Fatalf("Hash: %v", err)
				}
				hashes[i] = h
				if err := s.Put(h, payload{N: i, S: "v1"}); err != nil {
					t.Fatalf("Put: %v", err)
				}
			}
			// Derived key alongside a plain hash.
			front := hashes[0] + "/front"
			if err := s.Put(front, []int{1, 2, 3}); err != nil {
				t.Fatalf("Put front key: %v", err)
			}
			// Overwrite: last writer wins.
			if err := s.Put(hashes[2], payload{N: 2, S: "v2"}); err != nil {
				t.Fatalf("Put overwrite: %v", err)
			}

			for i, h := range hashes {
				var p payload
				ok, err := s.Decode(h, &p)
				if err != nil || !ok {
					t.Fatalf("Decode(%d) = (%v, %v)", i, ok, err)
				}
				wantS := "v1"
				if i == 2 {
					wantS = "v2"
				}
				if p.N != i || p.S != wantS {
					t.Fatalf("Decode(%d) = %+v, want {%d %s}", i, p, i, wantS)
				}
			}
			var f []int
			if ok, err := s.Decode(front, &f); err != nil || !ok || len(f) != 3 {
				t.Fatalf("Decode(front) = (%v, %v, %v)", f, ok, err)
			}

			if got, want := s.Len(), len(hashes)+1; got != want {
				t.Fatalf("Len() = %d, want %d", got, want)
			}
			wantOrder := append(append([]string(nil), hashes...), front)
			if got := s.Hashes(); fmt.Sprint(got) != fmt.Sprint(wantOrder) {
				t.Fatalf("Hashes() = %v, want %v", got, wantOrder)
			}

			// Scan must visit each key once with the latest payload, and
			// propagate fn's error.
			seen := map[string]bool{}
			if err := s.Scan(func(h string, p json.RawMessage) error {
				if seen[h] {
					return fmt.Errorf("hash %s visited twice", h)
				}
				seen[h] = true
				if !json.Valid(p) {
					return fmt.Errorf("invalid payload for %s", h)
				}
				return nil
			}); err != nil {
				t.Fatalf("Scan: %v", err)
			}
			if len(seen) != len(hashes)+1 {
				t.Fatalf("Scan visited %d keys, want %d", len(seen), len(hashes)+1)
			}
			wantErr := fmt.Errorf("stop")
			if err := s.Scan(func(string, json.RawMessage) error { return wantErr }); err != wantErr {
				t.Fatalf("Scan error propagation: got %v", err)
			}

			// Export emits valid JSONL-store lines for every record.
			var buf bytes.Buffer
			if err := s.Export(&buf); err != nil {
				t.Fatalf("Export: %v", err)
			}
			lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
			if len(lines) != len(hashes)+1 {
				t.Fatalf("Export wrote %d lines, want %d", len(lines), len(hashes)+1)
			}
			var r record
			if err := json.Unmarshal(lines[0], &r); err != nil || r.Hash == "" {
				t.Fatalf("Export line undecodable: %v (%s)", err, lines[0])
			}

			// Undecodable-for-schema payload is a present-record error.
			var wrong int
			if ok, err := s.Decode(hashes[0], &wrong); !ok || err == nil {
				t.Fatalf("Decode with wrong schema = (%v, %v), want (true, err)", ok, err)
			}

			// PutRaw rejects garbage before it can corrupt the file.
			if err := s.PutRaw("badkey", json.RawMessage("{not json")); err == nil {
				t.Fatal("PutRaw accepted invalid JSON")
			}
		})
	}
}

// TestBackendPersistence reopens each file-backed store and checks every
// record (including overwrites and derived keys) survives.
func TestBackendPersistence(t *testing.T) {
	for _, kind := range []string{"jsonl", "embedded"} {
		t.Run(kind, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "s.db")
			s, err := OpenKind(kind, path)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			if err := s.Put("aaaa", map[string]string{"v": "1"}); err != nil {
				t.Fatalf("put: %v", err)
			}
			if err := s.Put("bbbb", map[string]string{"v": "2"}); err != nil {
				t.Fatalf("put: %v", err)
			}
			if err := s.Put("aaaa", map[string]string{"v": "3"}); err != nil {
				t.Fatalf("overwrite: %v", err)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}

			// Auto-detection must pick the right backend back up.
			s2, err := Open(path)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer s2.Close()
			if s2.Kind() != kind {
				t.Fatalf("auto-detected kind %q, want %q", s2.Kind(), kind)
			}
			var out map[string]string
			if ok, err := s2.Decode("aaaa", &out); !ok || err != nil || out["v"] != "3" {
				t.Fatalf("aaaa after reopen = (%v, %v, %v), want v=3", out, ok, err)
			}
			if ok, err := s2.Decode("bbbb", &out); !ok || err != nil || out["v"] != "2" {
				t.Fatalf("bbbb after reopen = (%v, %v, %v), want v=2", out, ok, err)
			}
			if got := s2.Len(); got != 2 {
				t.Fatalf("Len after reopen = %d, want 2", got)
			}
		})
	}
}

// TestEmbeddedTornTail simulates a writer SIGKILLed mid-append: the file
// holds whole records plus a torn frame. Reopen must keep every whole
// record, count the tail corrupt, and heal it so the next Put appends on
// a clean boundary.
func TestEmbeddedTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.emb")
	s, err := OpenEmbedded(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put(fmt.Sprintf("h%04d", i), map[string]int{"i": i}); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Append half a frame: a plausible header and a few body bytes.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatalf("reopen raw: %v", err)
	}
	if _, err := f.Write([]byte{6, 0, 0, 0, 200, 0, 0, 0, 'h', 'a', 'l'}); err != nil {
		t.Fatalf("write torn frame: %v", err)
	}
	f.Close()

	s2, err := OpenEmbedded(path)
	if err != nil {
		t.Fatalf("reopen after tear: %v", err)
	}
	defer s2.Close()
	if got := s2.Len(); got != 3 {
		t.Fatalf("Len after tear = %d, want 3", got)
	}
	if got := s2.Corrupt(); got != 1 {
		t.Fatalf("Corrupt after tear = %d, want 1", got)
	}
	// The heal must leave a clean append point.
	if err := s2.Put("h0003", map[string]int{"i": 3}); err != nil {
		t.Fatalf("put after heal: %v", err)
	}
	if err := s2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	s3, err := OpenEmbedded(path)
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	defer s3.Close()
	if got := s3.Len(); got != 4 {
		t.Fatalf("Len after heal+append = %d, want 4", got)
	}
	if got := s3.Corrupt(); got != 0 {
		t.Fatalf("Corrupt on clean file = %d, want 0", got)
	}
}

// FuzzEmbeddedOpen opens arbitrary bytes after the magic header as an
// embedded store. Open must succeed, keeping whatever whole frames lead
// the bytes, and a Put afterwards must come back on reopen behind them,
// with the torn rest gone (Corrupt 0).
func FuzzEmbeddedOpen(f *testing.F) {
	valid := func(k, v string) []byte {
		rec := binary.LittleEndian.AppendUint32(nil, uint32(len(k)))
		rec = binary.LittleEndian.AppendUint32(rec, uint32(len(v)))
		rec = append(append(rec, k...), v...)
		return binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(rec[8:]))
	}
	f.Add([]byte{})
	f.Add(valid("h1", `{"a":1}`))
	f.Add(append(valid("h1", `1`), 6, 0, 0, 0, 200, 0, 0, 0, 'h', 'a', 'l'))
	f.Add(append(valid("h1", `1`), 1, 0, 0, 0, 255, 255, 255, 3))
	f.Fuzz(func(t *testing.T, tail []byte) {
		path := filepath.Join(t.TempDir(), "s.emb")
		if err := os.WriteFile(path, append([]byte(embMagic), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenEmbedded(path)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		before := s.Hashes()
		if err := s.PutRaw("fuzz-put", json.RawMessage(`{"n":1}`)); err != nil {
			t.Fatalf("put: %v", err)
		}
		s.Close()
		s2, err := OpenEmbedded(path)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer s2.Close()
		want := append(before, "fuzz-put")
		if slices.Contains(before, "fuzz-put") {
			want = before
		}
		if got := s2.Hashes(); !slices.Equal(got, want) || s2.Corrupt() != 0 {
			t.Fatalf("reopen gave %q with %d corrupt, want %q with 0", got, s2.Corrupt(), want)
		}
		if raw, ok := s2.Get("fuzz-put"); !ok || string(raw) != `{"n":1}` {
			t.Fatalf("Get after reopen = %q, %v", raw, ok)
		}
	})
}

// TestEmbeddedTwoHandles opens the same file twice (as two daemons on one
// host would) and checks writes through one handle become visible through
// the other — the cross-process sharing contract, exercised in-process
// with two independent backend instances and real flock calls.
func TestEmbeddedTwoHandles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.emb")
	a, err := OpenEmbedded(path)
	if err != nil {
		t.Fatalf("open a: %v", err)
	}
	defer a.Close()
	b, err := OpenEmbedded(path)
	if err != nil {
		t.Fatalf("open b: %v", err)
	}
	defer b.Close()

	if err := a.Put("written-by-a", map[string]int{"n": 1}); err != nil {
		t.Fatalf("a.Put: %v", err)
	}
	var out map[string]int
	if ok, err := b.Decode("written-by-a", &out); !ok || err != nil || out["n"] != 1 {
		t.Fatalf("b sees a's write = (%v, %v, %v)", out, ok, err)
	}
	if err := b.Put("written-by-b", map[string]int{"n": 2}); err != nil {
		t.Fatalf("b.Put: %v", err)
	}
	if ok, err := a.Decode("written-by-b", &out); !ok || err != nil || out["n"] != 2 {
		t.Fatalf("a sees b's write = (%v, %v, %v)", out, ok, err)
	}
	// Interleaved appends must all survive a fresh open.
	c, err := OpenEmbedded(path)
	if err != nil {
		t.Fatalf("open c: %v", err)
	}
	defer c.Close()
	if got := c.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
}

// TestJSONLTwoHandles opens one JSONL file twice and appends through both:
// each handle writes at the file's end, so a reopen finds every record
// and no corrupt line, whichever handle wrote last.
func TestJSONLTwoHandles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.jsonl")
	a, err := OpenJSONL(path)
	if err != nil {
		t.Fatalf("open a: %v", err)
	}
	defer a.Close()
	b, err := OpenJSONL(path)
	if err != nil {
		t.Fatalf("open b: %v", err)
	}
	defer b.Close()
	for _, put := range []struct {
		s    *Store
		hash string
	}{{a, "from-a-1"}, {b, "from-b"}, {a, "from-a-2"}} {
		if err := put.s.Put(put.hash, map[string]string{"by": put.hash}); err != nil {
			t.Fatalf("put %s: %v", put.hash, err)
		}
	}
	c, err := OpenJSONL(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer c.Close()
	if c.Len() != 3 || c.Corrupt() != 0 {
		t.Fatalf("reopen found %d records and %d corrupt lines, want 3 and 0", c.Len(), c.Corrupt())
	}
	for _, h := range []string{"from-a-1", "from-b", "from-a-2"} {
		var out map[string]string
		if ok, err := c.Decode(h, &out); !ok || err != nil || out["by"] != h {
			t.Fatalf("record %s after reopen = (%v, %v, %v)", h, out, ok, err)
		}
	}
}

// TestOpenKindRejectsMismatch pins the safety rails: opening a JSONL file
// as embedded fails loudly (bad magic) rather than treating the JSON text
// as binary frames, and an unknown kind — the retired "remote" one
// included — is an error.
func TestOpenKindRejectsMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.jsonl")
	s, err := OpenJSONL(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := s.Put("aaaa", map[string]int{"n": 1}); err != nil {
		t.Fatalf("put: %v", err)
	}
	s.Close()

	if _, err := OpenEmbedded(path); err == nil {
		t.Fatal("OpenEmbedded accepted a JSONL file")
	}
	if _, err := OpenKind("bolt", path); err == nil {
		t.Fatal("OpenKind accepted an unknown kind")
	}
	if _, err := OpenKind("remote", "http://127.0.0.1:8080"); err == nil {
		t.Fatal("OpenKind accepted the retired remote kind")
	}
}
