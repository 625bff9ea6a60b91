package journal_test

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/coord"
	"repro/internal/exp"
	"repro/internal/service"
	"repro/internal/store"
)

// The crash-point harness: every durable log the daemons keep is written
// through its own API, then every crash a file can show is replayed on a
// copy. Truncation at each byte offset is a kill mid-append; a flipped bit
// at each byte is damage the writer never made. Replay is compared as
// items, one string per effect a record has on what the user returns.

// replay is one reopened log: what it returned, and how to go on.
type replay struct {
	items   []string
	corrupt int
	add     func() error // appends one more record
	close   func() error
}

type crashUser struct {
	name string
	// frames marks the embedded store: CRC frames after a header, whose
	// scan stops at the first bad frame. The others are JSON lines.
	frames bool
	write  func(path string) error
	reopen func(path string) (*replay, error)
}

func TestCrashPoints(t *testing.T) {
	for _, u := range crashUsers() {
		t.Run(u.name, func(t *testing.T) { crashPoints(t, u) })
	}
}

func crashPoints(t *testing.T, u crashUser) {
	dir := t.TempDir()
	src, work := filepath.Join(dir, "log"), filepath.Join(dir, "work")
	if err := u.write(src); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 2048 {
		t.Fatalf("test log is %d bytes, want at most 2 KB", len(data))
	}
	header, recs := lineBounds(data)
	if u.frames {
		header, recs = frameBounds(data)
	}
	open := func(b []byte) *replay {
		t.Helper()
		if err := os.WriteFile(work, b, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := u.reopen(work)
		if err != nil {
			t.Fatalf("reopen of %q: %v", b, err)
		}
		return r
	}
	replayed := map[string][]string{}
	replayOf := func(b []byte) []string {
		t.Helper()
		if items, ok := replayed[string(b)]; ok {
			return items
		}
		r := open(b)
		if err := r.close(); err != nil {
			t.Fatal(err)
		}
		replayed[string(b)] = r.items
		return r.items
	}
	// The record add appends, as an item.
	r := open(nil)
	if err := r.add(); err != nil {
		t.Fatal(err)
	}
	r.close()
	added := replayOf(mustRead(t, work))
	if len(added) != 1 {
		t.Fatalf("an empty log plus one append replays %q, want one item", added)
	}
	if len(replayOf(data)) == 0 {
		t.Fatal("the intact log replays nothing")
	}

	// Truncation. The header of an embedded store is written once, by one
	// write, when the file is created; a cut inside it is not a state a
	// crash leaves, and the magic check refuses such a file.
	for cut := 0; cut <= len(data); cut++ {
		if cut > 0 && cut < header {
			continue
		}
		whole, inside := min(cut, header), 0
		for _, rec := range recs {
			if rec[1] <= cut {
				whole = rec[1]
			} else if rec[0] < cut {
				inside = 1
			}
		}
		want := replayOf(data[:whole])
		r := open(data[:cut])
		if !slices.Equal(r.items, want) || r.corrupt != inside {
			t.Errorf("cut at %d: replay %q with %d corrupt, want %q with %d", cut, r.items, r.corrupt, want, inside)
		}
		if err := r.add(); err != nil {
			t.Fatalf("cut at %d: append after reopen: %v", cut, err)
		}
		if err := r.close(); err != nil {
			t.Fatal(err)
		}
		r2, err := u.reopen(work)
		if err != nil {
			t.Fatalf("cut at %d: second reopen: %v", cut, err)
		}
		r2.close()
		// A healed torn line stays in a JSON-line log; the embedded store
		// truncates its torn frame.
		wantCorrupt := r.corrupt
		if u.frames {
			wantCorrupt = 0
		}
		if got, want := sorted(r2.items), sorted(append(r.items, added...)); !slices.Equal(got, want) || r2.corrupt != wantCorrupt {
			t.Errorf("cut at %d: after an append, replay %q with %d corrupt, want %q with %d", cut, got, r2.corrupt, want, wantCorrupt)
		}
	}

	// Bit flips, one per byte, rotating through the bit positions.
	all := replayOf(data)
	for i := header; i < len(data); i++ {
		flipped := slices.Clone(data)
		flipped[i] ^= 1 << (i % 8)
		r := open(flipped)
		got := r.items
		r.close()
		k := slices.IndexFunc(recs, func(rec [2]int) bool { return i < rec[1] || (!u.frames && i == rec[1]) })
		if u.frames {
			// The scan stops at the damaged frame.
			if want := replayOf(data[:recs[k][0]]); !slices.Equal(got, want) {
				t.Errorf("flip at %d, in frame %d: replay %q, want the frames before it, %q", i, k, got, want)
			}
			continue
		}
		// Without line k (and the next line, when the flipped byte was the
		// newline between them), what replays is what does not depend on
		// those lines. All of it must survive the flip; line k, decoded
		// differently, may add one item of its own.
		end := recs[k][1]
		if i == end && k+1 < len(recs) {
			end = recs[k+1][1]
		}
		without := replayOf(slices.Concat(data[:recs[k][0]], data[end+1:]))
		for _, it := range without {
			if slices.Contains(all, it) && !slices.Contains(got, it) {
				t.Errorf("flip at %d, in line %d: replay lost %q, which no damaged line holds; got %q", i, k, it, got)
			}
		}
		novel := 0
		for _, it := range got {
			if !slices.Contains(all, it) && !slices.Contains(without, it) {
				novel++
			}
		}
		if novel > 1 {
			t.Errorf("flip at %d, in line %d: replay %q holds %d items that neither the log nor the log without the line gives", i, k, got, novel)
		}
	}
}

// lineBounds gives each line's record as [start, newline).
func lineBounds(data []byte) (int, [][2]int) {
	var recs [][2]int
	start := 0
	for i, c := range data {
		if c == '\n' {
			recs = append(recs, [2]int{start, i})
			start = i + 1
		}
	}
	return 0, recs
}

// frameBounds gives each frame of an embedded store as [start, end),
// after its "ALSEMBED1\n" header.
func frameBounds(data []byte) (int, [][2]int) {
	const header = len("ALSEMBED1\n")
	var recs [][2]int
	for off := header; off+8 <= len(data); {
		n := 8 + int(binary.LittleEndian.Uint32(data[off:])) + int(binary.LittleEndian.Uint32(data[off+4:])) + 4
		recs = append(recs, [2]int{off, off + n})
		off += n
	}
	return header, recs
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sorted(items []string) []string {
	s := slices.Clone(items)
	slices.Sort(s)
	return s
}

// The logs' hashes, ids and keys differ in at least two characters, so no
// flipped bit turns one record's key into another's.
func crashUsers() []crashUser {
	req := func(seed int64) service.Request {
		return service.Request{Circuit: "Adder16", Metric: "nmed", Budget: 0.0244, Seed: seed}
	}
	job := func(seed int64) exp.Job {
		return exp.Job{Circuit: "Adder16", Method: "Ours", Metric: "NMED", Budget: 0.0244, Scale: "quick", Seed: seed}
	}
	return []crashUser{
		{
			name: "service-wal",
			write: func(path string) error {
				w, err := service.OpenWAL(path)
				if err != nil {
					return err
				}
				return errorsOf(
					w.Compact(nil, []service.WALJob{{ID: "f000101", Hash: "h-juliet", Status: "failed"}}),
					w.Accept("h-alpha", req(1)),
					w.Accept("h-bravo", req(2)),
					w.Resolve("done", "h-bravo", "f000202"),
					w.Accept("h-charlie", req(3)),
					w.Close(),
				)
			},
			reopen: func(path string) (*replay, error) {
				w, err := service.OpenWAL(path)
				if err != nil {
					return nil, err
				}
				r := &replay{corrupt: w.Corrupt(), close: w.Close,
					add: func() error { return w.Accept("h-new", req(9)) }}
				for _, p := range w.Pending() {
					r.items = append(r.items, fmt.Sprintf("pending %s %+v", p.Hash, p.Req))
				}
				for _, j := range w.Jobs() {
					r.items = append(r.items, fmt.Sprintf("job %+v", j))
				}
				return r, nil
			},
		},
		{
			name: "coord-wal",
			write: func(path string) error {
				w, err := coord.OpenWAL(path)
				if err != nil {
					return err
				}
				return errorsOf(
					w.Accept(coord.WALCell{Hash: "h-alpha", Job: job(1), Tenant: "acme", Priority: 2}),
					w.Accept(coord.WALCell{Hash: "h-bravo", Job: job(2)}),
					w.Sub(coord.WALSubscription{ID: "sub-1", URL: "http://sink/hook", Secret: "s3", Hashes: []string{"h-alpha", "h-bravo"}}),
					w.Resolve("done", "h-bravo"),
					w.Delivered("sub-1", "h-bravo"),
					w.Accept(coord.WALCell{Hash: "h-charlie", Job: job(3)}),
					w.Close(),
				)
			},
			reopen: func(path string) (*replay, error) {
				w, err := coord.OpenWAL(path)
				if err != nil {
					return nil, err
				}
				r := &replay{corrupt: w.Corrupt(), close: w.Close,
					add: func() error { return w.Accept(coord.WALCell{Hash: "h-new", Job: job(9)}) }}
				for _, c := range w.Pending() {
					r.items = append(r.items, fmt.Sprintf("pending %+v", c))
				}
				for _, s := range w.Subs() {
					r.items = append(r.items, fmt.Sprintf("sub %+v", s))
				}
				return r, nil
			},
		},
		storeUser("jsonl-store", false, store.OpenJSONL),
		storeUser("embedded-store", true, store.OpenEmbedded),
	}
}

func storeUser(name string, frames bool, open func(string) (*store.Store, error)) crashUser {
	return crashUser{
		name:   name,
		frames: frames,
		write: func(path string) error {
			s, err := open(path)
			if err != nil {
				return err
			}
			return errorsOf(
				s.Put("k-alpha", map[string]any{"ratio": 0.5, "err": 0.01}),
				s.Put("k-bravo", []int{1, 2, 3}),
				s.Put("k-charlie", "front"),
				s.Put("k-delta", map[string]string{"tag": "x"}),
				s.Close(),
			)
		},
		reopen: func(path string) (*replay, error) {
			s, err := open(path)
			if err != nil {
				return nil, err
			}
			r := &replay{corrupt: s.Corrupt(), close: s.Close,
				add: func() error { return s.Put("k-new", 42) }}
			err = s.Scan(func(h string, p json.RawMessage) error {
				r.items = append(r.items, h+"="+string(p))
				return nil
			})
			return r, err
		},
	}
}

func errorsOf(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
