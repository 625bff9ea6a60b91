package journal

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

type fuzzRec struct {
	Op string `json:"op"`
	N  int    `json:"n,omitempty"`
}

// FuzzJournalOpen opens arbitrary file bytes as a journal, with and
// without the WAL's fsync and lock. Open must succeed; a record appended
// afterwards must come back on reopen behind the same records, with the
// same corrupt count; and Rewrite must leave exactly the records it was
// given.
func FuzzJournalOpen(f *testing.F) {
	f.Add([]byte(""), false)
	f.Add([]byte("{\"op\":\"a\",\"n\":1}\n{\"op\":\"b\"}\n"), true)
	f.Add([]byte("{\"op\":\"a\"}\n{\"op\":\"torn"), false)
	f.Add([]byte("\n \r\n{\"op\":\"\"}\nnot json\n[1]\n{\"op\":\"c\",\"n\":1e2}\n{\"op\":\"d\"}\r"), true)
	f.Fuzz(func(t *testing.T, data []byte, wal bool) {
		path := filepath.Join(t.TempDir(), "j")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var got []fuzzRec
		open := func() *Log[fuzzRec] {
			t.Helper()
			got = nil
			l, err := Open(path, wal, func(r *fuzzRec) bool {
				got = append(got, *r)
				return r.Op != ""
			})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			return l
		}
		l := open()
		want, corrupt := append(got, fuzzRec{Op: "appended", N: len(data)}), l.Corrupt()
		if err := l.Append(want[len(want)-1]); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l = open()
		if !reflect.DeepEqual(got, want) || l.Corrupt() != corrupt {
			t.Fatalf("reopen after an append gave %+v with %d corrupt, want %+v with %d", got, l.Corrupt(), want, corrupt)
		}
		keep := want[:0:0]
		for _, r := range want {
			if r.Op != "" {
				keep = append(keep, r)
			}
		}
		if err := l.Rewrite(keep); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l = open()
		defer l.Close()
		if !reflect.DeepEqual(got, keep) || l.Corrupt() != 0 {
			t.Fatalf("reopen after Rewrite(%+v) gave %+v with %d corrupt", keep, got, l.Corrupt())
		}
	})
}

// TestWALOwnership: a WAL is refused while another open file holds it,
// and also when the lock it gets covers a file the owner's Rewrite has
// already renamed a new file over. A log that is not a WAL takes no lock.
func TestWALOwnership(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	keep := func(*fuzzRec) bool { return true }
	for _, wal := range []bool{false, true} {
		a, err := Open(path, wal, keep)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Open(path, wal, keep)
		if wal != (err != nil) {
			t.Fatalf("wal=%v: a second Open gave error %v", wal, err)
		}
		if b != nil {
			b.Close()
		}
		a.Close()
	}

	// The race own guards: this Log opened the file, then the owner's
	// Rewrite renamed a new one over the path and closed the old one,
	// releasing its lock, before this Log took it.
	stale, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()
	owner, err := Open(path, true, keep)
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	if err := owner.Rewrite(nil); err != nil {
		t.Fatal(err)
	}
	l := &Log[fuzzRec]{path: path, f: stale, wal: true}
	if err := l.own(); err == nil {
		t.Fatal("own took a renamed-over file as the WAL")
	}
}
