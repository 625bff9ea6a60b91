package coord

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCoordWALRecordShapeFrozen pins the bytes of every record the
// coordinator's WAL writes, appended and compacted, as docs/STORAGE.md
// gives them: replay of today's files by every future coordinator, and
// e2ebench's wal.coord_bytes_per_req, depend on them.
func TestCoordWALRecordShapeFrozen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coord.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	cell := WALCell{Hash: "abc", Job: cheapJob(7), Tenant: "acme", Priority: 2}
	sub := WALSubscription{ID: "sub-1", URL: "http://sink/hook", Secret: "s3", Hashes: []string{"abc", "def"}}
	for _, err := range []error{
		w.Accept(cell),
		w.Resolve(walOpDone, "abc"),
		w.Resolve(walOpFailed, "def"),
		w.Sub(sub),
		w.Delivered("sub-1", "abc"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	const (
		accept    = `{"op":"accept","hash":"abc","tenant":"acme","priority":2,"job":{"circuit":"Adder16","method":"Ours","metric":"NMED","budget":0.0244,"scale":"quick","seed":7,"population":6,"iterations":3,"vectors":512}}` + "\n"
		subRec    = `{"op":"sub","sub_id":"sub-1","url":"http://sink/hook","secret":"s3","hashes":["abc","def"]}` + "\n"
		delivered = `{"op":"delivered","hash":"abc","sub_id":"sub-1"}` + "\n"
	)
	want := accept + `{"op":"done","hash":"abc"}` + "\n" + `{"op":"failed","hash":"def"}` + "\n" + subRec + delivered
	if got, err := os.ReadFile(path); err != nil || string(got) != want {
		t.Fatalf("appended records (%v):\n%s\nwant:\n%s", err, got, want)
	}

	sub.Delivered = []string{"abc"}
	if err := w.Compact([]WALCell{cell}, []WALSubscription{sub}); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != subRec+delivered+accept {
		t.Fatalf("compacted records (%v):\n%s\nwant:\n%s", err, got, subRec+delivered+accept)
	}
}

// TestWALSecondOpenRefused: one coordinator owns a WAL. A second one
// opening it would replay the first one's live accepts, and its startup
// compaction would rename a new file over the one the first still
// appends to.
func TestWALSecondOpenRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coord.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	refused := func(when string) {
		t.Helper()
		w2, err := OpenWAL(path)
		if err == nil {
			w2.Close()
			t.Fatalf("%s: a second OpenWAL of a WAL in use succeeded", when)
		}
		if msg := err.Error(); !strings.Contains(msg, path) || !strings.Contains(msg, "-wal") {
			t.Fatalf("%s: error %q should name %s and -wal", when, msg, path)
		}
	}
	refused("after open")
	if err := w.Accept(WALCell{Hash: "abc", Job: cheapJob(1)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Compact(w.Pending(), nil); err != nil {
		t.Fatal(err)
	}
	refused("after compaction")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w3, err := OpenWAL(path)
	if err != nil {
		t.Fatalf("OpenWAL after the owner closed: %v", err)
	}
	w3.Close()
}

// TestWALReacceptPendingOnce: a cell accepted, resolved and accepted
// again is owed once, so replay enqueues it once.
func TestWALReacceptPendingOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coord.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	cell := WALCell{Hash: "h1", Job: cheapJob(1)}
	for _, err := range []error{w.Accept(cell), w.Resolve(walOpDone, "h1"), w.Accept(cell)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	w, err = OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got := w.Pending(); len(got) != 1 || got[0].Hash != "h1" {
		t.Fatalf("Pending() = %+v, want h1 once", got)
	}
}
