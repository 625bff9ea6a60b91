// Package journal is the append-only log of newline-terminated JSON
// records under alsd's submission WAL, alscoord's WAL and the JSONL
// result store. It owns what crash recovery needs from such a file; its
// users are codecs that say which records they write, what each record
// means on replay, and what a rewrite keeps.
//
// The line rules, shared by every user (docs/STORAGE.md):
//
//   - Open scans the whole file in order. Blank lines are skipped; a line
//     that is not one JSON record, or that the user's apply rejects, is
//     counted in Corrupt and skipped, and the scan goes on.
//   - A final line without its newline (the torn tail of a killed append)
//     gets one before the first new append, so that append starts a line
//     of its own instead of joining the garbage.
//   - Append writes one record with one write at the file's end (the
//     file is opened O_APPEND, so handles sharing a file never overwrite
//     each other's lines); a WAL also fsyncs it before Append returns.
//   - Rewrite replaces the contents through a tmp file that is synced
//     before it is renamed over the log, and then syncs the directory.
//   - A WAL belongs to one process: Open takes an exclusive, non-blocking
//     flock that the log keeps until Close, and fails while another open
//     file holds it. Rewrite locks the tmp file before the rename, so the
//     file at the path is never without its owner.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// errLocked is Lock's answer, when told not to wait, while another open
// file holds a conflicting lock.
var errLocked = errors.New("journal: file is locked")

// Log is an open journal of records of type R. Its methods are safe for
// concurrent use.
type Log[R any] struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	wal     bool
	corrupt int
}

// Open opens (creating if needed) the journal at path and hands each
// decoded record to apply, in file order; apply returns false for a
// record that is not valid for its user, which counts as corrupt. A WAL
// (wal true) fsyncs every append and is owned by this Log until Close.
func Open[R any](path string, wal bool, apply func(*R) bool) (*Log[R], error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	l := &Log[R]{path: path, f: f, wal: wal}
	if err := l.load(apply); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

func (l *Log[R]) load(apply func(*R) bool) error {
	if l.wal {
		if err := l.own(); err != nil {
			return err
		}
	}
	sc := bufio.NewScanner(l.f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var r R
		if json.Unmarshal(line, &r) != nil || !apply(&r) {
			l.corrupt++
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("journal: scan %s: %w", l.path, err)
	}
	end, err := l.f.Seek(0, io.SeekEnd)
	if err != nil {
		return fmt.Errorf("journal: seek %s: %w", l.path, err)
	}
	if end == 0 {
		return nil
	}
	var last [1]byte
	if _, err := l.f.ReadAt(last[:], end-1); err != nil {
		return fmt.Errorf("journal: read tail of %s: %w", l.path, err)
	}
	if last[0] != '\n' {
		if _, err := l.f.Write([]byte{'\n'}); err != nil {
			return fmt.Errorf("journal: heal torn tail of %s: %w", l.path, err)
		}
	}
	return nil
}

// own takes the WAL's lock. The lock alone is not proof of ownership: if
// the owner's Rewrite renamed a new file over the path after this one was
// opened, the lock just taken covers an unlinked file.
func (l *Log[R]) own() error {
	inUse := fmt.Errorf("journal: %s is in use by another process; give each daemon its own -wal", l.path)
	if err := Lock(l.f, true, false); errors.Is(err, errLocked) {
		return inUse
	} else if err != nil {
		return fmt.Errorf("journal: lock %s: %w", l.path, err)
	}
	opened, err := l.f.Stat()
	if err != nil {
		return fmt.Errorf("journal: stat %s: %w", l.path, err)
	}
	if now, err := os.Stat(l.path); err != nil || !os.SameFile(opened, now) {
		return inUse
	}
	return nil
}

// Corrupt reports how many lines the open scan skipped.
func (l *Log[R]) Corrupt() int { return l.corrupt }

// Path returns the journal's file path.
func (l *Log[R]) Path() string { return l.path }

// Append writes r as one line; for a WAL the line is on disk when Append
// returns.
func (l *Log[R]) Append(r R) error {
	line, err := json.Marshal(&r)
	if err != nil {
		return fmt.Errorf("journal: append to %s: %w", l.path, err)
	}
	line = append(line, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("journal: %s is closed", l.path)
	}
	if _, err := l.f.Write(line); err != nil {
		return fmt.Errorf("journal: append to %s: %w", l.path, err)
	}
	if l.wal {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("journal: sync %s: %w", l.path, err)
		}
	}
	return nil
}

// Rewrite replaces the journal's contents with recs, in order, and later
// appends go to the new file. A crash at any point leaves either the old
// contents or the new ones at the path.
func (l *Log[R]) Rewrite(recs []R) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("journal: %s is closed", l.path)
	}
	tmp := l.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_RDWR|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: rewrite %s: %w", l.path, err)
	}
	if err := l.replaceWith(f, recs); err != nil {
		f.Close()
		os.Remove(tmp) //nolint:errcheck // best-effort cleanup
		return fmt.Errorf("journal: rewrite %s: %w", l.path, err)
	}
	l.f.Close() //nolint:errcheck // renamed over: nothing reads or writes it again
	l.f = f
	if err := syncDir(filepath.Dir(l.path)); err != nil {
		return fmt.Errorf("journal: rewrite %s: sync directory: %w", l.path, err)
	}
	return nil
}

// replaceWith writes recs to f, syncs it and renames it over the path. A
// WAL's lock is taken on f first, so it moves to the path with the file.
func (l *Log[R]) replaceWith(f *os.File, recs []R) error {
	if l.wal {
		if err := Lock(f, true, false); err != nil {
			return err
		}
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	return os.Rename(f.Name(), l.path)
}

// Close closes the file, releasing a WAL's lock; further appends and
// rewrites fail. Closing twice is harmless.
func (l *Log[R]) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
