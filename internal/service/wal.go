// The submission write-ahead log. A 202 Accepted is a promise; without a
// WAL, a daemon SIGKILLed with jobs queued or running breaks it silently
// — the client polls a restarted process that has never heard of the job.
// The WAL makes the promise durable: every genuinely queued submission
// appends an accept record before the 202 goes out, every terminal
// transition appends a completion record, and a restarting Server replays
// the unresolved accepts through the normal Submit path. Replayed jobs
// whose results were already persisted are answered from the store
// (bit-identical, no recomputation — the content-hash dedup contract);
// only genuinely lost work runs again.
//
// On-disk format (a frozen contract — docs/STORAGE.md): one JSON object
// per line, append-only,
//
//	{"op":"accept","hash":"<content hash>","req":{...Request...}}
//	{"op":"done","hash":"<content hash>","id":"f000123"}   // or "failed"/"cancelled"
//	{"op":"job","id":"f000123","hash":"<content hash>","status":"done"}
//
// Terminal records carry the job's table ID (PR 10; absent in older
// logs, which still parse), and "job" records — written by Compact — are
// the durable job-table snapshot: id → hash/status mappings that let a
// restarted daemon keep answering /v2 polls (status, result, events,
// cancel) for jobs that finished (or were evicted) before the crash,
// instead of 404ing ids it once promised.
//
// The file is corrupt-tolerant the same way the JSONL store is: an
// undecodable line (the torn tail of a SIGKILLed append) is skipped and
// counted, every whole record is kept, and a partial tail is newline-
// terminated before new appends. On startup, once replay has re-queued
// the losses, the Server compacts the log — rewrites it to hold exactly
// the still-live accepts via tmp+rename — so it stays proportional to the
// in-flight set, not to the daemon's lifetime.
package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// walOpAccept marks an accepted submission; terminal records use the
// job's Status string ("done", "failed", "cancelled") as their op, and
// walOpJob records one row of the compacted job-table snapshot.
const (
	walOpAccept = "accept"
	walOpJob    = "job"
)

// walRecord is one WAL line.
type walRecord struct {
	Op   string `json:"op"`
	Hash string `json:"hash"`
	// ID is the job-table id, present on terminal and job records so the
	// id → hash mapping survives a restart.
	ID string `json:"id,omitempty"`
	// Status is present on job (snapshot) records only.
	Status string `json:"status,omitempty"`
	// Req is present on accept records only: the validated submission,
	// canonicalized so replay re-validates to the identical content hash.
	Req *Request `json:"req,omitempty"`
}

// WALPending is one accepted submission with no terminal record — work a
// crashed daemon still owes its clients.
type WALPending struct {
	Hash string
	Req  Request
}

// WALJob is one durable job-table row: a terminal job id and where its
// result lives. A restarted Server loads these as tombstones so old ids
// keep resolving.
type WALJob struct {
	ID     string
	Hash   string
	Status string
}

// WAL is the submission write-ahead log. Open it with OpenWAL, hand it to
// service.New via Options.WAL (the Server replays and compacts it), and
// Close it after Drain/Close returns. Appends are serialized and synced
// to the file before they return.
type WAL struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	pending []WALPending
	jobs    []WALJob
	corrupt int
}

// OpenWAL loads (or creates) the WAL at path and scans it: accepts
// without a matching terminal record become Pending, in first-accept
// order. Undecodable lines are skipped and counted in Corrupt.
func OpenWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("service: open wal: %w", err)
	}
	w := &WAL{path: path, f: f}
	open := map[string]*WALPending{} // hash → live accept
	jobs := map[string]WALJob{}      // id → terminal row (last wins)
	var order, jobOrder []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var r walRecord
		if err := json.Unmarshal(line, &r); err != nil || r.Hash == "" || r.Op == "" {
			w.corrupt++
			continue
		}
		switch r.Op {
		case walOpAccept:
			if r.Req == nil {
				w.corrupt++
				continue
			}
			if _, seen := open[r.Hash]; !seen {
				order = append(order, r.Hash)
			}
			open[r.Hash] = &WALPending{Hash: r.Hash, Req: *r.Req}
		case string(StatusDone), string(StatusFailed), string(StatusCancelled):
			delete(open, r.Hash)
			if r.ID != "" {
				if _, seen := jobs[r.ID]; !seen {
					jobOrder = append(jobOrder, r.ID)
				}
				jobs[r.ID] = WALJob{ID: r.ID, Hash: r.Hash, Status: r.Op}
			}
		case walOpJob:
			if r.ID == "" || r.Status == "" {
				w.corrupt++
				continue
			}
			if _, seen := jobs[r.ID]; !seen {
				jobOrder = append(jobOrder, r.ID)
			}
			jobs[r.ID] = WALJob{ID: r.ID, Hash: r.Hash, Status: r.Status}
		default:
			w.corrupt++
		}
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, fmt.Errorf("service: scan wal %s: %w", path, err)
	}
	for _, h := range order {
		if p, ok := open[h]; ok {
			w.pending = append(w.pending, *p)
		}
	}
	for _, id := range jobOrder {
		w.jobs = append(w.jobs, jobs[id])
	}
	// Newline-terminate a torn tail so the next append starts a fresh line
	// (same heal the JSONL store applies).
	if end, err := f.Seek(0, 2); err == nil && end > 0 {
		buf := make([]byte, 1)
		if _, err := f.ReadAt(buf, end-1); err == nil && buf[0] != '\n' {
			if _, err := f.Write([]byte("\n")); err != nil {
				f.Close()
				return nil, fmt.Errorf("service: terminate wal tail: %w", err)
			}
		}
	}
	return w, nil
}

// Pending returns the unresolved accepts found at open, in first-accept
// order. The slice is a snapshot of the open scan; later appends don't
// change it.
func (w *WAL) Pending() []WALPending {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]WALPending(nil), w.pending...)
}

// Jobs returns the durable job-table rows found at open (snapshot
// records plus terminal records carrying ids), oldest first.
func (w *WAL) Jobs() []WALJob {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]WALJob(nil), w.jobs...)
}

// Corrupt reports how many undecodable lines the open scan skipped.
func (w *WAL) Corrupt() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.corrupt
}

// Path returns the log file's path.
func (w *WAL) Path() string { return w.path }

// Accept records an accepted submission. It must return before the
// client's 202 does — that ordering is the durability guarantee.
func (w *WAL) Accept(hash string, req Request) error {
	return w.append(walRecord{Op: walOpAccept, Hash: hash, Req: &req})
}

// Resolve records a terminal transition (op is the Status string). The
// job id, when known, makes the id → hash mapping durable; "" is fine
// (replay-rejection records have no table entry).
func (w *WAL) Resolve(op, hash, id string) error {
	return w.append(walRecord{Op: op, Hash: hash, ID: id})
}

func (w *WAL) append(r walRecord) error {
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("service: wal append: %w", err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("service: wal %s is closed", w.path)
	}
	if _, err := w.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("service: wal append: %w", err)
	}
	// Write-through to the disk, not just the page cache: the record must
	// survive power loss, not only a killed process, before the 202 goes
	// out. Submission rate is human-scale; the fsync cost is noise.
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("service: wal sync: %w", err)
	}
	return nil
}

// Compact rewrites the log to hold exactly live (one accept record each)
// plus the durable job-table snapshot (one job record per remembered
// terminal id), via tmp file + rename, and reopens it for appending. The
// Server calls it once per startup, after replay; a Resolve racing the
// rewrite is lost with the old file, which only means the next restart
// replays a store-answered submission — harmless, by the dedup contract.
func (w *WAL) Compact(live []WALPending, jobs []WALJob) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("service: wal %s is closed", w.path)
	}
	tmp := w.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("service: compact wal: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range jobs {
		if err := enc.Encode(walRecord{Op: walOpJob, ID: jobs[i].ID, Hash: jobs[i].Hash, Status: jobs[i].Status}); err != nil {
			f.Close()
			os.Remove(tmp) //nolint:errcheck // best-effort cleanup
			return fmt.Errorf("service: compact wal: %w", err)
		}
	}
	for i := range live {
		if err := enc.Encode(walRecord{Op: walOpAccept, Hash: live[i].Hash, Req: &live[i].Req}); err != nil {
			f.Close()
			os.Remove(tmp) //nolint:errcheck // best-effort cleanup
			return fmt.Errorf("service: compact wal: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		os.Remove(tmp) //nolint:errcheck // best-effort cleanup
		return fmt.Errorf("service: compact wal: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp) //nolint:errcheck // best-effort cleanup
		return fmt.Errorf("service: compact wal: %w", err)
	}
	if err := os.Rename(tmp, w.path); err != nil {
		os.Remove(tmp) //nolint:errcheck // best-effort cleanup
		return fmt.Errorf("service: compact wal: %w", err)
	}
	nf, err := os.OpenFile(w.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("service: reopen compacted wal: %w", err)
	}
	w.f.Close() //nolint:errcheck // the old handle's file was renamed away
	w.f = nf
	return nil
}

// Close closes the log file; further appends fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}
