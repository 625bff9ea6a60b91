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
//	{"op":"job","hash":"<content hash>","id":"f000123","status":"done"}
//
// Terminal records carry the job's table ID (PR 10; absent in older
// logs, which still parse), and "job" records — written by Compact — are
// the durable job-table snapshot: id → hash/status mappings that let a
// restarted daemon keep answering /v2 polls (status, result, events,
// cancel) for jobs that finished (or were evicted) before the crash,
// instead of 404ing ids it once promised.
//
// The file is an internal/journal WAL: corrupt lines are skipped and
// counted, a torn tail is healed, every append is fsynced, and one
// daemon owns the file. On startup, once replay has re-queued the losses,
// the Server compacts the log to the still-live accepts plus the job-table
// snapshot, so it stays proportional to the in-flight set, not to the
// daemon's lifetime.
package service

import "repro/internal/journal"

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
	log     *journal.Log[walRecord]
	pending []WALPending
	jobs    []WALJob
}

// OpenWAL loads (or creates) the WAL at path and scans it: accepts
// without a matching terminal record become Pending, in first-accept
// order. Undecodable lines are skipped and counted in Corrupt. It fails
// while another process has the WAL open.
func OpenWAL(path string) (*WAL, error) {
	open := map[string]*WALPending{} // hash → live accept
	jobs := map[string]WALJob{}      // id → terminal row (last wins)
	var order, jobOrder []string
	remember := func(j WALJob) {
		if _, seen := jobs[j.ID]; !seen {
			jobOrder = append(jobOrder, j.ID)
		}
		jobs[j.ID] = j
	}
	log, err := journal.Open(path, true, func(r *walRecord) bool {
		if r.Hash == "" || r.Op == "" {
			return false
		}
		switch r.Op {
		case walOpAccept:
			if r.Req == nil {
				return false
			}
			if _, seen := open[r.Hash]; !seen {
				order = append(order, r.Hash)
			}
			open[r.Hash] = &WALPending{Hash: r.Hash, Req: *r.Req}
		case string(StatusDone), string(StatusFailed), string(StatusCancelled):
			delete(open, r.Hash)
			if r.ID != "" {
				remember(WALJob{ID: r.ID, Hash: r.Hash, Status: r.Op})
			}
		case walOpJob:
			if r.ID == "" || r.Status == "" {
				return false
			}
			remember(WALJob{ID: r.ID, Hash: r.Hash, Status: r.Status})
		default:
			return false
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	w := &WAL{log: log}
	for _, h := range order {
		if p, ok := open[h]; ok {
			w.pending = append(w.pending, *p)
			delete(open, h) // a re-accepted hash is owed once
		}
	}
	for _, id := range jobOrder {
		w.jobs = append(w.jobs, jobs[id])
	}
	return w, nil
}

// Pending returns the unresolved accepts found at open, in first-accept
// order. The slice is a snapshot of the open scan; later appends don't
// change it.
func (w *WAL) Pending() []WALPending { return append([]WALPending(nil), w.pending...) }

// Jobs returns the durable job-table rows found at open (snapshot
// records plus terminal records carrying ids), oldest first.
func (w *WAL) Jobs() []WALJob { return append([]WALJob(nil), w.jobs...) }

// Corrupt reports how many undecodable lines the open scan skipped.
func (w *WAL) Corrupt() int { return w.log.Corrupt() }

// Path returns the log file's path.
func (w *WAL) Path() string { return w.log.Path() }

// Accept records an accepted submission. It must return before the
// client's 202 does — that ordering is the durability guarantee.
func (w *WAL) Accept(hash string, req Request) error {
	return w.log.Append(walRecord{Op: walOpAccept, Hash: hash, Req: &req})
}

// Resolve records a terminal transition (op is the Status string). The
// job id, when known, makes the id → hash mapping durable; "" is fine
// (replay-rejection records have no table entry).
func (w *WAL) Resolve(op, hash, id string) error {
	return w.log.Append(walRecord{Op: op, Hash: hash, ID: id})
}

// Compact rewrites the log to hold exactly live (one accept record each)
// plus the durable job-table snapshot (one job record per remembered
// terminal id). The Server calls it once per startup, after replay; a
// Resolve racing the rewrite is lost with the old file, which only means
// the next restart replays a store-answered submission — harmless, by the
// dedup contract.
func (w *WAL) Compact(live []WALPending, jobs []WALJob) error {
	recs := make([]walRecord, 0, len(jobs)+len(live))
	for _, j := range jobs {
		recs = append(recs, walRecord{Op: walOpJob, ID: j.ID, Hash: j.Hash, Status: j.Status})
	}
	for i := range live {
		recs = append(recs, walRecord{Op: walOpAccept, Hash: live[i].Hash, Req: &live[i].Req})
	}
	return w.log.Rewrite(recs)
}

// Close closes the log file; further appends fail.
func (w *WAL) Close() error { return w.log.Close() }
