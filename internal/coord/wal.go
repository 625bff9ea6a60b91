// The coordinator's write-ahead log. Like the service WAL it is an
// internal/journal WAL replayed on startup, but it covers the control
// plane's promises instead of one daemon's queue: accepted cells (with
// tenant and priority, so a replayed cell rejoins the same fair queue),
// their terminal transitions, result subscriptions, and completed
// webhook deliveries. A SIGKILLed coordinator therefore re-enqueues the
// cells it owed, re-arms its subscriptions, and re-delivers exactly the
// envelopes that never got a 2xx — at-least-once across the crash,
// exactly-once within one process lifetime.
//
// Record shapes (one JSON object per line):
//
//	{"op":"accept","hash":"…","tenant":"acme","priority":2,"job":{…exp.Job…}}
//	{"op":"done","hash":"…"}          // or "failed"
//	{"op":"sub","sub_id":"sub-1","url":"http://…","secret":"…","hashes":["…"]}
//	{"op":"delivered","hash":"…","sub_id":"sub-1"}
package coord

import (
	"repro/internal/exp"
	"repro/internal/journal"
)

// WAL op vocabulary.
const (
	walOpAccept    = "accept"
	walOpDone      = "done"
	walOpFailed    = "failed"
	walOpSub       = "sub"
	walOpDelivered = "delivered"
)

// walRecord is the on-disk union of every record shape.
type walRecord struct {
	Op       string   `json:"op"`
	Hash     string   `json:"hash,omitempty"`
	Tenant   string   `json:"tenant,omitempty"`
	Priority int      `json:"priority,omitempty"`
	Job      *exp.Job `json:"job,omitempty"`
	SubID    string   `json:"sub_id,omitempty"`
	URL      string   `json:"url,omitempty"`
	Secret   string   `json:"secret,omitempty"`
	Hashes   []string `json:"hashes,omitempty"`
}

// WALCell is one accepted cell with no terminal record — work a crashed
// coordinator still owes.
type WALCell struct {
	Hash     string
	Job      exp.Job
	Tenant   string
	Priority int
}

// WALSubscription is one recovered subscription: its registration plus
// the hashes whose envelopes already got a 2xx before the crash.
type WALSubscription struct {
	ID        string
	URL       string
	Secret    string
	Hashes    []string
	Delivered []string
}

// WAL is the append-only journal. Open with OpenWAL; every append is
// fsynced before it returns.
type WAL struct {
	log     *journal.Log[walRecord]
	pending []WALCell
	subs    []WALSubscription
}

// OpenWAL opens (creating if needed) the journal at path and scans it:
// unresolved accepts become Pending, subscription state becomes Subs.
// Undecodable lines are counted, not fatal. It fails while another
// process has the journal open.
func OpenWAL(path string) (*WAL, error) {
	open := map[string]*WALCell{}
	subs := map[string]*WALSubscription{}
	var order, subOrder []string
	log, err := journal.Open(path, true, func(r *walRecord) bool {
		switch r.Op {
		case walOpAccept:
			if r.Job == nil || r.Hash == "" {
				return false
			}
			if _, ok := open[r.Hash]; !ok {
				order = append(order, r.Hash)
			}
			open[r.Hash] = &WALCell{Hash: r.Hash, Job: *r.Job, Tenant: r.Tenant, Priority: r.Priority}
		case walOpDone, walOpFailed:
			delete(open, r.Hash)
		case walOpSub:
			if r.SubID == "" || r.URL == "" {
				return false
			}
			if _, ok := subs[r.SubID]; !ok {
				subOrder = append(subOrder, r.SubID)
			}
			subs[r.SubID] = &WALSubscription{ID: r.SubID, URL: r.URL, Secret: r.Secret, Hashes: r.Hashes}
		case walOpDelivered:
			if s, ok := subs[r.SubID]; ok {
				s.Delivered = append(s.Delivered, r.Hash)
			}
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
		if c, ok := open[h]; ok {
			w.pending = append(w.pending, *c)
			delete(open, h) // a re-accepted hash is owed once
		}
	}
	for _, id := range subOrder {
		w.subs = append(w.subs, *subs[id])
	}
	return w, nil
}

// Pending returns the accepted-but-unresolved cells found at open, in
// first-accept order.
func (w *WAL) Pending() []WALCell { return append([]WALCell(nil), w.pending...) }

// Subs returns the subscriptions found at open, registration order.
func (w *WAL) Subs() []WALSubscription { return append([]WALSubscription(nil), w.subs...) }

// Corrupt reports how many undecodable lines the open scan skipped.
func (w *WAL) Corrupt() int { return w.log.Corrupt() }

// Path returns the journal's file path.
func (w *WAL) Path() string { return w.log.Path() }

// Accept records one accepted cell; durable before it returns.
func (w *WAL) Accept(c WALCell) error { return w.log.Append(acceptRecord(c)) }

// Resolve records a cell's terminal transition (walOpDone or walOpFailed).
func (w *WAL) Resolve(op, hash string) error {
	return w.log.Append(walRecord{Op: op, Hash: hash})
}

// Sub records one subscription registration.
func (w *WAL) Sub(s WALSubscription) error { return w.log.Append(subRecord(s)) }

// Delivered records one 2xx-acknowledged envelope, so a restart does not
// re-deliver it.
func (w *WAL) Delivered(subID, hash string) error {
	return w.log.Append(walRecord{Op: walOpDelivered, SubID: subID, Hash: hash})
}

func acceptRecord(c WALCell) walRecord {
	return walRecord{Op: walOpAccept, Hash: c.Hash, Tenant: c.Tenant, Priority: c.Priority, Job: &c.Job}
}

func subRecord(s WALSubscription) walRecord {
	return walRecord{Op: walOpSub, SubID: s.ID, URL: s.URL, Secret: s.Secret, Hashes: s.Hashes}
}

// Compact rewrites the journal to exactly the live state — one sub plus
// its delivered records per subscription, one accept per still-pending
// cell. The coordinator calls it once per startup, after replay.
func (w *WAL) Compact(cells []WALCell, subs []WALSubscription) error {
	var recs []walRecord
	for _, s := range subs {
		recs = append(recs, subRecord(s))
		for _, h := range s.Delivered {
			recs = append(recs, walRecord{Op: walOpDelivered, SubID: s.ID, Hash: h})
		}
	}
	for _, c := range cells {
		recs = append(recs, acceptRecord(c))
	}
	return w.log.Rewrite(recs)
}

// Close releases the journal file.
func (w *WAL) Close() error { return w.log.Close() }
