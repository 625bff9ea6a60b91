// Result fan-out without per-client connections: clients subscribe a
// callback URL to a set of content hashes, and the coordinator POSTs each
// result exactly once (per process lifetime; at-least-once across a
// crash, deduplicated by the WAL's delivered records) as an HMAC-signed
// JSON envelope with capped-backoff retries. A subscription whose every
// hash has been delivered retires: its runner returns and it leaves the
// table every completion scans, and the next start's WAL compaction drops
// it.
//
// Verification recipe for subscribers (docs/OPERATIONS.md repeats it):
// read the raw request body, compute hex(HMAC-SHA256(secret, body)), and
// compare "sha256=<hex>" against the X-ALS-Signature header with a
// constant-time comparison — VerifySignature does exactly that.
package coord

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"repro/internal/exp"
	"repro/internal/service"
)

// SignatureHeader carries the envelope's HMAC: "sha256=<hex>".
const SignatureHeader = "X-ALS-Signature"

// Envelope is the webhook delivery body.
type Envelope struct {
	Subscription string        `json:"subscription"`
	Hash         string        `json:"hash"`
	Result       exp.JobResult `json:"result"`
}

// Sign computes the envelope signature header value for a body.
func Sign(secret, body []byte) string {
	mac := hmac.New(sha256.New, secret)
	mac.Write(body)
	return "sha256=" + hex.EncodeToString(mac.Sum(nil))
}

// VerifySignature checks a received signature header against the raw
// body in constant time.
func VerifySignature(secret, body []byte, header string) bool {
	return hmac.Equal([]byte(Sign(secret, body)), []byte(header))
}

// subscription is one registered callback. Mutable fields are guarded by
// the coordinator mutex; ch is buffered to the subscribed-hash count and
// the queued guard bounds sends, so enqueues never block.
type subscription struct {
	id     string
	url    string
	secret string
	hashes map[string]bool
	// delivered marks hashes whose envelope got a 2xx; queued marks those
	// sitting in ch or mid-attempt. Together they make in-process delivery
	// exactly-once per hash.
	delivered map[string]bool
	queued    map[string]bool
	ch        chan string
}

func (s *subscription) walState() WALSubscription {
	ws := WALSubscription{ID: s.id, URL: s.url, Secret: s.secret}
	for h := range s.hashes {
		ws.Hashes = append(ws.Hashes, h)
	}
	for h := range s.delivered {
		ws.Delivered = append(ws.Delivered, h)
	}
	return ws
}

// Subscribe registers a callback URL for a set of content hashes and
// returns the subscription id plus how many of the hashes are already
// done (their envelopes are queued immediately).
func (c *Coordinator) Subscribe(rawURL, secret string, hashes []string) (string, int, error) {
	u, err := url.Parse(rawURL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", 0, fmt.Errorf("coord: subscribe: %q is not an http(s) callback URL", rawURL)
	}
	if len(hashes) == 0 {
		return "", 0, fmt.Errorf("coord: subscribe: no hashes")
	}

	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		return "", 0, errDraining
	}
	c.subSeq++
	sub := &subscription{
		id:        fmt.Sprintf("sub-%04d", c.subSeq),
		url:       rawURL,
		secret:    secret,
		hashes:    map[string]bool{},
		delivered: map[string]bool{},
		queued:    map[string]bool{},
		ch:        make(chan string, len(hashes)),
	}
	for _, h := range hashes {
		sub.hashes[h] = true
	}
	c.subs[sub.id] = sub
	c.mu.Unlock()

	if c.opts.WAL != nil {
		if err := c.opts.WAL.Sub(sub.walState()); err != nil {
			c.log.Warn("wal append failed", "op", walOpSub, "sub", sub.id, "error", err)
		}
	}
	c.wg.Add(1)
	go c.runSubscription(sub)

	// Anything already finished delivers right away.
	ready := 0
	for h := range sub.hashes {
		if _, ok := c.resultFor(h); ok {
			c.mu.Lock()
			c.enqueueDeliveryLocked(sub, h)
			c.mu.Unlock()
			ready++
		}
	}
	c.log.Info("subscription registered", "sub", sub.id, "url", rawURL,
		"hashes", len(hashes), "already_done", ready)
	return sub.id, ready, nil
}

// restoreSubscription re-arms one WAL-recovered subscription: delivered
// hashes stay delivered, done-but-unacknowledged ones re-queue (the
// at-least-once half of the crash contract), the rest wait for their
// cells to finish. A subscription with every hash delivered is not
// re-armed, so the startup compaction drops it.
func (c *Coordinator) restoreSubscription(ws WALSubscription) {
	c.mu.Lock()
	// Keep the id sequence past every recovered id so fresh subscriptions
	// never collide with remembered ones.
	var n int
	if _, err := fmt.Sscanf(ws.ID, "sub-%d", &n); err == nil && n > c.subSeq {
		c.subSeq = n
	}
	sub := &subscription{
		id:        ws.ID,
		url:       ws.URL,
		secret:    ws.Secret,
		hashes:    map[string]bool{},
		delivered: map[string]bool{},
		queued:    map[string]bool{},
		ch:        make(chan string, len(ws.Hashes)),
	}
	for _, h := range ws.Hashes {
		sub.hashes[h] = true
	}
	for _, h := range ws.Delivered {
		if sub.hashes[h] {
			sub.delivered[h] = true
		}
	}
	if sub.fullyDelivered() {
		c.mu.Unlock()
		return
	}
	c.subs[sub.id] = sub
	c.mu.Unlock()
	c.wg.Add(1)
	go c.runSubscription(sub)
	for h := range sub.hashes {
		if sub.delivered[h] {
			continue
		}
		if _, ok := c.resultFor(h); ok {
			c.mu.Lock()
			c.enqueueDeliveryLocked(sub, h)
			c.mu.Unlock()
		}
	}
}

// matchSubsLocked collects the subscriptions watching hash; the caller
// then dispatches outside no lock via dispatchDeliveries. Coordinator
// mutex held.
func (c *Coordinator) matchSubsLocked(hash string) []*subscription {
	var out []*subscription
	for _, sub := range c.subs {
		if sub.hashes[hash] && !sub.delivered[hash] && !sub.queued[hash] {
			out = append(out, sub)
		}
	}
	return out
}

func (c *Coordinator) dispatchDeliveries(subs []*subscription, hash string) {
	if len(subs) == 0 {
		return
	}
	c.mu.Lock()
	for _, sub := range subs {
		c.enqueueDeliveryLocked(sub, hash)
	}
	c.mu.Unlock()
}

// enqueueDeliveryLocked queues one envelope at most once; coordinator
// mutex held. The channel is buffered to the subscribed-hash count and
// the queued guard caps sends at one per hash, so this never blocks.
func (c *Coordinator) enqueueDeliveryLocked(sub *subscription, hash string) {
	if !sub.hashes[hash] || sub.delivered[hash] || sub.queued[hash] {
		return
	}
	sub.queued[hash] = true
	sub.ch <- hash
}

// resultFor fetches a finished result by hash from the cell table or the
// shared store.
func (c *Coordinator) resultFor(hash string) (exp.JobResult, bool) {
	c.mu.Lock()
	if cl, ok := c.cells[hash]; ok && cl.status == service.StatusDone && cl.result != nil {
		r := *cl.result
		c.mu.Unlock()
		return r, true
	}
	c.mu.Unlock()
	var r exp.JobResult
	if ok, err := c.opts.Store.Decode(hash, &r); err == nil && ok {
		return r, true
	}
	return exp.JobResult{}, false
}

// runSubscription delivers one subscription's envelopes serially until
// every hash is delivered or the coordinator closes. A fully delivered
// subscription leaves c.subs before its runner returns, so no completion
// scans it again; an undelivered or abandoned hash keeps it armed.
func (c *Coordinator) runSubscription(sub *subscription) {
	defer c.wg.Done()
	for {
		select {
		case <-c.baseCtx.Done():
			return
		case hash := <-sub.ch:
			c.deliver(sub, hash)
			c.mu.Lock()
			retired := sub.fullyDelivered()
			if retired {
				delete(c.subs, sub.id)
			}
			c.mu.Unlock()
			if retired {
				return
			}
		}
	}
}

// fullyDelivered reports whether every subscribed hash has a 2xx
// (delivered only ever holds subscribed hashes); coordinator mutex held.
func (s *subscription) fullyDelivered() bool { return len(s.delivered) == len(s.hashes) }

// deliver POSTs one signed envelope with capped-backoff retries. Success
// is a 2xx: the delivery is recorded in the WAL so a restart will not
// repeat it. A spent retry budget leaves the hash undelivered-but-logged;
// the WAL still holds no delivered record, so the next coordinator start
// tries again.
func (c *Coordinator) deliver(sub *subscription, hash string) {
	r, ok := c.resultFor(hash)
	if !ok {
		// Completion raced eviction and the store lost it somehow; requeue
		// on the next completion of this hash.
		c.mu.Lock()
		sub.queued[hash] = false
		c.mu.Unlock()
		return
	}
	body, err := json.Marshal(Envelope{Subscription: sub.id, Hash: hash, Result: r})
	if err != nil {
		c.log.Error("webhook marshal failed", "sub", sub.id, "hash", hash, "error", err.Error())
		return
	}
	sig := Sign([]byte(sub.secret), body)

	sp := c.opts.Tracer.StartRoot("webhook.deliver")
	sp.SetAttr("sub", sub.id)
	sp.SetAttr("hash", hash)
	defer sp.End()

	backoff := c.opts.WebhookBackoff
	for attempt := 1; attempt <= c.opts.WebhookRetryBudget; attempt++ {
		if c.baseCtx.Err() != nil {
			return
		}
		req, err := http.NewRequestWithContext(c.baseCtx, http.MethodPost, sub.url, bytes.NewReader(body))
		if err != nil {
			c.log.Error("webhook request failed", "sub", sub.id, "hash", hash, "error", err.Error())
			return
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(SignatureHeader, sig)
		resp, err := c.opts.Client.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode >= 200 && resp.StatusCode < 300 {
				c.mu.Lock()
				sub.delivered[hash] = true
				c.mu.Unlock()
				if c.opts.WAL != nil {
					if werr := c.opts.WAL.Delivered(sub.id, hash); werr != nil {
						c.log.Warn("wal append failed", "op", walOpDelivered, "sub", sub.id, "error", werr)
					}
				}
				c.met.deliveries.Inc()
				sp.SetAttr("attempts", attempt)
				return
			}
			err = fmt.Errorf("HTTP %d", resp.StatusCode)
		}
		c.met.retries.Inc()
		c.log.Warn("webhook delivery failed", "sub", sub.id, "hash", hash,
			"attempt", attempt, "budget", c.opts.WebhookRetryBudget, "error", err.Error())
		if attempt == c.opts.WebhookRetryBudget {
			break
		}
		timer := time.NewTimer(backoff)
		select {
		case <-timer.C:
		case <-c.baseCtx.Done():
			timer.Stop()
			return
		}
		timer.Stop()
		if backoff *= 2; backoff > c.opts.WebhookMaxBackoff {
			backoff = c.opts.WebhookMaxBackoff
		}
	}
	sp.SetAttr("error", "retry budget spent")
	c.mu.Lock()
	sub.queued[hash] = false // a future completion (or restart) may retry
	c.mu.Unlock()
	c.log.Error("webhook delivery abandoned", "sub", sub.id, "hash", hash,
		"attempts", c.opts.WebhookRetryBudget)
}
