package capserve

// The push plane: /debug/credits streams credit/health deltas to
// subscribed routers. Response headers and a single-delta fetch
// (?once=1, the same wire format) remain as degraded fallbacks for a
// router that cannot hold a subscription, but a live feed makes credit
// freshness an event, not a polling interval: every admission-queue
// transition publishes, and an idle server heartbeats, so a router's
// gauge is never staler than one heartbeat while the stream lives.
//
// The wire format is server-sent events: one `data: {json}` line per
// delta, flushed immediately. Each delta carries a sequence number
// drawn from one per-server atomic counter, so deltas are globally
// monotonic per backend — a subscriber (or two racing subscriber
// goroutines after a reconnect) can always discard the older of two
// deltas by comparing seq, never by guessing at clocks.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buildinfo"
)

// DefaultFeedHeartbeat is the idle republish interval of the
// /debug/credits stream: with no admissions to publish, subscribers
// still see a delta this often, which is what keeps a push-fed router's
// staleness TTL satisfied on a quiet fleet.
const DefaultFeedHeartbeat = 500 * time.Millisecond

// CreditDelta is one event on the /debug/credits push feed: the same
// headroom the response headers advertise, plus the health facts a
// router acts on (draining, build identity), stamped with a per-server
// monotonic sequence number.
type CreditDelta struct {
	// Seq is monotonically increasing per server process, starting
	// from the wall clock in nanoseconds at New, so a process restarted
	// on the same address continues above its predecessor. A subscriber
	// must ignore any delta whose Seq is <= the last one it applied.
	Seq uint64 `json:"seq"`
	// QueueFree is the accept-queue headroom (HeaderQueueFree's value).
	QueueFree int `json:"queue_free"`
	// FreeContexts is the runtime's unreserved context-token count
	// (HeaderFreeContexts's value).
	FreeContexts int `json:"free_contexts"`
	// Draining is true once shutdown has begun: in-flight requests
	// finish, but a router should stop sending new ones now, not after
	// its next scrape.
	Draining bool `json:"draining"`
	// Version is the serving build, so a fleet dashboard can spot a
	// half-rolled deploy from the feed alone.
	Version string `json:"version,omitempty"`
}

// creditFeed is the Server's subscriber registry. The publish fast path
// — no subscribers, the overwhelmingly common case for a standalone
// capserve — is one atomic load.
type creditFeed struct {
	nsubs atomic.Int32
	seq   atomic.Uint64
	mu    sync.Mutex
	subs  map[chan struct{}]struct{}
}

// subscribe registers a wakeup channel. The channel has capacity 1 and
// publish sends are non-blocking: wakeups coalesce, and the subscriber
// reads the *current* state when it wakes, so a missed send never means
// a missed state.
func (f *creditFeed) subscribe() chan struct{} {
	ch := make(chan struct{}, 1)
	f.mu.Lock()
	if f.subs == nil {
		f.subs = map[chan struct{}]struct{}{}
	}
	f.subs[ch] = struct{}{}
	f.mu.Unlock()
	f.nsubs.Add(1)
	return ch
}

func (f *creditFeed) unsubscribe(ch chan struct{}) {
	f.mu.Lock()
	delete(f.subs, ch)
	f.mu.Unlock()
	f.nsubs.Add(-1)
}

// publish wakes every subscriber. Called on the serving path (after a
// queue slot frees, on a shed, on SetDraining), so the no-subscriber
// cost had better be nothing: one atomic load.
func (f *creditFeed) publish() {
	if f.nsubs.Load() == 0 {
		return
	}
	f.mu.Lock()
	for ch := range f.subs {
		select {
		case ch <- struct{}{}:
		default: // a wakeup is already pending; it will read fresh state
		}
	}
	f.mu.Unlock()
}

// creditDelta composes the next delta from live state, allocating its
// sequence number at composition — two concurrent subscriber goroutines
// each get distinct, ordered seqs.
func (s *Server) creditDelta() CreditDelta {
	return CreditDelta{
		Seq:          s.feed.seq.Add(1),
		QueueFree:    cap(s.queue) - len(s.queue),
		FreeContexts: s.rt.FreeContexts(),
		Draining:     s.draining.Load(),
		Version:      buildinfo.Get().Version,
	}
}

// handleCredits is GET /debug/credits: a server-sent-event stream of
// CreditDeltas. The first delta is sent immediately (a subscription is
// also a snapshot), then one per publish or heartbeat. The stream ends
// when the client goes away or the server starts draining — a draining
// server must not hold subscriber connections open, or graceful
// Shutdown would wait on them; the final delta carries Draining=true so
// the subscriber learns why before the EOF.
//
// GET /debug/credits?once=1 answers with one delta as a plain JSON body
// instead: the fallback a router fetches for a backend whose stream it
// has lost. It is served while draining too, because the Draining bit
// is exactly what that router needs to learn.
func (s *Server) handleCredits(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("once") == "1" {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(s.creditDelta())
		return
	}
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	send := func() (draining bool, err error) {
		d := s.creditDelta()
		raw, merr := json.Marshal(d)
		if merr != nil {
			return d.Draining, merr
		}
		if _, err = fmt.Fprintf(w, "data: %s\n\n", raw); err != nil {
			return d.Draining, err
		}
		fl.Flush()
		return d.Draining, nil
	}

	ch := s.feed.subscribe()
	defer s.feed.unsubscribe(ch)
	if draining, err := send(); draining || err != nil {
		return
	}
	hb := time.NewTicker(s.feedHeartbeat)
	defer hb.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-ch:
		case <-hb.C:
		}
		if draining, err := send(); draining || err != nil {
			return
		}
	}
}
