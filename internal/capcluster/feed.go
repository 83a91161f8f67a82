package capcluster

// The subscriber half of the push plane: one goroutine per backend
// holds a long-lived GET /debug/credits stream (capserve/feed.go) and
// folds each delta into that backend's credit gauge. It is the gauge's
// only live signal; the Refresh fetch (one delta of the same wire
// format, through the same seq guard) covers a backend whose stream is
// down.
//
// Liveness is watchdogged, not assumed: a timer armed *before* the
// subscription dial fires after Config.StaleTTL of silence and cancels
// the stream, so a black-holed feed — at connect time or mid-stream —
// costs one TTL, never a hung goroutine. Reconnects back off
// exponentially with the same deterministic per-backend jitter the
// half-open trial gate uses, so a fleet of routers losing the same
// backend does not resubscribe in lockstep.

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"strings"
	"time"
)

// StartFeeds subscribes to every backend's credit feed, one goroutine
// per backend, each reconnecting with jittered backoff until ctx is
// cancelled. A router without it learns only from Refresh fetches, so
// every serving router calls it: cmd/caprouter under the signal
// context, tests and benchmarks with their own.
func (r *Router) StartFeeds(ctx context.Context) {
	for _, b := range r.backends {
		go r.feedLoop(ctx, b)
	}
}

// RefreshSkipped returns the fetches Refresh has skipped because the
// push feed was fresh — the steady-state proof the push plane is live.
func (r *Router) RefreshSkipped() uint64 { return r.refreshSkipped.Load() }

func (r *Router) feedLoop(ctx context.Context, b *Backend) {
	var fails uint32
	for {
		err := r.feedOnce(ctx, b)
		if ctx.Err() != nil {
			return
		}
		if err != nil {
			fails++
		} else {
			// A clean end (the backend announced draining) still retries
			// — the replacement process will serve the same URL — but
			// from the base backoff, not wherever the failure ladder was.
			fails = 0
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(time.Duration(backoff(b.nameHash, fails, r.cfg.FeedBackoff.Nanoseconds()))):
		}
	}
}

// feedOnce runs one subscription: dial, then apply deltas until the
// stream ends. Returns nil only for a clean end (the backend's final
// Draining delta); everything else — connect failure, non-200, decode
// trouble ending the scan, watchdog cancellation — is an error that
// advances the reconnect backoff.
func (r *Router) feedOnce(ctx context.Context, b *Backend) error {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ttl := r.cfg.StaleTTL

	// The watchdog is armed before the dial on purpose: a backend that
	// black-holes the *connect* (capfault's feed blackhole, a silent
	// firewall) must cost one TTL, not an indefinitely parked goroutine.
	// Every event received rearms it.
	wd := time.AfterFunc(ttl, cancel)
	defer wd.Stop()

	req, err := http.NewRequestWithContext(sctx, http.MethodGet, b.url+"/debug/credits", nil)
	if err != nil {
		return err
	}
	resp, err := r.feed.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("capcluster: %s/debug/credits: %s", b.name, resp.Status)
	}
	b.feedConnects.Add(1)
	b.feedConnected.Store(true)
	defer b.feedConnected.Store(false)

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 512), 1<<16)
	clean := false
	for sc.Scan() {
		wd.Reset(ttl)
		raw, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue // event separators and comments
		}
		d, err := b.takeDelta([]byte(raw), true)
		if err != nil {
			continue
		}
		if d.Draining {
			// The stream's announced final event: the backend is going
			// away gracefully, and its gauge is already parked at zero.
			clean = true
			break
		}
	}
	if clean {
		return nil
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("capcluster: %s credit feed closed", b.name)
}
