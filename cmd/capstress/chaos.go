package main

// The chaos scenarios: the ROADMAP's hard cluster failures — churn
// (backends joining/leaving mid-run), slow-not-dead (a latency outlier
// that never errors), and a directional partition — each driven by
// internal/capfault against a live in-process fleet and held to the
// PR-4 standard: zero failed client requests, recorded in
// BENCH_capsule.json and gated in CI. The fault_overhead pair proves
// the injection layer is free when disarmed, the same standard the
// captrace/capwatch gates enforce.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/capcluster"
	"repro/internal/capfault"
	"repro/internal/capserve"
	"repro/internal/capsule/hotpath"
	"repro/internal/httptune"
)

// chaosScenario is one storm's tracked numbers. The load block is the
// client's view — Errors must be zero for the gated scenarios; the rest
// are the mechanism's observables (which machinery fired, proving the
// storm actually stormed).
type chaosScenario struct {
	Backends int `json:"backends"`
	Clients  int `json:"clients"`
	load
	credit

	Joins  int `json:"joins,omitempty"`  // churn: backends that (re)joined mid-run
	Leaves int `json:"leaves,omitempty"` // churn: backends that left mid-run

	Ejections  uint64 `json:"ejections,omitempty"` // slow: CheckSlow trips on the victim
	Readmitted bool   `json:"readmitted"`          // slow: victim served again after recovery

	Deaths        uint64 `json:"deaths,omitempty"`         // partition: attempt-deadline deaths
	BreakerDenies uint64 `json:"breaker_denies,omitempty"` // partition: fast denies while broken
}

// chaosResult groups the three storms in BENCH_capsule.json.
type chaosResult struct {
	Churn     *chaosScenario `json:"churn,omitempty"`
	Slow      *chaosScenario `json:"slow,omitempty"`
	Partition *chaosScenario `json:"partition,omitempty"`
}

// churnLoop is the join/leave storm: 4 backends, three of which take
// turns gracefully leaving (drained Close, a deploy) and rejoining *on
// the same address* (capserve.StartBackendOn) every few hundred
// milliseconds, while clients hammer the router. Dispatches to a
// departed backend die fast (connection refused), the breaker parks it,
// and the rejoin re-admits through the ordinary half-open trial — all
// invisible to clients.
func churnLoop(d time.Duration, n int) (*chaosScenario, error) {
	const nBackends = 4
	clients := clientCount(3, 12)
	f, router, url, err := routedFleet(nBackends, clients, capcluster.Config{
		FailThreshold: 2,
		FailWindow:    400 * time.Millisecond,
		Timeout:       5 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	defer f.close()

	var joins, leaves atomic.Int64
	stop := make(chan struct{})
	var churnWG sync.WaitGroup
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		// Backend 0 never churns: someone has to hold the fort. The rest
		// rotate: leave, dwell, rejoin on the same address, dwell.
		for i := 0; ; i++ {
			victim := 1 + i%(nBackends-1)
			b := f.backends[victim]
			addr := strings.TrimPrefix(b.URL, "http://")
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			b.Close(ctx)
			cancel()
			leaves.Add(1)
			select {
			case <-stop:
				return
			case <-time.After(150 * time.Millisecond):
			}
			nb, err := capserve.StartBackendOn(capserve.Config{QueueDepth: 4}, addr, nil)
			if err != nil {
				// The address can linger in TIME_WAIT under load; retry
				// once after a beat, then leave the slot down — the
				// zero-errors property must hold either way.
				select {
				case <-stop:
					return
				case <-time.After(200 * time.Millisecond):
				}
				if nb, err = capserve.StartBackendOn(capserve.Config{QueueDepth: 4}, addr, nil); err != nil {
					continue
				}
			}
			f.backends[victim] = nb
			joins.Add(1)
			// Re-learn the rejoined backend's capacity promptly (the
			// scrape ticker a live caprouter runs).
			router.Refresh()
			select {
			case <-stop:
				return
			case <-time.After(150 * time.Millisecond):
			}
		}
	}()

	run := storm([]string{url}, mixed, clients, n, d)
	close(stop)
	churnWG.Wait()
	return &chaosScenario{
		Backends: nBackends, Clients: clients, load: run.load(), credit: f.credit(),
		Joins: int(joins.Load()), Leaves: int(leaves.Load()),
	}, nil
}

// slowLoop is the slow-not-dead storm: one backend answers 2xx through
// an 80 ms capfault latency rule for the first half of the run — the
// failure an error breaker never sees. CheckSlow ticks throughout; it
// must eject the victim while the rule is armed, and the victim must
// re-admit (serve again) after the rule clears.
func slowLoop(d time.Duration, n int) (*chaosScenario, error) {
	const nBackends = 3
	clients := clientCount(3, 12)
	inj := capfault.New(0xC4A05)
	f, router, url, err := routedFleet(nBackends, clients, capcluster.Config{
		Transport:      inj.Transport(httptune.Transport(64)),
		FailThreshold:  2,
		FailWindow:     400 * time.Millisecond,
		Timeout:        5 * time.Second,
		SlowFactor:     4,
		SlowMinP99:     10 * time.Millisecond,
		SlowMinSamples: 8,
	})
	if err != nil {
		return nil, err
	}
	defer f.close()
	victim := router.Backends()[nBackends-1]
	victimHost := strings.TrimPrefix(f.urls[nBackends-1], "http://")
	if _, err := inj.Set(capfault.Rule{
		Kind:    capfault.KindLatency,
		Backend: victimHost,
		Delay:   80 * time.Millisecond,
		Jitter:  20 * time.Millisecond,
	}); err != nil {
		return nil, err
	}

	// The ejection ticker a live caprouter runs alongside Refresh.
	stop := make(chan struct{})
	var tickWG sync.WaitGroup
	tickWG.Add(1)
	go func() {
		defer tickWG.Done()
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				router.CheckSlow()
			}
		}
	}()
	// Halftime recovery: the backend "gets better".
	var servedAtClear atomic.Uint64
	halftime := time.AfterFunc(d/2, func() {
		inj.ClearAll()
		servedAtClear.Store(victim.Stats().Served)
	})
	defer halftime.Stop()

	run := storm([]string{url}, mixed, clients, n, d)
	close(stop)
	tickWG.Wait()
	st := victim.Stats()
	return &chaosScenario{
		Backends: nBackends, Clients: clients, load: run.load(), credit: f.credit(),
		Ejections:  st.Ejections,
		Readmitted: st.Ejections > 0 && st.Served > servedAtClear.Load(),
	}, nil
}

// partitionLoop is the directional-partition storm: mid-run, the router
// loses the wire to one healthy backend (capfault blackholes the edge —
// packets vanish, nothing dials) for the middle half of the run. The
// attempt deadline turns each stall into a bounded death, the breaker
// converts repetition into fast denies, and clients never notice.
func partitionLoop(d time.Duration, n int) (*chaosScenario, error) {
	const nBackends = 3
	clients := clientCount(3, 12)
	inj := capfault.New(0xFA017)
	f, router, url, err := routedFleet(nBackends, clients, capcluster.Config{
		Transport:      inj.Transport(httptune.Transport(64)),
		FailThreshold:  2,
		FailWindow:     500 * time.Millisecond,
		Timeout:        5 * time.Second,
		AttemptTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	defer f.close()
	victim := router.Backends()[0]
	victimHost := strings.TrimPrefix(f.urls[0], "http://")

	partition := time.AfterFunc(d/4, func() {
		inj.Set(capfault.Rule{
			Kind:    capfault.KindPartition,
			Backend: victimHost,
			For:     d / 2, // heals itself at 3d/4
		})
	})
	defer partition.Stop()

	run := storm([]string{url}, mixed, clients, n, d)
	st := victim.Stats()
	return &chaosScenario{
		Backends: nBackends, Clients: clients, load: run.load(), credit: f.credit(),
		Deaths:        st.Deaths,
		BreakerDenies: st.BreakerDenies,
		Readmitted:    !victim.Broken(),
	}, nil
}

// runChaos runs the three storms back to back.
func runChaos(d time.Duration, n int) (*chaosResult, error) {
	churn, err := churnLoop(d, n)
	if err != nil {
		return nil, fmt.Errorf("churn: %w", err)
	}
	slow, err := slowLoop(d, n)
	if err != nil {
		return nil, fmt.Errorf("slow: %w", err)
	}
	part, err := partitionLoop(d, n)
	if err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	return &chaosResult{Churn: churn, Slow: slow, Partition: part}, nil
}

// rtFunc adapts a function to http.RoundTripper for the overhead twins.
type rtFunc func(*http.Request) (*http.Response, error)

func (f rtFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// faultOverhead is the capfault overhead family: the disarmed injection
// layer against its unwrapped twin at both wrap points, the proof that
// leaving the wraps installed permanently (which is what makes
// /debug/fault storms against live fleets possible) costs nothing. It
// is measured and folded with the hot-path overhead families.
func faultOverhead() hotpath.Overhead {
	respBody := []byte(`{"workload":"quicksort","n":64,"checksum":12345}`)

	// Transport twin: a synthetic backend round trip with realistic small
	// work (response + header + body drain), so the ratio has a
	// denominator worth gating percentages against.
	baseRT := rtFunc(func(req *http.Request) (*http.Response, error) {
		return &http.Response{
			StatusCode: 200,
			Header:     http.Header{"Content-Type": []string{"application/json"}},
			Body:       io.NopCloser(strings.NewReader(string(respBody))),
			Request:    req,
		}, nil
	})
	wrappedRT := capfault.New(1).Transport(baseRT) // no rules: permanently disarmed
	benchRT := func(rt http.RoundTripper) func(*testing.B) {
		return func(b *testing.B) {
			req := httptest.NewRequest("GET", "http://backend:1/run/quicksort?n=64", nil)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				resp, err := rt.RoundTrip(req)
				if err != nil {
					b.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}

	// Handler twin: a small JSON write through httptest's recorder.
	baseH := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(respBody)
	})
	wrappedH := capfault.New(1).Handler("backend:1", baseH)
	benchH := func(h http.Handler) func(*testing.B) {
		return func(b *testing.B) {
			req := httptest.NewRequest("GET", "/run/quicksort?n=64", nil)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.ServeHTTP(httptest.NewRecorder(), req)
			}
		}
	}

	return hotpath.Overhead{
		Family: "fault",
		States: []string{"unwrapped", "disarmed"},
		Paths:  []string{"transport", "handler"},
		Cases: []hotpath.Case{
			{Name: "fault/transport_unwrapped", Bench: benchRT(baseRT)},
			{Name: "fault/transport_disarmed", Bench: benchRT(wrappedRT)},
			{Name: "fault/handler_unwrapped", Bench: benchH(baseH)},
			{Name: "fault/handler_disarmed", Bench: benchH(wrappedH)},
		},
	}
}
