package main

// The router-chaos scenarios: the failures a *replicated* router fleet
// must absorb. replica_kill hard-kills one of two caprouter replicas
// (listener and every live connection torn down, the in-process
// equivalent of kill -9) mid-storm while clients walk a -targets list —
// the gate is zero failed client requests plus placement agreement
// (same key lands on the same backend through either replica, the
// rendezvous property that makes replicas interchangeable without
// coordination). feed_partition blackholes the credit push plane (which
// every router the fleet builds subscribes to) through capfault's feed
// scope and proves the scrape fallback keeps dispatch fed: the push
// feed must have been carrying (refresh skips grew) before the cut, and
// no client request fails after it.

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/capcluster"
	"repro/internal/capfault"
	"repro/internal/httptune"
)

// routerChaosScenario is one router-plane storm's tracked numbers.
// The load block is the client's view — Errors must be zero; the rest
// prove the storm stormed (a replica actually died, the feed actually
// carried and was actually cut).
type routerChaosScenario struct {
	Replicas int `json:"replicas,omitempty"`
	Backends int `json:"backends"`
	Clients  int `json:"clients"`
	load
	credit // feed: stale_decays must stay 0 — scrape fallback kept gauges fresh

	Failovers        int `json:"failovers,omitempty"`         // kill: successes on a non-preferred replica
	PlacementChecked int `json:"placement_checked,omitempty"` // kill: keys routed remotely via both replicas
	PlacementAgreed  int `json:"placement_agreed,omitempty"`  // kill: of those, same backend both ways

	RefreshSkippedPre uint64 `json:"refresh_skipped_pre,omitempty"` // feed: scrape skips before the cut (push plane carrying)
	RefreshSkipped    uint64 `json:"refresh_skipped,omitempty"`     // feed: total at end
	FeedDeltas        uint64 `json:"feed_deltas,omitempty"`         // feed: deltas applied across backends
}

// routerChaosResult groups the two storms in BENCH_capsule.json.
type routerChaosResult struct {
	ReplicaKill   *routerChaosScenario `json:"replica_kill,omitempty"`
	FeedPartition *routerChaosScenario `json:"feed_partition,omitempty"`
}

// replicaKillLoop is the router-SPOF storm: two full caprouter replicas
// front the same three backends, both subscribed to the credit feeds,
// clients walk both via failover — and at halftime one replica is
// killed without drain. The clients are capload's: the replica walk
// with its cooldown demotion. First, placement agreement is checked cold:
// the same key routed through either replica must name the same
// backend, the property that makes "retry on the other replica" safe
// for cache locality and makes the fleet coordination-free.
func replicaKillLoop(d time.Duration, n int) (*routerChaosScenario, error) {
	const nBackends = 3
	const nReplicas = 2
	clients := clientCount(3, 12)
	f, err := startFleet(nBackends, 0)
	if err != nil {
		return nil, err
	}
	defer f.close()
	var servers []*http.Server
	var targets []string
	for r := 0; r < nReplicas; r++ {
		// Rendezvous placement, so every replica agrees with its siblings.
		_, srv, url, err := f.router(clients, capcluster.Config{
			FailThreshold: 2,
			FailWindow:    400 * time.Millisecond,
			Timeout:       5 * time.Second,
			Placement:     capcluster.Rendezvous{},
		})
		if err != nil {
			return nil, err
		}
		servers = append(servers, srv)
		targets = append(targets, url)
	}

	// Placement agreement, checked before the storm while the fleet is
	// idle (remote probes grant freely): a key that dispatches remotely
	// through both replicas must land on the same backend. Keys that
	// fall back to the local tier on either side are skipped, not
	// failed — agreement is a property of remote placement.
	checked, agreed := 0, 0
	probe := httptune.Client(2, 5*time.Second)
	for s := 0; s < 8; s++ {
		var names []string
		remote := true
		for _, t := range targets {
			resp, err := probe.Get(fmt.Sprintf("%s/run/quicksort?n=64&seed=%d", t, 9000+s))
			if err != nil {
				return nil, fmt.Errorf("placement probe: %w", err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.Header.Get(capcluster.HeaderRoute) != "remote" {
				remote = false
				break
			}
			names = append(names, resp.Header.Get(capcluster.HeaderBackend))
		}
		if !remote {
			continue
		}
		checked++
		if names[0] == names[1] {
			agreed++
		}
	}

	// Halftime: replica 0 dies hard. Its listener and live connections
	// reset, and every client that preferred it must fail over within
	// the same request.
	kill := time.AfterFunc(d/2, func() { servers[0].Close() })
	defer kill.Stop()

	run := storm(targets, mixed, clients, n, d)
	return &routerChaosScenario{
		Replicas: nReplicas, Backends: nBackends, Clients: clients, load: run.load(), credit: f.credit(),
		Failovers:        int(run.failovers),
		PlacementChecked: checked,
		PlacementAgreed:  agreed,
	}, nil
}

// feedPartitionLoop is the push-plane storm: one router subscribed to
// three backends' credit feeds (fast heartbeats, short stale TTL, a
// scrape ticker standing by), then capfault blackholes every feed
// mid-run. Before the cut the push plane must demonstrably carry — the
// scrape ticker skips fresh backends, so refresh_skipped grows. After
// the cut the feeds go silent, the per-event watchdogs cancel the
// streams, feedFresh expires, and the ticker's scrapes take over —
// gauges stay fresh (zero stale decays) and no client request fails.
func feedPartitionLoop(d time.Duration, n int) (*routerChaosScenario, error) {
	const nBackends = 3
	clients := clientCount(3, 12)
	inj := capfault.New(0xFEEDC)
	f, err := startFleet(nBackends, 50*time.Millisecond)
	if err != nil {
		return nil, err
	}
	defer f.close()
	router, _, target, err := f.router(clients, capcluster.Config{
		FailThreshold: 2,
		FailWindow:    400 * time.Millisecond,
		Timeout:       5 * time.Second,
		StaleTTL:      300 * time.Millisecond,
		FeedBackoff:   50 * time.Millisecond,
		FeedTransport: inj.FeedTransport(httptune.Transport(8)),
		Placement:     capcluster.Rendezvous{},
	})
	if err != nil {
		return nil, err
	}

	// The scrape ticker a live caprouter runs: while feeds are fresh
	// every tick is all skips; after the blackhole it is the only
	// source of credits.
	stop := make(chan struct{})
	var tickWG sync.WaitGroup
	tickWG.Add(1)
	go func() {
		defer tickWG.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				router.Refresh()
			}
		}
	}()

	// Third-time: snapshot the pre-cut skip count (the push plane must
	// have carried by then), then blackhole every feed edge. Dispatch
	// traffic never matches ScopeFeed rules.
	var preCut atomic.Uint64
	cut := time.AfterFunc(d/3, func() {
		preCut.Store(router.RefreshSkipped())
		inj.Set(capfault.Rule{Kind: capfault.KindBlackhole, Scope: capfault.ScopeFeed})
	})
	defer cut.Stop()

	run := storm([]string{target}, mixed, clients, n, d)
	close(stop)
	tickWG.Wait()

	var deltas uint64
	for _, b := range router.Backends() {
		deltas += b.Stats().FeedDeltas
	}
	return &routerChaosScenario{
		Backends: nBackends, Clients: clients, load: run.load(), credit: f.credit(),
		RefreshSkippedPre: preCut.Load(),
		RefreshSkipped:    router.RefreshSkipped(),
		FeedDeltas:        deltas,
	}, nil
}

// runRouterChaos runs the two router-plane storms back to back.
func runRouterChaos(d time.Duration, n int) (*routerChaosResult, error) {
	kill, err := replicaKillLoop(d, n)
	if err != nil {
		return nil, fmt.Errorf("replica_kill: %w", err)
	}
	feed, err := feedPartitionLoop(d, n)
	if err != nil {
		return nil, fmt.Errorf("feed_partition: %w", err)
	}
	return &routerChaosResult{ReplicaKill: kill, FeedPartition: feed}, nil
}
