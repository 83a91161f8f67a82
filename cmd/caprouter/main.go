// Command caprouter is the cluster front end: it runs the probe/divide
// protocol over a fleet of capserve backends, treating each backend's
// free capacity as remote contexts (internal/capcluster). A request's
// remote probe is a local credit check — no network on the deny path —
// and refusals degrade to the router's own capsule runtime, then to
// sequential, exactly the paper's ladder one tier up.
//
// The fleet is either fronted (-backends lists running capserve URLs) or
// spawned (-spawn boots N in-process backends on loopback ports — one
// process, real TCP, handy for smoke tests and demos). Both can be
// combined.
//
// Usage:
//
//	caprouter -addr :8090 -backends http://10.0.0.1:8080,http://10.0.0.2:8080
//	caprouter -addr :8090 -spawn 3 -spawn-contexts 2 -policy rendezvous
//	caprouter -addr :8090 -spawn 2 -fail-threshold 3 -fail-window 2s
//	caprouter -addr :8090 -spawn 2 -trace          # route spans on /debug/trace
//	caprouter -addr :8090 -spawn 3 -slo-p99 150ms  # fleet telemetry on /debug/watch
//	caprouter -addr :8090 -spawn 3 -fault -debug-addr localhost:6061  # fault injection on /debug/fault
//	caprouter -addr :8090 -spawn 3 -incident-dir /var/tmp/capscope    # burn-triggered bundles on /debug/incident
//	caprouter -addr :8090 -debug-addr localhost:6061
//
// The ops flags (-trace*, -watch*, -slo-*, -fault*, -incident-*,
// -debug-addr) are shared with capserve and documented once, in the
// README's "Ops flags" table (internal/ops).
//
// Shutdown is graceful: SIGINT/SIGTERM flips /healthz to 503 first, then
// stops the listener, finishes in-flight requests (up to -drain), drains
// the spawned backends the same way, closes the local runtime, and
// prints the final cluster statistics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/capcluster"
	"repro/internal/capserve"
	"repro/internal/capsule"
	"repro/internal/ops"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	backends := flag.String("backends", "", "comma-separated capserve base URLs to front")
	spawn := flag.Int("spawn", 0, "spawn this many in-process capserve backends on loopback ports")
	spawnContexts := flag.Int("spawn-contexts", 2, "context pool size per spawned backend")
	spawnQueue := flag.Int("spawn-queue", 0, "accept-queue depth per spawned backend (0 = 4x contexts)")
	policy := flag.String("policy", "least-loaded", "placement policy: least-loaded, round-robin, rendezvous")
	contexts := flag.Int("contexts", 0, "local fallback runtime context pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "local fallback accept-queue depth (0 = 4x contexts)")
	failThreshold := flag.Int("fail-threshold", 0, "backend failures tripping the breaker (0 = default)")
	failWindow := flag.Duration("fail-window", 0, "breaker window (0 = default)")
	timeout := flag.Duration("timeout", 0, "total per-request routing budget (0 = default)")
	attemptTimeout := flag.Duration("attempt-timeout", 0, "per-dispatch-attempt deadline carved from the budget (0 = default)")
	slowCheck := flag.Duration("slow-check", capcluster.SlowCheckInterval, "slow-backend ejection cadence (0 disables)")
	slowFactor := flag.Float64("slow-factor", 0, "eject a backend whose dispatch p99 exceeds this multiple of its peers' median (0 = default)")
	slowMinP99 := flag.Duration("slow-min-p99", 0, "absolute p99 floor below which no backend is ejected (0 = default)")
	slowMinSamples := flag.Int("slow-min-samples", 0, "dispatches per interval a backend needs before slow ejection considers it (0 = default)")
	refresh := flag.Duration("refresh", time.Second, "credit refresh interval (fetches one credit delta from each backend the push feed has lost; 0 disables)")
	staleTTL := flag.Duration("stale-ttl", 0, "credit-gauge trust window: fresh feeds skip the refresh fetch, fully quiet backends decay toward the initial credits (0 = default)")
	feedBackoff := flag.Duration("feed-backoff", 0, "base backoff between feed reconnect attempts, jittered and doubled per failure (0 = default)")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown timeout")
	var oc ops.Config
	oc.RegisterFlags(flag.CommandLine)
	flag.Parse()

	plane, err := ops.New(oc)
	if err != nil {
		fail("%v", err)
	}

	var urls []string
	if *backends != "" {
		for _, u := range strings.Split(*backends, ",") {
			urls = append(urls, strings.TrimSpace(u))
		}
	}
	var spawned []*capserve.Backend
	for i := 0; i < *spawn; i++ {
		b, err := plane.Spawn(*spawnContexts, *spawnQueue)
		if err != nil {
			fail("spawn backend %d: %v", i, err)
		}
		spawned = append(spawned, b)
		urls = append(urls, b.URL)
		fmt.Printf("caprouter: spawned backend %d at %s (contexts=%d)\n", i, b.URL, *spawnContexts)
	}

	place, err := capcluster.NewPlacement(*policy)
	if err != nil {
		fail("%v", err)
	}
	tracer := plane.Tracer()
	localRT, err := capsule.NewValidated(capsule.Config{Contexts: *contexts, Throttle: true, Tracer: tracer})
	if err != nil {
		fail("%v", err)
	}
	local, err := capserve.New(capserve.Config{
		Runtime:     localRT,
		QueueDepth:  *queue,
		TraceSample: oc.TraceSample,
		TraceSource: "caprouter-local",
	})
	if err != nil {
		fail("%v", err)
	}
	dispatchRT, feedRT := plane.Transports()
	router, err := capcluster.New(capcluster.Config{
		Backends:       urls,
		Local:          local,
		Placement:      place,
		FailThreshold:  *failThreshold,
		FailWindow:     *failWindow,
		Timeout:        *timeout,
		AttemptTimeout: *attemptTimeout,
		SlowFactor:     *slowFactor,
		SlowMinP99:     *slowMinP99,
		SlowMinSamples: *slowMinSamples,
		StaleTTL:       *staleTTL,
		FeedBackoff:    *feedBackoff,
		Transport:      dispatchRT,
		FeedTransport:  feedRT,
		Tracer:         tracer,
		TraceSample:    oc.TraceSample,
	})
	if err != nil {
		fail("%v", err)
	}
	router.Refresh() // learn real capacities before the first request
	if err := plane.Route(router); err != nil {
		fail("%v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if len(urls) > 0 {
		// The push plane, the gauges' only live signal: one subscription
		// per backend, reconnecting with jittered backoff for the process
		// lifetime. The Refresh ticker below then only pays for backends
		// the push plane has lost.
		router.StartFeeds(ctx)
		fmt.Printf("caprouter: subscribed to %d backend credit feeds\n", len(urls))
	}
	if *refresh > 0 {
		go func() {
			t := time.NewTicker(*refresh)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					router.Refresh()
				}
			}
		}()
	}
	if *slowCheck > 0 {
		// CheckSlow is single-caller by contract; this goroutine is it.
		go func() {
			t := time.NewTicker(*slowCheck)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					router.CheckSlow()
				}
			}
		}()
	}

	hs := &http.Server{Addr: *addr, Handler: router}
	fmt.Printf("caprouter: listening on %s (backends=%d policy=%s local-contexts=%d)\n",
		*addr, len(urls), place.Name(), localRT.Contexts())

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		fail("%v", err)
	case <-ctx.Done():
	}

	fmt.Println("caprouter: draining...")
	router.SetDraining(true)
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	clean := true
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "caprouter: shutdown: %v\n", err)
		clean = false
	}
	for i, b := range spawned {
		if err := b.Close(sctx); err != nil {
			fmt.Fprintf(os.Stderr, "caprouter: backend %d drain: %v\n", i, err)
			clean = false
		}
	}
	if clean {
		// In-flight handlers are done, so closing the local runtime
		// cannot block on live divisions.
		localRT.Close()
	}
	plane.Close()
	fmt.Printf("caprouter: final stats: %s\n", router.Stats())
	for _, b := range router.Backends() {
		bs := b.Stats()
		fmt.Printf("caprouter:   %s dispatched=%d served=%d sheds=%d deaths=%d\n",
			b.Name(), bs.Dispatches, bs.Served, bs.Sheds, bs.Deaths)
	}
	if !clean {
		os.Exit(1)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "caprouter: "+format+"\n", args...)
	os.Exit(1)
}
