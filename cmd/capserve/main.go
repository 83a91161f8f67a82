// Command capserve serves the native workloads over HTTP on a shared
// capsule runtime: probe/divide admission control, a bounded accept queue
// that sheds with 503 when full, per-workload input caps, /healthz and a
// Prometheus /metrics endpoint. See internal/capserve for the policy.
//
// Usage:
//
//	capserve -addr :8080 -contexts 4
//	capserve -addr :8080 -queue 32 -caps quicksort=65536,dijkstra=20000
//	capserve -throttle=false -window 50us
//	capserve -trace -trace-sample 16       # lifecycle tracing on /debug/trace
//	capserve -watch-interval 1s -slo-p99 150ms -slo-avail 0.99   # /debug/watch telemetry
//	capserve -fault -debug-addr localhost:6060    # fault injection scripted via /debug/fault
//	capserve -incident-dir /var/tmp/capscope      # burn-triggered incident bundles on /debug/incident
//	capserve -debug-addr localhost:6060    # pprof + /debug/{trace,watch,fault,incident} side listener
//
// The ops flags (-trace*, -watch*, -slo-*, -fault*, -incident-*,
// -debug-addr) are shared with caprouter and documented once, in the
// README's "Ops flags" table (internal/ops). -trace-source is
// capserve's own.
//
// Shutdown is graceful: SIGINT/SIGTERM flips /healthz to 503, stops the
// listener, lets in-flight requests finish (up to -drain), joins the
// runtime and prints the final statistics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/capserve"
	"repro/internal/capsule"
	"repro/internal/ops"
	"repro/internal/workloads"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	contexts := flag.Int("contexts", 0, "context pool size (0 = GOMAXPROCS)")
	throttle := flag.Bool("throttle", true, "death-rate division throttling")
	window := flag.Duration("window", 100*time.Microsecond, "death-rate window")
	threshold := flag.Int("death-threshold", 0, "death count tripping the throttle (0 = contexts/2)")
	queue := flag.Int("queue", 0, "accept-queue depth (0 = 4x contexts)")
	maxN := flag.Int("maxn", 0, "input cap for every workload (0 = per-workload defaults)")
	caps := flag.String("caps", "", "per-workload caps, e.g. quicksort=65536,lzw=32768")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown timeout")
	traceSource := flag.String("trace-source", "", "source name stamped on trace snapshots (default capserve)")
	var oc ops.Config
	oc.RegisterFlags(flag.CommandLine)
	flag.Parse()

	plane, err := ops.New(oc)
	if err != nil {
		fail("%v", err)
	}
	rt, err := capsule.NewValidated(capsule.Config{
		Contexts:       *contexts,
		Throttle:       *throttle,
		DeathWindow:    *window,
		DeathThreshold: *threshold,
		Tracer:         plane.Tracer(),
	})
	if err != nil {
		fail("%v", err)
	}

	capMap, err := parseCaps(*caps, *maxN)
	if err != nil {
		fail("%v", err)
	}
	srv, err := capserve.New(capserve.Config{
		Runtime:     rt,
		QueueDepth:  *queue,
		MaxN:        capMap,
		TraceSample: oc.TraceSample,
		TraceSource: *traceSource,
	})
	if err != nil {
		fail("%v", err)
	}
	handler, err := plane.Serve(srv)
	if err != nil {
		fail("%v", err)
	}
	hs := &http.Server{Addr: *addr, Handler: handler}
	fmt.Printf("capserve: listening on %s (contexts=%d queue=%d throttle=%v trace=%v)\n",
		*addr, rt.Contexts(), srv.QueueDepth(), *throttle, oc.Trace)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()

	select {
	case err := <-errc:
		fail("%v", err)
	case <-ctx.Done():
	}

	fmt.Println("capserve: draining...")
	srv.SetDraining(true)
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		// Handlers are still running (drain timeout hit): closing now
		// would block on their in-flight divisions. Report and go.
		fmt.Fprintf(os.Stderr, "capserve: shutdown: %v (skipping runtime close)\n", err)
	} else {
		// Close waits for in-flight workers, then retires the parked
		// per-context worker goroutines — the full runtime shutdown, of
		// which the old Join was just the first half.
		rt.Close()
	}
	plane.Close()
	fmt.Printf("capserve: final stats: %s\n", rt.Stats())
}

// parseCaps turns "quicksort=65536,lzw=32768" into a cap map. A non-zero
// def (-maxn) applies to every workload not named in s; otherwise
// unnamed workloads keep capserve's per-workload defaults.
// capserve.Config validates names.
func parseCaps(s string, def int) (map[string]int, error) {
	caps := map[string]int{}
	if def != 0 {
		for _, wl := range workloads.NativeNames() {
			caps[wl] = def
		}
	}
	if s == "" {
		return caps, nil
	}
	for _, kv := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("bad -caps entry %q (want workload=n)", kv)
		}
		n, err := strconv.Atoi(val)
		if err != nil {
			return nil, fmt.Errorf("bad -caps value in %q: %v", kv, err)
		}
		caps[name] = n
	}
	return caps, nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "capserve: "+format+"\n", args...)
	os.Exit(1)
}
