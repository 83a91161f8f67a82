package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/capcluster"
	"repro/internal/capserve"
	"repro/internal/capsule"
	"repro/internal/capwatch"
	"repro/internal/httptune"
)

// stack is one running serving stack on loopback plus the HTTP client
// that drives it. It is built from the packages' public constructors
// with the defaults cmd/capserve and `cmd/caprouter -spawn 2` ship with:
// the capwatch sampler on; tracing, capfault and capscope off.
type stack struct {
	url      string
	client   *http.Client
	servers  []*capserve.Server // the capserve instances clients' requests are meant for
	runtimes []*capsule.Runtime // every runtime in the stack, the router's local tier included
	router   *capcluster.Router // nil for direct workloads
	closers  []func()           // run in reverse order by close
}

// spawnContexts is caprouter's -spawn-contexts default.
const spawnContexts = 2

func (s *stack) onClose(f func()) { s.closers = append(s.closers, f) }

// close tears the stack down in the order the binaries use on SIGTERM:
// stop accepting, drain, then close runtimes.
func (s *stack) close() {
	s.client.CloseIdleConnections()
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

// buildStack starts w's stack. A non-nil tr wraps every layer boundary
// with span recorders; nil builds the untraced stack.
func buildStack(w *workload, tr *tracer) (*stack, error) {
	s := &stack{client: httptune.Client(64, 10*time.Second)}
	var err error
	if w.routed {
		err = s.startRouted(tr)
	} else {
		err = s.startDirect(tr)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// startBackend boots one capserve backend on rt with its capwatch
// sampler, as cmd/capserve and caprouter -spawn do.
func (s *stack) startBackend(rt *capsule.Runtime, tr *tracer) (*capserve.Backend, error) {
	s.runtimes = append(s.runtimes, rt)
	s.onClose(rt.Close)
	b, err := capserve.StartBackendOn(capserve.Config{Runtime: rt}, "127.0.0.1:0", tr.backendWrap())
	if err != nil {
		return nil, err
	}
	s.onClose(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = b.Close(ctx) // teardown after measurement: a slow drain changes no result
	})
	u, err := url.Parse(b.URL)
	if err != nil {
		return nil, err
	}
	sampler, err := capwatch.New(capwatch.Config{Source: u.Host, Runtime: rt, Server: b.Server})
	if err != nil {
		return nil, err
	}
	b.Server.Mount("GET /debug/watch", capwatch.Handler(sampler))
	b.Server.AddMetrics(sampler.WriteMetrics)
	sampler.Start()
	s.onClose(sampler.Stop)
	s.servers = append(s.servers, b.Server)
	return b, nil
}

func (s *stack) startDirect(tr *tracer) error {
	rt, err := capsule.NewValidated(capsule.Config{Throttle: true, DeathWindow: 100 * time.Microsecond})
	if err != nil {
		return err
	}
	b, err := s.startBackend(rt, tr)
	if err != nil {
		return err
	}
	s.url = b.URL
	return nil
}

func (s *stack) startRouted(tr *tracer) error {
	var urls []string
	for i := 0; i < 2; i++ {
		rt, err := capsule.NewValidated(capsule.Config{Contexts: spawnContexts, Throttle: true})
		if err != nil {
			return err
		}
		b, err := s.startBackend(rt, tr)
		if err != nil {
			return err
		}
		urls = append(urls, b.URL)
	}

	place, err := capcluster.NewPlacement("least-loaded")
	if err != nil {
		return err
	}
	localRT, err := capsule.NewValidated(capsule.Config{Throttle: true})
	if err != nil {
		return err
	}
	s.runtimes = append(s.runtimes, localRT)
	s.onClose(localRT.Close)
	local, err := capserve.New(capserve.Config{Runtime: localRT, TraceSource: "caprouter-local"})
	if err != nil {
		return err
	}
	router, err := capcluster.New(capcluster.Config{
		Backends:  urls,
		Local:     local,
		Placement: place,
		Transport: tr.transportWrap(),
	})
	if err != nil {
		return err
	}
	s.router = router
	router.Refresh()

	sampler, err := capwatch.New(capwatch.Config{Source: "caprouter", Runtime: localRT, Server: local, Router: router})
	if err != nil {
		return err
	}
	router.Mount("GET /debug/watch", capwatch.Handler(sampler))
	router.AddMetrics(sampler.WriteMetrics)
	sampler.Start()
	s.onClose(sampler.Stop)

	// The push feeds and caprouter's two tickers (credit refresh, slow
	// ejection) run for the stack's lifetime.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	s.onClose(func() { cancel(); wg.Wait() })
	router.StartFeeds(ctx)
	for _, tick := range []struct {
		every time.Duration
		do    func()
	}{
		{time.Second, router.Refresh},
		{capcluster.SlowCheckInterval, func() { router.CheckSlow() }},
	} {
		wg.Add(1)
		go func(every time.Duration, do func()) {
			defer wg.Done()
			t := time.NewTicker(every)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					do()
				}
			}
		}(tick.every, tick.do)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("router listen: %w", err)
	}
	hs := &http.Server{Handler: tr.routerWrap(router)}
	go hs.Serve(ln)
	s.onClose(func() {
		router.SetDraining(true)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx) // teardown after measurement: a slow drain changes no result
	})
	s.url = "http://" + ln.Addr().String()
	return s.waitFeeds(2 * time.Second)
}

// waitFeeds returns once every backend's push feed is connected, so
// timing starts from the router's steady state.
func (s *stack) waitFeeds(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		connected := 0
		for _, b := range s.router.Backends() {
			if b.Stats().FeedConnected {
				connected++
			}
		}
		if connected == len(s.router.Backends()) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("router: %d of %d credit feeds connected after %v", connected, len(s.router.Backends()), limit)
		}
		time.Sleep(time.Millisecond)
	}
}
