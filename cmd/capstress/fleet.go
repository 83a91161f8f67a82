package main

// The load side every scenario shares: one in-process fleet builder
// and one storm, the closed loop of internal/loadgen (the client
// capload runs) with the scenarios' request stream and count
// definitions.

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/internal/capcluster"
	"repro/internal/capserve"
	"repro/internal/capsule"
	"repro/internal/httptune"
	"repro/internal/loadgen"
)

// mixed is the cluster storms' workload list: quicksort-heavy, with
// lzw and dijkstra for differently shaped requests.
var mixed = []string{"quicksort", "quicksort", "lzw", "dijkstra"}

// clientCount is a storm's closed-loop concurrency: perP clients per P,
// at least floor.
func clientCount(perP, floor int) int {
	return max(perP*runtime.GOMAXPROCS(0), floor)
}

// fleet is an in-process serving fleet: capserve backends and the
// caprouters built over them.
type fleet struct {
	backends []*capserve.Backend
	urls     []string
	routers  []*capcluster.Router
	stops    []func() // each router's teardown
}

// credit is a routed storm's credit-signal evidence, summed over the
// fleet's routers: backend 503s (the gauge promised room that was not
// there), probes refused for lack of credit, requests degraded to a
// router's local tier, and gauges decayed for want of any delta.
type credit struct {
	RemoteSheds    uint64 `json:"remote_sheds"`
	CreditDenies   uint64 `json:"credit_denies"`
	LocalFallbacks uint64 `json:"local_fallbacks"`
	StaleDecays    uint64 `json:"stale_decays"`
}

func (c credit) String() string {
	return fmt.Sprintf("remote_sheds=%d credit_denies=%d local_fallbacks=%d stale_decays=%d",
		c.RemoteSheds, c.CreditDenies, c.LocalFallbacks, c.StaleDecays)
}

// credit sums the credit evidence of every router the fleet built,
// including replicas already killed.
func (f *fleet) credit() credit {
	var c credit
	for _, r := range f.routers {
		s := r.Stats()
		c.RemoteSheds += s.RemoteSheds
		c.CreditDenies += s.CreditDenies
		c.LocalFallbacks += s.LocalFallbacks
		for _, b := range r.Backends() {
			c.StaleDecays += b.Stats().StaleDecays
		}
	}
	return c
}

// startFleet boots n capserve backends with two throttled contexts and
// a 4-deep accept queue each: small on purpose, since credit denies
// (and so local fallbacks) are part of what the storms measure.
// heartbeat is the credit feed's idle republish interval (0 = default).
func startFleet(n int, heartbeat time.Duration) (*fleet, error) {
	f := &fleet{}
	for i := 0; i < n; i++ {
		b, err := capserve.StartBackend(capserve.Config{
			Runtime:       capsule.New(capsule.Config{Contexts: 2, Throttle: true}),
			QueueDepth:    4,
			FeedHeartbeat: heartbeat,
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.backends = append(f.backends, b)
		f.urls = append(f.urls, b.URL)
	}
	return f, nil
}

// router builds one caprouter over the fleet with its own local tier,
// gauges, breakers and credit-feed subscriptions (the gauges' only live
// signal, as in a shipped caprouter), and serves it on a plain net/http
// server (not httptest), so closing that server is abrupt:
// http.Server.Close tears down the listener and every live connection
// without draining, as close to kill -9 as one process gets. The local
// queue must absorb a correlated fallback burst (right after a kill
// every client can degrade at once), so it is sized to the client
// count: a fixed queue would break the zero-errors property on machines
// with enough cores for clients to outnumber it.
func (f *fleet) router(clients int, cfg capcluster.Config) (*capcluster.Router, *http.Server, string, error) {
	localRT := capsule.NewDefault()
	local, err := capserve.New(capserve.Config{Runtime: localRT, QueueDepth: 4 * clients})
	if err != nil {
		localRT.Close()
		return nil, nil, "", err
	}
	cfg.Backends = f.urls
	cfg.Local = local
	router, err := capcluster.New(cfg)
	if err != nil {
		localRT.Close()
		return nil, nil, "", err
	}
	router.Refresh()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		localRT.Close()
		return nil, nil, "", err
	}
	ctx, cancel := context.WithCancel(context.Background())
	router.StartFeeds(ctx)
	srv := &http.Server{Handler: router}
	go srv.Serve(ln)
	f.routers = append(f.routers, router)
	f.stops = append(f.stops, func() {
		srv.Close()
		cancel()
		localRT.Close()
	})
	return router, srv, "http://" + ln.Addr().String(), nil
}

// close tears down the routers, then drains every backend.
func (f *fleet) close() {
	for _, stop := range f.stops {
		stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, b := range f.backends {
		b.Close(ctx)
		b.Runtime().Close()
	}
}

// routedFleet boots nBackends backends and one router over them for a
// storm of clients.
func routedFleet(nBackends, clients int, cfg capcluster.Config) (*fleet, *capcluster.Router, string, error) {
	f, err := startFleet(nBackends, 0)
	if err != nil {
		return nil, nil, "", err
	}
	router, _, url, err := f.router(clients, cfg)
	if err != nil {
		f.close()
		return nil, nil, "", err
	}
	return f, router, url, nil
}

// load is a storm's client-side view as the report records it: a 200
// is a request served, anything else (another status or a transport
// failure) is an error, and the tail latencies are the successes'.
type load struct {
	Requests     int     `json:"requests"`
	Errors       int     `json:"errors"`
	RPS          float64 `json:"rps"`
	DurationS    float64 `json:"duration_s"`
	P99LatencyMS float64 `json:"p99_latency_ms"`
	MaxLatencyMS float64 `json:"max_latency_ms"`
}

// stormRun is one storm's outcome: the client's tally, the replica
// walk's failover count, and how long the loop ran.
type stormRun struct {
	tally     *loadgen.Tally
	failovers uint64
	elapsed   time.Duration
}

// storm drives the replica walk over targets closed-loop for d with
// clients workers sharing one httptune client: client c's i-th request
// runs wls[(c+i) mod len(wls)] at input size n and seed c*1000 + i mod
// 64. A request's latency spans the walk and the body drain.
func storm(targets, wls []string, clients, n int, d time.Duration) stormRun {
	client := httptune.Client(clients, 10*time.Second)
	walk := loadgen.NewReplicas(targets)
	r := stormRun{tally: &loadgen.Tally{}}
	start := time.Now()
	loadgen.Closed(clients, start.Add(d), func(c, i int) {
		path := fmt.Sprintf("/run/%s?n=%d&seed=%d", wls[(c+i)%len(wls)], n, c*1000+i%64)
		t0 := time.Now()
		code := 0
		if resp, err := walk.Do(client, path, nil); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			code = resp.StatusCode
		}
		r.tally.Record(code, time.Since(t0))
	})
	r.elapsed = time.Since(start)
	r.failovers = walk.Failovers()
	return r
}

// served counts the 200s.
func (r stormRun) served() int {
	return r.tally.Count(func(code int) bool { return code == http.StatusOK })
}

func (r stormRun) load() load {
	ok := r.served()
	return load{
		Requests:     ok,
		Errors:       r.tally.Total() - ok,
		RPS:          float64(ok) / r.elapsed.Seconds(),
		DurationS:    r.elapsed.Seconds(),
		P99LatencyMS: ms(r.tally.Quantile(0.99)),
		MaxLatencyMS: ms(r.tally.Quantile(1)),
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
