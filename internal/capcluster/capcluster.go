// Package capcluster carries the probe/divide protocol across the
// process boundary: a routing front end that treats a fleet of capserve
// backends' free capacity as a pool of *remote contexts* and applies the
// paper's admission discipline to it, one resource tier above
// internal/capsule.
//
// The layering is the point. The simulator's SOMT answers nthr from a
// hardware context table; the native runtime answers it from an atomic
// token stack; this package answers it from a per-backend credit gauge —
// in every tier the probe is a local memory operation, cheap enough to
// make at every division point, and a refusal degrades to the tier
// below:
//
//	remote probe granted → dispatch to the chosen backend
//	remote probe refused → the router's own capsule.Runtime (capserve)
//	local context busy   → the request runs sequentially
//
// The mapping from the runtime's mechanisms to the cluster's:
//
//   - context tokens   → backend credits: in-flight dispatches vs. the
//     capacity the backend advertises in CreditDeltas (the pushed credit
//     feed, or one delta fetched on Refresh, both through one seq
//     guard). ProbeRemote is a breaker check plus one CAS — the deny
//     path touches no network and allocates nothing;
//   - kthr / deaths    → backend errors, timeouts and 5xx responses,
//     recorded in a per-backend failure ring;
//   - death throttling → the breaker: enough failures inside the window
//     deny that backend's probes until the window drains, and the first
//     probe after the drain is the half-open trial;
//   - LIFO warm reuse  → placement policy: least-loaded credits (default),
//     rendezvous hashing for affinity, round-robin as the control.
//
// A dispatch that dies retries the next backend (requests are pure
// functions of (workload, n, seed), so retries are safe) and falls back
// to the local tier only when every remote probe refused or failed —
// which is how a killed backend redistributes with zero failed client
// requests.
package capcluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/capserve"
	"repro/internal/captrace"
)

// Response headers the router stamps so clients and load generators can
// see where a request actually ran.
const (
	// HeaderRoute is "remote" or "local" (the fallback tier).
	HeaderRoute = "X-Capcluster-Route"
	// HeaderBackend is the serving backend's name (host:port), remote
	// routes only.
	HeaderBackend = "X-Capcluster-Backend"
)

// statusClientClosed mirrors capserve's 499: the client hung up before
// the router could finish.
const statusClientClosed = 499

// Defaults applied by New for zero Config fields, and the fixed credit,
// refresh, trial and body constants every router uses.
const (
	// DefaultCredits is the initial per-backend credit ceiling, spent
	// before the first delta teaches the real capacity, and the value a
	// backend quiet past StaleTTL decays toward.
	DefaultCredits = 4
	// DefaultMaxCredits caps learned credits so a corrupt delta cannot
	// open the floodgates.
	DefaultMaxCredits = 1024
	// DefaultFailThreshold failures inside DefaultFailWindow trip a
	// backend's breaker.
	DefaultFailThreshold = 3
	// DefaultFailWindow is the breaker's trailing window.
	DefaultFailWindow = 2 * time.Second
	// DefaultTimeout bounds one remote dispatch end to end.
	DefaultTimeout = 10 * time.Second
	// DefaultAttemptTimeout bounds one dispatch *attempt* — the slice of
	// the request budget a single backend may consume before the ladder
	// moves on. A black-holing backend costs one attempt, not the
	// request.
	DefaultAttemptTimeout = 2 * time.Second
	// DefaultRefreshTimeout bounds one credit-refresh fetch. Deliberately
	// much shorter than DefaultTimeout: the recovery feed exists to work
	// around sick backends, so it must never wait on one.
	DefaultRefreshTimeout = 1 * time.Second
	// DefaultTrialBackoff is the base delay of the jittered exponential
	// backoff between failed half-open trials.
	DefaultTrialBackoff = 100 * time.Millisecond
	// DefaultStaleTTL is how long a backend's credit gauge stays trusted
	// after its last live signal (a pushed or fetched delta). Within the
	// TTL a push-fed backend skips the Refresh fetch; past it with both
	// sources quiet, the gauge decays toward DefaultCredits instead of
	// serving stale capacity forever. Several push heartbeats
	// (DefaultFeedHeartbeat) fit inside, so one dropped event never marks
	// a healthy feed stale.
	DefaultStaleTTL = 3 * time.Second
	// DefaultFeedBackoff is the base delay of the jittered exponential
	// backoff between credit-feed reconnect attempts (StartFeeds).
	DefaultFeedBackoff = 100 * time.Millisecond
	// DefaultSlowFactor: a backend is ejected when its dispatch p99
	// exceeds the fleet median p99 by this factor (and the floors below).
	DefaultSlowFactor = 4.0
	// DefaultSlowMinP99 is the absolute p99 floor below which a backend
	// is never ejected, however its peers perform — sub-floor latency is
	// healthy by definition.
	DefaultSlowMinP99 = 25 * time.Millisecond
	// DefaultSlowMinSamples is the minimum relayed dispatches a backend
	// needs inside one CheckSlow interval before its p99 is trusted.
	DefaultSlowMinSamples = 16
	// DefaultMaxBody caps buffered POST bodies (they are replayed on
	// retry and fallback, so they must be held in memory).
	DefaultMaxBody = 1 << 20
)

// Config parameterises a Router.
type Config struct {
	// Backends are the capserve base URLs the router shards over. May be
	// empty: a router with no fleet is just its local tier.
	Backends []string

	// Local is the fallback tier — a capserve.Server on the router's own
	// runtime — and the handler for everything the fleet refuses.
	// Required.
	Local *capserve.Server

	// Placement picks each request's preferred backend. Default:
	// LeastLoaded.
	Placement Placement

	// FailThreshold failures within FailWindow trip a backend's breaker.
	// Defaults: DefaultFailThreshold, DefaultFailWindow.
	FailThreshold int
	FailWindow    time.Duration

	// Timeout bounds one remote dispatch. Default: DefaultTimeout.
	Timeout time.Duration

	// AttemptTimeout bounds one dispatch attempt, carved from the
	// remaining Timeout budget: each attempt runs under
	// min(AttemptTimeout, budget left), so a stalled backend costs one
	// attempt and the walk across the fleet still finishes inside
	// Timeout. Default: DefaultAttemptTimeout; set >= Timeout to
	// effectively disable the per-attempt slice.
	AttemptTimeout time.Duration

	// StaleTTL bounds credit-gauge trust: a backend whose push feed is
	// fresh within the TTL skips the Refresh fetch, and a backend whose
	// feed and fetch have both been quiet past it decays toward
	// DefaultCredits on each Refresh tick. Default: DefaultStaleTTL.
	StaleTTL time.Duration

	// FeedBackoff is the base of the jittered exponential backoff between
	// credit-feed reconnect attempts — the half-open trials' ladder, same
	// deterministic per-backend jitter, so a fleet of routers losing the
	// same backend doesn't resubscribe in lockstep. Default:
	// DefaultFeedBackoff.
	FeedBackoff time.Duration

	// FeedTransport overrides the transport of the credit-feed
	// subscriptions only — the hook capfault's feed scope plugs into, so
	// the push stream can be blackholed without touching dispatches.
	// Default (nil): the dispatch transport.
	FeedTransport http.RoundTripper

	// SlowFactor, SlowMinP99 and SlowMinSamples parameterise slow-backend
	// ejection (Router.CheckSlow): a backend whose dispatch p99 over the
	// interval exceeds SlowFactor × the fleet-median p99 — while p99 >
	// SlowMinP99 and at least SlowMinSamples dispatches back the estimate
	// — is ejected into the same breaker/probation machinery a dead
	// backend trips. Defaults: DefaultSlowFactor, DefaultSlowMinP99,
	// DefaultSlowMinSamples.
	SlowFactor     float64
	SlowMinP99     time.Duration
	SlowMinSamples int

	// Transport overrides the dispatch transport (tests). Default: a
	// clone of http.DefaultTransport with the per-backend idle-connection
	// pool widened (see defaultTransport in client.go) so sustained
	// routing reuses connections instead of re-dialing through the
	// default idle cap of 2.
	Transport http.RoundTripper

	// Tracer receives the route-span events (KRoute*); Trace hands it
	// to the /debug/trace endpoint. cmd/caprouter passes the same
	// tracer here and to the local tier's capserve.Config, so the
	// router's spans and the fallback tier's land in one ring set.
	// Default (nil): cluster-tier tracing disabled.
	Tracer *captrace.Tracer

	// TraceSample is the 1-in-N sampling rate for router-minted trace
	// IDs (adopted client IDs are always traced). Default (0):
	// capserve.DefaultTraceSample.
	TraceSample int
}

// Validate reports whether cfg can build a Router.
func (cfg Config) Validate() error {
	if cfg.Local == nil {
		return fmt.Errorf("capcluster: Config.Local (the fallback capserve.Server) is required")
	}
	for _, b := range cfg.Backends {
		u, err := url.Parse(b)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return fmt.Errorf("capcluster: backend %q is not an http(s) base URL", b)
		}
	}
	if cfg.FailThreshold < 0 {
		return fmt.Errorf("capcluster: FailThreshold must be >= 0 (0 means default), got %d", cfg.FailThreshold)
	}
	// The failure ring allocates next-pow2(threshold) slots per backend;
	// a huge threshold is a typo that would OOM at startup.
	const thresholdCeiling = 1 << 20
	if cfg.FailThreshold > thresholdCeiling {
		return fmt.Errorf("capcluster: FailThreshold must be <= %d, got %d", thresholdCeiling, cfg.FailThreshold)
	}
	if cfg.FailWindow < 0 || cfg.Timeout < 0 || cfg.AttemptTimeout < 0 {
		return fmt.Errorf("capcluster: FailWindow, Timeout and AttemptTimeout must be >= 0 (0 means default)")
	}
	if cfg.StaleTTL < 0 || cfg.FeedBackoff < 0 {
		return fmt.Errorf("capcluster: StaleTTL and FeedBackoff must be >= 0 (0 means default)")
	}
	if cfg.SlowFactor < 0 || cfg.SlowMinP99 < 0 || cfg.SlowMinSamples < 0 {
		return fmt.Errorf("capcluster: SlowFactor, SlowMinP99 and SlowMinSamples must be >= 0 (0 means default)")
	}
	if cfg.TraceSample < 0 {
		return fmt.Errorf("capcluster: TraceSample must be >= 0 (0 means %d), got %d", capserve.DefaultTraceSample, cfg.TraceSample)
	}
	return nil
}

// Router is the cluster front end: an http.Handler serving the same
// /run/{workload} API as capserve, with /healthz, /metrics and an index
// at /. Build with New, mount anywhere; on shutdown call
// SetDraining(true) before http.Server.Shutdown, exactly like capserve.
type Router struct {
	cfg      Config
	backends []*Backend
	local    *capserve.Server
	place    Placement
	client   *http.Client
	scrape   *http.Client // Refresh's own client: short timeout, never waits a dispatch Timeout on a sick backend
	feed     *http.Client // credit-feed subscriptions: no client timeout (streams live forever), watchdogged per event
	maxBody  int64        // DefaultMaxBody; tests shrink it
	mux      *http.ServeMux
	start    time.Time
	draining atomic.Bool

	tracer  *captrace.Tracer
	sampler *captrace.Sampler

	requests       atomic.Uint64
	remoteProbes   atomic.Uint64
	remoteGrants   atomic.Uint64
	localFallbacks atomic.Uint64
	clientGone     atomic.Uint64
	refreshErrs    atomic.Uint64
	refreshSkipped atomic.Uint64 // fetches skipped because the push feed was fresh

	// Serving-tier outcome counters: which rung of the degradation
	// ladder finally produced each 2xx response (the
	// caprouter_fallback_tier_total series).
	tierRemote       atomic.Uint64 // dispatched to a backend
	tierLocalRuntime atomic.Uint64 // local fallback, divisions offered
	tierSequential   atomic.Uint64 // local fallback, degraded to sequential

	// extraMetrics are appended to /metrics after the router's own
	// series (AddMetrics) — capwatch's hook into the exposition.
	extraMetrics []func(io.Writer)
}

// New builds a Router from cfg, applying defaults for zero fields.
func New(cfg Config) (*Router, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Placement == nil {
		cfg.Placement = LeastLoaded{}
	}
	if cfg.FailThreshold == 0 {
		cfg.FailThreshold = DefaultFailThreshold
	}
	if cfg.FailWindow == 0 {
		cfg.FailWindow = DefaultFailWindow
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.AttemptTimeout == 0 {
		cfg.AttemptTimeout = DefaultAttemptTimeout
	}
	if cfg.SlowFactor == 0 {
		cfg.SlowFactor = DefaultSlowFactor
	}
	if cfg.SlowMinP99 == 0 {
		cfg.SlowMinP99 = DefaultSlowMinP99
	}
	if cfg.SlowMinSamples == 0 {
		cfg.SlowMinSamples = DefaultSlowMinSamples
	}
	if cfg.StaleTTL == 0 {
		cfg.StaleTTL = DefaultStaleTTL
	}
	if cfg.FeedBackoff == 0 {
		cfg.FeedBackoff = DefaultFeedBackoff
	}
	transport := cfg.Transport
	if transport == nil {
		transport = defaultTransport(DefaultMaxCredits)
	}
	feedTransport := cfg.FeedTransport
	if feedTransport == nil {
		feedTransport = transport
	}
	sample := cfg.TraceSample
	if sample == 0 {
		sample = capserve.DefaultTraceSample
	}
	r := &Router{
		cfg:     cfg,
		local:   cfg.Local,
		place:   cfg.Placement,
		client:  &http.Client{Transport: transport, Timeout: cfg.Timeout},
		scrape:  &http.Client{Transport: transport, Timeout: DefaultRefreshTimeout},
		feed:    &http.Client{Transport: feedTransport},
		maxBody: DefaultMaxBody,
		mux:     http.NewServeMux(),
		start:   time.Now(),
		tracer:  cfg.Tracer,
		sampler: captrace.NewSampler(sample),
	}
	for i, base := range cfg.Backends {
		u, _ := url.Parse(base) // validated above
		r.backends = append(r.backends, newBackend(
			base, u.Host, i, DefaultCredits, DefaultMaxCredits, cfg.FailThreshold, cfg.FailWindow, DefaultTrialBackoff))
	}
	r.mux.HandleFunc("GET /healthz", r.handleHealthz)
	r.mux.HandleFunc("GET /metrics", r.handleMetrics)
	r.mux.HandleFunc("GET /run/{workload}", r.handleRun)
	r.mux.HandleFunc("POST /run/{workload}", r.handleRun)
	r.mux.HandleFunc("GET /{$}", r.handleIndex)
	return r, nil
}

// ServeHTTP implements http.Handler.
func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) { r.mux.ServeHTTP(w, req) }

// Backends returns the fleet in configuration order.
func (r *Router) Backends() []*Backend { return r.backends }

// Local returns the fallback tier.
func (r *Router) Local() *capserve.Server { return r.local }

// SetDraining flips /healthz to 503 so balancers stop routing here
// before shutdown cuts the listener. Draining never refuses an admitted
// request — same contract as capserve.
func (r *Router) SetDraining(v bool) { r.draining.Store(v) }

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	if r.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (r *Router) handleIndex(w http.ResponseWriter, req *http.Request) {
	type backendInfo struct {
		URL      string `json:"url"`
		Credits  int    `json:"credits"`
		Inflight int    `json:"inflight"`
		Broken   bool   `json:"broken"`
	}
	infos := make([]backendInfo, len(r.backends))
	for i, b := range r.backends {
		infos[i] = backendInfo{URL: b.url, Credits: b.Credits(), Inflight: b.Inflight(), Broken: b.Broken()}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"placement": r.place.Name(),
		"backends":  infos,
		"local": map[string]any{
			"contexts":    r.local.Runtime().Contexts(),
			"queue_depth": r.local.QueueDepth(),
		},
		"endpoints": []string{"/run/{workload}?n=&seed=", "/healthz", "/metrics"},
	})
}

// handleRun is the cluster-scope division point. Remote probes walk the
// fleet in placement order; the first grant dispatches. A shed or death
// moves on to the next backend (each probed at most once), and when the
// whole fleet has refused or failed the request degrades to the local
// tier — capserve, which may degrade it once more to sequential. The
// request itself never fails on a backend's account.
func (r *Router) handleRun(w http.ResponseWriter, req *http.Request) {
	r.requests.Add(1)

	// Trace identity first, so every outcome — even a 400 on a bad body
	// — carries the ID the client stamped. The route span opens here.
	tid, traced := r.traceIdentity(req)
	if tid != 0 {
		w.Header().Set(captrace.HeaderTraceID, captrace.FormatID(tid))
	}
	r.trace(traced, captrace.KRouteRecv, tid, 0, uint32(len(r.backends)))

	// Buffer the body up front: it is replayed on retry and fallback.
	var body []byte
	if req.Method == http.MethodPost && req.Body != nil && req.ContentLength != 0 {
		var err error
		body, err = io.ReadAll(io.LimitReader(req.Body, r.maxBody+1))
		if err != nil {
			http.Error(w, fmt.Sprintf("reading body: %v", err), http.StatusBadRequest)
			return
		}
		if int64(len(body)) > r.maxBody {
			http.Error(w, fmt.Sprintf("body exceeds the %d-byte cap", r.maxBody), http.StatusRequestEntityTooLarge)
			return
		}
	}

	if n := len(r.backends); n > 0 {
		first := r.place.Pick(placeKey(req.PathValue("workload"), req.URL.RawQuery), r.backends)
		// The whole remote walk shares one budget: each attempt runs
		// under min(AttemptTimeout, budget left), so retries after a
		// stalled backend shrink, never extend, the request's bound.
		deadline := time.Now().Add(r.cfg.Timeout)
		for i := 0; i < n; i++ {
			b := r.backends[(first+i)%n]
			r.remoteProbes.Add(1)
			if !b.probe() {
				continue
			}
			r.remoteGrants.Add(1)
			// The dispatch span records which backend won and the credit
			// snapshot that justified it — the router's routing decision,
			// reconstructable per request.
			r.trace(traced, captrace.KRouteDispatch, tid, uint16(b.id), uint32(b.Credits()))
			start := time.Now()
			switch r.dispatch(w, req, b, body, deadline, tid, traced) {
			case dispatched:
				elapsed := time.Since(start)
				b.dispatchLatency.Observe(elapsed)
				r.trace(traced, captrace.KRouteServed, tid, uint16(b.id), durUS(elapsed))
				r.tierRemote.Add(1)
				return
			case clientGone:
				r.clientGone.Add(1)
				w.WriteHeader(statusClientClosed)
				return
			case shed:
				r.trace(traced, captrace.KRouteShed, tid, uint16(b.id), 0)
			case died:
				r.trace(traced, captrace.KRouteDeath, tid, uint16(b.id), durUS(time.Since(start)))
			}
			// shed or died: probe the next backend.
		}
	}

	// Every remote tier refused or failed: degrade to the local runtime.
	// The identity rides the request context, not the header, so the
	// local capserve reuses it verbatim (and respects this tier's
	// sampling decision) instead of re-deciding.
	r.localFallbacks.Add(1)
	if body != nil {
		req.Body = io.NopCloser(bytes.NewReader(body))
		req.ContentLength = int64(len(body))
	}
	if tid != 0 {
		req = req.WithContext(captrace.WithRequest(req.Context(), tid, traced))
	}
	w.Header().Set(HeaderRoute, "local")
	sw := &statusWriter{ResponseWriter: w}
	lstart := time.Now()
	r.local.ServeHTTP(sw, req)

	// Classify which rung of the ladder actually served the request:
	// capserve marks sequential-degraded 200s with X-Capserve-Degraded.
	// Tier 0 in the fallback span means the local tier failed too (shed
	// or error) — the request died on the bottom rung.
	var tier uint16
	if sw.status >= 200 && sw.status < 300 {
		if w.Header().Get(capserve.HeaderDegraded) == "1" {
			tier = captrace.TierSequential
			r.tierSequential.Add(1)
		} else {
			tier = captrace.TierLocalRuntime
			r.tierLocalRuntime.Add(1)
		}
	}
	r.trace(traced, captrace.KRouteFallback, tid, tier, durUS(time.Since(lstart)))
}

// Refresh re-learns every backend's credit headroom from a single
// CreditDelta fetched from GET /debug/credits?once=1 — the push feed's
// own wire format, so the fetched delta passes the same sanity window
// and the same seq guard as a streamed one, and a draining backend
// reports its draining bit. It is the gauge's only input besides the
// push feed: the startup snapshot, the fallback for a backend whose
// stream is down, and so the recovery path for a backend parked at
// zero credits. Backends are fetched concurrently and with the
// dedicated short-timeout scrape client (DefaultRefreshTimeout, not the
// dispatch Timeout), so one black-holed backend costs the fleet at most
// one refresh timeout, not a 10 s dispatch budget — the recovery feed
// must not be starved by exactly the sick backend it exists to work
// around. cmd/caprouter runs it on a ticker; tests call it directly.
//
// With the push plane live (StartFeeds), Refresh only pays for backends
// the push plane has lost: a backend whose feed is fresh within
// Config.StaleTTL skips its fetch (counted in refreshSkipped, the
// caprouter_refresh_skipped_total series — steady-state proof the feed
// is carrying the fleet). A fetched delta never counts as feed
// freshness, so a backend with a dead stream is fetched on every tick.
// A backend whose feed and fetches have both been quiet past the TTL
// *and* whose fetch just failed decays toward DefaultCredits instead of
// serving a stale gauge forever.
func (r *Router) Refresh() {
	ttl := r.cfg.StaleTTL.Nanoseconds()
	var wg sync.WaitGroup
	for _, b := range r.backends {
		if b.feedFresh(ttl) {
			r.refreshSkipped.Add(1)
			continue
		}
		wg.Add(1)
		go func(b *Backend) {
			defer wg.Done()
			if err := r.refreshBackend(b); err != nil {
				r.refreshErrs.Add(1)
				if b.stale(ttl) {
					b.decayStale(DefaultCredits)
				}
			}
		}(b)
	}
	wg.Wait()
}

func (r *Router) refreshBackend(b *Backend) error {
	resp, err := r.scrape.Get(b.url + "/debug/credits?once=1")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("capcluster: %s/debug/credits?once=1: %s", b.name, resp.Status)
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err != nil {
		return err
	}
	_, err = b.takeDelta(raw, false)
	return err
}
