package capcluster

import (
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/buildinfo"
)

// Stats is a snapshot of the router's cluster-scope counters: the
// paper's probe/grant/deny/death accounting, one tier up. Per-backend
// counters are aggregated in; BackendStats has the split.
type Stats struct {
	Requests       uint64 `json:"requests"`        // /run requests received
	RemoteProbes   uint64 `json:"remote_probes"`   // ProbeRemote attempts (incl. denies)
	RemoteGrants   uint64 `json:"remote_grants"`   // probes that reserved a credit
	CreditDenies   uint64 `json:"credit_denies"`   // probes refused: no credit
	BreakerDenies  uint64 `json:"breaker_denies"`  // probes refused: breaker open
	RemoteServed   uint64 `json:"remote_served"`   // responses proxied from a backend
	RemoteSheds    uint64 `json:"remote_sheds"`    // backend 503s (stale credits)
	Deaths         uint64 `json:"deaths"`          // backend errors/timeouts/5xx
	LocalFallbacks uint64 `json:"local_fallbacks"` // requests degraded to the local tier
	ClientGone     uint64 `json:"client_gone"`     // clients that hung up mid-route
}

// RemoteGrantRate is the fraction of remote probes granted — the
// cluster-scope "% divisions allowed".
func (s Stats) RemoteGrantRate() float64 {
	if s.RemoteProbes == 0 {
		return 0
	}
	return float64(s.RemoteGrants) / float64(s.RemoteProbes)
}

// FallbackRate is the fraction of requests the fleet could not take —
// the cluster analogue of the degraded-request rate.
func (s Stats) FallbackRate() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.LocalFallbacks) / float64(s.Requests)
}

func (s Stats) String() string {
	return fmt.Sprintf(
		"requests=%d probes=%d granted=%d (%.0f%%) denies[credit=%d breaker=%d] served=%d sheds=%d deaths=%d fallbacks=%d (%.0f%%)",
		s.Requests, s.RemoteProbes, s.RemoteGrants, 100*s.RemoteGrantRate(),
		s.CreditDenies, s.BreakerDenies, s.RemoteServed, s.RemoteSheds,
		s.Deaths, s.LocalFallbacks, 100*s.FallbackRate())
}

// BackendStats is one backend's snapshot.
type BackendStats struct {
	URL           string `json:"url"`
	Credits       int    `json:"credits"`
	Inflight      int    `json:"inflight"`
	Broken        bool   `json:"broken"`
	Dispatches    uint64 `json:"dispatches"`
	Served        uint64 `json:"served"`
	Sheds         uint64 `json:"sheds"`
	Deaths        uint64 `json:"deaths"`
	CreditDenies  uint64 `json:"credit_denies"`
	BreakerDenies uint64 `json:"breaker_denies"`
	Ejections     uint64 `json:"ejections"`
	BadHeaders    uint64 `json:"bad_headers"`
	FeedConnected bool   `json:"feed_connected"` // a push-feed subscription is open now
	FeedDeltas    uint64 `json:"feed_deltas"`    // push deltas applied to the gauge
	FeedDrops     uint64 `json:"feed_drops"`     // deltas dropped by the seq regression guard
	FeedConnects  uint64 `json:"feed_connects"`  // feed subscriptions opened (reconnects after the first)
	StaleDecays   uint64 `json:"stale_decays"`   // TTL decays toward the default credit ceiling
}

// Stats snapshots the backend's counters and gauges.
func (b *Backend) Stats() BackendStats {
	return BackendStats{
		URL:           b.url,
		Credits:       b.Credits(),
		Inflight:      b.Inflight(),
		Broken:        b.Broken(),
		Dispatches:    b.dispatches.Load(),
		Served:        b.served.Load(),
		Sheds:         b.sheds.Load(),
		Deaths:        b.deaths.Load(),
		CreditDenies:  b.creditDenies.Load(),
		BreakerDenies: b.breakerDenies.Load(),
		Ejections:     b.ejections.Load(),
		BadHeaders:    b.badHeaders.Load(),
		FeedConnected: b.feedConnected.Load(),
		FeedDeltas:    b.feedDeltas.Load(),
		FeedDrops:     b.feedDrops.Load(),
		FeedConnects:  b.feedConnects.Load(),
		StaleDecays:   b.staleDecays.Load(),
	}
}

// Stats snapshots the router's counters, aggregating the per-backend
// deny/shed/death counts.
func (r *Router) Stats() Stats {
	s := Stats{
		Requests:       r.requests.Load(),
		RemoteProbes:   r.remoteProbes.Load(),
		RemoteGrants:   r.remoteGrants.Load(),
		LocalFallbacks: r.localFallbacks.Load(),
		ClientGone:     r.clientGone.Load(),
	}
	for _, b := range r.backends {
		s.CreditDenies += b.creditDenies.Load()
		s.BreakerDenies += b.breakerDenies.Load()
		s.RemoteServed += b.served.Load()
		s.RemoteSheds += b.sheds.Load()
		s.Deaths += b.deaths.Load()
	}
	return s
}

func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.writeMetrics(w)
}

// writeMetrics renders the router's caprouter_* series followed by the
// local fallback tier's full capserve exposition — one scrape shows the
// whole degradation ladder: remote credits, local contexts, sequential
// runs.
func (r *Router) writeMetrics(w io.Writer) {
	s := r.Stats()

	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counterHead := func(name, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	}
	counter := func(name, help string, v uint64) {
		counterHead(name, help)
		fmt.Fprintf(w, "%s %d\n", name, v)
	}

	gauge("caprouter_backends", "Configured backend count.", float64(len(r.backends)))
	gauge("caprouter_uptime_seconds", "Seconds since the router was built.", time.Since(r.start).Seconds())
	counter("caprouter_requests_total", "Run requests received.", s.Requests)
	counter("caprouter_remote_probes_total", "Remote probes (cluster nthr attempts).", s.RemoteProbes)
	counter("caprouter_remote_granted_total", "Remote probes that reserved a backend credit.", s.RemoteGrants)
	counterHead("caprouter_remote_denies_total", "Refused remote probes by reason.")
	fmt.Fprintf(w, "caprouter_remote_denies_total{reason=\"credit\"} %d\n", s.CreditDenies)
	fmt.Fprintf(w, "caprouter_remote_denies_total{reason=\"breaker\"} %d\n", s.BreakerDenies)
	counter("caprouter_remote_served_total", "Responses proxied back from backends.", s.RemoteServed)
	counter("caprouter_remote_sheds_total", "Backend 503s absorbed by retry/fallback.", s.RemoteSheds)
	counter("caprouter_deaths_total", "Backend failures (cluster kthr).", s.Deaths)
	counter("caprouter_local_fallbacks_total", "Requests degraded to the local runtime.", s.LocalFallbacks)
	counter("caprouter_client_gone_total", "Clients that hung up mid-route.", s.ClientGone)
	counter("caprouter_refresh_errors_total", "Failed /metrics credit refreshes.", r.refreshErrs.Load())
	counter("caprouter_refresh_skipped_total", "Credit refresh fetches skipped because the push feed was fresh.", r.refreshSkipped.Load())
	gauge("caprouter_remote_grant_rate", "Fraction of remote probes granted (cluster \"% divisions allowed\").", s.RemoteGrantRate())
	gauge("caprouter_fallback_rate", "Fraction of requests the fleet could not take.", s.FallbackRate())

	perBackend := func(name, help, typ string, get func(*Backend) float64, format string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, b := range r.backends {
			fmt.Fprintf(w, "%s{backend=%q} "+format+"\n", name, b.name, get(b))
		}
	}
	perBackend("caprouter_backend_credits", "Current credit ceiling.", "gauge",
		func(b *Backend) float64 { return float64(b.Credits()) }, "%g")
	perBackend("caprouter_backend_inflight", "Dispatches currently holding a credit.", "gauge",
		func(b *Backend) float64 { return float64(b.Inflight()) }, "%g")
	perBackend("caprouter_backend_broken", "1 while the failure breaker denies probes.", "gauge",
		func(b *Backend) float64 {
			if b.Broken() {
				return 1
			}
			return 0
		}, "%g")
	perBackend("caprouter_backend_dispatches_total", "Granted probes sent to the wire.", "counter",
		func(b *Backend) float64 { return float64(b.dispatches.Load()) }, "%.0f")
	perBackend("caprouter_backend_served_total", "Responses proxied from this backend.", "counter",
		func(b *Backend) float64 { return float64(b.served.Load()) }, "%.0f")
	perBackend("caprouter_backend_deaths_total", "Failures charged to this backend.", "counter",
		func(b *Backend) float64 { return float64(b.deaths.Load()) }, "%.0f")
	perBackend("caprouter_backend_sheds_total", "503 sheds from this backend.", "counter",
		func(b *Backend) float64 { return float64(b.sheds.Load()) }, "%.0f")
	perBackend("caprouter_backend_ejections_total", "Slow-backend ejections (p99 outlier vs fleet median).", "counter",
		func(b *Backend) float64 { return float64(b.ejections.Load()) }, "%.0f")
	perBackend("caprouter_backend_bad_headers_total", "Rejected credit deltas (pushed or fetched).", "counter",
		func(b *Backend) float64 { return float64(b.badHeaders.Load()) }, "%.0f")
	perBackend("caprouter_backend_feed_connected", "1 while a credit-feed subscription is open.", "gauge",
		func(b *Backend) float64 {
			if b.feedConnected.Load() {
				return 1
			}
			return 0
		}, "%g")
	perBackend("caprouter_backend_feed_deltas_total", "Push credit deltas applied to the gauge.", "counter",
		func(b *Backend) float64 { return float64(b.feedDeltas.Load()) }, "%.0f")
	perBackend("caprouter_backend_feed_reconnects_total", "Credit-feed subscriptions opened.", "counter",
		func(b *Backend) float64 { return float64(b.feedConnects.Load()) }, "%.0f")
	perBackend("caprouter_backend_stale_decays_total", "Gauge decays toward the default after every credit source went quiet.", "counter",
		func(b *Backend) float64 { return float64(b.staleDecays.Load()) }, "%.0f")

	if len(r.backends) > 0 {
		fmt.Fprintf(w, "# HELP capcluster_dispatch_duration_seconds Remote dispatch duration, relayed responses only (deaths/timeouts excluded).\n")
		fmt.Fprintf(w, "# TYPE capcluster_dispatch_duration_seconds histogram\n")
		for _, b := range r.backends {
			b.dispatchLatency.Write(w, "capcluster_dispatch_duration_seconds", fmt.Sprintf("backend=%q", b.name))
		}
	}

	// The degradation-ladder outcome split: which tier finally produced
	// each 2xx. remote + local_runtime + sequential can trail
	// caprouter_requests_total by the requests that failed on every rung.
	counterHead("caprouter_fallback_tier_total", "Successful requests by the tier that served them.")
	fmt.Fprintf(w, "caprouter_fallback_tier_total{tier=\"remote\"} %d\n", r.tierRemote.Load())
	fmt.Fprintf(w, "caprouter_fallback_tier_total{tier=\"local_runtime\"} %d\n", r.tierLocalRuntime.Load())
	fmt.Fprintf(w, "caprouter_fallback_tier_total{tier=\"sequential\"} %d\n", r.tierSequential.Load())

	bi := buildinfo.Get()
	fmt.Fprintf(w, "# HELP caprouter_build_info Build metadata; the value is always 1.\n# TYPE caprouter_build_info gauge\n")
	fmt.Fprintf(w, "caprouter_build_info{version=%q,go=%q,gomaxprocs=\"%d\"} 1\n", bi.Version, bi.Go, bi.MaxProcs)

	// The local tier's own exposition (capsule_* and capserve_* series):
	// the same names a standalone capserve exports, because that is
	// exactly what the fallback tier is.
	r.local.WriteMetrics(w)

	for _, f := range r.extraMetrics {
		f(w)
	}
}
