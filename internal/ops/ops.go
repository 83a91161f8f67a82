// Package ops is the operational plane both serving binaries share:
// lifecycle tracing (captrace), the telemetry sampler (capwatch), fault
// injection (capfault) and the incident recorder (capscope), plus the
// -debug-addr side listener. One Config carries the flags cmd/capserve
// and cmd/caprouter have in common, and one Plane wires those planes
// into every process a binary serves — a lone capserve, a router, and
// each backend a router spawns — and tears them down in one Close.
//
// Every fan-in endpoint follows the fleet package's rule: the process
// a client talks to serves its own view alone as an object, or, when it
// owns spawned backends, an array of views with its own first. Only
// that process knows where its ephemeral backends live, so it is the
// one place the whole fleet can be read from.
package ops

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registers on DefaultServeMux, served only on -debug-addr
	"net/url"
	"os"
	"path/filepath"
	"time"

	"repro/internal/capcluster"
	"repro/internal/capfault"
	"repro/internal/capscope"
	"repro/internal/capserve"
	"repro/internal/capsule"
	"repro/internal/captrace"
	"repro/internal/capwatch"
)

// Config holds the ops flags both binaries register (RegisterFlags).
// The README's ops-flag table documents them.
type Config struct {
	Trace       bool
	TraceBuf    int
	TraceSample int

	DebugAddr string

	Watch         bool
	WatchInterval time.Duration
	WatchRing     int
	SLO           capwatch.SLOConfig

	Fault     bool
	FaultSeed uint64

	IncidentDir      string
	IncidentMax      int
	IncidentCooldown time.Duration
}

// RegisterFlags binds c's fields to the shared flags on fs, with the
// defaults both binaries ship.
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	fs.BoolVar(&c.Trace, "trace", false, "record lifecycle events (route spans, serving and probe/divide events) in every process, served on /debug/trace")
	fs.IntVar(&c.TraceBuf, "trace-buf", 0, "trace ring slots per shard (0 = default)")
	fs.IntVar(&c.TraceSample, "trace-sample", 0, "trace 1 in N locally minted request IDs (0 = default)")
	fs.StringVar(&c.DebugAddr, "debug-addr", "", "serve pprof and /debug/{trace,watch,fault,incident} on this separate address (empty = off)")
	fs.BoolVar(&c.Watch, "watch", true, "continuous telemetry sampler per process, served on /debug/watch")
	fs.DurationVar(&c.WatchInterval, "watch-interval", capwatch.DefaultInterval, "telemetry sampling tick")
	fs.IntVar(&c.WatchRing, "watch-ring", 0, "flight-recorder ring slots per sampler (0 = sized from the slow SLO window)")
	fs.DurationVar(&c.SLO.TargetP99, "slo-p99", capwatch.DefaultTargetP99, "SLO latency target: windowed p99 must stay under this")
	fs.Float64Var(&c.SLO.Availability, "slo-avail", capwatch.DefaultAvailability, "SLO availability objective (fraction of valid requests served)")
	fs.DurationVar(&c.SLO.FastWindow, "slo-fast", capwatch.DefaultFastWindow, "fast burn-rate window")
	fs.DurationVar(&c.SLO.SlowWindow, "slo-slow", capwatch.DefaultSlowWindow, "slow burn-rate window")
	fs.BoolVar(&c.Fault, "fault", false, "arm the capfault injection layer (serving handlers and a router's dispatch transport), controlled via /debug/fault on -debug-addr; backend-scoped rules match a capserve's -trace-source or a spawned backend's host:port")
	fs.Uint64Var(&c.FaultSeed, "fault-seed", 1, "capfault decision-stream seed (same seed + same rules = same faults)")
	fs.StringVar(&c.IncidentDir, "incident-dir", "", "capture burn-triggered incident bundles into this directory (a router: one subdirectory per process), served on /debug/incident (empty = off; requires -watch)")
	fs.IntVar(&c.IncidentMax, "incident-max", 0, "bound on resident incident bundles per process (0 = default)")
	fs.DurationVar(&c.IncidentCooldown, "incident-cooldown", 0, "per-trigger debounce between captures (0 = default)")
}

// proc is the planes of one served process.
type proc struct {
	trace    captrace.Named
	sampler  *capwatch.Sampler  // nil with -watch=false
	recorder *capscope.Recorder // nil without -incident-dir
}

// mux is where a process's endpoints and metrics go:
// *capserve.Server and *capcluster.Router.
type mux interface {
	Mount(pattern string, h http.Handler)
	AddMetrics(f func(io.Writer))
}

// Plane is one binary's ops wiring. Build it with New, call Spawn for
// each in-process backend, then Serve (a lone capserve) or Route (a
// router) exactly once, and Close after the serving runtimes drain.
type Plane struct {
	cfg   Config
	inj   *capfault.Injector // nil without -fault
	procs []proc             // the front process first once Serve or Route ran, then spawned backends
	debug *http.Server       // nil without -debug-addr
}

// New validates cfg and builds the binary's fault injector, which every
// process shares: one rule set covers both sides of the wire.
func New(cfg Config) (*Plane, error) {
	if cfg.IncidentDir != "" && !cfg.Watch {
		return nil, errors.New("-incident-dir requires -watch (the recorders ride the telemetry tick)")
	}
	p := &Plane{cfg: cfg}
	if cfg.Fault {
		// Disarmed — no rules installed — the injector is one atomic
		// pointer load per request, so the wraps stay on whenever -fault
		// is set and storms are scripted through /debug/fault at runtime.
		p.inj = capfault.New(cfg.FaultSeed)
	}
	return p, nil
}

// Tracer returns a fresh tracer for one process, or nil with tracing
// off. A router passes the same one to its local runtime and to the
// router itself, so its route spans and its fallback tier's events land
// in one ring set.
func (p *Plane) Tracer() *captrace.Tracer {
	if !p.cfg.Trace {
		return nil
	}
	return captrace.New(0, p.cfg.TraceBuf)
}

// Transports returns a router's dispatch and feed transports wrapped in
// the fault injector, or nils (the router's defaults) with -fault off.
// The feed gets its own wrap so a feed-scoped rule can cut the push
// plane while dispatches stay healthy.
func (p *Plane) Transports(maxCredits int) (dispatch, feed http.RoundTripper) {
	if p.inj == nil {
		return nil, nil
	}
	return p.inj.Transport(capcluster.DefaultTransport(maxCredits)),
		p.inj.FeedTransport(capcluster.DefaultTransport(maxCredits))
}

// Spawn boots the next in-process backend ("backend-N" in traces) on a
// loopback port with its own runtime and planes, and mounts them on the
// backend's own mux. Its watch and incident source is its host:port —
// the label the router's per-backend gauges use, so captop can join the
// two views — and its bundles go to a subdirectory of that name. The
// planes are wired before the URL reaches the router, so the backend's
// mux and /metrics never change under the router's scrapes.
func (p *Plane) Spawn(contexts, queue int) (*capserve.Backend, error) {
	rt, err := capsule.NewValidated(capsule.Config{Contexts: contexts, Throttle: true, Tracer: p.Tracer()})
	if err != nil {
		return nil, err
	}
	var wrap func(string, http.Handler) http.Handler
	if p.inj != nil {
		wrap = p.inj.Handler
	}
	b, err := capserve.StartBackendOn(capserve.Config{
		Runtime:     rt,
		QueueDepth:  queue,
		TraceSample: p.cfg.TraceSample,
		TraceSource: fmt.Sprintf("backend-%d", len(p.procs)),
	}, "127.0.0.1:0", wrap)
	if err != nil {
		rt.Close()
		return nil, err
	}
	u, err := url.Parse(b.URL)
	if err != nil {
		return nil, err
	}
	pr, err := p.wire(u.Host, filepath.Join(p.cfg.IncidentDir, u.Host), b.Server.Trace(), b.Server, nil)
	if err != nil {
		return nil, err
	}
	p.mount([]proc{pr}, b.Server)
	p.procs = append(p.procs, pr)
	return b, nil
}

// Serve wires the planes of a lone capserve, named by its trace source,
// onto srv and the debug listener, and returns the handler to serve:
// srv, inside the fault injector with -fault.
func (p *Plane) Serve(srv *capserve.Server) (http.Handler, error) {
	name := srv.Trace().Source
	pr, err := p.wire(name, p.cfg.IncidentDir, srv.Trace(), srv, nil)
	if err != nil {
		return nil, err
	}
	p.front("capserve", pr, srv)
	if p.inj != nil {
		return p.inj.Handler(name, srv), nil
	}
	return srv, nil
}

// Route wires the planes of a router — sampled over its local tier and
// its fleet — onto r and the debug listener. Its endpoints serve the
// router's view first, then every backend Spawn started.
func (p *Plane) Route(r *capcluster.Router) error {
	pr, err := p.wire("caprouter", filepath.Join(p.cfg.IncidentDir, "caprouter"), r.Trace(), r.Local(), r)
	if err != nil {
		return err
	}
	p.front("caprouter", pr, r)
	return nil
}

// Close stops the planes in the binaries' shutdown order: every
// incident recorder first, so an in-flight capture lands its bundle
// before the process exits, then the samplers, then the debug listener.
// Call it after the serving runtimes have drained.
func (p *Plane) Close() {
	for _, pr := range p.procs {
		if pr.recorder != nil {
			pr.recorder.Close()
		}
	}
	for _, pr := range p.procs {
		if pr.sampler != nil {
			pr.sampler.Stop()
		}
	}
	if p.debug != nil {
		p.debug.Close()
	}
}

// wire builds one process's sampler and, with -incident-dir, the
// recorder that arms its triggers on the sampler's tick. srv is the
// process's capserve (a router's local tier); r is nil outside a router.
func (p *Plane) wire(name, dir string, trace captrace.Named, srv *capserve.Server, r *capcluster.Router) (proc, error) {
	pr := proc{trace: trace}
	if !p.cfg.Watch {
		return pr, nil
	}
	s, err := capwatch.New(capwatch.Config{
		Source:   name,
		Interval: p.cfg.WatchInterval,
		Ring:     p.cfg.WatchRing,
		Runtime:  srv.Runtime(),
		Server:   srv,
		Router:   r,
		SLO:      p.cfg.SLO,
	})
	if err != nil {
		return pr, fmt.Errorf("%s sampler: %w", name, err)
	}
	pr.sampler = s
	if p.cfg.IncidentDir != "" {
		rec, err := capscope.New(capscope.Config{
			Source:     name,
			Dir:        dir,
			MaxBundles: p.cfg.IncidentMax,
			Cooldown:   p.cfg.IncidentCooldown,
			Runtime:    srv.Runtime(),
			Server:     srv,
			Router:     r,
			Tracer:     trace.Tracer,
			Fault:      p.inj,
		})
		if err != nil {
			return pr, fmt.Errorf("%s recorder: %w", name, err)
		}
		rec.Arm(s)
		pr.recorder = rec
	}
	s.Start()
	return pr, nil
}

// routes builds the fan-in endpoints over procs, keyed by mux pattern,
// the serving process first: /debug/trace always (it 404s with tracing
// off), /debug/watch with -watch, /debug/incident with -incident-dir.
func (p *Plane) routes(procs []proc) map[string]http.Handler {
	var traces []captrace.Named
	var samplers []*capwatch.Sampler
	var recs []*capscope.Recorder
	for _, pr := range procs {
		traces = append(traces, pr.trace)
		samplers = append(samplers, pr.sampler)
		recs = append(recs, pr.recorder)
	}
	rs := map[string]http.Handler{"GET /debug/trace": captrace.Handler(traces...)}
	if p.cfg.Watch {
		rs["GET /debug/watch"] = capwatch.Handler(samplers...)
	}
	if p.cfg.IncidentDir != "" {
		rs["/debug/incident"] = capscope.Handler(recs...)
	}
	return rs
}

// mount serves procs' endpoints on m, the first process's mux, and adds
// that process's capwatch_* and capscope_* series to its /metrics.
func (p *Plane) mount(procs []proc, m mux) map[string]http.Handler {
	rs := p.routes(procs)
	for pattern, h := range rs {
		m.Mount(pattern, h)
	}
	if s := procs[0].sampler; s != nil {
		m.AddMetrics(s.WriteMetrics)
	}
	if rec := procs[0].recorder; rec != nil {
		m.AddMetrics(rec.WriteMetrics)
	}
	return rs
}

// front mounts the fleet view — pr, then every spawned backend — on the
// binary's serving mux and, with -debug-addr, on a side listener that
// also carries pprof and /debug/fault, so profiling and telemetry
// scrapes never compete with requests for the accept queue.
func (p *Plane) front(bin string, pr proc, m mux) {
	p.procs = append([]proc{pr}, p.procs...)
	rs := p.mount(p.procs, m)
	if p.cfg.IncidentDir != "" {
		fmt.Printf("%s: incident recorders armed: %d, bundles under %s\n", bin, len(p.procs), p.cfg.IncidentDir)
	}
	if p.cfg.DebugAddr == "" {
		return
	}
	dmux := http.NewServeMux()
	dmux.Handle("/debug/pprof/", http.DefaultServeMux)
	for pattern, h := range rs {
		dmux.Handle(pattern, h)
	}
	if p.inj != nil {
		dmux.Handle("/debug/fault", p.inj.DebugHandler())
	}
	debug := &http.Server{Addr: p.cfg.DebugAddr, Handler: dmux}
	p.debug = debug
	go func() {
		fmt.Printf("%s: pprof and /debug/{trace,watch,fault,incident} on http://%s/debug/\n", bin, p.cfg.DebugAddr)
		if err := debug.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "%s: debug listener: %v\n", bin, err)
		}
	}()
}
