package ops

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/capcluster"
	"repro/internal/capserve"
	"repro/internal/capsule"
	"repro/internal/captrace"
	"repro/internal/ops/fleet"
)

// TestFlagDefaults pins the shared flags to the (name, default) pairs
// cmd/capserve and cmd/caprouter registered before the ops plane
// existed: an operator's command line means what it meant.
func TestFlagDefaults(t *testing.T) {
	want := map[string]string{
		"trace":             "false",
		"trace-buf":         "0",
		"trace-sample":      "0",
		"debug-addr":        "",
		"watch":             "true",
		"watch-interval":    "1s",
		"watch-ring":        "0",
		"slo-p99":           "150ms",
		"slo-avail":         "0.99",
		"slo-fast":          "5m0s",
		"slo-slow":          "1h0m0s",
		"fault":             "false",
		"fault-seed":        "1",
		"incident-dir":      "",
		"incident-max":      "0",
		"incident-cooldown": "0s",
	}
	fs := flag.NewFlagSet("ops", flag.ContinueOnError)
	var c Config
	c.RegisterFlags(fs)
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	for name, def := range want {
		if d, ok := got[name]; !ok || d != def {
			t.Errorf("-%s: default %q (registered %v), want %q", name, d, ok, def)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("-%s registered but not a shared ops flag", name)
		}
	}
}

// topology is one binary's process set built on httptest: the serving
// mux a client reaches, the debug mux (nil without -debug-addr) and the
// spawned backends' own URLs.
type topology struct {
	plane    *Plane
	serve    *httptest.Server
	debug    *httptest.Server
	backends []*capserve.Backend
}

func newRuntime(t *testing.T, tr *captrace.Tracer) *capsule.Runtime {
	t.Helper()
	rt, err := capsule.NewValidated(capsule.Config{Contexts: 2, Throttle: true, Tracer: tr})
	if err != nil {
		t.Fatalf("runtime: %v", err)
	}
	return rt
}

// build assembles a lone capserve (spawn < 0) or a router over spawn
// in-process backends, the way the two binaries do.
func build(t *testing.T, cfg Config, spawn int) *topology {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	top := &topology{plane: p}
	t.Cleanup(func() {
		top.serve.Close()
		for _, b := range top.backends {
			b.Kill()
			b.Runtime().Close()
		}
		p.Close()
		if top.debug != nil {
			top.debug.Close()
		}
	})
	var h http.Handler
	if spawn < 0 {
		rt := newRuntime(t, p.Tracer())
		t.Cleanup(rt.Close)
		srv, err := capserve.New(capserve.Config{Runtime: rt, TraceSample: 1})
		if err != nil {
			t.Fatalf("capserve: %v", err)
		}
		if h, err = p.Serve(srv); err != nil {
			t.Fatalf("Serve: %v", err)
		}
	} else {
		var urls []string
		for i := 0; i < spawn; i++ {
			b, err := p.Spawn(2, 0)
			if err != nil {
				t.Fatalf("Spawn: %v", err)
			}
			top.backends = append(top.backends, b)
			urls = append(urls, b.URL)
		}
		tr := p.Tracer()
		rt := newRuntime(t, tr)
		t.Cleanup(rt.Close)
		local, err := capserve.New(capserve.Config{Runtime: rt, TraceSource: "caprouter-local"})
		if err != nil {
			t.Fatalf("local: %v", err)
		}
		r, err := capcluster.New(capcluster.Config{Backends: urls, Local: local, Tracer: tr, TraceSample: 1})
		if err != nil {
			t.Fatalf("router: %v", err)
		}
		if err := p.Route(r); err != nil {
			t.Fatalf("Route: %v", err)
		}
		h = r
	}
	top.serve = httptest.NewServer(h)
	if p.debug != nil {
		top.debug = httptest.NewServer(p.debug.Handler)
	}
	return top
}

func fetch(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

// sources decodes a fan-in body and returns each entry's source field,
// failing unless the body has the object shape (wantArray false) or
// the array shape.
func sources(t *testing.T, url string, body []byte, wantArray bool) []string {
	t.Helper()
	if isArray := body[0] == '['; isArray != wantArray {
		t.Fatalf("%s: array shape %v, want %v: %.80s", url, isArray, wantArray, body)
	}
	vs, err := fleet.Decode[struct {
		Source string `json:"source"`
	}](bytes.NewReader(body))
	if err != nil {
		t.Fatalf("%s: %v", url, err)
	}
	var out []string
	for _, v := range vs {
		out = append(out, v.Source)
	}
	return out
}

// TestTopologyRoutes builds each topology the binaries serve and pins
// which routes each mux serves and the shape of every /debug fan-in
// body: a lone capserve and a spawned backend answer with one object,
// a router with an array, its own entry first.
func TestTopologyRoutes(t *testing.T) {
	all := Config{
		Trace:         true,
		Watch:         true,
		WatchInterval: time.Hour, // Start's immediate sample is all the bodies need
		Fault:         true,
		FaultSeed:     1,
	}
	for _, tc := range []struct {
		name  string
		cfg   Config
		spawn int // < 0: a lone capserve
		debug bool
	}{
		{"capserve", all, -1, false},
		{"capserve+debug", all, -1, true},
		{"router+2", all, 2, false},
		{"router+2+debug", all, 2, true},
		{"router+2 planes off", Config{}, 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			if cfg.Watch {
				cfg.IncidentDir = t.TempDir()
			}
			if tc.debug {
				cfg.DebugAddr = "127.0.0.1:0"
			}
			top := build(t, cfg, tc.spawn)
			if (top.debug != nil) != tc.debug {
				t.Fatalf("debug listener built = %v, want %v", top.debug != nil, tc.debug)
			}

			// Every plane is on, or every plane is off.
			on := http.StatusNotFound
			if cfg.Watch {
				on = http.StatusOK
			}
			fanIn := map[string]int{"/debug/trace": on, "/debug/watch": on, "/debug/incident": on}
			serving := map[string]int{"/debug/fault": http.StatusNotFound, "/debug/pprof/": http.StatusNotFound}
			debug := map[string]int{"/debug/pprof/": http.StatusOK, "/debug/fault": http.StatusNotFound}
			if cfg.Fault {
				debug["/debug/fault"] = http.StatusOK
			}
			for path, code := range fanIn {
				serving[path], debug[path] = code, code
			}
			muxes := map[string]map[string]int{top.serve.URL: serving}
			if top.debug != nil {
				muxes[top.debug.URL] = debug
			}
			for _, b := range top.backends {
				muxes[b.URL] = map[string]int{"/debug/trace": on, "/debug/watch": on, "/debug/incident": on, "/debug/fault": http.StatusNotFound}
			}

			for base, routes := range muxes {
				for path, want := range routes {
					code, body := fetch(t, base+path)
					if code != want {
						t.Fatalf("%s%s = %d, want %d", base, path, code, want)
					}
					if code != http.StatusOK || path == "/debug/fault" || path == "/debug/pprof/" {
						continue
					}
					isBackend := base != top.serve.URL && (top.debug == nil || base != top.debug.URL)
					got := sources(t, base+path, body, tc.spawn >= 0 && !isBackend)
					if !isBackend && tc.spawn >= 0 {
						if len(got) != 1+tc.spawn || got[0] != "caprouter" {
							t.Fatalf("%s%s sources = %v, want caprouter then %d backends", base, path, got, tc.spawn)
						}
					} else if len(got) != 1 || (!isBackend && got[0] != "capserve") {
						t.Fatalf("%s%s sources = %v, want its own alone", base, path, got)
					}
				}
			}
		})
	}
}

// TestRouterDebugTraceMergesSpawned pins the -spawn topology's
// one-stop trace endpoint: the router serves an ARRAY of snapshots —
// its own route span plus its spawned backend's serving and runtime
// events — so one fetch of the router URL reconstructs the full
// three-tier waterfall even though the spawned backend lives on an
// ephemeral port nobody else knows. Both halves of the traced request
// must be present under one ID.
func TestRouterDebugTraceMergesSpawned(t *testing.T) {
	top := build(t, Config{Trace: true}, 1)

	const id = "00000000cafe0004"
	req, _ := http.NewRequest("GET", top.serve.URL+"/run/quicksort?n=500&seed=5", nil)
	req.Header.Set(captrace.HeaderTraceID, id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(capcluster.HeaderRoute); got != "remote" {
		t.Fatalf("route %q, want the request dispatched to the spawned backend", got)
	}

	code, body := fetch(t, top.serve.URL+"/debug/trace")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	snaps, err := fleet.Decode[captrace.Snapshot](bytes.NewReader(body))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(snaps) != 2 {
		t.Fatalf("got %d snapshots, want 2 (router + spawned backend)", len(snaps))
	}
	if snaps[0].Source != "caprouter" || snaps[1].Source != "backend-0" {
		t.Fatalf("sources = %q, %q; want caprouter, backend-0", snaps[0].Source, snaps[1].Source)
	}

	tid, _ := captrace.ParseID(id)
	bySource := map[string]map[captrace.Kind]bool{}
	for _, ev := range captrace.MergeEvents(snaps...) {
		if ev.TID != tid {
			continue
		}
		if bySource[ev.Source] == nil {
			bySource[ev.Source] = map[captrace.Kind]bool{}
		}
		bySource[ev.Source][ev.Kind] = true
	}
	if !bySource["caprouter"][captrace.KRouteRecv] || !bySource["caprouter"][captrace.KRouteServed] {
		t.Fatalf("router span incomplete: %v", bySource["caprouter"])
	}
	if !bySource["backend-0"][captrace.KReqAdmit] || !bySource["backend-0"][captrace.KReqDone] {
		t.Fatalf("backend span incomplete: %v", bySource["backend-0"])
	}
}

// TestIncidentRequiresWatch: the recorders ride the sampler's tick, so
// asking for one without the other is a configuration error.
func TestIncidentRequiresWatch(t *testing.T) {
	if _, err := New(Config{IncidentDir: t.TempDir()}); err == nil {
		t.Fatal("New accepted -incident-dir with -watch=false")
	}
}
