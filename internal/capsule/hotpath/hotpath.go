// Package hotpath is the probe/divide contention benchmark suite, run
// against two pool implementations side by side:
//
//   - atomic: the live lock-free runtime (internal/capsule) — sharded
//     Treiber token stacks with ring-order stealing, padded per-shard
//     stats, atomic death ring, spin-then-park persistent workers;
//   - mutex: the retained pre-rewrite pool (internal/capsule/baseline) —
//     global mutex LIFO, slice-pruned death window, goroutine-per-spawn.
//
// The cases cover the grant and refusal paths serially and across the
// SweepMultipliers GOMAXPROCS sweep (1×, 4× and 16× GOMAXPROCS probers),
// plus the fused divide with worker hand-off. The same bodies back both
// `go test -bench` (hotpath_test.go wrappers, run under -race in CI) and
// cmd/capstress, which runs them via testing.Benchmark and records ns/op
// and allocs/op in BENCH_capsule.json — so the speedup the rewrite
// bought is re-measured, not remembered.
package hotpath

import (
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/capscope"
	"repro/internal/capsule"
	"repro/internal/capsule/baseline"
	"repro/internal/captrace"
	"repro/internal/capwatch"
)

// A Case is one named hot-path benchmark, runnable by go test or
// testing.Benchmark.
type Case struct {
	Name  string
	Bench func(b *testing.B)
}

// SweepMultipliers is the GOMAXPROCS sweep: the parallel probe-granted
// cases run at each multiplier × GOMAXPROCS concurrent probers, for
// both implementations. capstress records it in BENCH_capsule.json so
// numbers from different machines are comparable.
var SweepMultipliers = []int{1, 4, 16}

// Cases returns the full suite. Names are impl/path[_probers]: the
// "atomic/" and "mutex/" families are exact mirrors on the shared
// paths, so each pair divides into a speedup. The "atomic/..." keys are
// the live runtime's tracked trajectory (stable across PRs for the CI
// regression gate). The overhead families follow (see Overheads).
func Cases() []Case {
	cases := []Case{
		{"atomic/probe_granted_serial", probeGranted(0, plane{})},
		{"mutex/probe_granted_serial", mutexProbeGranted(0)},
	}
	for _, m := range SweepMultipliers {
		suffix := "_parallel_" + strconv.Itoa(m) + "x"
		cases = append(cases,
			Case{"atomic/probe_granted" + suffix, probeGranted(m, plane{})},
			Case{"mutex/probe_granted" + suffix, mutexProbeGranted(m)},
		)
	}
	cases = append(cases,
		Case{"atomic/probe_refused_serial", atomicProbeRefused(0)},
		Case{"atomic/probe_refused_parallel_4x", atomicProbeRefused(4)},
		Case{"atomic/try_divide_refused", atomicTryDivideRefused},
		Case{"atomic/divide_granted", divideGranted(plane{})},
		Case{"mutex/probe_refused_serial", mutexProbeRefused(0)},
		Case{"mutex/probe_refused_parallel_4x", mutexProbeRefused(4)},
		Case{"mutex/try_divide_refused", mutexTryDivideRefused},
		Case{"mutex/divide_granted", mutexDivideGranted},
	)
	for _, o := range Overheads() {
		cases = append(cases, o.Cases...)
	}
	return cases
}

// An Overhead is one ops plane's overhead family: a case named
// Family/path_state for every path and state. States[0] is the base
// state; the report divides every other state's ns/op by it.
type Overhead struct {
	Family string
	States []string
	Paths  []string
	Cases  []Case
}

// overheadPaths are the canonical hot paths every plane is priced on.
var overheadPaths = []string{"probe_granted_serial", "probe_granted_parallel_4x", "divide_granted"}

// Overheads returns the trace, watch and incident families, one row of
// the planes table each, with their cases built.
func Overheads() []Overhead {
	var out []Overhead
	for _, f := range planes {
		o := Overhead{Family: f.family, Paths: overheadPaths}
		for _, st := range f.states {
			o.States = append(o.States, st.name)
			o.Cases = append(o.Cases,
				Case{f.family + "/probe_granted_serial_" + st.name, probeGranted(0, st.plane)},
				Case{f.family + "/probe_granted_parallel_4x_" + st.name, probeGranted(4, st.plane)},
				Case{f.family + "/divide_granted_" + st.name, divideGranted(st.plane)},
			)
		}
		out = append(out, o)
	}
	return out
}

// Find returns the named case for a go test wrapper.
func Find(name string) (Case, bool) {
	for _, c := range Cases() {
		if c.Name == name {
			return c, true
		}
	}
	return Case{}, false
}

// nop is the spawned work: a static func value, so the divide benchmarks
// measure the runtime's own cost, not a per-iteration closure allocation.
func nop() {}

// benchWindow keeps both implementations' throttle configured alike. The
// probe benchmarks never record deaths (Probe/Release is not a kthr), so
// the throttle check is measured on its always-quiescent fast path.
const benchWindow = 100 * time.Microsecond

// probers turns a parallelism multiplier into the number of concurrent
// probers RunParallel will use (0 means a plain serial loop).
func probers(par int) int {
	if par == 0 {
		return 1
	}
	return par * runtime.GOMAXPROCS(0)
}

// divideContexts sizes the divide_granted pool: deep enough that the
// offering loop keeps granting while parked workers (or spawned
// goroutines, for the baseline) drain and refill it.
func divideContexts() int {
	n := 16 * runtime.GOMAXPROCS(0)
	if n < 64 {
		n = 64
	}
	return n
}

// ---- atomic: the live lock-free runtime, under each plane ----

// A plane is the state one ops plane puts the runtime in for a case: a
// config tweak applied before New, the trace ID the hot path carries,
// whether divides go through a Group (the serving tiers' divide scope),
// and a side-car started beside the runtime whose return value is its
// teardown. The zero plane is the tracked "atomic/..." configuration.
type plane struct {
	config func(*capsule.Config)
	tid    uint64
	group  bool
	start  func(b *testing.B, rt *capsule.Runtime) (stop func())
}

// runtime builds the plane's runtime from cfg and starts its side-car;
// the returned teardown stops the side-car, then closes the runtime.
func (p plane) runtime(b *testing.B, cfg capsule.Config) (*capsule.Runtime, func()) {
	if p.config != nil {
		p.config(&cfg)
	}
	rt := capsule.New(cfg)
	if p.start == nil {
		return rt, rt.Close
	}
	stop := p.start(b, rt)
	return rt, func() {
		stop()
		rt.Close()
	}
}

// probeGranted builds the granted-probe case at par×GOMAXPROCS probers
// (0 = serial) on a pool of one context per prober. ProbeTraced with
// trace ID 0 is exactly Probe, so every plane but the traced one
// measures the identical call.
func probeGranted(par int, p plane) func(b *testing.B) {
	return func(b *testing.B) {
		rt, stop := p.runtime(b, capsule.Config{Contexts: probers(par), Throttle: true, DeathWindow: benchWindow})
		defer stop()
		b.ReportAllocs()
		b.ResetTimer()
		if par == 0 {
			for i := 0; i < b.N; i++ {
				if c, ok := rt.ProbeTraced(p.tid); ok {
					rt.Release(c)
				}
			}
			return
		}
		b.SetParallelism(par)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if c, ok := rt.ProbeTraced(p.tid); ok {
					rt.Release(c)
				}
			}
		})
	}
}

// divideGranted builds the granted fused divide with worker hand-off:
// rt.TryDivide directly, or through NewGroupTraced for a group plane so
// a traced divide records its whole event chain (grant, handoff, death).
// Throttle is off: nop workers die far faster than any real window, and
// the point here is the grant + hand-off cost, not throttle stalls.
func divideGranted(p plane) func(b *testing.B) {
	return func(b *testing.B) {
		rt, stop := p.runtime(b, capsule.Config{Contexts: divideContexts(), Throttle: false})
		defer stop()
		b.ReportAllocs()
		b.ResetTimer()
		if p.group {
			g := rt.NewGroupTraced(p.tid)
			for i := 0; i < b.N; i++ {
				for !g.TryDivide(nop) {
					runtime.Gosched()
				}
			}
			b.StopTimer()
			g.Join()
			return
		}
		for i := 0; i < b.N; i++ {
			for !rt.TryDivide(nop) {
				runtime.Gosched() // let parked workers drain and refill the pool
			}
		}
		b.StopTimer()
		rt.Join()
	}
}

func atomicProbeRefused(par int) func(b *testing.B) {
	return func(b *testing.B) {
		rt := capsule.New(capsule.Config{Contexts: 1, Throttle: true, DeathWindow: benchWindow})
		hold, _ := rt.Probe() // empty the pool: every probe refuses
		b.ReportAllocs()
		b.ResetTimer()
		if par == 0 {
			for i := 0; i < b.N; i++ {
				if _, ok := rt.Probe(); ok {
					b.Fatal("probe granted from an empty pool")
				}
			}
		} else {
			b.SetParallelism(par)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, ok := rt.Probe(); ok {
						b.Fatal("probe granted from an empty pool")
					}
				}
			})
		}
		b.StopTimer()
		rt.Release(hold)
		rt.Close()
	}
}

func atomicTryDivideRefused(b *testing.B) {
	rt := capsule.New(capsule.Config{Contexts: 1, Throttle: false})
	hold, _ := rt.Probe()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rt.TryDivide(nop) {
			b.Fatal("divide granted from an empty pool")
		}
	}
	b.StopTimer()
	rt.Release(hold)
	rt.Close()
}

// ---- mutex: the retained pre-rewrite baseline ----

func mutexProbeGranted(par int) func(b *testing.B) {
	return func(b *testing.B) {
		p := baseline.New(probers(par), true, benchWindow, 0)
		b.ReportAllocs()
		b.ResetTimer()
		if par == 0 {
			for i := 0; i < b.N; i++ {
				if id, ok := p.Probe(); ok {
					p.Release(id)
				}
			}
			return
		}
		b.SetParallelism(par)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if id, ok := p.Probe(); ok {
					p.Release(id)
				}
			}
		})
	}
}

func mutexProbeRefused(par int) func(b *testing.B) {
	return func(b *testing.B) {
		p := baseline.New(1, true, benchWindow, 0)
		hold, _ := p.Probe()
		b.ReportAllocs()
		b.ResetTimer()
		if par == 0 {
			for i := 0; i < b.N; i++ {
				if _, ok := p.Probe(); ok {
					b.Fatal("probe granted from an empty pool")
				}
			}
		} else {
			b.SetParallelism(par)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, ok := p.Probe(); ok {
						b.Fatal("probe granted from an empty pool")
					}
				}
			})
		}
		b.StopTimer()
		p.Release(hold)
	}
}

func mutexTryDivideRefused(b *testing.B) {
	p := baseline.New(1, false, benchWindow, 0)
	hold, _ := p.Probe()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.TryDivide(nop) {
			b.Fatal("divide granted from an empty pool")
		}
	}
	b.StopTimer()
	p.Release(hold)
}

func mutexDivideGranted(b *testing.B) {
	p := baseline.New(divideContexts(), false, benchWindow, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for !p.TryDivide(nop) {
			runtime.Gosched()
		}
	}
	b.StopTimer()
	p.Join()
}

// ---- the ops planes: one row per overhead family ----
//
// Each family prices one plane on the canonical paths, in the states
// the serving tiers put the runtime in; cmd/capstress folds each family
// into its report section (trace_overhead, watch_overhead,
// incident_overhead), where CI budgets every state against the base.
//
//   - trace (captrace): off is Config.Tracer == nil; armed installs a
//     tracer but the request is unsampled (trace ID 0), the state every
//     request is in when -trace is on, since per-request events are
//     gated on a nonzero ID; traced is the sampled request's full cost,
//     a 32-byte ring write per probe outcome plus the handoff and death
//     events of a granted divide. Divides go through a Group. Budget:
//     armed ≤5%, and the off cases pinned to their atomic twins (the
//     disabled ~0% check).
//   - watch (capwatch): the sampler is a pure reader, so an armed
//     sampler's only cost to the hot path is the cache traffic of its
//     once-per-tick sweep. Off carries an inert ticker at the same
//     period as an experimental control: on a single-P runtime any
//     pending timer taxes every pass through the scheduler, which the
//     divide hand-off takes once per op (a bare time.Ticker alone
//     measures +15% on divide_granted at GOMAXPROCS=1). Every real
//     deployment already owns such timers, so the pair prices the
//     sampler's own work. Budget: armed ≤2% on the probe paths, ≤5% on
//     divide (whose hand-off has a ±3% pair-noise floor).
//   - incident (capscope): the recorder rides the sampler's tick, so
//     off is exactly watch armed and the pair isolates what arming the
//     recorder adds on top of telemetry that is already on. Its
//     triggers cannot fire here: no deaths (throttle quiescent), no
//     server, no router. Budget: the watch ceilings.
var planes = []struct {
	family string
	states []planeState
}{
	{"trace", []planeState{
		{"off", plane{group: true}},
		{"armed", plane{config: withTracer, group: true}},
		{"traced", plane{config: withTracer, tid: benchTID, group: true}},
	}},
	{"watch", []planeState{
		{"off", plane{start: inertTicker}},
		{"armed", plane{start: watchSampler}},
	}},
	{"incident", []planeState{
		{"off", plane{start: watchSampler}},
		{"armed", plane{start: incidentRecorder}},
	}},
}

type planeState struct {
	name  string
	plane plane
}

// benchTID is the fixed trace identity the traced cases record under.
const benchTID = 0x00c0ffee00c0ffee

func withTracer(c *capsule.Config) { c.Tracer = captrace.New(0, 0) }

// inertTicker is the watch family's off control: a ticker at the
// sampler's production period whose ticks nobody acts on.
func inertTicker(_ *testing.B, _ *capsule.Runtime) func() {
	t := time.NewTicker(capwatch.DefaultInterval)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-t.C:
			case <-done:
				return
			}
		}
	}()
	return func() {
		t.Stop()
		close(done)
	}
}

func newSampler(rt *capsule.Runtime) *capwatch.Sampler {
	s, err := capwatch.New(capwatch.Config{Runtime: rt})
	if err != nil {
		panic(err)
	}
	return s
}

// watchSampler arms a live sampler over rt at the production tick.
func watchSampler(_ *testing.B, rt *capsule.Runtime) func() {
	s := newSampler(rt)
	s.Start()
	return s.Stop
}

// incidentRecorder arms a live sampler over rt with an incident
// recorder riding its tick, its triggers unable to fire.
func incidentRecorder(b *testing.B, rt *capsule.Runtime) func() {
	s := newSampler(rt)
	dir, err := os.MkdirTemp("", "capscope-bench-")
	if err != nil {
		b.Fatal(err)
	}
	rec, err := capscope.New(capscope.Config{
		Dir:             dir,
		Runtime:         rt,
		ProfileDuration: -1,        // a capture here would be a bug, but never burn CPU for it
		Cooldown:        time.Hour, // and never twice
	})
	if err != nil {
		os.RemoveAll(dir)
		b.Fatal(err)
	}
	rec.Arm(s)
	s.Start()
	return func() {
		s.Stop()
		rec.Close()
		os.RemoveAll(dir)
	}
}
