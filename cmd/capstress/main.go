// Command capstress measures the capsule runtime's probe/divide hot path,
// writes the machine-readable BENCH_capsule.json the repo tracks, and
// gates the fresh report. It runs the internal/capsule/hotpath suite
// (the live lock-free runtime AND the retained mutex baseline, so every
// report carries its own before/after), a short Divide storm for the
// grant rate, and an in-process capserve closed loop for serving
// throughput. The suite's overhead families, with the capfault wrap
// pairs, re-measure every ops plane's hot-path cost each run
// (trace_overhead, watch_overhead, incident_overhead, fault_overhead).
// The serving measurement runs with a sampler armed, recording its SLO
// verdict (the slo block), and the incident block stages an SLO burn
// end-to-end and asserts the recorder captured a complete bundle.
//
// It also runs a cluster scenario: three in-process capserve backends
// behind a capcluster router, one killed at halftime — the tracked
// numbers are the remote grant rate, the local fallback rate, and the
// zero-failed-requests property under a backend death — plus the chaos
// and router-chaos storms.
//
// The gate (gate.go) then judges the fresh report against a table of
// named checks. Relative bounds read the baseline: the report at -out
// before this run overwrote it. capstress writes the report either way
// and exits 1 listing every failed check; a missing baseline, or a
// scenario switched off by flag, fails the checks that need it.
//
// Usage:
//
//	capstress                                  # measure, write and gate BENCH_capsule.json
//	capstress -serve-duration 5s -serve-n 4000 # longer serving measurement
//	capstress -out bench.json -serve=false     # hot path only, custom path (gate fails the serve checks)
//	capstress -cluster=false                   # skip the cluster scenario
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/capcluster"
	"repro/internal/capfault"
	"repro/internal/capscope"
	"repro/internal/capserve"
	"repro/internal/capsule"
	"repro/internal/capsule/hotpath"
	"repro/internal/captrace"
	"repro/internal/capwatch"
)

// caseResult is one benchmark's outcome.
type caseResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	N           int     `json:"n"`
}

// report is the BENCH_capsule.json schema.
type report struct {
	GeneratedBy string `json:"generated_by"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`

	// Machine identity, so numbers from different runners are comparable:
	// the OS-reported CPU model, the physical/logical core count the OS
	// exposes, and the parallelism multipliers of the probe sweep.
	CPUModel  string  `json:"cpu_model"`
	NumCPU    int     `json:"num_cpu"`
	Sweep     []int   `json:"gomaxprocs_sweep"`
	DurationS float64 `json:"duration_s"`

	// Results by hotpath case name ("atomic/..." is the live sharded
	// lock-free runtime, "mutex/..." the pre-rewrite baseline).
	Results map[string]caseResult `json:"results"`

	// Speedups divide mutex ns/op by atomic ns/op for each shared path.
	Speedups map[string]float64 `json:"speedups"`

	// The overhead sections, one per ops plane, each folded from its
	// family's cases (measureOverheads, fold): trace_overhead (captrace
	// off/armed/traced), watch_overhead (capwatch off/armed),
	// incident_overhead (capscope off/armed, both over an armed sampler)
	// and fault_overhead (capfault unwrapped/disarmed). gate.go budgets
	// each one.
	TraceOverhead    map[string]overheadResult `json:"trace_overhead,omitempty"`
	WatchOverhead    map[string]overheadResult `json:"watch_overhead,omitempty"`
	IncidentOverhead map[string]overheadResult `json:"incident_overhead,omitempty"`
	FaultOverhead    map[string]overheadResult `json:"fault_overhead,omitempty"`

	Storm   *stormResult   `json:"storm,omitempty"`
	Serve   *serveResult   `json:"serve,omitempty"`
	Cluster *clusterResult `json:"cluster,omitempty"`

	// Chaos is the fault-injection storm block: churn, slow-not-dead and
	// partition scenarios, each gated in CI on zero failed client
	// requests.
	Chaos *chaosResult `json:"chaos,omitempty"`

	// Incident is the staged-burn flight-recorder scenario: a scripted
	// overload must exhaust the SLO budget and capscope must land at
	// least one complete bundle. Gated in CI on bundles >= 1 with the
	// core artifacts present.
	Incident *incidentResult `json:"incident,omitempty"`

	// RouterChaos is the replicated-router storm block: a hard replica
	// kill with client failover (gated in CI on zero failed requests and
	// placement agreement) and a credit-feed blackhole proving the
	// scrape fallback (gated on pre-cut refresh skips > 0 and zero
	// failed requests).
	RouterChaos *routerChaosResult `json:"router_chaos,omitempty"`
}

// overheadResult is one path's row of an overhead section:
// "<state>_ns_per_op" for every state of the family, and
// "<state>_overhead_pct" for every state but the base.
type overheadResult map[string]float64

// incidentResult is the staged-burn scenario's tracked outcome: a
// closed-loop overload against a tiny accept queue sheds hard enough
// to exhaust the availability budget in both burn windows, and the
// armed recorder must catch it.
type incidentResult struct {
	Bundles   int      `json:"bundles"`
	Trigger   string   `json:"trigger"`
	Reason    string   `json:"reason"`
	FastBurn  float64  `json:"fast_burn"`
	SlowBurn  float64  `json:"slow_burn"`
	CooldownS float64  `json:"cooldown_s"`
	Files     []string `json:"files"`

	// The client's view: 200s served, other statuses shed (transport
	// errors are not counted), and the 200s' tail latency.
	Requests     int     `json:"requests"`
	Sheds        int     `json:"sheds"`
	DurationS    float64 `json:"duration_s"`
	P99LatencyMS float64 `json:"p99_latency_ms"`
	MaxLatencyMS float64 `json:"max_latency_ms"`
}

type stormResult struct {
	Goroutines int     `json:"goroutines"`
	Contexts   int     `json:"contexts"`
	Probes     uint64  `json:"probes"`
	Granted    uint64  `json:"granted"`
	GrantRate  float64 `json:"grant_rate"`
	DurationS  float64 `json:"duration_s"`
}

type serveResult struct {
	Workload string `json:"workload"`
	N        int    `json:"n"`
	Clients  int    `json:"clients"`
	load

	// SLO is the armed capwatch sampler's burn-rate verdict over the
	// serving run, so the evaluator's output is itself a tracked number.
	SLO *sloBlock `json:"slo,omitempty"`
}

// sloBlock is the serve scenario's SLO verdict, distilled from the
// sampler's fast window (sized to the run).
type sloBlock struct {
	TargetP99MS    float64 `json:"target_p99_ms"`
	Objective      float64 `json:"availability_objective"`
	Availability   float64 `json:"availability"`
	P99MS          float64 `json:"p99_ms"`
	FracOverTarget float64 `json:"frac_over_target"`
	BurnRate       float64 `json:"burn_rate"`
	Exhausted      bool    `json:"exhausted"`
}

// clusterResult is the cluster scenario's tracked numbers: probe/divide
// across processes, with one backend killed at halftime.
type clusterResult struct {
	Backends int `json:"backends"`
	Clients  int `json:"clients"`
	N        int `json:"n"`
	load
	credit
	RemoteProbes    uint64  `json:"remote_probes"`
	RemoteGrants    uint64  `json:"remote_grants"`
	RemoteGrantRate float64 `json:"remote_grant_rate"`
	FallbackRate    float64 `json:"fallback_rate"`
	Deaths          uint64  `json:"deaths"`
	BreakerDenies   uint64  `json:"breaker_denies"`
}

func main() {
	out := flag.String("out", "BENCH_capsule.json", "output path for the JSON report")
	serve := flag.Bool("serve", true, "also measure in-process capserve throughput")
	serveDur := flag.Duration("serve-duration", 2*time.Second, "capserve measurement duration")
	serveN := flag.Int("serve-n", 2000, "capserve request input size")
	stormDur := flag.Duration("storm-duration", 500*time.Millisecond, "divide-storm duration for the grant rate")
	cluster := flag.Bool("cluster", true, "also measure the capcluster router (3 backends, one killed at halftime)")
	clusterDur := flag.Duration("cluster-duration", 2*time.Second, "cluster scenario duration")
	clusterN := flag.Int("cluster-n", 800, "cluster scenario request input size")
	chaos := flag.Bool("chaos", true, "also run the capfault chaos storms (churn, slow backend, partition)")
	chaosDur := flag.Duration("chaos-duration", 2*time.Second, "duration of each chaos storm")
	chaosN := flag.Int("chaos-n", 400, "chaos storm request input size")
	routerChaos := flag.Bool("router-chaos", true, "also run the replicated-router storms (replica kill with failover, credit-feed blackhole)")
	incident := flag.Bool("incident", true, "also run the staged-burn capscope scenario (overload until the SLO budget exhausts, assert a bundle lands)")
	incidentDur := flag.Duration("incident-duration", 2*time.Second, "staged-burn scenario duration")
	incidentN := flag.Int("incident-n", 30000, "staged-burn scenario request input size (big enough that the closed loop overruns the latency target)")
	flag.Parse()
	// The gate's baseline is the report this run replaces.
	baseline, baselineErr := os.ReadFile(*out)

	start := time.Now()
	r := report{
		GeneratedBy: "cmd/capstress",
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		CPUModel:    cpuModel(),
		NumCPU:      runtime.NumCPU(),
		Sweep:       hotpath.SweepMultipliers,
		Results:     map[string]caseResult{},
		Speedups:    map[string]float64{},
	}
	fmt.Printf("machine: %s, %d cpus, GOMAXPROCS %d, sweep %v\n", r.CPUModel, r.NumCPU, r.GOMAXPROCS, r.Sweep)

	overheads := append(hotpath.Overheads(), faultOverhead())
	isOverhead := map[string]bool{}
	for _, o := range overheads {
		for _, c := range o.Cases {
			isOverhead[c.Name] = true
		}
	}
	for _, c := range hotpath.Cases() {
		if isOverhead[c.Name] {
			continue
		}
		cr := benchResult(testing.Benchmark(c.Bench))
		r.Results[c.Name] = cr
		fmt.Printf("%-36s %12.1f ns/op %6d allocs/op %6d B/op\n", c.Name, cr.NsPerOp, cr.AllocsPerOp, cr.BytesPerOp)
	}
	best := measureOverheads(overheads)
	for _, c := range hotpath.Cases() {
		if cr, ok := best[c.Name]; ok {
			r.Results[c.Name] = cr
			fmt.Printf("%-36s %12.1f ns/op %6d allocs/op %6d B/op\n", c.Name, cr.NsPerOp, cr.AllocsPerOp, cr.BytesPerOp)
		}
	}
	sections := map[string]map[string]overheadResult{}
	for _, o := range overheads {
		sections[o.Family] = fold(o, best)
	}
	r.TraceOverhead, r.WatchOverhead = sections["trace"], sections["watch"]
	r.IncidentOverhead, r.FaultOverhead = sections["incident"], sections["fault"]
	for name, atomicRes := range r.Results {
		path, ok := strings.CutPrefix(name, "atomic/")
		if !ok || atomicRes.NsPerOp <= 0 {
			continue
		}
		if mutexRes, ok := r.Results["mutex/"+path]; ok {
			r.Speedups[path] = mutexRes.NsPerOp / atomicRes.NsPerOp
		}
	}

	r.Storm = divideStorm(*stormDur)
	fmt.Printf("storm: %d goroutines on %d contexts: %d probes, grant rate %.3f\n",
		r.Storm.Goroutines, r.Storm.Contexts, r.Storm.Probes, r.Storm.GrantRate)

	if *serve {
		s, err := serveLoop(*serveDur, *serveN)
		if err != nil {
			fail("capserve measurement: %v", err)
		}
		r.Serve = s
		fmt.Printf("capserve: %d clients x %s on %s n=%d: %.1f req/s (%d requests, %d errors)\n",
			s.Clients, serveDur, s.Workload, s.N, s.RPS, s.Requests, s.Errors)
		if s.SLO != nil {
			fmt.Printf("capserve slo: availability=%.4f p99=%.2fms burn=%.2f exhausted=%v\n",
				s.SLO.Availability, s.SLO.P99MS, s.SLO.BurnRate, s.SLO.Exhausted)
		}
	}

	if *cluster {
		c, err := clusterLoop(*clusterDur, *clusterN)
		if err != nil {
			fail("cluster measurement: %v", err)
		}
		r.Cluster = c
		fmt.Printf("cluster: %d clients x %s over %d backends (one killed at halftime): %.1f req/s, %d requests, %d errors, grant rate %.3f, fallback rate %.3f, %d deaths, %s\n",
			c.Clients, clusterDur, c.Backends, c.RPS, c.Requests, c.Errors, c.RemoteGrantRate, c.FallbackRate, c.Deaths, c.credit)
	}

	if *chaos {
		ch, err := runChaos(*chaosDur, *chaosN)
		if err != nil {
			fail("chaos measurement: %v", err)
		}
		r.Chaos = ch
		fmt.Printf("chaos churn: %d joins/%d leaves across %d backends: %d requests, %d errors, %s\n",
			ch.Churn.Joins, ch.Churn.Leaves, ch.Churn.Backends, ch.Churn.Requests, ch.Churn.Errors, ch.Churn.credit)
		fmt.Printf("chaos slow: %d ejections, readmitted=%v: %d requests, %d errors, %s\n",
			ch.Slow.Ejections, ch.Slow.Readmitted, ch.Slow.Requests, ch.Slow.Errors, ch.Slow.credit)
		fmt.Printf("chaos partition: %d deaths, %d breaker denies, max latency %.0fms: %d requests, %d errors, %s\n",
			ch.Partition.Deaths, ch.Partition.BreakerDenies, ch.Partition.MaxLatencyMS, ch.Partition.Requests, ch.Partition.Errors, ch.Partition.credit)
	}

	if *routerChaos {
		rc, err := runRouterChaos(*chaosDur, *chaosN)
		if err != nil {
			fail("router chaos measurement: %v", err)
		}
		r.RouterChaos = rc
		fmt.Printf("router chaos replica_kill: %d replicas over %d backends, one killed at halftime: %d requests, %d errors, %d failovers, placement %d/%d agreed, %s\n",
			rc.ReplicaKill.Replicas, rc.ReplicaKill.Backends, rc.ReplicaKill.Requests, rc.ReplicaKill.Errors,
			rc.ReplicaKill.Failovers, rc.ReplicaKill.PlacementAgreed, rc.ReplicaKill.PlacementChecked, rc.ReplicaKill.credit)
		fmt.Printf("router chaos feed_partition: %d refresh skips pre-cut (%d total), %d feed deltas: %d requests, %d errors, %s\n",
			rc.FeedPartition.RefreshSkippedPre, rc.FeedPartition.RefreshSkipped, rc.FeedPartition.FeedDeltas,
			rc.FeedPartition.Requests, rc.FeedPartition.Errors, rc.FeedPartition.credit)
	}

	if *incident {
		inc, err := incidentLoop(*incidentDur, *incidentN)
		if err != nil {
			fail("incident scenario: %v", err)
		}
		r.Incident = inc
		fmt.Printf("incident: %d bundle(s), trigger %s (fast burn %.1f, slow %.1f), %d requests / %d sheds, files %v\n",
			inc.Bundles, inc.Trigger, inc.FastBurn, inc.SlowBurn, inc.Requests, inc.Sheds, inc.Files)
	}

	r.DurationS = time.Since(start).Seconds()

	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		fail("%v", err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o666); err != nil {
		fail("%v", err)
	}
	fmt.Printf("wrote %s (probe_granted_parallel_4x speedup: %.2fx)\n", *out, r.Speedups["probe_granted_parallel_4x"])
	if failed := gate(os.Stdout, data, baseline, baselineErr); len(failed) > 0 {
		fail("bench gate: %d check(s) failed", len(failed))
	}
}

func benchResult(res testing.BenchmarkResult) caseResult {
	return caseResult{
		NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
		N:           res.N,
	}
}

// measureOverheads runs every overhead family's cases and keeps each
// case's fastest run. The sections divide pairs of these at
// single-digit-percent resolution, so they are measured round-robin:
// three rounds over all the families. Adjacent pairing plus a min
// estimate cancels the slow drift of a shared runner, which
// back-to-back per-case repeats would fold straight into the ratio and
// misread as the plane's cost.
func measureOverheads(overheads []hotpath.Overhead) map[string]caseResult {
	best := map[string]caseResult{}
	for round := 0; round < 3; round++ {
		for _, o := range overheads {
			for _, c := range o.Cases {
				cr := benchResult(testing.Benchmark(c.Bench))
				if prev, ok := best[c.Name]; !ok || cr.NsPerOp < prev.NsPerOp {
					best[c.Name] = cr
				}
			}
		}
	}
	return best
}

// fold turns one family's fastest runs into its report section: per
// path, every state's ns/op and every non-base state's overhead over
// the base state (States[0]).
func fold(o hotpath.Overhead, best map[string]caseResult) map[string]overheadResult {
	out := map[string]overheadResult{}
	for _, path := range o.Paths {
		base := best[o.Family+"/"+path+"_"+o.States[0]].NsPerOp
		if base <= 0 {
			continue
		}
		row := overheadResult{o.States[0] + "_ns_per_op": base}
		line := fmt.Sprintf("%s overhead %-28s", o.Family, path)
		for _, st := range o.States[1:] {
			ns := best[o.Family+"/"+path+"_"+st].NsPerOp
			pct := 100 * (ns/base - 1)
			row[st+"_ns_per_op"] = ns
			row[st+"_overhead_pct"] = pct
			line += fmt.Sprintf(" %s %+6.1f%%", st, pct)
		}
		out[path] = row
		fmt.Println(line)
	}
	return out
}

// divideStorm hammers a fresh default-sized runtime with Divide offers
// from 4×GOMAXPROCS goroutines and reports the paper's "% divisions
// allowed" under saturation.
func divideStorm(d time.Duration) *stormResult {
	rt := capsule.NewDefault()
	defer rt.Close()
	goroutines := 4 * runtime.GOMAXPROCS(0)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				rt.Divide(func() {})
			}
		}()
	}
	start := time.Now()
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	rt.Join()
	elapsed := time.Since(start)
	s := rt.Stats()
	return &stormResult{
		Goroutines: goroutines,
		Contexts:   rt.Contexts(),
		Probes:     s.Probes,
		Granted:    s.Granted,
		GrantRate:  s.GrantRate(),
		DurationS:  elapsed.Seconds(),
	}
}

// serveLoop stands up capserve in-process and drives it closed-loop, so
// the JSON carries an end-to-end serving number next to the
// microbenchmarks.
func serveLoop(d time.Duration, n int) (*serveResult, error) {
	rt := capsule.NewDefault()
	defer rt.Close()
	srv, err := capserve.New(capserve.Config{Runtime: rt})
	if err != nil {
		return nil, err
	}
	// Sampler armed for the whole run, windows scaled to the measurement:
	// the fast window covers the run, so its burn verdict judges all of
	// it. Manual closing tick rather than waiting out the 1s ticker.
	sampler, err := capwatch.New(capwatch.Config{
		Source:  "capstress-serve",
		Runtime: rt,
		Server:  srv,
		SLO:     capwatch.SLOConfig{FastWindow: d, SlowWindow: 2 * d},
	})
	if err != nil {
		return nil, err
	}
	sampler.Start()
	defer sampler.Stop()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	clients := clientCount(2, 8)
	run := storm([]string{ts.URL}, []string{"quicksort"}, clients, n, d)
	rt.Join()
	sampler.SampleNow() // closing tick: the SLO window must include the run's tail
	slo := sampler.Report(0).SLO
	return &serveResult{
		Workload: "quicksort",
		N:        n,
		Clients:  clients,
		load:     run.load(),
		SLO: &sloBlock{
			TargetP99MS:    slo.TargetP99MS,
			Objective:      slo.Availability,
			Availability:   slo.Fast.Availability,
			P99MS:          slo.Fast.P99MS,
			FracOverTarget: slo.Fast.FracOverTarget,
			BurnRate:       slo.BurnRate,
			Exhausted:      slo.Exhausted,
		},
	}, nil
}

// clusterLoop stands up three in-process capserve backends behind a
// capcluster router and drives it closed-loop with mixed workloads,
// killing one backend at halftime. The tracked numbers are the remote
// grant rate (the cluster-scope "% divisions allowed"), the local
// fallback rate (the cluster degrade), and — the property that matters —
// zero failed client requests across the kill.
func clusterLoop(d time.Duration, n int) (*clusterResult, error) {
	const nBackends = 3
	clients := clientCount(3, 12)
	f, router, url, err := routedFleet(nBackends, clients, capcluster.Config{
		FailThreshold: 2,
		FailWindow:    30 * time.Second, // the victim stays broken for the run
		Timeout:       5 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	defer f.close()
	halftime := time.AfterFunc(d/2, func() { f.backends[nBackends-1].Kill() })
	defer halftime.Stop()
	run := storm([]string{url}, mixed, clients, n, d)
	s := router.Stats()
	return &clusterResult{
		Backends:        nBackends,
		Clients:         clients,
		N:               n,
		load:            run.load(),
		credit:          f.credit(),
		RemoteProbes:    s.RemoteProbes,
		RemoteGrants:    s.RemoteGrants,
		RemoteGrantRate: s.RemoteGrantRate(),
		FallbackRate:    s.FallbackRate(),
		Deaths:          s.Deaths,
		BreakerDenies:   s.BreakerDenies,
	}, nil
}

// incidentLoop stages a burn and verifies the flight recorder catches
// it end-to-end, in-process: a single-context capserve with a tiny
// accept queue under a closed-loop client swarm overruns the 25ms
// latency target (and sheds with 503 when the queue fills), exhausting
// the error budget in both burn windows — the armed capscope recorder
// must fire and land at least one complete bundle. A capfault latency
// rule is armed through the same injector the real fleet uses, so the
// bundle's fault.json records the storm that staged the incident — the
// artifact tells the story.
func incidentLoop(d time.Duration, n int) (*incidentResult, error) {
	dir, err := os.MkdirTemp("", "capstress-incident-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	tracer := captrace.New(0, 2048)
	rt := capsule.New(capsule.Config{Contexts: 1, Tracer: tracer})
	defer rt.Close()
	srv, err := capserve.New(capserve.Config{Runtime: rt, QueueDepth: 2})
	if err != nil {
		return nil, err
	}
	inj := capfault.New(1)
	if _, err := inj.Set(capfault.Rule{Kind: capfault.KindLatency, Delay: 2 * time.Millisecond}); err != nil {
		return nil, err
	}
	// Windows scaled to the run: both must be covered by resident
	// samples before Exhausted can go true, so the first capture lands
	// about one slow window in.
	sampler, err := capwatch.New(capwatch.Config{
		Source:   "capstress-incident",
		Interval: 50 * time.Millisecond,
		Runtime:  rt,
		Server:   srv,
		SLO: capwatch.SLOConfig{
			TargetP99:  25 * time.Millisecond,
			FastWindow: d / 4,
			SlowWindow: d / 2,
		},
	})
	if err != nil {
		return nil, err
	}
	rec, err := capscope.New(capscope.Config{
		Source:          "capstress-incident",
		Dir:             dir,
		MaxBundles:      4,
		Cooldown:        d / 4,
		ProfileDuration: 100 * time.Millisecond,
		Runtime:         rt,
		Server:          srv,
		Tracer:          tracer,
		Fault:           inj,
	})
	if err != nil {
		return nil, err
	}
	rec.Arm(sampler)
	sampler.Start()
	ts := httptest.NewServer(inj.Handler("capstress-incident", srv))

	run := storm([]string{ts.URL}, []string{"quicksort"}, clientCount(2, 16), n, d)
	served := run.served()
	sheds := run.tally.Count(func(code int) bool { return code != 0 && code != http.StatusOK })
	rt.Join()
	sampler.SampleNow() // closing tick: one last trigger evaluation over the tail
	ts.Close()
	sampler.Stop()
	rec.Close() // waits for the in-flight capture to land

	manifests := capscope.LoadManifests(dir)
	if len(manifests) == 0 {
		return nil, fmt.Errorf("staged burn produced no incident bundle (%d ok / %d shed)", served, sheds)
	}
	newest := manifests[len(manifests)-1]
	for _, want := range []string{capscope.FileWatch, capscope.FileTrace, capscope.FileHeap} {
		found := false
		for _, f := range newest.Files {
			if f == want {
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("bundle %s missing %s (files %v, notes %v)", newest.ID, want, newest.Files, newest.Notes)
		}
	}
	return &incidentResult{
		Bundles:      len(manifests),
		Trigger:      newest.Trigger,
		Reason:       newest.Reason,
		FastBurn:     newest.SLO.Fast.Burn,
		SlowBurn:     newest.SLO.Slow.Burn,
		CooldownS:    newest.CooldownS,
		Files:        newest.Files,
		Requests:     served,
		Sheds:        sheds,
		DurationS:    run.elapsed.Seconds(),
		P99LatencyMS: ms(run.tally.Quantile(0.99)),
		MaxLatencyMS: ms(run.tally.Quantile(1)),
	}, nil
}

// cpuModel returns the OS-reported CPU model string, so BENCH numbers
// carry their machine identity. Linux /proc/cpuinfo; falls back to the
// architecture elsewhere.
func cpuModel() string {
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				if _, v, ok := strings.Cut(rest, ":"); ok {
					return strings.TrimSpace(v)
				}
			}
		}
	}
	return runtime.GOOS + "/" + runtime.GOARCH
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "capstress: "+format+"\n", args...)
	os.Exit(1)
}
