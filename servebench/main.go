// Command servebench is the served-request benchmark. It builds the
// native serving stack in-process from its public constructors — a
// capserve backend, or a capcluster router over two capserve backends —
// drives it with closed-loop clients over loopback HTTP, checks every
// response's checksum against workloads.RunRequest on the Sequential()
// domain, and prints one JSON result line.
//
// Run it from the repository root through its launcher, which builds
// it first:
//
//	bash servebench/run.sh --workload small_direct --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// runs the workload twice, untraced and then with span recorders around
// every layer boundary, and reports the per-layer metrics. README.md
// lists the workloads and which metric each layer should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// setupRounds is how many times an untraced run builds and warms a
// stack; setup_s is the median, and the last stack is measured.
const setupRounds = 5

// An untraced phase during which the hypervisor took more than
// maxStealPct of the CPUs' time measured the machine's other tenants as
// much as the program (1.5% steal already costs a tenth of the
// throughput, and p99 latency rises several times over), so it is
// measured once more on the same stack and the phase with less steal is
// reported. The requests of both phases count in attempted and failed,
// and the report lists the steal of the phase left out.
const (
	maxStealPct = 1.0
	maxAttempts = 2
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is printed on the line before the result: the environment
// stanza, the error rate, the untraced phase's p99 latency, and every
// metric of the run.
type report struct {
	Workload  string            `json:"workload"`
	Env       map[string]any    `json:"env"`
	ErrorRate float64           `json:"error_rate"`
	P99       float64           `json:"latency_p99_ms"`
	StealPct  float64           `json:"host_steal_pct"`
	Mismatch  int               `json:"checksum_mismatches"`
	Verified  int               `json:"checksums_verified"`
	SetupS    []float64         `json:"setup_s_rounds,omitempty"`
	Discarded []float64         `json:"discarded_steal_pct,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "small_direct", "workload: small_direct, small_routed or large_solo")
	seed := flag.Int64("seed", 1, "seed every request input is derived from")
	seconds := flag.Int("seconds", 10, "length of each timed phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from an extra traced phase")
	flag.Parse()

	w, err := lookupWorkload(*name)
	if err == nil && (*seconds < 1 || *trace < 0 || *trace > 1) {
		err = fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(2)
	}
	res, rep, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	out := json.NewEncoder(os.Stdout)
	err = out.Encode(map[string]report{"report": *rep})
	if err == nil {
		err = out.Encode(res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench: writing the result:", err)
		os.Exit(1)
	}
}

func environment(w *workload, seed int64, d time.Duration, traced bool) map[string]any {
	return map[string]any{
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"clients":    w.clients,
		"loop":       "closed",
		"transport":  "loopback",
		"seed":       seed,
		"seconds":    d.Seconds(),
		"traced":     traced,
	}
}

// run performs one benchmark run and returns its result line and report.
func run(w *workload, seed int64, d time.Duration, traced bool) (*result, *report, error) {
	streams := newStreams(w, seed)
	v := newVerifier(w)
	defer v.close()
	if err := v.prepare(streams); err != nil {
		return nil, nil, err
	}
	var warm, timed []*tally // the warm-up and timed requests, discarded attempts included

	// setUp builds a stack and warms it, up to the first timed request,
	// and returns the time that took. Warm-up responses are verified too.
	setUp := func(tr *tracer) (*stack, float64, error) {
		start := time.Now()
		s, err := buildStack(w, tr)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		t, _ := drive(s.client, s.url, streams, w.warm, 0, false, v)
		took := time.Since(start).Seconds()
		warm = append(warm, t)
		if err := v.resolve(t); err != nil {
			s.close()
			return nil, 0, err
		}
		if t.failed > 0 {
			s.close()
			return nil, 0, fmt.Errorf("set-up: %d of %d warm-up requests failed", t.failed, t.attempted)
		}
		return s, took, nil
	}

	// An untraced run sets up setupRounds times and reports the median;
	// the last stack is measured.
	rounds := setupRounds
	if traced {
		rounds = 1
	}
	var setups []float64
	var st *stack
	for i := 0; i < rounds; i++ {
		s, took, err := setUp(nil)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, took)
		if i < rounds-1 {
			s.close()
		} else {
			st = s
		}
	}
	var plain phase
	var discarded []float64
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		p, err := measure(st, streams, d, false, v)
		if err != nil {
			st.close()
			return nil, nil, err
		}
		timed = append(timed, p.t)
		switch {
		case attempt == 1:
			plain = p
		case p.stealPct() < plain.stealPct():
			discarded = append(discarded, plain.stealPct())
			plain = p
		default:
			discarded = append(discarded, p.stealPct())
		}
		if plain.stealPct() <= maxStealPct {
			break
		}
	}
	st.close()

	var tp phase
	var tr *tracer
	if traced {
		tr = newTracer()
		s, _, err := setUp(tr)
		if err != nil {
			return nil, nil, err
		}
		tp, err = measure(s, streams, d, true, v)
		s.close()
		if err != nil {
			return nil, nil, err
		}
		timed = append(timed, tp.t)
	}

	res := &result{}
	var mismatches, verified int
	for _, t := range append(warm, timed...) {
		mismatches += t.mismatches
		verified += t.verified
	}
	for _, t := range timed {
		res.Attempted += t.attempted
		res.Failed += t.failed
	}
	res.Correct = mismatches == 0
	rep := &report{
		Workload:  w.name,
		Env:       environment(w, seed, d, traced),
		ErrorRate: ratio(float64(res.Failed), float64(res.Attempted)),
		P99:       plain.t.latency.quantile(0.99) / 1e6,
		StealPct:  plain.stealPct(),
		Discarded: discarded,
		Mismatch:  mismatches,
		Verified:  verified,
	}
	if traced {
		var nested bool
		res.Metrics, nested = layerMetrics(w, plain, tp, tr)
		res.Correct = res.Correct && nested
	} else {
		res.Metrics = endToEnd(plain, setups)
		rep.SetupS = setups
	}
	rep.Metrics = res.Metrics
	return res, rep, nil
}

// endToEnd is what a user of the serving stack sees, from the untraced
// phase. error_rate is in the report and the result's failed count, not
// here: it is 0 on a healthy run. The tail reported here is p90, and p99
// is in the report: on a shared virtual machine p99 follows the
// hypervisor's steal (its spread across runs reached 0.5 where p90's
// stayed under 0.2), so a bound on it would gate the host, not the
// program.
func endToEnd(p phase, setups []float64) map[string]metric {
	ok := float64(p.t.ok())
	return map[string]metric{
		"throughput_rps": {p.throughput(), "1/s"},
		"latency_p50_ms": {p.t.latency.quantile(0.50) / 1e6, "ms"},
		"latency_p90_ms": {p.t.latency.quantile(0.90) / 1e6, "ms"},
		"cpu_ms_per_req": {ratio(float64(p.after.cpu-p.before.cpu)/1e6, ok), "ms"},
		"peak_rss_mb":    {p.peakRSSMB, "MiB"},
		"setup_s":        {median(setups), "s"},
	}
}
