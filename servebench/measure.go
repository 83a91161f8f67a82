package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/capcluster"
	"repro/internal/capserve"
)

// snapshot is every counter the benchmark reads around a phase: the
// process (CPU, allocation, GC) and each layer's Stats().
type snapshot struct {
	steal    int64 // host steal time of every CPU, in clock ticks
	cpu      time.Duration
	alloc    uint64 // bytes
	mallocs  uint64
	gcs      uint32
	probes   uint64
	granted  uint64
	noCtx    uint64
	throttle uint64
	deaths   uint64

	served   uint64 // capserve responses of every status
	ok       uint64
	shed     uint64
	degraded uint64

	router capcluster.Stats
}

// rusage returns the process's user+sys CPU time and its peak resident
// set in MiB (Linux reports ru_maxrss in KiB). Getrusage on the calling
// process cannot fail on Linux.
func rusage() (cpu time.Duration, peakRSSMB float64) {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024
}

func takeSnapshot(s *stack) snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu, _ := rusage()
	snap := snapshot{steal: stealTicks(), cpu: cpu, alloc: ms.TotalAlloc, mallocs: ms.Mallocs, gcs: ms.NumGC}
	for _, rt := range s.runtimes {
		st := rt.Stats()
		snap.probes += st.Probes
		snap.granted += st.Granted
		snap.noCtx += st.NoCtxDenies
		snap.throttle += st.ThrottleDenies
		snap.deaths += st.Deaths
	}
	for _, srv := range s.servers {
		eps := make([]capserve.EndpointCounters, len(srv.Workloads()))
		srv.ReadEndpointCounters(eps)
		for _, ep := range eps {
			snap.served += ep.OK + ep.ClientErrs + ep.ServerErrs
			snap.ok += ep.OK
			snap.degraded += ep.Degraded
		}
		snap.shed += srv.ShedCount()
	}
	if s.router != nil {
		snap.router = s.router.Stats()
	}
	return snap
}

// phase is one timed closed-loop run on one stack.
type phase struct {
	t             *tally
	wall          time.Duration
	before, after snapshot
	peakRSSMB     float64
}

// measure runs one timed phase, then verifies what it left pending.
func measure(st *stack, streams []*stream, d time.Duration, traced bool, v *verifier) (phase, error) {
	var p phase
	p.before = takeSnapshot(st)
	p.t, p.wall = drive(st.client, st.url, streams, 0, d, traced, v)
	p.after = takeSnapshot(st)
	_, p.peakRSSMB = rusage()
	return p, v.resolve(p.t)
}

func (p phase) throughput() float64 { return float64(p.t.ok()) / p.wall.Seconds() }

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return float64(xs[i])
}

func sum(xs []int64) float64 {
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s
}

func mean(xs []int64) float64 { return ratio(sum(xs), float64(len(xs))) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// stealTicks reads the steal column of /proc/stat's "cpu" line: time
// the hypervisor ran something else while the virtual machine's CPUs
// wanted to run, in USER_HZ ticks (100 per second). It is 0 where
// unknown.
func stealTicks() int64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(fields[8], 10, 64)
	return v
}

// stealPct is the share of the phase's CPU capacity the hypervisor
// took away: a run with a high value was slowed from outside.
func (p phase) stealPct() float64 {
	return ratio(float64(p.after.steal-p.before.steal), p.wall.Seconds()*100*float64(runtime.NumCPU())) * 100
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
