package capwatch

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/capsule"
	"repro/internal/ops/fleet"
)

func newRuntime(t *testing.T, contexts int) *capsule.Runtime {
	t.Helper()
	rt, err := capsule.NewValidated(capsule.Config{Contexts: contexts, Throttle: true})
	if err != nil {
		t.Fatalf("runtime: %v", err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a nil Runtime")
	}
	rt := newRuntime(t, 2)
	if _, err := New(Config{Runtime: rt, Interval: -time.Second}); err == nil {
		t.Fatal("New accepted a negative interval")
	}
	if _, err := New(Config{Runtime: rt, SLO: SLOConfig{Availability: 1.5}}); err == nil {
		t.Fatal("New accepted Availability > 1")
	}
	if _, err := New(Config{Runtime: rt, SLO: SLOConfig{FastWindow: time.Hour, SlowWindow: time.Minute}}); err == nil {
		t.Fatal("New accepted fast window > slow window")
	}
}

func TestRingAutoSize(t *testing.T) {
	rt := newRuntime(t, 2)
	s, err := New(Config{
		Runtime:  rt,
		Interval: time.Second,
		SLO:      SLOConfig{FastWindow: 5 * time.Minute, SlowWindow: time.Hour},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// 3600 samples must be resident for the slow window to be judged.
	if s.RingSize() < 3600 {
		t.Fatalf("auto ring %d cannot hold the 1h slow window at a 1s tick", s.RingSize())
	}
	if s.RingSize() > maxRing {
		t.Fatalf("auto ring %d exceeds maxRing", s.RingSize())
	}
}

// TestRingWraparound storms SampleNow past several full ring
// revolutions while concurrent readers snapshot and roll up — the
// -race proof that slot reuse and reader copies cannot tear. The
// snapshots must always be time-ordered and bounded by the ring size.
func TestRingWraparound(t *testing.T) {
	rt := newRuntime(t, 2)
	s, err := New(Config{Runtime: rt, Ring: minRing, Interval: time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const revolutions = 4
	total := revolutions * s.RingSize()

	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				samples := s.Snapshot(0)
				if len(samples) > s.RingSize() {
					t.Errorf("Snapshot returned %d > ring %d", len(samples), s.RingSize())
					return
				}
				for i := 1; i < len(samples); i++ {
					if samples[i].TS < samples[i-1].TS {
						t.Errorf("snapshot %d out of order: %d < %d", i, samples[i].TS, samples[i-1].TS)
						return
					}
				}
				_ = s.Report(time.Second)
			}
		}()
	}
	for i := 0; i < total; i++ {
		s.SampleNow()
	}
	done.Store(true)
	wg.Wait()

	if got := s.Samples(); got != uint64(total) {
		t.Fatalf("Samples() = %d, want %d", got, total)
	}
	if got := len(s.Snapshot(0)); got != s.RingSize() {
		t.Fatalf("after wraparound Snapshot(0) returned %d, want full ring %d", got, s.RingSize())
	}
}

// TestDeltaMonotonicity checks the paper's accounting invariant
// survives sampling: across any pair of consecutive snapshots taken
// during a live probe storm, counter deltas are non-negative and
// Probes == Granted + NoCtxDenies + ThrottleDenies.
func TestDeltaMonotonicity(t *testing.T) {
	rt := newRuntime(t, 4)
	s, err := New(Config{Runtime: rt, Ring: minRing})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				if c, ok := rt.Probe(); ok {
					rt.Release(c)
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		s.SampleNow()
	}
	done.Store(true)
	wg.Wait()

	samples := s.Snapshot(0)
	if len(samples) < 2 {
		t.Fatalf("want >= 2 samples, got %d", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		d := samples[i].Capsule.Delta(samples[i-1].Capsule)
		outcomes := d.Granted + d.NoCtxDenies + d.ThrottleDenies
		if d.Probes != outcomes {
			t.Fatalf("sample %d: Probes %d != outcomes %d (invariant broken across sampled delta)", i, d.Probes, outcomes)
		}
		// uint64 wraparound would make any of these astronomically large.
		const sane = uint64(1) << 60
		if d.Probes > sane || d.Granted > sane || d.NoCtxDenies > sane || d.ThrottleDenies > sane {
			t.Fatalf("sample %d: negative delta wrapped: %+v", i, d)
		}
	}
}

// TestSampleNowAllocs is the zero-alloc tick contract: after the first
// call warms the runtime/metrics buffers, a snapshot performs no
// allocations.
func TestSampleNowAllocs(t *testing.T) {
	rt := newRuntime(t, 4)
	s, err := New(Config{Runtime: rt, Ring: minRing})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.SampleNow() // warmup
	if n := testing.AllocsPerRun(100, s.SampleNow); n != 0 {
		t.Fatalf("SampleNow allocates %v per tick, want 0", n)
	}
}

func TestStartStop(t *testing.T) {
	rt := newRuntime(t, 2)
	s, err := New(Config{Runtime: rt, Ring: minRing, Interval: 2 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Start()
	s.Start() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for s.Samples() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.Samples() < 3 {
		t.Fatalf("armed sampler took %d samples in 2s, want >= 3", s.Samples())
	}
	s.Stop()
	s.Stop() // idempotent
	n := s.Samples()
	time.Sleep(20 * time.Millisecond)
	if got := s.Samples(); got != n {
		t.Fatalf("sampler still ticking after Stop: %d -> %d", n, got)
	}
}

func TestReportEmptyRing(t *testing.T) {
	rt := newRuntime(t, 2)
	s, err := New(Config{Runtime: rt, Ring: minRing})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep := s.Report(0)
	if rep.WindowSamples != 0 || rep.Samples != 0 {
		t.Fatalf("empty ring report claims samples: %+v", rep)
	}
	if rep.Rates.Availability != 1 || rep.SLO.Fast.Availability != 1 {
		t.Fatalf("empty ring must report availability 1, got %g / %g",
			rep.Rates.Availability, rep.SLO.Fast.Availability)
	}
	if rep.SLO.BurnRate != 0 || rep.SLO.Exhausted {
		t.Fatalf("empty ring must not burn budget: %+v", rep.SLO)
	}
}

func TestHandlerShapes(t *testing.T) {
	rt := newRuntime(t, 2)
	a, _ := New(Config{Runtime: rt, Ring: minRing, Source: "a"})
	b, _ := New(Config{Runtime: rt, Ring: minRing, Source: "b"})
	a.SampleNow()
	b.SampleNow()

	// Single sampler: an object.
	rec := httptest.NewRecorder()
	Handler(a).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/watch?window=10s", nil))
	var obj Report
	if err := json.Unmarshal(rec.Body.Bytes(), &obj); err != nil {
		t.Fatalf("single-sampler body is not one Report: %v", err)
	}
	if obj.Source != "a" || obj.WindowS != 10 {
		t.Fatalf("report = source %q window %g, want a/10", obj.Source, obj.WindowS)
	}

	// Two samplers: an array, order preserved.
	rec = httptest.NewRecorder()
	Handler(a, b).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/watch", nil))
	reps, err := fleet.Decode[Report](rec.Body)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(reps) != 2 || reps[0].Source != "a" || reps[1].Source != "b" {
		t.Fatalf("merged reports = %+v, want [a b]", reps)
	}

	// The shared decoder accepts the single-object shape too.
	single, err := fleet.Decode[Report](strings.NewReader(`{"source":"x"}`))
	if err != nil || len(single) != 1 || single[0].Source != "x" {
		t.Fatalf("decode(object) = %v, %v", single, err)
	}

	// Bad window: 400.
	rec = httptest.NewRecorder()
	Handler(a).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/watch?window=yes", nil))
	if rec.Code != 400 {
		t.Fatalf("bad window returned %d, want 400", rec.Code)
	}
}

func TestWriteMetrics(t *testing.T) {
	rt := newRuntime(t, 2)
	s, err := New(Config{Runtime: rt, Ring: minRing})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.SampleNow()
	var buf bytes.Buffer
	s.WriteMetrics(&buf)
	out := buf.String()
	for _, want := range []string{
		"capwatch_samples_total 1",
		`capwatch_slo_burn_rate{window="fast",slo="availability"}`,
		`capwatch_slo_burn_rate{window="slow",slo="latency"}`,
		"capwatch_slo_budget_exhausted 0",
		"capwatch_go_goroutines",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestZeroWidthWindowClamp is the regression test for sub-tick rollup
// windows: two snapshots taken microseconds apart used to divide the
// counter deltas by the near-zero elapsed span, inflating rates toward
// Inf. Rates must now divide by at least one tick, with the effective
// divisor surfaced as window_clamped_s.
func TestZeroWidthWindowClamp(t *testing.T) {
	rt := newRuntime(t, 2)
	s, err := New(Config{Runtime: rt, Interval: time.Second, Ring: minRing})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.SampleNow()
	const probes = 100
	for i := 0; i < probes; i++ {
		if c, ok := rt.Probe(); ok {
			rt.Release(c)
		}
	}
	s.SampleNow() // microseconds after the first

	// A ?window= smaller than one tick must clamp, not divide by ~0.
	rep := s.Report(time.Millisecond)
	if rep.WindowClampedS < s.Interval().Seconds() {
		t.Fatalf("window_clamped_s = %g, want >= the %gs tick", rep.WindowClampedS, s.Interval().Seconds())
	}
	if rep.Rates.ProbesPerSec > probes+1 {
		t.Fatalf("probes_per_s = %g for %d probes over a clamped 1s window — the divisor was not clamped", rep.Rates.ProbesPerSec, probes)
	}
	// The delta reconstructs exactly from the effective divisor.
	if got := rep.Rates.ProbesPerSec * rep.WindowClampedS; got < probes-1 || got > probes+1 {
		t.Fatalf("rate %g x clamp %g = %g, want ~%d", rep.Rates.ProbesPerSec, rep.WindowClampedS, got, probes)
	}
	for name, v := range map[string]float64{
		"probes_per_s":   rep.Rates.ProbesPerSec,
		"grants_per_s":   rep.Rates.GrantsPerSec,
		"requests_per_s": rep.Rates.RequestsPerSec,
		"errors_per_s":   rep.Rates.ErrorsPerSec,
	} {
		if !finite(v) || v < 0 {
			t.Fatalf("%s = %g not finite/non-negative under a zero-width window", name, v)
		}
	}

	// A window wider than the covered span but >= one tick is honest:
	// no clamp marker.
	wide := s.Report(time.Minute)
	if wide.WindowClampedS != 0 && wide.WindowActualS >= s.Interval().Seconds() {
		t.Fatalf("wide window marked clamped: %+v", wide.WindowClampedS)
	}
}

// TestOnSampleHook pins the capscope attachment point: the hook runs
// once per published snapshot, outside the ring lock (it can read the
// ring back), and uninstalls cleanly.
func TestOnSampleHook(t *testing.T) {
	rt := newRuntime(t, 2)
	s, err := New(Config{Runtime: rt, Ring: minRing})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var calls atomic.Int32
	s.OnSample(func() {
		calls.Add(1)
		// Reading the ring from the hook must not deadlock.
		if slo := s.SLO(); slo.TargetP99MS <= 0 {
			t.Errorf("SLO from hook: %+v", slo)
		}
		_ = s.Report(0)
	})
	s.SampleNow()
	s.SampleNow()
	if got := calls.Load(); got != 2 {
		t.Fatalf("hook ran %d times for 2 snapshots", got)
	}
	s.OnSample(nil)
	s.SampleNow()
	if got := calls.Load(); got != 2 {
		t.Fatalf("uninstalled hook still ran (%d calls)", got)
	}
}

// TestIncidentsPlumbing: a registered supplier shows up in Report and
// survives round-tripping through the handler shapes.
func TestIncidentsPlumbing(t *testing.T) {
	rt := newRuntime(t, 2)
	s, err := New(Config{Runtime: rt, Ring: minRing})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.SampleNow()
	if got := s.Report(0).Incidents; got != 0 {
		t.Fatalf("unregistered incidents = %d", got)
	}
	s.SetIncidents(func() uint64 { return 7 })
	if got := s.Report(0).Incidents; got != 7 {
		t.Fatalf("incidents = %d, want 7", got)
	}
	rec := httptest.NewRecorder()
	Handler(s).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/watch", nil))
	reps, err := fleet.Decode[Report](rec.Body)
	if err != nil || len(reps) != 1 {
		t.Fatalf("decode: %v", err)
	}
	if reps[0].Incidents != 7 {
		t.Fatalf("handler incidents = %d, want 7", reps[0].Incidents)
	}
	s.SetIncidents(nil)
	if got := s.Report(0).Incidents; got != 0 {
		t.Fatalf("unregistered again, incidents = %d", got)
	}
}
