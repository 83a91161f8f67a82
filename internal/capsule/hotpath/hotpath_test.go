package hotpath

import (
	"sync"
	"testing"
	"time"

	"repro/internal/capsule/baseline"
)

func newBaselineForTest() *baseline.Pool {
	return baseline.New(2, false, 100*time.Microsecond, 0)
}

// bench runs the named case, so the Benchmark* identifiers CI greps for
// stay stable even if Cases() grows.
func bench(b *testing.B, name string) {
	c, ok := Find(name)
	if !ok {
		b.Fatalf("unknown hotpath case %q", name)
	}
	c.Bench(b)
}

// The atomic (live runtime) side. BenchmarkProbeGrantedParallel4x is the
// acceptance benchmark: ≥2× faster than BenchmarkMutexProbeGrantedParallel4x.
func BenchmarkProbeGrantedSerial(b *testing.B)     { bench(b, "atomic/probe_granted_serial") }
func BenchmarkProbeGrantedParallel(b *testing.B)   { bench(b, "atomic/probe_granted_parallel_1x") }
func BenchmarkProbeGrantedParallel4x(b *testing.B) { bench(b, "atomic/probe_granted_parallel_4x") }
func BenchmarkProbeGrantedParallel16x(b *testing.B) {
	bench(b, "atomic/probe_granted_parallel_16x")
}
func BenchmarkProbeRefusedSerial(b *testing.B)     { bench(b, "atomic/probe_refused_serial") }
func BenchmarkProbeRefusedParallel4x(b *testing.B) { bench(b, "atomic/probe_refused_parallel_4x") }
func BenchmarkTryDivideRefused(b *testing.B)       { bench(b, "atomic/try_divide_refused") }
func BenchmarkDivideGranted(b *testing.B)          { bench(b, "atomic/divide_granted") }

// The mutex baseline side (internal/capsule/baseline).
func BenchmarkMutexProbeGrantedSerial(b *testing.B) { bench(b, "mutex/probe_granted_serial") }
func BenchmarkMutexProbeGrantedParallel(b *testing.B) {
	bench(b, "mutex/probe_granted_parallel_1x")
}
func BenchmarkMutexProbeGrantedParallel4x(b *testing.B) {
	bench(b, "mutex/probe_granted_parallel_4x")
}
func BenchmarkMutexProbeGrantedParallel16x(b *testing.B) {
	bench(b, "mutex/probe_granted_parallel_16x")
}
func BenchmarkMutexProbeRefusedSerial(b *testing.B) { bench(b, "mutex/probe_refused_serial") }
func BenchmarkMutexProbeRefusedParallel4x(b *testing.B) {
	bench(b, "mutex/probe_refused_parallel_4x")
}
func BenchmarkMutexTryDivideRefused(b *testing.B) { bench(b, "mutex/try_divide_refused") }
func BenchmarkMutexDivideGranted(b *testing.B)    { bench(b, "mutex/divide_granted") }

// The captrace overhead side (off = tracing disabled, armed = tracer on
// but the request unsampled, traced = full per-event ring writes). The
// traced cases double as -race coverage for concurrent ring writers on
// the real probe path.
func BenchmarkTraceProbeGrantedSerialOff(b *testing.B) {
	bench(b, "trace/probe_granted_serial_off")
}
func BenchmarkTraceProbeGrantedSerialArmed(b *testing.B) {
	bench(b, "trace/probe_granted_serial_armed")
}
func BenchmarkTraceProbeGrantedSerialTraced(b *testing.B) {
	bench(b, "trace/probe_granted_serial_traced")
}
func BenchmarkTraceProbeGrantedParallel4xOff(b *testing.B) {
	bench(b, "trace/probe_granted_parallel_4x_off")
}
func BenchmarkTraceProbeGrantedParallel4xArmed(b *testing.B) {
	bench(b, "trace/probe_granted_parallel_4x_armed")
}
func BenchmarkTraceProbeGrantedParallel4xTraced(b *testing.B) {
	bench(b, "trace/probe_granted_parallel_4x_traced")
}
func BenchmarkTraceDivideGrantedOff(b *testing.B)    { bench(b, "trace/divide_granted_off") }
func BenchmarkTraceDivideGrantedArmed(b *testing.B)  { bench(b, "trace/divide_granted_armed") }
func BenchmarkTraceDivideGrantedTraced(b *testing.B) { bench(b, "trace/divide_granted_traced") }

// The capwatch overhead side (off = no sampler, armed = sampler ticking
// at the production interval beside the hot path). The armed cases
// double as -race coverage for the sampler's counter sweep racing the
// live probe/divide paths.
func BenchmarkWatchProbeGrantedSerialOff(b *testing.B) {
	bench(b, "watch/probe_granted_serial_off")
}
func BenchmarkWatchProbeGrantedSerialArmed(b *testing.B) {
	bench(b, "watch/probe_granted_serial_armed")
}
func BenchmarkWatchProbeGrantedParallel4xOff(b *testing.B) {
	bench(b, "watch/probe_granted_parallel_4x_off")
}
func BenchmarkWatchProbeGrantedParallel4xArmed(b *testing.B) {
	bench(b, "watch/probe_granted_parallel_4x_armed")
}
func BenchmarkWatchDivideGrantedOff(b *testing.B)   { bench(b, "watch/divide_granted_off") }
func BenchmarkWatchDivideGrantedArmed(b *testing.B) { bench(b, "watch/divide_granted_armed") }

// The capscope overhead side (off = armed sampler only, armed = the
// incident recorder riding the sampler's tick with triggers that never
// fire). The armed cases double as -race coverage for the recorder's
// per-tick trigger evaluation racing the live probe/divide paths.
func BenchmarkIncidentProbeGrantedSerialOff(b *testing.B) {
	bench(b, "incident/probe_granted_serial_off")
}
func BenchmarkIncidentProbeGrantedSerialArmed(b *testing.B) {
	bench(b, "incident/probe_granted_serial_armed")
}
func BenchmarkIncidentProbeGrantedParallel4xOff(b *testing.B) {
	bench(b, "incident/probe_granted_parallel_4x_off")
}
func BenchmarkIncidentProbeGrantedParallel4xArmed(b *testing.B) {
	bench(b, "incident/probe_granted_parallel_4x_armed")
}
func BenchmarkIncidentDivideGrantedOff(b *testing.B)   { bench(b, "incident/divide_granted_off") }
func BenchmarkIncidentDivideGrantedArmed(b *testing.B) { bench(b, "incident/divide_granted_armed") }

// TestBaselineBehaves pins the foil to the old semantics, so the numbers
// it produces keep meaning something: bounded pool, LIFO reuse, work runs
// exactly once, Join covers spawns.
func TestBaselineBehaves(t *testing.T) {
	p := newBaselineForTest()
	a, ok := p.Probe()
	if !ok || a != 0 {
		t.Fatalf("first probe = (%d, %v), want (0, true)", a, ok)
	}
	bid, ok := p.Probe()
	if !ok || bid != 1 {
		t.Fatalf("second probe = (%d, %v), want (1, true)", bid, ok)
	}
	if _, ok := p.Probe(); ok {
		t.Fatal("probe granted beyond the pool")
	}
	p.Release(bid)
	p.Release(a)
	if id, _ := p.Probe(); id != a {
		t.Fatalf("LIFO reuse broken: got %d, want %d", id, a)
	}
	p.Release(a)

	var mu sync.Mutex
	ran := 0
	for i := 0; i < 50; i++ {
		if !p.TryDivide(func() { mu.Lock(); ran++; mu.Unlock() }) {
			mu.Lock()
			ran++
			mu.Unlock()
		}
	}
	p.Join()
	if ran != 50 {
		t.Fatalf("work ran %d times, want 50", ran)
	}
	if p.FreeContexts() != 2 {
		t.Fatalf("pool holds %d tokens after join, want 2", p.FreeContexts())
	}
}
