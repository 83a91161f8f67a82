package capsule

// Tests for the captrace instrumentation points: a traced group's
// division lifecycle lands in the tracer with the right kinds and
// payloads, untraced work records nothing, stale trace IDs never leak
// to the next occupant of a context, and the new shard counters satisfy
// their accounting identities.

import (
	"sync"
	"testing"
	"time"

	"repro/internal/captrace"
)

func traceTestRuntime(t *testing.T, tr *captrace.Tracer, contexts int) *Runtime {
	t.Helper()
	rt := newRuntime(Config{Contexts: contexts, Tracer: tr}, 1)
	t.Cleanup(rt.Close)
	return rt
}

func kindsByTID(tr *captrace.Tracer, tid uint64) map[captrace.Kind]int {
	got := map[captrace.Kind]int{}
	for _, ev := range tr.Snapshot("test", 0).Events {
		if ev.TID == tid {
			got[ev.Kind]++
		}
	}
	return got
}

// TestTracedGroupLifecycle drives one traced division to completion and
// asserts the full event chain: probe granted → handoff → death, plus
// an inline event for a refused Divide.
func TestTracedGroupLifecycle(t *testing.T) {
	tr := captrace.New(2, 64)
	rt := traceTestRuntime(t, tr, 2)
	const tid = 0xfeed

	g := rt.NewGroupTraced(tid)
	ran := false
	if !g.Divide(func() { ran = true }) {
		t.Fatal("division refused with a free pool")
	}
	g.Join()
	if !ran {
		t.Fatal("divided work did not run")
	}

	got := kindsByTID(tr, tid)
	for _, k := range []captrace.Kind{captrace.KProbeGranted, captrace.KHandoff, captrace.KDeath} {
		if got[k] != 1 {
			t.Errorf("kind %v recorded %d times, want 1 (all: %v)", k, got[k], got)
		}
	}

	// Exhaust the pool: the traced refusal and inline run must be recorded.
	holds := make([]*Context, 0, rt.Contexts())
	for {
		c, ok := rt.Probe()
		if !ok {
			break
		}
		holds = append(holds, c)
	}
	if g.Divide(func() {}) {
		t.Fatal("division granted from an empty pool")
	}
	got = kindsByTID(tr, tid)
	if got[captrace.KProbeDenied] != 1 || got[captrace.KDivideInline] != 1 {
		t.Errorf("refusal events = %v, want one probe_denied and one divide_inline", got)
	}
	for _, c := range holds {
		rt.Release(c)
	}
}

// TestUntracedStaysSilent: Probe/Spawn and a tid-0 group must write no
// events even with a tracer armed — the sampling-off hot path.
func TestUntracedStaysSilent(t *testing.T) {
	tr := captrace.New(1, 64)
	rt := traceTestRuntime(t, tr, 2)
	g := rt.NewGroup()
	g.Divide(func() {})
	g.Join()
	c, ok := rt.Probe()
	if !ok {
		t.Fatal("probe refused")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	rt.Spawn(c, func() { wg.Done() })
	wg.Wait()
	rt.Join()
	if evs := tr.Snapshot("test", 0).Events; len(evs) != 0 {
		t.Fatalf("untraced work recorded %d events: %+v", len(evs), evs)
	}
}

// TestStaleTraceIDDoesNotLeak: after a traced division retires a
// context, an untraced division reusing the same context must not
// record a death against the old trace ID.
func TestStaleTraceIDDoesNotLeak(t *testing.T) {
	tr := captrace.New(1, 64)
	rt := traceTestRuntime(t, tr, 1) // one context: guaranteed reuse
	const tid = 0xabad

	g := rt.NewGroupTraced(tid)
	if !g.Divide(func() {}) {
		t.Fatal("traced division refused")
	}
	g.Join()
	before := kindsByTID(tr, tid)[captrace.KDeath]
	if before != 1 {
		t.Fatalf("traced death count = %d, want 1", before)
	}

	u := rt.NewGroup()
	if !u.Divide(func() {}) {
		t.Fatal("untraced division refused")
	}
	u.Join()
	if after := kindsByTID(tr, tid)[captrace.KDeath]; after != before {
		t.Fatalf("untraced reuse recorded a death against stale tid: %d -> %d", before, after)
	}
}

// TestThrottleTransitionEvents: tripping and draining the death-rate
// throttle records exactly one open and one close edge (tid 0).
func TestThrottleTransitionEvents(t *testing.T) {
	tr := captrace.New(1, 64)
	clock := int64(0)
	rt := newRuntime(Config{Contexts: 4, Throttle: true,
		DeathWindow: time.Millisecond, DeathThreshold: 2, Tracer: tr}, 1)
	t.Cleanup(rt.Close)
	rt.now = func() int64 { return clock }

	g := rt.NewGroup()
	for i := 0; i < 2; i++ {
		if !g.Divide(func() {}) {
			t.Fatal("division refused")
		}
		g.Join()
	}
	if rt.CanDivide() {
		t.Fatal("throttle did not trip")
	}
	clock += (2 * time.Millisecond).Nanoseconds()
	if !rt.CanDivide() {
		t.Fatal("throttle did not drain")
	}

	counts := map[captrace.Kind]int{}
	for _, ev := range tr.Snapshot("test", 0).Events {
		if ev.TID != 0 {
			continue
		}
		counts[ev.Kind]++
	}
	if counts[captrace.KThrottleOpen] != 1 || counts[captrace.KThrottleClose] != 1 {
		t.Fatalf("throttle edges = %v, want one open and one close", counts)
	}
}

// TestShardCounterAccounting: the per-shard counters aggregate to the
// Stats fields and satisfy local_hits + steals == granted, on a
// deterministic single-prober workload that must steal.
func TestShardCounterAccounting(t *testing.T) {
	rt := newRuntime(Config{Contexts: 4}, 2)
	t.Cleanup(rt.Close)

	// Drain the whole pool from one goroutine: its home shard empties
	// first (local hits), then every further grant is a steal, then one
	// refusal after a full sweep.
	var holds []*Context
	for {
		c, ok := rt.Probe()
		if !ok {
			break
		}
		holds = append(holds, c)
	}
	if len(holds) != 4 {
		t.Fatalf("drained %d contexts, want 4", len(holds))
	}

	s := rt.Stats()
	if s.ShardLocalHits+s.ShardSteals != s.Granted {
		t.Errorf("local %d + steals %d != granted %d", s.ShardLocalHits, s.ShardSteals, s.Granted)
	}
	if s.ShardLocalHits != 2 || s.ShardSteals != 2 {
		t.Errorf("local=%d steals=%d, want 2 and 2 (one shard drained locally, one stolen)",
			s.ShardLocalHits, s.ShardSteals)
	}
	if s.ShardFullSweeps != 1 {
		t.Errorf("full sweeps = %d, want 1", s.ShardFullSweeps)
	}
	if s.ShardFullSweeps > s.NoCtxDenies {
		t.Errorf("full sweeps %d > no-ctx denies %d", s.ShardFullSweeps, s.NoCtxDenies)
	}

	var agg ShardCounters
	for _, sc := range rt.ShardCounterSnapshot() {
		agg.LocalHits += sc.LocalHits
		agg.Steals += sc.Steals
		agg.FullSweeps += sc.FullSweeps
		agg.Free += sc.Free
	}
	if agg.LocalHits != s.ShardLocalHits || agg.Steals != s.ShardSteals || agg.FullSweeps != s.ShardFullSweeps {
		t.Errorf("per-shard aggregate %+v disagrees with Stats %+v", agg, s)
	}
	if agg.Free != 0 {
		t.Errorf("free sum = %d with the pool drained, want 0", agg.Free)
	}
	for _, c := range holds {
		rt.Release(c)
	}

	// ResetStats clears the shard counters too.
	rt.ResetStats()
	s = rt.Stats()
	if s.ShardLocalHits != 0 || s.ShardSteals != 0 || s.ShardFullSweeps != 0 {
		t.Errorf("shard counters survived ResetStats: %+v", s)
	}
}
