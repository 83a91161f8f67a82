package capsule

// Tests for the lock-free hot path: the Treiber token stack, the atomic
// death ring (including wraparound), Close racing in-flight divisions,
// the Stats accounting invariant, and the allocation-free guarantees.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// nopFn is a static func value: the alloc tests must not be charged for a
// per-call closure.
func nopFn() {}

// TestTokenStackStorm hammers pop/push on a single-shard pool (the
// PR-3 global Treiber stack configuration) from many goroutines and then
// checks conservation: every id still present exactly once. The
// multi-shard storms live in shard_test.go.
func TestTokenStackStorm(t *testing.T) {
	const n, stormers, rounds = 8, 16, 2000
	var s shardedPool
	s.init(n, 1)
	var outer sync.WaitGroup
	for g := 0; g < stormers; g++ {
		outer.Add(1)
		go func() {
			defer outer.Done()
			for i := 0; i < rounds; i++ {
				if id, ok := s.pop(0); ok {
					if id < 0 || id >= n {
						panic("id out of range")
					}
					s.push(id, 0)
				}
			}
		}()
	}
	outer.Wait()
	if got := s.free(); got != n {
		t.Fatalf("free count = %d after storm, want %d", got, n)
	}
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		id, ok := s.pop(0)
		if !ok {
			t.Fatalf("stack lost ids: only %d of %d poppable", i, n)
		}
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
	if _, ok := s.pop(0); ok {
		t.Fatal("stack gained ids")
	}
}

// TestStatsAccountingInvariant pins the probe/outcome accounting: every
// snapshot taken during a probe storm, and the one taken after the
// probers quiesce, shows Probes == Granted + NoCtxDenies + ThrottleDenies.
func TestStatsAccountingInvariant(t *testing.T) {
	rt := New(Config{Contexts: 4, Throttle: true, DeathWindow: 20 * time.Microsecond})
	stop := make(chan struct{})
	var violations atomic.Int64
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s := rt.Stats()
					if s.Probes != s.Granted+s.NoCtxDenies+s.ThrottleDenies {
						violations.Add(1)
					}
				}
			}
		}()
	}
	var stormers sync.WaitGroup
	for g := 0; g < 8; g++ {
		stormers.Add(1)
		go func() {
			defer stormers.Done()
			for i := 0; i < 500; i++ {
				rt.Divide(func() {})
			}
		}()
	}
	stormers.Wait()
	close(stop)
	readers.Wait()
	rt.Join()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d snapshots showed probes and outcomes out of balance", v)
	}
	s := rt.Stats()
	if s.Probes != s.Granted+s.NoCtxDenies+s.ThrottleDenies {
		t.Fatalf("quiescent accounting broken: %+v", s)
	}
}

// TestThrottleRingWraparound drives the death ring far past its capacity
// with an injected clock: slow deaths must never trip the throttle no
// matter how often the ring wraps, and a burst must still trip it after
// the wraparound.
func TestThrottleRingWraparound(t *testing.T) {
	var clock atomic.Int64
	rt := New(Config{Contexts: 8, Throttle: true, DeathWindow: time.Microsecond, DeathThreshold: 3})
	rt.now = clock.Load
	if len(rt.ring.ts) != 4 {
		t.Fatalf("ring size = %d for threshold 3, want 4", len(rt.ring.ts))
	}
	// 11 deaths spaced 10µs apart (10x the window): the ring wraps nearly
	// three times and the throttle must never trip.
	for i := 0; i < 11; i++ {
		clock.Add(10 * time.Microsecond.Nanoseconds())
		c, ok := rt.Probe()
		if !ok {
			t.Fatalf("probe %d refused with slow deaths only (stats %+v)", i, rt.Stats())
		}
		rt.Spawn(c, func() {})
		rt.Join()
	}
	if got := rt.ring.seq.Load(); got != 11 {
		t.Fatalf("ring recorded %d deaths, want 11", got)
	}
	// A burst of 3 deaths at one instant trips the threshold. Advance the
	// clock first so the last slow death is outside the window and only
	// the burst itself counts.
	clock.Add(10 * time.Microsecond.Nanoseconds())
	for i := 0; i < 3; i++ {
		c, ok := rt.Probe()
		if !ok {
			t.Fatalf("burst probe %d refused", i)
		}
		rt.Spawn(c, func() {})
		rt.Join()
	}
	if _, ok := rt.Probe(); ok {
		t.Fatal("probe granted right after a threshold burst")
	}
	if s := rt.Stats(); s.ThrottleDenies != 1 {
		t.Fatalf("ThrottleDenies = %d, want 1", s.ThrottleDenies)
	}
	// Advancing past the window drains it again.
	clock.Add(2 * time.Microsecond.Nanoseconds())
	if _, ok := rt.Probe(); !ok {
		t.Fatal("probe refused after the window expired")
	}
}

// TestCloseDuringDivideStorm races Close against in-flight Divides: every
// offer's work must still run exactly once (spawned before the close wins,
// inline after), Close must return, and the runtime must end up fully
// shut: probes refused, peeks false, pool drained.
func TestCloseDuringDivideStorm(t *testing.T) {
	const stormers, rounds = 8, 300
	rt := New(Config{Contexts: 4, Throttle: true, DeathWindow: 50 * time.Microsecond})
	var total atomic.Int64
	var outer sync.WaitGroup
	for g := 0; g < stormers; g++ {
		outer.Add(1)
		go func() {
			defer outer.Done()
			for i := 0; i < rounds; i++ {
				rt.Divide(func() { total.Add(1) })
			}
		}()
	}
	rt.Close() // races the storm's first offers
	outer.Wait()
	if got := total.Load(); got != stormers*rounds {
		t.Fatalf("work ran %d times, want %d", got, stormers*rounds)
	}
	if _, ok := rt.Probe(); ok {
		t.Fatal("probe granted after Close")
	}
	if rt.CanDivide() {
		t.Fatal("CanDivide true after Close")
	}
	if got := rt.FreeContexts(); got != 0 {
		t.Fatalf("FreeContexts = %d after Close, want 0 (drained)", got)
	}
	s := rt.Stats()
	if s.Deaths != s.TotalWorkers {
		t.Fatalf("deaths (%d) != workers (%d) after Close", s.Deaths, s.TotalWorkers)
	}
	rt.Join()  // immediate: no workers left
	rt.Close() // idempotent
}

// TestCloseWaitsForHeldToken: a token probed before Close must be allowed
// to Spawn, and Close must wait for that worker's death.
func TestCloseWaitsForHeldToken(t *testing.T) {
	rt := quiet(2)
	c, ok := rt.Probe()
	if !ok {
		t.Fatal("probe refused on a fresh runtime")
	}
	ran := make(chan struct{})
	closed := make(chan struct{})
	go func() {
		rt.Close()
		close(closed)
	}()
	// Close cannot finish while we hold the token.
	select {
	case <-closed:
		t.Fatal("Close returned while a token was still held")
	case <-time.After(10 * time.Millisecond):
	}
	rt.Spawn(c, func() { close(ran) })
	<-ran
	<-closed
	if s := rt.Stats(); s.TotalWorkers != 1 || s.Deaths != 1 {
		t.Fatalf("stats = %+v, want the held token's worker spawned and dead", s)
	}
}

// TestHotPathZeroAllocs locks in the acceptance criterion: Probe, Release
// and a refused TryDivide allocate nothing.
func TestHotPathZeroAllocs(t *testing.T) {
	rt := New(Config{Contexts: 2, Throttle: true, DeathWindow: 100 * time.Microsecond})
	defer rt.Close()
	if got := testing.AllocsPerRun(1000, func() {
		c, ok := rt.Probe()
		if !ok {
			t.Fatal("probe refused with a free pool")
		}
		rt.Release(c)
	}); got != 0 {
		t.Fatalf("Probe+Release allocs/op = %v, want 0", got)
	}

	a, _ := rt.Probe()
	b, _ := rt.Probe() // pool empty: refusal paths
	if got := testing.AllocsPerRun(1000, func() {
		if _, ok := rt.Probe(); ok {
			t.Fatal("probe granted from an empty pool")
		}
	}); got != 0 {
		t.Fatalf("refused Probe allocs/op = %v, want 0", got)
	}
	if got := testing.AllocsPerRun(1000, func() {
		if rt.TryDivide(nopFn) {
			t.Fatal("divide granted from an empty pool")
		}
	}); got != 0 {
		t.Fatalf("refused TryDivide allocs/op = %v, want 0", got)
	}
	rt.Release(a)
	rt.Release(b)
}

// TestProbeReleaseInterleavingStorm is the dedicated pool race test:
// probers that only Probe/Release (no spawns, no deaths) interleaving
// with probers that Divide, while peeks run concurrently.
func TestProbeReleaseInterleavingStorm(t *testing.T) {
	const contexts = 4
	rt := New(Config{Contexts: contexts, Throttle: true, DeathWindow: 30 * time.Microsecond})
	stop := make(chan struct{})
	var peeks sync.WaitGroup
	peeks.Add(1)
	go func() {
		defer peeks.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if n := rt.FreeContexts(); n < 0 || n > contexts {
					panic("free count out of range")
				}
				rt.CanDivide()
			}
		}
	}()
	var outer sync.WaitGroup
	for g := 0; g < 12; g++ {
		outer.Add(1)
		go func(g int) {
			defer outer.Done()
			for i := 0; i < 400; i++ {
				if g%2 == 0 {
					if c, ok := rt.Probe(); ok {
						rt.Release(c)
					}
				} else {
					rt.Divide(func() {})
				}
			}
		}(g)
	}
	outer.Wait()
	close(stop)
	peeks.Wait()
	rt.Join()
	time.Sleep(time.Millisecond) // let the 30µs death window drain
	// Pool integrity: all tokens accounted for.
	var held []*Context
	for i := 0; i < contexts; i++ {
		c, ok := rt.Probe()
		if !ok {
			t.Fatalf("pool lost tokens: %d of %d grantable (stats %+v)", i, contexts, rt.Stats())
		}
		held = append(held, c)
	}
	for _, c := range held {
		rt.Release(c)
	}
}
