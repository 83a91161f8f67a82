package capsule

// Tests for the sharded token pool: steal-path determinism, token
// conservation under a cross-shard storm with single-ownership asserted
// at every hold, refusal only when every shard is empty, and the
// per-shard Stats blocks still aggregating into the PR-3 snapshot
// invariant. Run under -race in CI.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// TestShardPadding pins the layout contract: every per-shard structure
// is padded to whole cache lines (at least two, to defeat the
// adjacent-line prefetcher), so shards can never false-share.
func TestShardPadding(t *testing.T) {
	sizes := map[string]uintptr{
		"tokenShard":  unsafe.Sizeof(tokenShard{}),
		"statShard":   unsafe.Sizeof(statShard{}),
		"workerState": unsafe.Sizeof(workerState{}),
	}
	for name, size := range sizes {
		if size%cacheLine != 0 || size < 2*cacheLine {
			t.Errorf("%s size = %d, want a multiple of %d and >= %d", name, size, cacheLine, 2*cacheLine)
		}
	}
}

// TestShardedPoolInitDistribution: ids are block-distributed with the
// lowest id on top of each shard, and a fixed hint drains its home shard
// first, then steals the others in ring order — fully deterministic
// single-threaded.
func TestShardedPoolInitDistribution(t *testing.T) {
	var p shardedPool
	p.init(6, 3) // shard 0: {0,1}, shard 1: {2,3}, shard 2: {4,5}
	if got := p.free(); got != 6 {
		t.Fatalf("free = %d after init, want 6", got)
	}
	want := []int{2, 3, 4, 5, 0, 1} // home shard 1 first, then ring order 2, 0
	for i, w := range want {
		id, ok := p.pop(1)
		if !ok || id != w {
			t.Fatalf("pop %d with hint 1 = (%d, %v), want (%d, true)", i, id, ok, w)
		}
	}
	if _, ok := p.pop(1); ok {
		t.Fatal("pop granted from a fully drained pool")
	}
	if got := p.free(); got != 0 {
		t.Fatalf("free = %d after drain, want 0", got)
	}
	// Pushed back to shard 0, a hint-0 pop gets it first (per-shard LIFO).
	p.push(4, 0)
	p.push(5, 0)
	if id, ok := p.pop(0); !ok || id != 5 {
		t.Fatalf("pop after pushes = (%d, %v), want (5, true)", id, ok)
	}
}

// TestShardStealConservationStorm is the race-mode token-conservation
// storm: goroutines homed to different shards pop locally, steal across
// shards and release to their own shard, with an owner word per id
// asserting that every token is held by at most one goroutine at every
// instant — local pop, steal and release alike.
func TestShardStealConservationStorm(t *testing.T) {
	const n, shards, stormers, rounds = 8, 4, 16, 2000
	var p shardedPool
	p.init(n, shards)
	owner := make([]atomic.Int32, n)
	var violations atomic.Int64
	var outer sync.WaitGroup
	for g := 0; g < stormers; g++ {
		outer.Add(1)
		go func(g int) {
			defer outer.Done()
			me := int32(g + 1)
			home := g % shards
			for i := 0; i < rounds; i++ {
				// Alternate hints so local pops and forced steals mix.
				hint := home
				if i%3 == 0 {
					hint = (home + 1) % shards
				}
				id, ok := p.pop(hint)
				if !ok {
					continue
				}
				if !owner[id].CompareAndSwap(0, me) {
					violations.Add(1) // someone else already holds this id
				}
				if id < 0 || id >= n {
					violations.Add(1)
				}
				if !owner[id].CompareAndSwap(me, 0) {
					violations.Add(1)
				}
				p.push(id, home)
			}
		}(g)
	}
	outer.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d single-ownership violations across pops/steals/releases", v)
	}
	if got := p.free(); got != n {
		t.Fatalf("free = %d after storm, want %d", got, n)
	}
	// Conservation: every id poppable exactly once, from any hint.
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		id, ok := p.pop(i % shards)
		if !ok {
			t.Fatalf("pool lost ids: only %d of %d poppable", i, n)
		}
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
	if _, ok := p.pop(0); ok {
		t.Fatal("pool gained ids")
	}
}

// TestRefusalOnlyWhenAllShardsEmpty: a probe whose home shard is empty
// must steal rather than refuse — through the public API, a runtime
// forced to more shards than the machine has Ps grants exactly Contexts
// probes from any mix of hints, refuses the next, and grants again the
// moment any one token (in any shard) comes home.
func TestRefusalOnlyWhenAllShardsEmpty(t *testing.T) {
	const contexts = 4
	rt := newRuntime(Config{Contexts: contexts, Throttle: false}, contexts)
	defer rt.Close()
	if rt.nshards != contexts {
		t.Fatalf("nshards = %d, want %d", rt.nshards, contexts)
	}
	var held []*Context
	for i := 0; i < contexts; i++ {
		c, ok := rt.Probe()
		if !ok {
			// The prober's hint is fixed (same goroutine, same frame), so
			// grants beyond the first REQUIRE the steal path to work.
			t.Fatalf("probe %d refused with %d shards still holding tokens", i, contexts-i)
		}
		held = append(held, c)
	}
	if _, ok := rt.Probe(); ok {
		t.Fatal("probe granted with every shard empty")
	}
	if got := rt.FreeContexts(); got != 0 {
		t.Fatalf("FreeContexts = %d with all tokens held, want 0", got)
	}
	// One release — into the releasing goroutine's home shard, wherever
	// that is — must make the very next probe grantable again.
	rt.Release(held[0])
	c2, ok := rt.Probe()
	if !ok {
		t.Fatal("probe refused with one token free in one shard")
	}
	s := rt.Stats()
	if s.NoCtxDenies != 1 {
		t.Fatalf("NoCtxDenies = %d, want exactly the one all-shards-empty refusal", s.NoCtxDenies)
	}
	for _, c := range held[1:] {
		rt.Release(c)
	}
	rt.Release(c2)
}

// TestShardedStatsInvariantStorm re-asserts the snapshot invariant on a
// runtime forced to multiple stat shards: every snapshot taken during a
// divide storm shows exactly as many probes as outcomes even though both
// sides are sums over padded per-shard blocks, and so does the one taken
// at quiescence.
func TestShardedStatsInvariantStorm(t *testing.T) {
	rt := newRuntime(Config{Contexts: 4, Throttle: true, DeathWindow: 20 * time.Microsecond}, 4)
	defer rt.Close()
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
	if s.Probes != 8*500 {
		t.Fatalf("Probes = %d, want %d (every Divide is one probe)", s.Probes, 8*500)
	}
	if s.Deaths != s.TotalWorkers {
		t.Fatalf("deaths (%d) != workers (%d) after Join", s.Deaths, s.TotalWorkers)
	}
}

// TestRuntimeShardStealStorm drives the full runtime (probe, divide,
// spawn, release) on a forced multi-shard pool and checks pool integrity
// after: with workers releasing to their own home shards, every token
// must still be grantable exactly once at the end.
func TestRuntimeShardStealStorm(t *testing.T) {
	const contexts = 6
	rt := newRuntime(Config{Contexts: contexts, Throttle: true, DeathWindow: 30 * time.Microsecond}, 3)
	var outer sync.WaitGroup
	for g := 0; g < 12; g++ {
		outer.Add(1)
		go func(g int) {
			defer outer.Done()
			for i := 0; i < 400; i++ {
				switch g % 3 {
				case 0:
					if c, ok := rt.Probe(); ok {
						rt.Release(c)
					}
				case 1:
					rt.Divide(func() {})
				default:
					if c, ok := rt.Probe(); ok {
						rt.Spawn(c, func() {})
					}
				}
			}
		}(g)
	}
	outer.Wait()
	rt.Join()
	time.Sleep(time.Millisecond) // let the 30µs death window drain
	seen := map[int]bool{}
	var held []*Context
	for i := 0; i < contexts; i++ {
		c, ok := rt.Probe()
		if !ok {
			t.Fatalf("pool lost tokens: %d of %d grantable (stats %+v)", i, contexts, rt.Stats())
		}
		if seen[c.ID()] {
			t.Fatalf("duplicate context id %d", c.ID())
		}
		seen[c.ID()] = true
		held = append(held, c)
	}
	for _, c := range held {
		rt.Release(c)
	}
	rt.Close()
}
