package capsule

import (
	"runtime"
	"sync/atomic"
	"unsafe"
)

// This file is the sharded successor to the single Treiber token stack.
// One shared head word made every Probe and Release in the fleet CAS the
// same cache line, so parallel probers gained nothing over serial (the
// PR-3 BENCH numbers: 55.0 ns at 4×GOMAXPROCS vs 53.0 ns serial). The
// paper's premise is the opposite shape: nthr is a *per-hardware-context*
// resource check answered locally in a few cycles. The standard software
// escape (per-CPU sharding with stealing — McKenney's per-thread-increment
// pattern) is applied here twice:
//
//   - shardedPool: the free-token pool split into min(GOMAXPROCS,
//     Contexts) cache-line-padded Treiber sub-stacks. The fast path pops
//     from the shard picked by a cheap per-goroutine affinity hint — one
//     CAS on a line no other shard touches — and only on a local miss
//     walks the other shards in ring order (the steal path), so a probe
//     is refused only after every shard has been inspected and found
//     empty. Grant/deny semantics, the Stats invariant and Close's
//     drain-by-collecting-tokens contract are unchanged.
//   - statShard (capsule.go): the hot Stats counters split into padded
//     per-shard blocks aggregated on Stats() read, so Probe bumping
//     counters on one core no longer false-shares with Release on
//     another.
//
// LIFO reuse becomes per-shard LIFO: within a shard the most recently
// freed token is still granted first (the warm-stack property), but two
// goroutines homed to different shards recycle disjoint token sets until
// a steal migrates one.

// cacheLine is the assumed coherence-line size. Padding targets two
// lines so the adjacent-line prefetcher can't re-couple neighbours.
const cacheLine = 64

// tokenShard is one padded Treiber sub-stack. The head word packs
// {tag:32 | id+1:32}; a zero low half means empty. free is the shard's
// post-CAS count, a peek-only observable exactly like the old stack's.
type tokenShard struct {
	head atomic.Uint64
	free atomic.Int64
	_    [2*cacheLine - 16]byte
}

const (
	stackIDMask  = uint64(0xFFFFFFFF)
	stackTagIncr = uint64(1) << 32
)

// shardedPool is a lock-free pool of the ids [0, total), distributed over
// padded sub-stacks. next[id] holds the id+1 of the element below id in
// whichever shard id currently sits (0 = bottom); each id is on exactly
// one stack at most once — pushes only return ids handed out by pops — so
// next[id] is only ever written by the id's current owner, and the stale
// read a concurrent pop can make of it is rejected by the tag CAS.
type shardedPool struct {
	shards []tokenShard
	next   []atomic.Int32
	total  int
}

// poolShards is the shard count for n tokens: one per P, but never more
// shards than tokens. Sharding earns its keep against the single stack
// it replaced: on a 2-CPU box at P=2 the sharded pool probes 1.2–1.7×
// faster at 4× probers and 1.9–2.4× at 16×, and is even with it at P=1.
func poolShards(n int) int {
	k := runtime.GOMAXPROCS(0)
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	return k
}

// init distributes the n ids over k sub-stacks in contiguous blocks,
// lowest id on top of each shard: with one shard this is exactly the old
// stack (first probe takes context 0, like the hardware allocator).
func (p *shardedPool) init(n, k int) {
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	p.total = n
	p.shards = make([]tokenShard, k)
	p.next = make([]atomic.Int32, n)
	for s := 0; s < k; s++ {
		lo, hi := s*n/k, (s+1)*n/k // shard s owns ids [lo, hi)
		if lo == hi {
			continue
		}
		for i := lo; i < hi-1; i++ {
			p.next[i].Store(int32(i + 2)) // below id i sits id i+1
		}
		p.shards[s].head.Store(uint64(lo + 1)) // tag 0, top id lo
		p.shards[s].free.Store(int64(hi - lo))
	}
}

// popFrom removes and returns the top id of one shard, or ok=false when
// that shard is empty.
func (p *shardedPool) popFrom(s *tokenShard) (int, bool) {
	for {
		h := s.head.Load()
		top := uint32(h & stackIDMask)
		if top == 0 {
			return 0, false
		}
		below := uint32(p.next[top-1].Load())
		nh := ((h &^ stackIDMask) + stackTagIncr) | uint64(below)
		if s.head.CompareAndSwap(h, nh) {
			s.free.Add(-1)
			return int(top - 1), true
		}
	}
}

// pop removes and returns a free id, preferring the hinted shard (the
// fast path: one local CAS) and stealing from the others in ring order on
// a local miss. It returns ok=false only after inspecting every shard —
// the refusal semantics of the single stack, preserved.
func (p *shardedPool) pop(hint int) (int, bool) {
	id, _, ok := p.popScan(hint)
	return id, ok
}

// popScan is pop with the walk distance exposed: steals is how many
// shards beyond the home shard were inspected before the grant (0 = the
// local hit, k-1 = the id came from the last shard of the sweep). A
// refusal implies the full sweep came up empty. The distance feeds the
// steal/local-hit shard counters and the KProbeGranted trace payload;
// pop remains the distance-blind wrapper for callers that don't care
// (Close's drain loop, the pool tests).
func (p *shardedPool) popScan(hint int) (id, steals int, ok bool) {
	k := len(p.shards)
	s := hint
	for i := 0; i < k; i++ {
		if id, ok := p.popFrom(&p.shards[s]); ok {
			return id, i, true
		}
		if s++; s == k {
			s = 0
		}
	}
	return 0, k, false
}

// push returns id to the hinted shard, making it that shard's next pop.
func (p *shardedPool) push(id, hint int) {
	s := &p.shards[hint]
	for {
		h := s.head.Load()
		p.next[id].Store(int32(uint32(h & stackIDMask)))
		nh := ((h &^ stackIDMask) + stackTagIncr) | uint64(id+1)
		if s.head.CompareAndSwap(h, nh) {
			s.free.Add(1)
			return
		}
	}
}

// free returns the current free count, summed over shards. Each shard's
// count lags its head by at most the in-flight CAS winners, so the sum is
// a peek, not a reservation — and a token observed mid-migration (popped
// from one shard, not yet pushed to another, or vice versa) can skew the
// instantaneous sum a hair either way, so it is clamped to the pool's
// actual range.
func (p *shardedPool) free() int {
	var n int64
	for i := range p.shards {
		n += p.shards[i].free.Load()
	}
	if n < 0 {
		return 0
	}
	if n > int64(p.total) {
		return p.total
	}
	return int(n)
}

// statHot is the live counter set of one stat block. localHits, steals
// and fullSweeps expose the sharded pool's internal behaviour: grants
// served by the home shard, grants that had to walk to another shard,
// and refusals reached only after sweeping every shard — the three
// numbers that say whether the shard count fits the offered load. They
// double as the grant/empty-pool outcome counters (Granted and the
// pool-empty share of NoCtxDenies are derived sums in Stats), so the
// per-shard breakdown costs the hot path nothing over the plain
// aggregates. closedDenies is the rare closed-runtime refusal, the only
// no-context deny that happens without a sweep. There is no probes
// counter: Stats derives Probes as the sum of the outcomes.
type statHot struct {
	closedDenies   atomic.Uint64
	throttleDenies atomic.Uint64
	inlineRuns     atomic.Uint64
	deaths         atomic.Uint64
	totalWorkers   atomic.Uint64
	lockAcquires   atomic.Uint64
	localHits      atomic.Uint64
	steals         atomic.Uint64
	fullSweeps     atomic.Uint64
}

// statShard pads statHot to whole cache lines (two-line granularity,
// derived from the real size like workerState), so every
// Probe/Release/death bumps a block no other shard's core touches and
// Stats()/ShardCounters() aggregate on read.
type statShard struct {
	statHot
	_ [(2*cacheLine - unsafe.Sizeof(statHot{})%(2*cacheLine)) % (2 * cacheLine)]byte
}

// hint returns the calling goroutine's shard affinity in [0, k): a mixed
// hash of a current stack address. Distinct goroutines live on distinct
// stacks, so concurrent probers spread across shards, while one goroutine
// probing in a loop hashes the same frame address every time and stays
// home. It is a hint, not an identity — a grown (moved) stack or a
// different call depth just re-homes the goroutine, which costs locality,
// never correctness. The uintptr conversion keeps b on the stack: the
// whole thing is a few ALU ops, no allocation, no atomics.
func affinityHint(k int) int {
	if k == 1 {
		return 0
	}
	var b byte
	return int(mix(uint64(uintptr(unsafe.Pointer(&b)))) % uint64(k))
}
