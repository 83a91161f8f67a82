// Package capsule is the native software port of the paper's probe/divide
// protocol: the conditional-division runtime that internal/cpu models at
// cycle level, re-implemented on real goroutines so component programs can
// run at hardware speed.
//
// The mapping from the SOMT hardware to this runtime:
//
//   - hardware contexts     → a bounded pool of context tokens (default
//     GOMAXPROCS), so a probe succeeds only when a "hardware context" is
//     free — exactly the paper's resource-aware division condition. Each
//     token owns a persistent goroutine; a granted division hands work
//     to it through a spin-then-park slot (one store + one CAS while the
//     worker spins, a mailbox send once it parked), not a fresh
//     goroutine spawn;
//   - nthr (probe+divide)   → Probe/Spawn, or the fused Divide/TryDivide.
//     The paper's point that the SOMT answers nthr "in a few cycles" is
//     preserved in software: the whole probe path is a handful of atomic
//     loads and one CAS on a per-goroutine shard of a sharded Treiber
//     stack of context ids — no mutex, no allocation, and (like the
//     hardware's per-context resource check) no word shared by every
//     prober — so offering parallelism at every division point stays
//     cheap even under heavy contention. A probe that misses its home
//     shard steals from the others in ring order and refuses only after
//     inspecting all of them;
//   - kthr (worker death)   → token release when the worker function
//     returns, recorded in the death-rate window;
//   - division throttling   → a rolling window of recent worker deaths;
//     when deaths in the window reach half the context count, further
//     probes are denied (Section 3.1's death-rate throttle). The window
//     is a fixed atomic ring of death timestamps, read with one load;
//   - LIFO context stack    → freed tokens are reused most-recently-dead
//     first within each pool shard, keeping the working set on warm
//     stacks/caches;
//   - fast lock table       → a 256-stripe lock table keyed by arbitrary
//     64-bit addresses (Lock/Unlock), mirroring mlock/munlock.
//
// The protocol is the paper's: a component *offers* parallelism at each
// division point; the runtime accepts only when resources are free, and on
// refusal the caller runs the same work inline (the sequential fallback
// path the CapC compiler emits after a failed nthr). Programs written this
// way never oversubscribe and never block waiting for a worker slot.
package capsule

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/captrace"
)

// Config parameterises a Runtime. The zero value is usable: every field
// has a documented default applied by New. Negative values are never
// meaningful and are rejected by Validate (New panics on them;
// NewValidated returns the error).
type Config struct {
	// Contexts is the context-token pool size — the software analogue of
	// the SOMT's hardware context count. Default: runtime.GOMAXPROCS(0).
	Contexts int

	// Throttle enables death-rate division throttling. Defaulted on by
	// NewDefault; New leaves the zero value (off) untouched so ablations
	// can measure the unthrottled runtime.
	Throttle bool

	// DeathWindow is the rolling window over which worker deaths are
	// counted for the throttle (the software port of the paper's 128-cycle
	// window). Default: 100µs.
	DeathWindow time.Duration

	// DeathThreshold is the death count within DeathWindow that trips the
	// throttle. Default: Contexts/2, the paper's threshold.
	DeathThreshold int

	// Tracer, when non-nil, receives lifecycle events (probe outcomes,
	// handoffs, deaths, throttle transitions) from the hot path. Probe
	// and the Runtime-level Divide/TryDivide stay untraced either way;
	// per-request events flow only through ProbeTraced/NewGroupTraced
	// with a nonzero trace ID, and throttle edges are detected on the
	// death path, admission peeks and traced probes — so an
	// armed-but-unsampled probe runs the same instructions as tracing
	// off (the capstress trace_overhead budget). nil (the default)
	// disables tracing entirely — every instrumentation point is one
	// predictable branch.
	Tracer *captrace.Tracer
}

// Defaults returns the standard configuration: GOMAXPROCS contexts,
// throttling on, the paper-derived window and threshold.
func Defaults() Config {
	return Config{
		Contexts:    runtime.GOMAXPROCS(0),
		Throttle:    true,
		DeathWindow: 100 * time.Microsecond,
	}
}

// Validate reports whether every field of c is meaningful. Zero fields
// are valid — they take the documented defaults — but negative counts,
// thresholds or windows have no sensible reading and were previously
// absorbed silently into the defaults; now they are errors.
func (c Config) Validate() error {
	if c.Contexts < 0 {
		return fmt.Errorf("capsule: Contexts must be >= 0 (0 means GOMAXPROCS), got %d", c.Contexts)
	}
	if c.DeathWindow < 0 {
		return fmt.Errorf("capsule: DeathWindow must be >= 0 (0 means 100µs default), got %v", c.DeathWindow)
	}
	if c.DeathThreshold < 0 {
		return fmt.Errorf("capsule: DeathThreshold must be >= 0 (0 means Contexts/2), got %d", c.DeathThreshold)
	}
	return nil
}

// Stats is a snapshot of a Runtime's counters. All counts are cumulative
// since New (or the last ResetStats).
type Stats struct {
	Probes         uint64 `json:"probes"`          // division probes (nthr attempts)
	Granted        uint64 `json:"granted"`         // probes that reserved a context token
	NoCtxDenies    uint64 `json:"no_ctx_denies"`   // probes refused because the pool was empty
	ThrottleDenies uint64 `json:"throttle_denies"` // probes refused by the death-rate throttle
	InlineRuns     uint64 `json:"inline_runs"`     // Divide calls that ran the work inline
	Deaths         uint64 `json:"deaths"`          // worker terminations (kthr)
	TotalWorkers   uint64 `json:"total_workers"`   // workers ever spawned
	PeakWorkers    int    `json:"peak_workers"`    // maximum simultaneously live workers
	LockAcquires   uint64 `json:"lock_acquires"`   // lock-table acquisitions

	// Sharded-pool internals (PR 5), aggregated over shards: grants
	// served by the prober's home shard, grants that stole from another
	// shard, and refusals reached only after sweeping every shard empty.
	// ShardLocalHits + ShardSteals == Granted, and ShardFullSweeps <=
	// NoCtxDenies (closed-runtime denies refuse without sweeping).
	ShardLocalHits  uint64 `json:"shard_local_hits"`
	ShardSteals     uint64 `json:"shard_steals"`
	ShardFullSweeps uint64 `json:"shard_full_sweeps"`
}

// Delta returns the counters accumulated since prev, an earlier snapshot
// of the same Runtime: s - prev field by field. PeakWorkers is a
// high-water mark, not a cumulative count, so the later snapshot's value
// carries through unchanged. Snapshot-then-delta is how a shared runtime
// is observed without ResetStats (which would clobber concurrent
// observers): take Stats() before, Stats() after, and Delta the two.
func (s Stats) Delta(prev Stats) Stats {
	return Stats{
		Probes:          s.Probes - prev.Probes,
		Granted:         s.Granted - prev.Granted,
		NoCtxDenies:     s.NoCtxDenies - prev.NoCtxDenies,
		ThrottleDenies:  s.ThrottleDenies - prev.ThrottleDenies,
		InlineRuns:      s.InlineRuns - prev.InlineRuns,
		Deaths:          s.Deaths - prev.Deaths,
		TotalWorkers:    s.TotalWorkers - prev.TotalWorkers,
		PeakWorkers:     s.PeakWorkers,
		LockAcquires:    s.LockAcquires - prev.LockAcquires,
		ShardLocalHits:  s.ShardLocalHits - prev.ShardLocalHits,
		ShardSteals:     s.ShardSteals - prev.ShardSteals,
		ShardFullSweeps: s.ShardFullSweeps - prev.ShardFullSweeps,
	}
}

// GrantRate is the fraction of probes that succeeded (Table 3's
// "% divisions allowed"). It doubles as the steal-free work balance:
// CAPSULE distributes work purely by conditional division — there is no
// work stealing, and a refused probe always leaves the offered work with
// the offering worker (inline in Divide, or the caller's else-branch
// after TryDivide) — so the grant rate is exactly the fraction of
// division offers whose work moved to a fresh worker.
func (s Stats) GrantRate() float64 {
	if s.Probes == 0 {
		return 0
	}
	return float64(s.Granted) / float64(s.Probes)
}

func (s Stats) String() string {
	return fmt.Sprintf(
		"probes=%d granted=%d (%.0f%%) denies[noctx=%d throttle=%d] inline=%d deaths=%d workers[total=%d peak=%d] locks=%d",
		s.Probes, s.Granted, 100*s.GrantRate(), s.NoCtxDenies, s.ThrottleDenies,
		s.InlineRuns, s.Deaths, s.TotalWorkers, s.PeakWorkers, s.LockAcquires)
}

// A Context is a reserved context token returned by a successful Probe.
// It must be consumed by exactly one Spawn or Release.
type Context struct {
	rt *Runtime
	id int
}

// ID is the hardware-context index this token reserves (stable across the
// runtime's lifetime; LIFO reuse means recently-died ids recur first).
func (c *Context) ID() int { return c.id }

// Runtime is one capsule execution domain: a context pool, a death window,
// a lock table and a join group. A Runtime is safe for concurrent use by
// any number of workers. Probe, TryDivide refusal and Release are
// lock-free and allocation-free; a granted Spawn is a spin-then-park
// handoff to the token's persistent worker (slot store + CAS on the fast
// path, mailbox send to a parked worker). A Runtime that should release
// its worker goroutines is shut down with Close; one that lives as long
// as the process (the common case) need not bother.
type Runtime struct {
	cfg     Config
	nshards int // pool and stat shard count: min(GOMAXPROCS, Contexts)

	pool shardedPool // lock-free per-shard LIFOs of free context ids
	ctxs []Context   // preallocated tokens, one per id: Probe allocates nothing
	ring DeathRing   // death timestamps for the throttle

	workers   []chan job    // per-context park mailbox (the handoff slow path)
	wstate    []workerState // per-context spin-then-park handoff slot
	workerWG  sync.WaitGroup
	closed    atomic.Bool
	closeOnce sync.Once
	closedCh  chan struct{}

	// Hot counters, sharded like the pool so Probe on one core never
	// false-shares a counter line with Release on another; Stats()
	// aggregates the blocks on read. Every probe bumps exactly one
	// outcome counter (localHits / steals / fullSweeps / closedDenies /
	// throttleDenies) and nothing else, so Probes is their derived sum.
	stats []statShard

	// Tracing (nil tracer = off). ctxTrace[id] is the trace ID of the
	// request whose division currently occupies context id, written by
	// the spawner before the handoff and read by the worker at death —
	// plain memory, ordered by the same handoff edge that publishes the
	// job itself. throttleOpen mirrors the last observed throttle state
	// so transitions (not levels) become KThrottleOpen/Close events.
	tracer       *captrace.Tracer
	ctxTrace     []uint64
	throttleOpen atomic.Bool

	live atomic.Int64
	peak atomic.Int64

	wg sync.WaitGroup

	stripes []sync.Mutex

	// now is the monotonic clock, injectable by tests to drive the death
	// window deterministically.
	now func() int64
}

// New builds a Runtime from cfg, applying defaults for zero fields. It
// panics if cfg fails Validate; use NewValidated to get the error
// instead.
func New(cfg Config) *Runtime {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Contexts <= 0 {
		cfg.Contexts = runtime.GOMAXPROCS(0)
	}
	return newRuntime(cfg, poolShards(cfg.Contexts))
}

// newRuntime is New for a validated cfg with Contexts set, its free
// pool and stat blocks sharded over exactly shards (1..Contexts)
// blocks. Tests pin the shard count through it.
func newRuntime(cfg Config, shards int) *Runtime {
	if cfg.DeathWindow <= 0 {
		cfg.DeathWindow = 100 * time.Microsecond
	}
	if cfg.DeathThreshold <= 0 {
		cfg.DeathThreshold = cfg.Contexts / 2
		if cfg.DeathThreshold < 1 {
			cfg.DeathThreshold = 1
		}
	}
	rt := &Runtime{
		cfg:      cfg,
		nshards:  shards,
		workers:  make([]chan job, cfg.Contexts),
		wstate:   make([]workerState, cfg.Contexts),
		stats:    make([]statShard, shards),
		closedCh: make(chan struct{}),
		stripes:  make([]sync.Mutex, lockStripes),
		now:      func() int64 { return time.Now().UnixNano() },
	}
	rt.tracer = cfg.Tracer
	rt.pool.init(cfg.Contexts, shards)
	rt.ring.Init(cfg.DeathThreshold)
	rt.ctxs = make([]Context, cfg.Contexts)
	rt.ctxTrace = make([]uint64, cfg.Contexts)
	rt.workerWG.Add(cfg.Contexts)
	for i := range rt.ctxs {
		rt.ctxs[i] = Context{rt: rt, id: i}
		rt.workers[i] = make(chan job, 1)
		go rt.workerLoop(i)
	}
	return rt
}

// NewValidated is New for configurations built from external input (flags,
// requests): it returns cfg's validation error instead of panicking.
func NewValidated(cfg Config) (*Runtime, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return New(cfg), nil
}

// NewDefault is New(Defaults()).
func NewDefault() *Runtime { return New(Defaults()) }

// Contexts returns the context-pool size.
func (rt *Runtime) Contexts() int { return rt.cfg.Contexts }

// FreeContexts returns the number of currently unreserved context tokens.
// It is a point-in-time observation, not a reservation — a caller that
// needs the token must Probe — and it does not count as a probe, so
// admission-style peeks (is any parallelism even available?) don't
// distort the division grant rate. It is one atomic load per pool shard.
func (rt *Runtime) FreeContexts() int { return rt.pool.free() }

// CanDivide reports whether a probe made now would succeed: the runtime
// is open, a context token is free AND the death-rate throttle is
// quiescent. Like FreeContexts it is a non-counting peek, so admission
// checks that use it leave the grant rate to real offers — and unlike
// FreeContexts it agrees with Probe's full condition, so a caller that
// degrades on !CanDivide won't pour doomed offers into a throttled
// runtime. It is a few atomic loads: cheap enough for every request.
func (rt *Runtime) CanDivide() bool {
	if rt.closed.Load() {
		return false
	}
	open := rt.throttled()
	rt.traceThrottleEdge(open)
	if open {
		return false
	}
	return rt.pool.free() > 0
}

// throttled is Probe's death-rate condition: at least DeathThreshold
// deaths inside the trailing DeathWindow. One or two atomic loads against
// the death ring, and a clock read only when enough deaths exist to
// possibly trip — the software analogue of the SOMT's window monitor
// answering in a few cycles.
func (rt *Runtime) throttled() bool {
	if !rt.cfg.Throttle {
		return false
	}
	return rt.ring.AtLeast(rt.cfg.DeathThreshold, rt.now, rt.cfg.DeathWindow.Nanoseconds())
}

// traceThrottleEdge records an open/close transition of the death-rate
// throttle against the last observed state. It is deliberately kept off
// the untraced probe fast path — an armed-but-unsampled probe pays no
// extra atomic loads for it (the capstress trace_overhead budget) — and
// is instead driven from the sites that can actually witness an edge
// promptly: death recording (deaths are what open the throttle),
// CanDivide admission peeks, and traced probes (which sample the level
// anyway). open is the caller's freshly computed throttled() level.
func (rt *Runtime) traceThrottleEdge(open bool) {
	if rt.tracer == nil || open == rt.throttleOpen.Load() {
		return
	}
	// Transition, not level: exactly one racing observer wins the CAS
	// and records the edge. Trace ID 0 — the throttle is runtime
	// state, not any one request's.
	if rt.throttleOpen.CompareAndSwap(!open, open) {
		kind := captrace.KThrottleClose
		if open {
			kind = captrace.KThrottleOpen
		}
		rt.tracer.Record(kind, 0, 0, 0, 0)
	}
}

// Probe attempts to reserve a context token: the paper's nthr condition.
// It succeeds only when the pool has a free token and the death-rate
// throttle is quiescent. On success the returned Context MUST be consumed
// by Spawn or Release; on failure the caller takes its sequential path.
// Probe never takes a mutex and never allocates (the returned Context is
// the token's preallocated struct).
func (rt *Runtime) Probe() (*Context, bool) { return rt.probe(0) }

// ProbeTraced is Probe with a trace identity: when tid is nonzero and
// the runtime has a Tracer, the probe's outcome (grant with shard and
// steal distance, or refusal with its reason) is recorded against tid,
// and a subsequent Spawn of the returned context tags its handoff and
// death the same way. tid 0 is exactly Probe.
func (rt *Runtime) ProbeTraced(tid uint64) (*Context, bool) { return rt.probe(tid) }

func (rt *Runtime) probe(tid uint64) (*Context, bool) {
	h := affinityHint(rt.nshards)
	st := &rt.stats[h]
	if rt.closed.Load() {
		// A closed runtime grants nothing; the pool is (being) drained, so
		// "no context" is the refusal Stats reports (NoCtxDenies sums
		// these with the pool-empty sweeps).
		st.closedDenies.Add(1)
		if tid != 0 {
			rt.tracer.Record(captrace.KProbeDenied, tid, uint8(h), captrace.DenyClosed, 0)
		}
		return nil, false
	}
	open := rt.throttled()
	if tid != 0 {
		rt.traceThrottleEdge(open)
	}
	if open {
		st.throttleDenies.Add(1)
		if tid != 0 {
			rt.tracer.Record(captrace.KProbeDenied, tid, uint8(h), captrace.DenyThrottle, 0)
		}
		return nil, false
	}
	id, steals, ok := rt.pool.popScan(h)
	if !ok {
		// fullSweeps IS this path's outcome counter (Stats folds it into
		// NoCtxDenies), so the per-shard breakdown costs no extra bump.
		st.fullSweeps.Add(1)
		if tid != 0 {
			rt.tracer.Record(captrace.KProbeDenied, tid, uint8(h), captrace.DenyNoCtx, 0)
		}
		return nil, false
	}
	// localHits/steals ARE the grant outcome counters (Granted is their
	// sum, derived in Stats): the grant path pays one bump.
	if steals == 0 {
		st.localHits.Add(1)
	} else {
		st.steals.Add(1)
	}
	if tid != 0 {
		rt.tracer.Record(captrace.KProbeGranted, tid, uint8(h), uint16(steals), uint32(id))
	}
	return &rt.ctxs[id], true
}

// Spawn consumes a reserved token and hands fn to the token's persistent
// worker. The worker's return is the kthr: the token goes back on its
// shard's LIFO stack and the death is recorded for the throttle. The
// hand-off is non-blocking by construction — a slot store + CAS when the
// worker is still spinning after its last job, a buffered channel send
// once it parked; either way no goroutine spawn and no allocation beyond
// fn's own closure (see worker.go).
func (rt *Runtime) Spawn(c *Context, fn func()) { rt.spawnOn(c, fn, nil, 0) }

// spawnOn is Spawn with an optional extra join group and trace identity:
// when g is non-nil the worker is also counted in g, so Group.Join can
// wait for exactly its own workers while Runtime.Join still covers
// everyone. The extra Done fires after the token release, so by the time
// a group join returns its workers' deaths are visible in the runtime's
// stats and pool. tid tags the context's handoff and eventual death in
// the tracer (0 = untraced); the ctxTrace store is unconditional so a
// context last used by a traced request never mis-attributes its next,
// untraced occupant. The store is safely ordered: only the token holder
// writes it, and the worker reads it after the handoff edge.
func (rt *Runtime) spawnOn(c *Context, fn func(), g *sync.WaitGroup, tid uint64) {
	if c == nil || c.rt != rt {
		panic("capsule: Spawn with foreign or nil context")
	}
	if fn == nil {
		panic("capsule: Spawn with nil fn")
	}
	rt.ctxTrace[c.id] = tid
	rt.stat().totalWorkers.Add(1)
	live := rt.live.Add(1)
	for {
		p := rt.peak.Load()
		if live <= p || rt.peak.CompareAndSwap(p, live) {
			break
		}
	}
	rt.wg.Add(1)
	if g != nil {
		g.Add(1)
	}
	rt.sendJob(c.id, job{fn: fn, g: g})
}

// stat returns the calling goroutine's home counter block — the same
// shard pick Probe uses for the pool.
func (rt *Runtime) stat() *statShard { return &rt.stats[affinityHint(rt.nshards)] }

// Release returns an unused token to the pool without running anything
// (a probe the caller decided not to act on). It does not count as a
// death. Lock-free and allocation-free: one CAS.
func (rt *Runtime) Release(c *Context) {
	if c == nil || c.rt != rt {
		panic("capsule: Release with foreign or nil context")
	}
	rt.pool.push(c.id, affinityHint(rt.nshards))
}

// release is the kthr path: the worker died, its context is free again.
// The death is recorded before the token is pushed, so a probe that wins
// the recycled token observes the throttle state its death produced. The
// token lands on the worker goroutine's own home shard — persistent
// workers have stable stacks, so a context that keeps dying on one core
// keeps being re-granted from that core's shard.
func (rt *Runtime) release(id int) {
	h := affinityHint(rt.nshards)
	rt.live.Add(-1)
	rt.stats[h].deaths.Add(1)
	if rt.cfg.Throttle {
		rt.ring.Record(rt.now())
		if rt.tracer != nil {
			// The death this worker just recorded may have tripped the
			// throttle: the death path, not the probe path, is where open
			// edges are born, so check here while the ring line is hot.
			rt.traceThrottleEdge(rt.throttled())
		}
	}
	if tid := rt.ctxTrace[id]; tid != 0 {
		// Read is safe pre-push: the worker still owns the token here, and
		// the spawner's ctxTrace store happened-before the job arrived.
		rt.tracer.Record(captrace.KDeath, tid, uint8(h), 0, uint32(id))
	}
	rt.pool.push(id, h)
	rt.wg.Done()
}

// TryDivide probes and, on success, spawns fn as a worker and returns
// true. On refusal it does nothing and returns false — the caller's
// `else` branch, for programs (like the paper's LZW) that interleave a
// unit of inline work between probes rather than forfeiting the whole
// range.
func (rt *Runtime) TryDivide(fn func()) bool {
	c, ok := rt.Probe()
	if !ok {
		return false
	}
	rt.Spawn(c, fn)
	return true
}

// Divide is the fused protocol: probe, and either spawn fn on a fresh
// worker (true) or run it inline to completion on the caller (false).
// Either way fn's work is done or underway when Divide returns, which is
// the CapC `coworker f(...)` statement without an else clause.
func (rt *Runtime) Divide(fn func()) bool {
	if rt.TryDivide(fn) {
		return true
	}
	rt.stat().inlineRuns.Add(1)
	fn()
	return false
}

// Join blocks until every spawned worker has died. Mirrors the CapC
// join(): only the component that owns the group may call it, and it must
// not race with new top-level divisions (divisions *from live workers*
// are fine — the group cannot hit zero while the divider is alive).
func (rt *Runtime) Join() { rt.wg.Wait() }

// Lock acquires the table entry for key (mlock). Keys are arbitrary
// 64-bit addresses; the table is striped, so distinct keys may share an
// entry — coarser, never incorrect, exactly like the bounded hardware
// table.
func (rt *Runtime) Lock(key uint64) {
	rt.stat().lockAcquires.Add(1)
	rt.stripes[mix(key)%lockStripes].Lock()
}

// Unlock releases the table entry for key (munlock).
func (rt *Runtime) Unlock(key uint64) {
	rt.stripes[mix(key)%lockStripes].Unlock()
}

// lockStripes is the lock-table size, mirroring the bounded fast lock
// table.
const lockStripes = 256

// mix is a 64-bit finaliser (splitmix64) so dense keys spread over
// stripes.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Stats snapshots the counters, aggregating the per-shard blocks.
// Probes is derived, not counted: every probe bumps exactly one outcome
// counter, so Probes == Granted + NoCtxDenies + ThrottleDenies holds in
// every snapshot and in every Delta between two snapshots.
func (rt *Runtime) Stats() Stats {
	var s Stats
	for i := range rt.stats {
		st := &rt.stats[i]
		// Granted and the pool-empty denies are derived, not separately
		// counted: localHits/steals/fullSweeps are the outcome counters
		// the hot path actually bumps.
		localHits := st.localHits.Load()
		steals := st.steals.Load()
		sweeps := st.fullSweeps.Load()
		s.Granted += localHits + steals
		s.NoCtxDenies += st.closedDenies.Load() + sweeps
		s.ThrottleDenies += st.throttleDenies.Load()
		s.InlineRuns += st.inlineRuns.Load()
		s.Deaths += st.deaths.Load()
		s.TotalWorkers += st.totalWorkers.Load()
		s.LockAcquires += st.lockAcquires.Load()
		s.ShardLocalHits += localHits
		s.ShardSteals += steals
		s.ShardFullSweeps += sweeps
	}
	s.Probes = s.Granted + s.NoCtxDenies + s.ThrottleDenies
	s.PeakWorkers = int(rt.peak.Load())
	return s
}

// ShardCounters is one stat shard's pool-behaviour counters, the
// per-shard breakdown behind Stats' ShardLocalHits/ShardSteals/
// ShardFullSweeps aggregates. Free is the matching pool shard's current
// free-token count (a peek, like FreeContexts).
type ShardCounters struct {
	LocalHits  uint64 `json:"local_hits"`
	Steals     uint64 `json:"steals"`
	FullSweeps uint64 `json:"full_sweeps"`
	Free       int    `json:"free"`
}

// ShardCounterSnapshot returns each shard's counters in shard order —
// the read-side aggregation point for the capsule_shard_* metrics
// series. Note the attribution: a shard's block counts probes *homed*
// there (the prober's affinity), so a shard's Steals are grants its
// probers took from elsewhere, not tokens taken from it.
func (rt *Runtime) ShardCounterSnapshot() []ShardCounters {
	out := make([]ShardCounters, rt.nshards)
	rt.ReadShardCounters(out)
	return out
}

// ReadShardCounters fills dst with up to nshards shards' counters in
// shard order and returns the runtime's shard count (which may exceed
// len(dst)). It is the allocation-free variant of ShardCounterSnapshot
// for periodic samplers (capwatch) that re-read the counters every tick
// into a preallocated slot: call once with nil to size the buffer, then
// reuse it forever.
func (rt *Runtime) ReadShardCounters(dst []ShardCounters) int {
	n := rt.nshards
	if n > len(dst) {
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		st := &rt.stats[i]
		dst[i] = ShardCounters{
			LocalHits:  st.localHits.Load(),
			Steals:     st.steals.Load(),
			FullSweeps: st.fullSweeps.Load(),
			Free:       int(rt.pool.shards[i].free.Load()),
		}
		if dst[i].Free < 0 {
			dst[i].Free = 0
		}
	}
	return rt.nshards
}

// Tracer returns the tracer this runtime records into (nil when
// tracing is disabled) — the handle the serving tier snapshots for
// /debug/trace.
func (rt *Runtime) Tracer() *captrace.Tracer { return rt.tracer }

// ResetStats zeroes the counters (the context pool and death window are
// left alone: resource state is not statistics). Concurrent observers
// should use Stats().Delta snapshots instead of resetting (see
// Stats.Delta).
func (rt *Runtime) ResetStats() {
	for i := range rt.stats {
		st := &rt.stats[i]
		st.closedDenies.Store(0)
		st.throttleDenies.Store(0)
		st.inlineRuns.Store(0)
		st.deaths.Store(0)
		st.totalWorkers.Store(0)
		st.lockAcquires.Store(0)
		st.localHits.Store(0)
		st.steals.Store(0)
		st.fullSweeps.Store(0)
	}
	rt.peak.Store(rt.live.Load())
}
