package capsule

import "sync/atomic"

// This file holds the death-timestamp ring behind the division throttle
// (the free-token pool lives in shard.go). Like the pool, it is the
// software analogue of the paper's point that nthr is answerable "in a
// few cycles": the throttle check is one or two atomic loads, never a
// mutex, never an allocation.
//
//   - DeathRing: a fixed-size ring of death timestamps, replacing the
//     slice-prune death window. "deaths in window >= threshold" collapses
//     to one load: the threshold-th most recent death is still inside the
//     window iff at least threshold deaths happened inside it.

// DeathRing records worker-death timestamps for the division throttle.
// It is exported because the cluster tier reuses it unchanged: a
// capcluster backend's failure breaker is the same ring over backend
// errors and timeouts, the cluster's deaths.
// Slot i&mask holds the timestamp of death number i (0-based); seq is the
// count of deaths recorded so far. The ring holds at least threshold
// entries, so the timestamp of the threshold-th most recent death is
// always still present: it is overwritten only by death seq-threshold+size
// >= seq, which has not happened yet.
//
// Two benign races exist, in opposite directions, both bounded to the
// instruction window of one record call. An overwrite racing a read can
// only replace the slot with a newer timestamp, which errs toward
// throttling — the conservative direction, same as the paper's hardware
// monitor. And because record reserves its slot (seq.Add) before storing
// the timestamp, a reader that catches seq published but the store not
// yet landed sees the slot's previous (older, possibly zero) timestamp
// and may let one probe through as a death lands — a transient
// under-throttle of a single offer. The throttle is a rate heuristic,
// not a mutual-exclusion device, so neither direction affects
// correctness; precise counting is exactly the serialization the
// lock-free rewrite removed.
type DeathRing struct {
	seq  atomic.Uint64
	mask uint64
	ts   []atomic.Int64
}

// Init sizes the ring to the next power of two >= threshold, so the
// timestamp of the threshold-th most recent death is always resident.
func (r *DeathRing) Init(threshold int) {
	size := 1
	for size < threshold {
		size <<= 1
	}
	r.ts = make([]atomic.Int64, size)
	r.mask = uint64(size - 1)
}

// Record logs one death at timestamp now.
func (r *DeathRing) Record(now int64) {
	i := r.seq.Add(1) - 1
	r.ts[i&r.mask].Store(now)
}

// AtLeast reports whether at least k recorded deaths have timestamps at
// or after now()-windowNS: true iff the k-th most recent death is still
// inside the window. now is consulted only once k deaths exist at all,
// so a quiescent runtime (no deaths yet — every Probe/Release benchmark,
// and any pool that divides rarely) answers with one atomic load and no
// clock read. That laziness is most of the probe fast path: reading the
// OS clock costs more than the pool CAS itself.
func (r *DeathRing) AtLeast(k int, now func() int64, windowNS int64) bool {
	seq := r.seq.Load()
	if seq < uint64(k) {
		return false
	}
	ts := r.ts[(seq-uint64(k))&r.mask].Load()
	return ts >= now()-windowNS
}
