package main

import "math"

// histSub is the number of buckets per power of two: each bucket is
// 0.27% wide, finer than any difference the benchmark resolves.
// Durations from 1 ns to 2^36 ns (69 s, beyond the client's timeout)
// have buckets of their own.
const (
	histSub     = 256
	histOctaves = 36
)

// hist is a log-scale histogram of nanosecond durations. It is
// allocated once, so recording allocates nothing and the harness's
// memory does not grow with the number of requests.
type hist struct {
	counts []uint32
	n      int
}

func newHist() *hist { return &hist{counts: make([]uint32, histOctaves*histSub)} }

func (h *hist) add(ns int64) {
	i := 0
	if ns > 1 {
		i = min(int(math.Log2(float64(ns))*histSub), len(h.counts)-1)
	}
	h.counts[i]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile is the nearest-rank q-quantile, placed inside its bucket
// by the rank's position among the bucket's samples (geometrically), so
// it varies smoothly rather than in bucket steps; 0 when the histogram
// is empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := max(int(math.Ceil(q*float64(h.n))), 1)
	seen := 0
	for i, c := range h.counts {
		if seen+int(c) >= rank {
			within := (float64(rank-seen) - 0.5) / float64(c)
			return math.Exp2((float64(i) + within) / histSub)
		}
		seen += int(c)
	}
	return math.Exp2(float64(len(h.counts)) / histSub)
}

// tally aggregates a phase's responses as they arrive. A successful
// response whose reference is already known (every hot input) is
// checked at once; the others wait in pending until the verifier
// resolves them after the phase.
type tally struct {
	attempted, failed int
	mismatches        int
	verified          int

	// Successful, verified requests: client latency, the served
	// compute time (elapsed_ns), and the Sequential() reference's
	// compute and input-generation times for the same input.
	latency, compute, seq, gen *hist
	computeSum, seqSum         float64

	pending []record
	keep    bool // keep every verified record, for the span join
	kept    []record
}

func newTally(keep bool) *tally {
	return &tally{latency: newHist(), compute: newHist(), seq: newHist(), gen: newHist(), keep: keep}
}

func (t *tally) add(rec record, v *verifier) {
	t.attempted++
	if rec.outcome != outcomeOK {
		t.failed++
		return
	}
	if ref, ok := v.refs[rec.req]; ok {
		t.fold(rec, ref)
		return
	}
	t.pending = append(t.pending, rec)
}

// fold checks rec against its reference; a mismatch is a failed request.
func (t *tally) fold(rec record, ref reference) {
	t.verified++
	if rec.checksum != ref.checksum {
		t.mismatches++
		t.failed++
		return
	}
	t.latency.add(rec.latency)
	t.compute.add(rec.compute)
	t.seq.add(ref.compute)
	t.gen.add(ref.gen)
	t.computeSum += float64(rec.compute)
	t.seqSum += float64(ref.compute)
	if t.keep {
		t.kept = append(t.kept, rec)
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.mismatches += o.mismatches
	t.verified += o.verified
	t.latency.merge(o.latency)
	t.compute.merge(o.compute)
	t.seq.merge(o.seq)
	t.gen.merge(o.gen)
	t.computeSum += o.computeSum
	t.seqSum += o.seqSum
	t.pending = append(t.pending, o.pending...)
	t.kept = append(t.kept, o.kept...)
}

// ok is the number of successful, verified requests.
func (t *tally) ok() int { return t.attempted - t.failed }
