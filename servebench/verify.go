package main

import (
	"fmt"
	"time"

	"repro/internal/capsule"
	"repro/internal/workloads"
)

// reference is workloads.RunRequest's answer for one input on the
// Sequential() domain, with its timings split the way RunRequest does:
// compute is its ElapsedNS, gen the rest of the call (input generation).
type reference struct {
	checksum uint64
	compute  int64
	gen      int64
}

// verifier computes references one at a time, never while a phase is
// running, so the timings are not contended and clients may read refs
// without a lock. Each distinct input is run once.
type verifier struct {
	w    *workload
	rt   *capsule.Runtime
	refs map[request]reference
}

func newVerifier(w *workload) *verifier {
	return &verifier{w: w, rt: capsule.New(capsule.Config{Contexts: 1}), refs: map[request]reference{}}
}

func (v *verifier) close() { v.rt.Close() }

func (v *verifier) ref(r request) (reference, error) {
	if ref, ok := v.refs[r]; ok {
		return ref, nil
	}
	start := time.Now()
	res, err := workloads.RunRequest(v.rt.Sequential(), v.w.mix[r.wl], v.w.n, r.seed)
	if err != nil {
		return reference{}, fmt.Errorf("reference %s n=%d seed=%d: %w", v.w.mix[r.wl], v.w.n, r.seed, err)
	}
	ref := reference{checksum: res.Checksum, compute: res.ElapsedNS, gen: time.Since(start).Nanoseconds() - res.ElapsedNS}
	v.refs[r] = ref
	return ref, nil
}

// prepare computes the reference of every hot-set input up front, so
// hot responses are checked as they arrive.
func (v *verifier) prepare(streams []*stream) error {
	for k, set := range streams[0].hot {
		for _, seed := range set {
			if _, err := v.ref(request{wl: k, seed: seed}); err != nil {
				return err
			}
		}
	}
	return nil
}

// resolve checks the responses a phase left pending.
func (v *verifier) resolve(t *tally) error {
	for _, rec := range t.pending {
		ref, err := v.ref(rec.req)
		if err != nil {
			return err
		}
		t.fold(rec, ref)
	}
	t.pending = nil
	return nil
}
