package main

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Outcome of one request. Everything but outcomeOK counts as failed.
const (
	outcomeOK        = iota
	outcomeTransport // dial, read or decode error
	outcomeStatus    // any non-2xx response, 503 sheds included
	outcomeMismatch  // checksum differs from the Sequential() reference
)

// record is one request as its client saw it.
type record struct {
	span     uint64 // client<<48 | sequence; stamped only when traced
	req      request
	outcome  int
	checksum uint64
	compute  int64 // the response's elapsed_ns
	latency  int64 // ns from send to the full body read
}

// serveResponse is the part of capserve's /run body the client checks.
type serveResponse struct {
	Checksum  uint64 `json:"checksum"`
	ElapsedNS int64  `json:"elapsed_ns"`
}

func requestURL(base string, w *workload, r request) string {
	return base + "/run/" + w.mix[r.wl] + "?n=" + strconv.Itoa(w.n) + "&seed=" + strconv.FormatInt(r.seed, 10)
}

// do sends one request and reads its whole body.
func do(c *http.Client, url string, span uint64, traced bool) (rec record) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		rec.outcome = outcomeTransport
		return rec
	}
	if traced {
		req.Header.Set(headerSpan, strconv.FormatUint(span, 10))
	}
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		rec.outcome = outcomeTransport
		rec.latency = time.Since(start).Nanoseconds()
		return rec
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.latency = time.Since(start).Nanoseconds()
	switch {
	case err != nil:
		rec.outcome = outcomeTransport
	case resp.StatusCode < 200 || resp.StatusCode > 299:
		rec.outcome = outcomeStatus
	default:
		var sr serveResponse
		if json.Unmarshal(body, &sr) != nil {
			rec.outcome = outcomeTransport
		} else {
			rec.checksum, rec.compute = sr.Checksum, sr.ElapsedNS
		}
	}
	return rec
}

// drive runs one closed loop per stream against base: each client sends
// its next request only after the previous one completed. A client
// stops after count requests (count > 0) or, with count == 0, at the
// first completion past d. Each client folds its responses into its own
// tally as they arrive; drive returns the merged tally and the wall time
// from the start until the last client finished.
func drive(c *http.Client, base string, streams []*stream, count int, d time.Duration, traced bool, v *verifier) (*tally, time.Duration) {
	per := make([]*tally, len(streams))
	for ci := range per {
		per[ci] = newTally(traced)
	}
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	more := func(seq int) bool {
		if count > 0 {
			return seq < count
		}
		return time.Now().Before(deadline)
	}
	for ci, s := range streams {
		wg.Add(1)
		go func(ci int, s *stream, t *tally) {
			defer wg.Done()
			for seq := 0; more(seq); seq++ {
				r := s.next()
				span := uint64(ci)<<48 | uint64(seq)
				rec := do(c, requestURL(base, s.w, r), span, traced)
				rec.span, rec.req = span, r
				t.add(rec, v)
			}
		}(ci, s, per[ci])
	}
	wg.Wait()
	wall := time.Since(start)
	for _, t := range per[1:] {
		per[0].merge(t)
	}
	return per[0], wall
}
