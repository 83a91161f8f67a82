// Package loadgen is the load client capload and capstress share: a
// closed loop, a health-aware walk over replicated targets, and a
// concurrency-safe tally of outcomes. The binaries decide what each
// request asks for and what the counts mean; this package only sends
// requests and keeps score.
package loadgen

import (
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Closed runs clients workers back to back until deadline: worker c
// calls fire(c, i) for i = 0, 1, 2, ... and starts no call at or after
// the deadline. It returns once every worker's last call has.
func Closed(clients int, deadline time.Time, fire func(c, i int)) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				fire(c, i)
			}
		}()
	}
	wg.Wait()
}

// Replicas is a health-aware view of a replicated router fleet.
// Requests start at the preferred replica (the last one that
// answered); a transport-level failure marks the replica down for
// Cooldown and the walk moves on, so a kill -9'd router costs each
// in-flight request at most one bounded extra attempt, and nearly
// nothing once the preference has moved. Replicas in cooldown are
// demoted to the end of the walk, not excluded: being wrong about
// "down" costs one attempt, skipping a live replica could fail the
// request.
type Replicas struct {
	urls      []string
	preferred atomic.Int64
	downUntil []atomic.Int64 // unix nanos; demoted (not excluded) until then
	failovers atomic.Uint64  // requests that succeeded on a non-first attempt
}

// Cooldown is how long a transport failure demotes a replica.
// Deliberately short: a router that TERMs gracefully flips /healthz
// long before it stops answering, and one that dies abruptly keeps
// refusing instantly — re-probing is cheap either way.
const Cooldown = time.Second

// NewReplicas walks urls, the first preferred.
func NewReplicas(urls []string) *Replicas {
	return &Replicas{urls: urls, downUntil: make([]atomic.Int64, len(urls))}
}

// Failovers counts the requests that succeeded on a non-first attempt.
func (rs *Replicas) Failovers() uint64 { return rs.failovers.Load() }

// order returns the target indexes to try for one request: the
// preferred replica first, the rest round-robin after it, cooling
// replicas demoted to the tail.
func (rs *Replicas) order() []int {
	n := len(rs.urls)
	if n == 1 {
		return []int{0}
	}
	p := int(rs.preferred.Load()) % n
	now := time.Now().UnixNano()
	live := make([]int, 0, n)
	var cooling []int
	for i := 0; i < n; i++ {
		t := (p + i) % n
		if rs.downUntil[t].Load() > now {
			cooling = append(cooling, t)
		} else {
			live = append(live, t)
		}
	}
	return append(live, cooling...)
}

// Do sends GET path (with header, which may be nil) down the walk and
// returns the first response any replica gives. A status code, even a
// 5xx, is an answer; only a transport error moves the walk on. The
// error is the last replica's when every one failed at the transport.
func (rs *Replicas) Do(client *http.Client, path string, header http.Header) (*http.Response, error) {
	var lastErr error
	for attempt, t := range rs.order() {
		req, err := http.NewRequest(http.MethodGet, rs.urls[t]+path, nil)
		if err != nil {
			return nil, err
		}
		if header != nil {
			req.Header = header
		}
		resp, err := client.Do(req)
		if err == nil {
			rs.downUntil[t].Store(0)
			rs.preferred.Store(int64(t))
			if attempt > 0 {
				rs.failovers.Add(1)
			}
			return resp, nil
		}
		rs.downUntil[t].Store(time.Now().UnixNano() + Cooldown.Nanoseconds())
		lastErr = err
	}
	return nil, lastErr
}

// Success reports whether code is a 2xx.
func Success(code int) bool { return code >= 200 && code < 300 }

// Failed reports whether code is a failed request from the client's
// view: a transport error (code 0), a 5xx, a 499 — anything that is
// neither a success nor the client's own 4xx conversation with the API.
func Failed(code int) bool {
	return !Success(code) && !(code >= 400 && code < 500 && code != 499)
}

// Tally is a concurrency-safe record of request outcomes: a count per
// status code (0 = transport error) and the latency of every success.
// The zero value is ready to use.
type Tally struct {
	mu     sync.Mutex
	byCode map[int]int
	total  int
	lats   []time.Duration
	sorted bool
}

// Record adds one request's outcome.
func (t *Tally) Record(code int, lat time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.byCode == nil {
		t.byCode = map[int]int{}
	}
	t.byCode[code]++
	t.total++
	if Success(code) {
		t.lats = append(t.lats, lat)
		t.sorted = false
	}
}

// Total is the number of requests recorded.
func (t *Tally) Total() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// ByCode returns a copy of the per-status-code counts.
func (t *Tally) ByCode() map[int]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int]int, len(t.byCode))
	for c, n := range t.byCode {
		out[c] = n
	}
	return out
}

// Count is the number of requests whose status code is in class.
func (t *Tally) Count(class func(code int) bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for c, k := range t.byCode {
		if class(c) {
			n += k
		}
	}
	return n
}

// Latencies returns the successes' latencies, ascending. The slice is
// the tally's own: read it, do not keep it across further Records.
func (t *Tally) Latencies() []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.sorted {
		sort.Slice(t.lats, func(i, j int) bool { return t.lats[i] < t.lats[j] })
		t.sorted = true
	}
	return t.lats
}

// Quantile returns the q-quantile of the successes' latencies (q = 1
// is the maximum), 0 when there were none.
func (t *Tally) Quantile(q float64) time.Duration {
	lats := t.Latencies()
	if len(lats) == 0 {
		return 0
	}
	return lats[int(q*float64(len(lats)-1))]
}
