package loadgen

import (
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// live is a replica that answers every request with 200 and counts them.
func live(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Write([]byte("ok"))
	}))
	t.Cleanup(ts.Close)
	return ts, &hits
}

// dead is a replica that accepts each connection and drops it unanswered,
// a transport failure the client sees on every attempt, and counts the
// attempts.
func dead(t *testing.T) (string, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var dials atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			dials.Add(1)
			c.Close()
		}
	}()
	return "http://" + ln.Addr().String(), &dials
}

func get(t *testing.T, rs *Replicas) error {
	t.Helper()
	resp, err := rs.Do(http.DefaultClient, "/run/quicksort?n=1&seed=1", nil)
	if err == nil {
		resp.Body.Close()
	}
	return err
}

func TestWalkTriesPreferredFirst(t *testing.T) {
	a, aHits := live(t)
	b, bHits := live(t)
	rs := NewReplicas([]string{a.URL, b.URL})
	for i := 0; i < 3; i++ {
		if err := get(t, rs); err != nil {
			t.Fatal(err)
		}
	}
	if aHits.Load() != 3 || bHits.Load() != 0 {
		t.Fatalf("hits a=%d b=%d, want every request on the first replica", aHits.Load(), bHits.Load())
	}
	// Preference follows the last replica that answered.
	rs.preferred.Store(1)
	if err := get(t, rs); err != nil {
		t.Fatal(err)
	}
	if bHits.Load() != 1 || aHits.Load() != 3 {
		t.Fatalf("hits a=%d b=%d, want the preferred replica to serve", aHits.Load(), bHits.Load())
	}
	if rs.Failovers() != 0 {
		t.Fatalf("failovers = %d, want 0: every request succeeded on its first attempt", rs.Failovers())
	}
}

func TestTransportFailureDemotesForCooldown(t *testing.T) {
	a, aHits := live(t)
	bURL, bDials := dead(t)
	c, cHits := live(t)
	rs := NewReplicas([]string{a.URL, bURL, c.URL})
	rs.preferred.Store(1) // the dead replica is preferred

	before := time.Now()
	if err := get(t, rs); err != nil {
		t.Fatalf("request failed although a later replica is live: %v", err)
	}
	if bDials.Load() != 1 || cHits.Load() != 1 || aHits.Load() != 0 {
		t.Fatalf("dials b=%d, hits c=%d a=%d, want b tried once and c serving", bDials.Load(), cHits.Load(), aHits.Load())
	}
	if rs.Failovers() != 1 {
		t.Fatalf("failovers = %d, want 1", rs.Failovers())
	}
	until := time.Unix(0, rs.downUntil[1].Load())
	if until.Before(before.Add(Cooldown)) || until.After(time.Now().Add(Cooldown)) {
		t.Fatalf("demoted until %v, want about %v from the failure", until.Sub(before), Cooldown)
	}

	// Still preferred by rotation, but demoted to the tail of the walk:
	// the next request goes to a live replica without touching it.
	rs.preferred.Store(1)
	if got := rs.order(); !slices.Equal(got, []int{2, 0, 1}) {
		t.Fatalf("order = %v, want the cooling replica last", got)
	}
	if err := get(t, rs); err != nil {
		t.Fatal(err)
	}
	if bDials.Load() != 1 || rs.Failovers() != 1 {
		t.Fatalf("dials b=%d failovers=%d, want the demoted replica skipped", bDials.Load(), rs.Failovers())
	}

	// Once the cooldown has passed the replica is back in rotation.
	rs.downUntil[1].Store(time.Now().Add(-time.Millisecond).UnixNano())
	rs.preferred.Store(1)
	if got := rs.order(); !slices.Equal(got, []int{1, 2, 0}) {
		t.Fatalf("order after cooldown = %v, want plain rotation", got)
	}

	// The replica that answered a failover is preferred from then on,
	// even once the failed one has cooled down again.
	if err := get(t, rs); err != nil {
		t.Fatal(err)
	}
	rs.downUntil[1].Store(0)
	if got := rs.order(); !slices.Equal(got, []int{2, 0, 1}) {
		t.Fatalf("order after failover = %v, want the answering replica first", got)
	}
}

func TestAllReplicasDownIsOneFailure(t *testing.T) {
	aURL, aDials := dead(t)
	bURL, bDials := dead(t)
	rs := NewReplicas([]string{aURL, bURL})
	var tally Tally
	start := time.Now()
	resp, err := rs.Do(http.DefaultClient, "/run/lzw?n=1&seed=1", nil)
	if err == nil {
		resp.Body.Close()
		t.Fatal("request succeeded with every replica down")
	}
	tally.Record(0, time.Since(start))
	if aDials.Load() != 1 || bDials.Load() != 1 {
		t.Fatalf("dials a=%d b=%d, want each replica tried once", aDials.Load(), bDials.Load())
	}
	if tally.Total() != 1 || tally.Count(Failed) != 1 || rs.Failovers() != 0 {
		t.Fatalf("total=%d failed=%d failovers=%d, want exactly one failure and no failover",
			tally.Total(), tally.Count(Failed), rs.Failovers())
	}
}

func TestHeaderRidesEveryAttempt(t *testing.T) {
	deadURL, _ := dead(t)
	var got atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got.Store(r.Header.Get("X-Test"))
	}))
	defer ts.Close()
	h := http.Header{}
	h.Set("X-Test", "walk")
	resp, err := NewReplicas([]string{deadURL, ts.URL}).Do(http.DefaultClient, "/", h)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.Load() != "walk" {
		t.Fatalf("header on the failover attempt = %v, want walk", got.Load())
	}
}

func TestClosedStopsAtDeadlineWithPerClientSequences(t *testing.T) {
	const clients = 4
	var mu sync.Mutex
	seqs := make([][]int, clients)
	late := atomic.Int64{}
	deadline := time.Now().Add(60 * time.Millisecond)
	Closed(clients, deadline, func(c, i int) {
		if !time.Now().Before(deadline) {
			late.Add(1)
		}
		mu.Lock()
		seqs[c] = append(seqs[c], i)
		mu.Unlock()
		time.Sleep(2 * time.Millisecond)
	})
	if time.Now().Before(deadline) {
		t.Fatal("Closed returned before the deadline")
	}
	if late.Load() != 0 {
		t.Fatalf("%d calls started at or after the deadline", late.Load())
	}
	for c, seq := range seqs {
		if len(seq) == 0 {
			t.Fatalf("client %d never fired", c)
		}
		for i, got := range seq {
			if got != i {
				t.Fatalf("client %d call %d got i=%d, want its own 0, 1, 2, ... sequence: %v", c, i, got, seq)
			}
		}
	}
}

func TestFailedClass(t *testing.T) {
	for code, want := range map[int]bool{
		0: true, 500: true, 502: true, 503: true, 499: true,
		200: false, 204: false, 400: false, 404: false, 429: false,
	} {
		if Failed(code) != want {
			t.Errorf("Failed(%d) = %v, want %v", code, !want, want)
		}
	}
}

func TestTallyConcurrent(t *testing.T) {
	var tally Tally
	codes := []int{200, 200, 404, 503, 0, 499, 201}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, code := range codes {
				tally.Record(code, time.Duration(i+1)*time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if tally.Total() != 8*len(codes) {
		t.Fatalf("total = %d, want %d", tally.Total(), 8*len(codes))
	}
	if got := tally.Count(Success); got != 8*3 {
		t.Fatalf("successes = %d, want %d", got, 8*3)
	}
	if got := tally.Count(Failed); got != 8*3 {
		t.Fatalf("failed = %d, want %d (0, 503, 499; not the 404)", got, 8*3)
	}
	if by := tally.ByCode(); by[404] != 8 || by[0] != 8 {
		t.Fatalf("by code = %v", by)
	}
	// Latencies are the successes' only: 1, 2 and 7 ms, eight times each.
	lats := tally.Latencies()
	if len(lats) != 24 || !slices.IsSorted(lats) {
		t.Fatalf("latencies = %v, want 24 sorted", lats)
	}
	if tally.Quantile(0) != time.Millisecond || tally.Quantile(1) != 7*time.Millisecond {
		t.Fatalf("min/max = %v/%v, want 1ms/7ms", tally.Quantile(0), tally.Quantile(1))
	}
	var empty Tally
	if empty.Quantile(0.99) != 0 || empty.Total() != 0 {
		t.Fatal("empty tally not zero")
	}
}
