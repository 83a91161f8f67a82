package capserve

// Tests for the serving-tier trace plumbing: a client-supplied
// X-Capsule-Trace-ID survives to the response and to the tracer's rings
// (the ISSUE's header-survival requirement), injected context identity
// wins over headers, sampling stays off the unsampled path, the
// /debug/trace endpoint round-trips snapshots, and the new
// capsule_shard_* series round-trip through promtext.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/capsule"
	"repro/internal/captrace"
	"repro/internal/promtext"
)

func newTracedServer(t *testing.T, sample int) (*Server, *httptest.Server, *captrace.Tracer) {
	t.Helper()
	// Rings big enough that one divide-heavy request (hundreds of probe
	// events) can't overwrite its own admit event mid-test.
	tr := captrace.New(2, 4096)
	rt := capsule.New(capsule.Config{Contexts: 4, Throttle: true, Tracer: tr})
	t.Cleanup(rt.Close)
	s, ts := newTestServer(t, Config{Runtime: rt, TraceSample: sample})
	return s, ts, tr
}

// TestTraceIDSurvivesToResponse: the exact ID a client stamps comes back
// on the response, and the request's full lifecycle — serving events AND
// the runtime events of its division group — lands in the tracer under
// that ID.
func TestTraceIDSurvivesToResponse(t *testing.T) {
	_, ts, tr := newTracedServer(t, 1<<30) // sampling ~never: only adoption can trace
	const id = "00c0ffee00c0ffee"

	req, _ := http.NewRequest("GET", ts.URL+"/run/quicksort?n=2000&seed=7", nil)
	req.Header.Set(captrace.HeaderTraceID, id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(captrace.HeaderTraceID); got != id {
		t.Fatalf("response trace ID = %q, want %q", got, id)
	}

	tid, err := captrace.ParseID(id)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[captrace.Kind]int{}
	for _, ev := range tr.Snapshot("test", 0).Events {
		if ev.TID == tid {
			kinds[ev.Kind]++
		}
	}
	if kinds[captrace.KReqAdmit] != 1 || kinds[captrace.KReqDone] != 1 {
		t.Fatalf("serving events = %v, want one admit and one done", kinds)
	}
	// The workload divides (or at least offers): the group must have
	// tagged runtime events with the same ID.
	runtime := kinds[captrace.KProbeGranted] + kinds[captrace.KProbeDenied] + kinds[captrace.KDivideInline]
	if runtime == 0 {
		t.Fatalf("no runtime events under the request's trace ID: %v", kinds)
	}
}

// TestTraceContextInjectionWins: an identity placed in the request
// context (the router's in-process fallback path) overrides the header.
func TestTraceContextInjectionWins(t *testing.T) {
	s, _, tr := newTracedServer(t, 1<<30)
	const injected, header = uint64(0x1111), "00000000deadbeef"

	req := httptest.NewRequest("GET", "/run/quicksort?n=500", nil)
	req.Header.Set(captrace.HeaderTraceID, header)
	req = req.WithContext(captrace.WithRequest(req.Context(), injected, true))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if got := rec.Header().Get(captrace.HeaderTraceID); got != captrace.FormatID(injected) {
		t.Fatalf("response ID = %q, want the injected %q", got, captrace.FormatID(injected))
	}
	for _, ev := range tr.Snapshot("test", 0).Events {
		if ev.TID == 0xdeadbeef {
			t.Fatalf("header ID was traced despite context injection: %+v", ev)
		}
	}

	// An injected identity with traced=false records nothing but still
	// echoes its ID.
	req = httptest.NewRequest("GET", "/run/quicksort?n=500", nil)
	req = req.WithContext(captrace.WithRequest(req.Context(), 0x2222, false))
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if got := rec.Header().Get(captrace.HeaderTraceID); got != captrace.FormatID(0x2222) {
		t.Fatalf("unsampled injected ID not echoed: %q", got)
	}
	for _, ev := range tr.Snapshot("test", 0).Events {
		if ev.TID == 0x2222 {
			t.Fatalf("untraced injected identity recorded an event: %+v", ev)
		}
	}
}

// TestTraceDisabled: with no tracer anywhere, no ID is minted, no header
// echoed, and /debug/trace 404s.
func TestTraceDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := getJSON(t, ts.URL+"/run/quicksort?n=500", nil)
	if got := resp.Header.Get(captrace.HeaderTraceID); got != "" {
		t.Fatalf("untraced server echoed an ID: %q", got)
	}
	resp = getJSON(t, ts.URL+"/debug/trace", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/trace on an untraced server = %d, want 404", resp.StatusCode)
	}
}

// TestDebugTraceEndpoint: the endpoint serves a decodable snapshot whose
// n cap works, with the configured source stamped on it.
func TestDebugTraceEndpoint(t *testing.T) {
	tr := captrace.New(1, 64)
	rt := capsule.New(capsule.Config{Contexts: 2, Tracer: tr})
	t.Cleanup(rt.Close)
	_, ts := newTestServer(t, Config{Runtime: rt, TraceSample: 1, TraceSource: "backend-7"})

	for i := 0; i < 3; i++ {
		getJSON(t, fmt.Sprintf("%s/run/quicksort?n=500&seed=%d", ts.URL, i), nil)
	}
	var snap captrace.Snapshot
	if resp := getJSON(t, ts.URL+"/debug/trace", &snap); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if snap.Source != "backend-7" {
		t.Fatalf("snapshot source = %q, want backend-7", snap.Source)
	}
	if len(snap.Events) == 0 || len(snap.Shards) != 1 {
		t.Fatalf("empty snapshot after traced requests: %d events, %d shards", len(snap.Events), len(snap.Shards))
	}
	for _, ev := range snap.Events {
		if ev.Source != "backend-7" {
			t.Fatalf("event source = %q", ev.Source)
		}
	}

	var capped captrace.Snapshot
	getJSON(t, ts.URL+"/debug/trace?n=2", &capped)
	if len(capped.Events) != 2 {
		t.Fatalf("n=2 returned %d events", len(capped.Events))
	}
	if resp := getJSON(t, ts.URL+"/debug/trace?n=bogus", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad n accepted: %d", resp.StatusCode)
	}
}

// TestShardSeriesPromtextRoundTrip: the capsule_shard_* series parse
// back through promtext and agree with the runtime's own accounting.
func TestShardSeriesPromtextRoundTrip(t *testing.T) {
	// Two pool shards: the count is min(GOMAXPROCS, Contexts) at New.
	prev := runtime.GOMAXPROCS(2)
	rt := capsule.New(capsule.Config{Contexts: 4})
	runtime.GOMAXPROCS(prev)
	t.Cleanup(rt.Close)
	s, ts := newTestServer(t, Config{Runtime: rt})

	getJSON(t, ts.URL+"/run/quicksort?n=5000", nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	samples := promtext.Parse(body)

	st := s.Runtime().Stats()
	sum := func(name string) (total float64) {
		found := false
		for i := 0; i < 2; i++ {
			v, ok := samples[fmt.Sprintf("%s{shard=\"%d\"}", name, i)]
			if ok {
				found = true
			}
			total += v
		}
		if !found {
			t.Fatalf("no %s series in exposition", name)
		}
		return total
	}
	if got := sum("capsule_shard_local_hits_total"); uint64(got) != st.ShardLocalHits {
		t.Errorf("local hits: exposition %v, stats %d", got, st.ShardLocalHits)
	}
	if got := sum("capsule_shard_steals_total"); uint64(got) != st.ShardSteals {
		t.Errorf("steals: exposition %v, stats %d", got, st.ShardSteals)
	}
	if got := sum("capsule_shard_full_sweeps_total"); uint64(got) != st.ShardFullSweeps {
		t.Errorf("full sweeps: exposition %v, stats %d", got, st.ShardFullSweeps)
	}
	if got := sum("capsule_shard_free"); int(got) != rt.FreeContexts() {
		t.Errorf("shard free sum %v != FreeContexts %d", got, rt.FreeContexts())
	}
	if st.ShardLocalHits+st.ShardSteals != st.Granted {
		t.Errorf("identity broken: local %d + steals %d != granted %d",
			st.ShardLocalHits, st.ShardSteals, st.Granted)
	}
	// LabelValue agrees on the label set promtext produced.
	for key := range samples {
		if v, ok := promtext.LabelValue(key, "capsule_shard_steals_total", "shard"); ok && v != "0" && v != "1" {
			t.Errorf("unexpected shard label %q in %q", v, key)
		}
	}
}

// TestShedTraced: a shed carries the client's trace ID on its 503 and
// records a KReqShed event.
func TestShedTraced(t *testing.T) {
	tr := captrace.New(1, 64)
	rt := capsule.New(capsule.Config{Contexts: 2, Tracer: tr})
	t.Cleanup(rt.Close)
	s, err := New(Config{Runtime: rt, QueueDepth: 1, TraceSample: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	s.queue <- struct{}{} // fill the queue by hand: the next request sheds

	const id = "0000000000005bed"
	req := httptest.NewRequest("GET", "/run/quicksort?n=100", nil)
	req.Header.Set(captrace.HeaderTraceID, id)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	if got := rec.Header().Get(captrace.HeaderTraceID); got != id {
		t.Fatalf("shed response ID = %q, want %q", got, id)
	}
	tid, _ := captrace.ParseID(id)
	found := false
	for _, ev := range tr.Snapshot("test", 0).Events {
		if ev.TID == tid && ev.Kind == captrace.KReqShed {
			found = true
		}
	}
	if !found {
		t.Fatal("shed not recorded against the client's trace ID")
	}
}

// TestTraceSnapshotBodyIsJSON pins the endpoint's content type and the
// decodability of its raw body (what cmd/captrace ingests).
func TestTraceSnapshotBodyIsJSON(t *testing.T) {
	_, ts, _ := newTracedServer(t, 1)
	getJSON(t, ts.URL+"/run/lzw?n=800", nil)
	resp, err := http.Get(ts.URL + "/debug/trace?n=50")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	var snap captrace.Snapshot
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&snap); err != nil {
		t.Fatalf("snapshot body undecodable: %v\n%s", err, body)
	}
}
