package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/capsule"
	"repro/internal/workloads"
)

// fakeServer answers /run/{workload} like capserve, with the reference
// result, except that every third request gets fault instead: a wrong
// checksum, a 503 shed, or a body cut short by a closed connection.
func fakeServer(t *testing.T, fault string) *httptest.Server {
	rt := capsule.New(capsule.Config{Contexts: 1})
	t.Cleanup(rt.Close)
	var count atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		n, _ := strconv.Atoi(q.Get("n"))
		seed, _ := strconv.ParseInt(q.Get("seed"), 10, 64)
		res, err := workloads.RunRequest(rt.Sequential(), strings.TrimPrefix(r.URL.Path, "/run/"), n, seed)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if count.Add(1)%3 == 0 {
			switch fault {
			case "checksum":
				res.Checksum++
			case "shed":
				http.Error(w, "accept queue full, request shed", http.StatusServiceUnavailable)
				return
			case "transport":
				conn, buf, err := w.(http.Hijacker).Hijack()
				if err != nil {
					t.Error(err)
					return
				}
				buf.WriteString("HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"checksum\":")
				buf.Flush()
				conn.Close()
				return
			}
		}
		json.NewEncoder(w).Encode(res)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestFailuresRaiseErrorRate(t *testing.T) {
	w, err := lookupWorkload("small_direct")
	if err != nil {
		t.Fatal(err)
	}
	for _, fault := range []string{"", "checksum", "shed", "transport"} {
		srv := fakeServer(t, fault)
		streams := newStreams(w, 1)
		v := newVerifier(w)
		defer v.close()
		if err := v.prepare(streams); err != nil {
			t.Fatal(err)
		}
		tl, _ := drive(srv.Client(), srv.URL, streams, 30, 0, false, v)
		if err := v.resolve(tl); err != nil {
			t.Fatal(err)
		}
		rate := ratio(float64(tl.failed), float64(tl.attempted))
		switch {
		case tl.attempted != 60:
			t.Errorf("fault %q: attempted %d, want 60", fault, tl.attempted)
		case fault == "" && rate != 0:
			t.Errorf("healthy server: error rate %v, want 0", rate)
		case fault != "" && rate == 0:
			t.Errorf("fault %q: error rate 0, want > 0", fault)
		case fault == "checksum" && tl.mismatches != tl.failed:
			t.Errorf("wrong checksums: %d mismatches of %d failures", tl.mismatches, tl.failed)
		}
	}
}
