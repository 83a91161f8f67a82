package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/capcluster"
	"repro/internal/capserve"
)

// The traced stack records spans from outside the program, around the
// calls into each layer's public entry points. All spans of one
// request share the span ID the client stamps in headerSpan:
//
//	router  the capcluster.Router handler; it moves the ID into the
//	        request context
//	wire    a capcluster dispatch, from RoundTrip to the end of the
//	        response body; the Transport wrapper forwards the ID as a
//	        header (summed over retries)
//	handler the capserve.Server handler, which reads the header
//	        (summed over retries)
//
// The client span and the response's elapsed_ns (the compute span)
// are kept by the client.
const headerSpan = "X-Servebench-Span"

type spanKey struct{}

// tracer keeps one traced phase's spans in memory until the phase ends.
// A nil *tracer builds the untraced stack: its wrap methods return nil,
// which the constructors read as "no wrapper".
type tracer struct {
	mu      sync.Mutex
	route   map[uint64]int64 // ns
	wire    map[uint64]int64
	handler map[uint64]int64

	occupancySum atomic.Int64 // capserve queue occupancy seen by each arriving request
	arrivals     atomic.Int64
	conns        atomic.Int64 // dispatch connections obtained
	reused       atomic.Int64 // of which reused from the idle pool
}

func newTracer() *tracer {
	return &tracer{route: map[uint64]int64{}, wire: map[uint64]int64{}, handler: map[uint64]int64{}}
}

func (t *tracer) add(m map[uint64]int64, id uint64, d time.Duration) {
	t.mu.Lock()
	m[id] += d.Nanoseconds()
	t.mu.Unlock()
}

func spanID(h http.Header) (uint64, bool) {
	v := h.Get(headerSpan)
	if v == "" {
		return 0, false
	}
	id, err := strconv.ParseUint(v, 10, 64)
	return id, err == nil
}

// routerWrap wraps the router's handler; nil t returns the router as is.
func (t *tracer) routerWrap(r *capcluster.Router) http.Handler {
	if t == nil {
		return r
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id, ok := spanID(req.Header)
		if !ok {
			r.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		r.ServeHTTP(w, req.WithContext(context.WithValue(req.Context(), spanKey{}, id)))
		t.add(t.route, id, time.Since(start))
	})
}

// transportWrap is the router's dispatch transport: nil (the router's
// default) untraced, capcluster.DefaultTransport wrapped when traced.
func (t *tracer) transportWrap() http.RoundTripper {
	if t == nil {
		return nil
	}
	return &spanTransport{next: capcluster.DefaultTransport(0), t: t}
}

type spanTransport struct {
	next http.RoundTripper
	t    *tracer
}

func (s *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id, ok := req.Context().Value(spanKey{}).(uint64)
	if !ok { // credit scrapes and feeds carry no span
		return s.next.RoundTrip(req)
	}
	start := time.Now()
	ctx := httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			s.t.conns.Add(1)
			if info.Reused {
				s.t.reused.Add(1)
			}
		},
	})
	out := req.Clone(ctx) // a RoundTripper must not modify its request
	out.Header.Set(headerSpan, strconv.FormatUint(id, 10))
	resp, err := s.next.RoundTrip(out)
	if err != nil {
		s.t.add(s.t.wire, id, time.Since(start))
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { s.t.add(s.t.wire, id, time.Since(start)) }}
	return resp, nil
}

// spanBody ends the wire span when the body is read to EOF or closed,
// whichever comes first.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.end)
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(b.end)
	return b.ReadCloser.Close()
}

// backendWrap is the capserve.StartBackendOn handler wrap; nil t
// returns nil (no wrap).
func (t *tracer) backendWrap() func(string, http.Handler) http.Handler {
	if t == nil {
		return nil
	}
	return func(_ string, h http.Handler) http.Handler {
		srv, _ := h.(*capserve.Server)
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			id, ok := spanID(req.Header)
			if !ok {
				h.ServeHTTP(w, req)
				return
			}
			if srv != nil {
				t.occupancySum.Add(int64(srv.QueueOccupancy()))
				t.arrivals.Add(1)
			}
			start := time.Now()
			h.ServeHTTP(w, req)
			t.add(t.handler, id, time.Since(start))
		})
	}
}
