package fleet

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

type report struct {
	Source  string            `json:"source"`
	N       int               `json:"n"`
	Burns   []float64         `json:"burns"`
	Labels  map[string]string `json:"labels"`
	Healthy bool              `json:"healthy"`
}

// TestWriteShapes: one source is served as a bare object, several as an
// array in source order, and Decode reads both back to the values.
func TestWriteShapes(t *testing.T) {
	read := func(s string) report { return report{Source: s, N: len(s)} }
	for _, srcs := range [][]string{{"caprouter"}, {"caprouter", "127.0.0.1:1", "127.0.0.1:2"}} {
		w := httptest.NewRecorder()
		Write(w, srcs, read)
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("content type %q", ct)
		}
		wantOpen := byte('[')
		if len(srcs) == 1 {
			wantOpen = '{'
		}
		if got := w.Body.Bytes()[0]; got != wantOpen {
			t.Fatalf("%d sources served %q, want %q", len(srcs), got, wantOpen)
		}
		got, err := Decode[report](w.Body)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if len(got) != len(srcs) {
			t.Fatalf("decoded %d values from %d sources", len(got), len(srcs))
		}
		for i, s := range srcs {
			if !reflect.DeepEqual(got[i], report{Source: s, N: len(s)}) {
				t.Fatalf("value %d = %+v, want source %s first-to-last", i, got[i], s)
			}
		}
	}
	for _, bad := range []string{"", "not json", `{"n":"x"}`, `[{"n":1},`} {
		if _, err := Decode[report](strings.NewReader(bad)); err == nil {
			t.Fatalf("Decode(%q) succeeded", bad)
		}
	}
}

// FuzzDecode: no input panics the shared decoder, and a lone object
// {X} and the one-element array [{X}] decode to the same slice. The
// seed corpus is testdata/fuzz.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, err := Decode[report](bytes.NewReader(raw))
		trimmed := bytes.TrimSpace(raw)
		if err != nil || !json.Valid(trimmed) || trimmed[0] != '{' {
			return
		}
		if len(got) != 1 {
			t.Fatalf("object decoded to %d values", len(got))
		}
		arr, err := Decode[report](bytes.NewReader(append(append([]byte("["), trimmed...), ']')))
		if err != nil {
			t.Fatalf("[X] failed where X decoded: %v", err)
		}
		if !reflect.DeepEqual(arr, got) {
			t.Fatalf("[X] = %+v, X = %+v", arr, got)
		}
	})
}
