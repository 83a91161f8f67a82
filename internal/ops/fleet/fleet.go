// Package fleet is the wire rule every fan-in /debug endpoint shares:
// a process serving only itself answers with one JSON object, and a
// router that also owns in-process backends answers with an array of
// them, its own first. Readers decode either shape into a slice, so
// they never need to know which topology produced the body.
//
// It is a leaf package so that captrace, capwatch and capscope can
// serve and read their bodies through it without an import cycle.
package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// Write serves one value per source as a single JSON body: a bare
// object for one source, an array in source order for several.
func Write[S, T any](w http.ResponseWriter, srcs []S, read func(S) T) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	// An encode error means the client went away mid-body; there is
	// no one left to report it to.
	if len(srcs) == 1 {
		_ = enc.Encode(read(srcs[0]))
		return
	}
	vs := make([]T, len(srcs))
	for i, s := range srcs {
		vs[i] = read(s)
	}
	_ = enc.Encode(vs)
}

// Decode reads one body Write produced: a bare object decodes to a
// one-element slice, an array to one element per source. Bytes after
// the first JSON value are ignored.
func Decode[T any](r io.Reader) ([]T, error) {
	var raw json.RawMessage
	if err := json.NewDecoder(r).Decode(&raw); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	if raw[0] == '[' {
		var vs []T
		if err := json.Unmarshal(raw, &vs); err != nil {
			return nil, fmt.Errorf("fleet: decoding array: %w", err)
		}
		return vs, nil
	}
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, fmt.Errorf("fleet: decoding object: %w", err)
	}
	return []T{v}, nil
}
