package capscope

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"

	"repro/internal/ops/fleet"
)

// /debug/incident follows the fleet package's object-or-array rule: a
// lone capserve serves a single List object; a router that also owns
// its spawned backends' recorders serves a JSON array, its own list
// first, so one URL yields the whole fleet's incidents. ?id= fetches
// one bundle in full (searched across every recorder); DELETE clears
// (?id= for one bundle, bare for everything).

// List is one recorder's incident index — the GET /debug/incident
// response shape.
type List struct {
	Source         string     `json:"source"`
	Dir            string     `json:"dir"`
	IncidentsTotal uint64     `json:"incidents_total"` // captured this process lifetime
	Bundles        []Manifest `json:"bundles"`         // resident on disk, oldest first
}

// listOf builds the recorder's current index.
func (r *Recorder) listOf() List {
	ms := LoadManifests(r.dir)
	if ms == nil {
		ms = []Manifest{}
	}
	return List{Source: r.source, Dir: r.dir, IncidentsTotal: r.incidents.Load(), Bundles: ms}
}

// Handler serves GET/DELETE /debug/incident over the given recorders
// (a router passes itself first, then its spawned backends').
func Handler(recs ...*Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := req.URL.Query().Get("id")
		switch req.Method {
		case http.MethodGet:
			if id != "" {
				// An invalid ID must 404 before any disk access: it names
				// no bundle, and joined onto a recorder dir it could
				// name a file outside it.
				if validBundleID(id) {
					for _, r := range recs {
						dir := filepath.Join(r.dir, id)
						if m, err := LoadManifest(dir); err != nil || m.ID != id {
							continue
						}
						if b, err := LoadBundle(dir); err == nil {
							w.Header().Set("Content-Type", "application/json")
							json.NewEncoder(w).Encode(b)
							return
						}
					}
				}
				http.Error(w, fmt.Sprintf("no bundle %q", id), http.StatusNotFound)
				return
			}
			fleet.Write(w, recs, (*Recorder).listOf)
		case http.MethodDelete:
			n := 0
			for _, r := range recs {
				if id != "" {
					n += r.Clear(id)
				} else {
					n += r.ClearAll()
				}
			}
			if id != "" && n == 0 {
				http.Error(w, fmt.Sprintf("no bundle %q", id), http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, "{\"cleared\":%d}\n", n)
		default:
			w.Header().Set("Allow", "GET, DELETE")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
}
