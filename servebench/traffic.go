package main

import (
	"fmt"
	"math/rand"
)

// hotSetSize is the number of seeds each workload of a hot mix cycles
// through, so every (workload, n, seed) recurs many times in a run.
const hotSetSize = 64

// workload is one traffic mix the benchmark can drive. The servers see
// only (workload, n, seed) in each URL; every seed is derived from the
// benchmark's --seed argument.
type workload struct {
	name    string
	why     string
	routed  bool     // through a capcluster.Router over two backends
	clients int      // closed-loop clients, one goroutine each
	mix     []string // native workloads, requested round-robin
	n       int
	hot     bool // true: 64 recurring seeds per workload; false: every seed fresh
	warm    int  // warm-up requests per client before timing starts
}

var workloadTable = []*workload{
	{
		name:    "small_direct",
		why:     "per-request overhead dominates and no router is present, so a router change must show no change here",
		clients: 2,
		mix:     []string{"quicksort", "lzw", "dijkstra", "perceptron"},
		n:       64,
		hot:     true,
		warm:    300,
	},
	{
		name:    "small_routed",
		why:     "small_direct's traffic through a capcluster router over two backends, so the gap between them is the router hop",
		routed:  true,
		clients: 2,
		mix:     []string{"quicksort", "lzw", "dijkstra", "perceptron"},
		n:       64,
		hot:     true,
		warm:    300,
	},
	{
		name:    "large_solo",
		why:     "one client on idle cores with fresh inputs, so compute and probe/divide dominate: the paper's own speedup question",
		clients: 1,
		mix:     []string{"quicksort", "lzw", "perceptron"},
		n:       20000,
		warm:    12,
	},
}

func lookupWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloadTable {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// request is one generated request: mix[wl] at the workload's n.
type request struct {
	wl   int
	seed int64
}

// stream is one client's request sequence. It is a pure function of
// (benchmark seed, workload, client index), and it continues across
// set-up rounds and phases, so a cold stream never repeats a seed
// within a process.
type stream struct {
	w      *workload
	client uint64
	i      uint64
	rng    *rand.Rand // picks hot-set members
	hot    [][]int64  // per mix entry, hotSetSize seeds (hot mixes only)
	cold   uint64     // key of the cold sequence (cold mixes only)
}

// Domain-separation tags, so the hot sets, the cold sequence and the
// per-client pickers drawn from one benchmark seed are independent.
const (
	tagHot    = 0x686f74 // "hot"
	tagCold   = 0x636f6c64
	tagClient = 0x636c69656e74
)

// mix64 is the splitmix64 finaliser. It is a bijection on uint64, so
// distinct counters always give distinct seeds.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hotSets derives each mix entry's hotSetSize seeds from the benchmark
// seed. Entries use disjoint counter ranges, so no seed is shared.
func hotSets(w *workload, seed int64) [][]int64 {
	key := mix64(uint64(seed) ^ tagHot)
	sets := make([][]int64, len(w.mix))
	for k := range sets {
		sets[k] = make([]int64, hotSetSize)
		for j := range sets[k] {
			sets[k][j] = int64(mix64(key + uint64(k)<<32 + uint64(j)))
		}
	}
	return sets
}

// newStreams builds one stream per client of w.
func newStreams(w *workload, seed int64) []*stream {
	var hot [][]int64
	if w.hot {
		hot = hotSets(w, seed)
	}
	out := make([]*stream, w.clients)
	for c := range out {
		out[c] = &stream{
			w:      w,
			client: uint64(c),
			rng:    rand.New(rand.NewSource(int64(mix64(uint64(seed) ^ tagClient + uint64(c))))),
			hot:    hot,
			cold:   mix64(uint64(seed) ^ tagCold),
		}
	}
	return out
}

// next returns the client's next request: the mix round-robin (offset
// by client, so two clients are not in step), with a hot-set member or
// the next seed of the cold sequence. Cold counters interleave the
// clients (i*clients + client), so no two requests of a run share one.
func (s *stream) next() request {
	k := int((s.i + s.client) % uint64(len(s.w.mix)))
	var seed int64
	if s.w.hot {
		seed = s.hot[k][s.rng.Intn(hotSetSize)]
	} else {
		seed = int64(mix64(s.cold + s.i*uint64(s.w.clients) + s.client))
	}
	s.i++
	return request{wl: k, seed: seed}
}
