package main

import "testing"

func TestSameSeedGivesEachClientTheSameSequence(t *testing.T) {
	for _, w := range workloadTable {
		a, b, other := newStreams(w, 7), newStreams(w, 7), newStreams(w, 8)
		for c := range a {
			differs := false
			for i := 0; i < 1000; i++ {
				ra, rb, ro := a[c].next(), b[c].next(), other[c].next()
				if ra != rb {
					t.Fatalf("%s client %d request %d: %+v vs %+v from the same seed", w.name, c, i, ra, rb)
				}
				differs = differs || ra != ro
			}
			if !differs {
				t.Errorf("%s client %d: seeds 7 and 8 gave the same sequence", w.name, c)
			}
		}
	}
}

func TestHotSetsHave64SeedsPerWorkload(t *testing.T) {
	for _, w := range workloadTable {
		if !w.hot {
			continue
		}
		sets := hotSets(w, 3)
		if len(sets) != len(w.mix) {
			t.Fatalf("%s: %d hot sets for %d workloads", w.name, len(sets), len(w.mix))
		}
		member := map[request]bool{}
		for k, set := range sets {
			if len(set) != hotSetSize {
				t.Fatalf("%s/%s: hot set has %d seeds, want %d", w.name, w.mix[k], len(set), hotSetSize)
			}
			for _, seed := range set {
				r := request{wl: k, seed: seed}
				if member[r] {
					t.Fatalf("%s/%s: seed %d appears twice in the hot set", w.name, w.mix[k], seed)
				}
				member[r] = true
			}
		}
		// The clients draw only hot-set members, and every member recurs.
		drawn := map[request]int{}
		for _, s := range newStreams(w, 3) {
			for i := 0; i < 20000; i++ {
				r := s.next()
				if !member[r] {
					t.Fatalf("%s: drew %+v outside the hot sets", w.name, r)
				}
				drawn[r]++
			}
		}
		if len(drawn) != len(member) {
			t.Errorf("%s: drew %d distinct inputs, want all %d", w.name, len(drawn), len(member))
		}
		for r, n := range drawn {
			if n < 2 {
				t.Errorf("%s: input %+v drawn once, want it to recur", w.name, r)
			}
		}
	}
}

func TestColdSequenceNeverRepeats(t *testing.T) {
	solo, err := lookupWorkload("large_solo")
	if err != nil {
		t.Fatal(err)
	}
	pair := *solo
	pair.clients = 2
	for _, w := range []*workload{solo, &pair} {
		seen := map[int64]bool{}
		streams := newStreams(w, 5)
		for i := 0; i < 50000; i++ {
			for c, s := range streams {
				r := s.next()
				if seen[r.seed] {
					t.Fatalf("%d clients: client %d request %d repeats seed %d", w.clients, c, i, r.seed)
				}
				seen[r.seed] = true
			}
		}
	}
}
