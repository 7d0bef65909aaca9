package main

import (
	"bytes"
	"testing"
)

func dumpOf(t *testing.T, name string, seed int64) []byte {
	t.Helper()
	w, err := buildWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := w.dump(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestScheduleDeterministic: the same seed gives byte-identical
// schedules, a different seed a different one.
func TestScheduleDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		a, b := dumpOf(t, name, 1), dumpOf(t, name, 1)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two dumps at seed 1 differ", name)
		}
		if bytes.Equal(a, dumpOf(t, name, 2)) {
			t.Errorf("%s: seeds 1 and 2 give the same schedule", name)
		}
	}
}

// TestColdNeverRepeats: every cold_mixed request is a distinct content
// address, so none can be answered from a tier.
func TestColdNeverRepeats(t *testing.T) {
	for _, seed := range []int64{1, 2, 42} {
		w, err := buildWorkload(coldMixed, seed)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]int{}
		for k := range w.sched {
			si, ok := w.entry(k)
			if !ok {
				t.Fatalf("seed %d: slot %d missing", seed, k)
			}
			if prev, dup := seen[w.ids[si]]; dup {
				t.Fatalf("seed %d: slots %d and %d share content address %s", seed, prev, k, w.ids[si])
			}
			seen[w.ids[si]] = k
		}
		if _, ok := w.entry(len(w.sched)); ok {
			t.Errorf("seed %d: cold_mixed schedule wraps around", seed)
		}
	}
}

// TestHitWorkingSets: the hit workloads only ever ask for their working
// set, and cas_hits' working set is the size the RAM tier is sized
// against.
func TestHitWorkingSets(t *testing.T) {
	for _, name := range []string{warmHits, casHits} {
		w, err := buildWorkload(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !w.preload || !w.cycle {
			t.Fatalf("%s: want a preloaded, cycling workload", name)
		}
		ids := map[string]bool{}
		for _, id := range w.ids {
			if ids[id] {
				t.Fatalf("%s: working set repeats %s", name, id)
			}
			ids[id] = true
		}
		for k, si := range w.sched {
			if si < 0 || si >= len(w.specs) {
				t.Fatalf("%s: slot %d points outside the working set", name, k)
			}
		}
	}
	w, _ := buildWorkload(casHits, 7)
	if len(w.specs) != casWorkingSet || w.cache*16 != casWorkingSet {
		t.Errorf("cas_hits: %d specs over a %d-entry RAM tier", len(w.specs), w.cache)
	}
}
