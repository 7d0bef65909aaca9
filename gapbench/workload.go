package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"repro/internal/jobs"
	"repro/internal/loadgen"
)

// Workload names.
const (
	warmHits  = "warm_hits"
	casHits   = "cas_hits"
	coldMixed = "cold_mixed"
)

var workloadNames = []string{warmHits, casHits, coldMixed}

// Schedule sizes. A hit workload cycles its schedule when a run outlasts
// it; cold_mixed never repeats, so its schedule bounds a run instead
// (4096 requests is ~3x what a 30 s measured phase consumes today).
const (
	hitScheduleLen  = 1 << 15
	coldScheduleLen = 4096

	// casWorkingSet distinct cheap evaluates, served through a RAM cache
	// of casCacheEntries: the working set is 16x the RAM tier.
	casWorkingSet   = 256
	casCacheEntries = 16
	// casZipfS is the skew of cas_hits picks over a seeded ranking of
	// the working set (P(rank k) ~ 1/(k+1)^s).
	casZipfS = 0.9
)

// measuredClients is the number of closed-loop client connections in
// every workload's measured phase. With one client the spare CPU absorbs
// a neighbour's load instead of queueing requests behind it: on a 2-CPU
// VM with one CPU kept busy by another process, p99 rose 3.7x (warm_hits)
// and 4.4x (cas_hits) with two clients, 1.4x and not at all with one.
const measuredClients = 1

// workload is one seeded traffic mix: the distinct canonical specs it
// touches, the request schedule over them, and how gapd is configured
// and prepared before the measured phase. Everything here is a pure
// function of (name, seed).
type workload struct {
	name string
	seed int64
	// cache is gapd's -cache value (0 keeps gapd's default).
	cache int
	// preload computes every spec during set-up (the working set);
	// restart then reboots gapd over the populated store and journal.
	preload bool
	restart bool
	// specs are the distinct canonical specs; ids their content
	// addresses; sched indexes specs in request order.
	specs []jobs.Spec
	ids   []string
	sched []int
	// cycle lets a run wrap around the schedule.
	cycle bool
	// setups is how many times a run sets the workload up; setup_s is
	// the mean of the middle half, and the last set-up serves the
	// measured phase.
	setups int
}

// subSeed derives an independent stream seed from the workload seed
// (splitmix64 finalizer), so adding a stream never shifts another.
func subSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

func buildWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case warmHits:
		return buildWarm(seed)
	case casHits:
		return buildCAS(seed)
	case coldMixed:
		return buildCold(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// mixedCorpus is every member of loadgen's mixed corpus at the seed:
// the family enumeration is fixed, the seed draws only eval seeds, so
// the composition (and the set-up cost) does not depend on the seed.
func mixedCorpus(seed int64) (*loadgen.Corpus, error) {
	return loadgen.BuildCorpus(loadgen.CorpusSpec{Family: "mixed", Size: 1 << 10, Seed: seed})
}

// buildWarm: the whole mixed corpus (evaluates, sweeps, ladders) as the
// working set, computed during set-up, then picked by corpus weight.
// The working set is far below gapd's
// default 512-entry RAM cache, so every measured request is a RAM hit.
func buildWarm(seed int64) (*workload, error) {
	c, err := mixedCorpus(seed)
	if err != nil {
		return nil, err
	}
	w := &workload{name: warmHits, seed: seed, preload: true, cycle: true, setups: 7}
	cum := make([]float64, len(c.Items))
	sum := 0.0
	for i, it := range c.Items {
		w.add(it.Spec)
		sum += it.Weight
		cum[i] = sum
	}
	w.sched = pickCum(cum, hitScheduleLen, rand.New(rand.NewSource(subSeed(seed, 1))))
	return w, nil
}

// casDesigns are the cheapest evaluate designs (~3-5 ms each).
var casDesigns = []jobs.DesignSpec{
	{Name: "rca", Width: 8}, {Name: "mult", Width: 4}, {Name: "shifter", Width: 16},
	{Name: "alu", Width: 8}, {Name: "cla", Width: 8}, {Name: "wallace", Width: 4},
	{Name: "ks", Width: 8}, {Name: "csel", Width: 8},
}

// buildCAS: casWorkingSet cheap evaluates with distinct eval seeds,
// picked Zipf-skewed over a seeded ranking. gapd runs with a RAM cache
// of casCacheEntries, so the CAS read path answers most requests and
// TinyLFU admission decides which stay in RAM.
func buildCAS(seed int64) (*workload, error) {
	w := &workload{name: casHits, seed: seed, cache: casCacheEntries,
		preload: true, restart: true, cycle: true, setups: 9}
	r := rand.New(rand.NewSource(subSeed(seed, 2)))
	for i := 0; len(w.specs) < casWorkingSet; i++ {
		spec, err := jobs.Spec{
			Kind:        jobs.KindEvaluate,
			Design:      casDesigns[i%len(casDesigns)],
			Methodology: jobs.MethSpec{Base: "typical-asic"},
			Seed:        1 + r.Int63n(1<<30),
		}.Canon()
		if err != nil {
			return nil, err
		}
		w.addUnique(spec)
	}
	// The ranking deals the designs round robin (rank k is design k mod
	// 8), each design's specs in a seeded order, so every seed puts the
	// same design mix, and so the same response sizes, at the hot end.
	byDesign := map[string][]int{}
	for i, s := range w.specs {
		byDesign[s.Design.Name] = append(byDesign[s.Design.Name], i)
	}
	for _, d := range casDesigns {
		ix := byDesign[d.Name]
		r.Shuffle(len(ix), func(i, j int) { ix[i], ix[j] = ix[j], ix[i] })
	}
	var rank []int
	for k := 0; len(rank) < len(w.specs); k++ {
		if ix := byDesign[casDesigns[k%len(casDesigns)].Name]; k/len(casDesigns) < len(ix) {
			rank = append(rank, ix[k/len(casDesigns)])
		}
	}
	cum := make([]float64, len(rank))
	sum := 0.0
	for k := range rank {
		sum += math.Pow(float64(k+1), -casZipfS)
		cum[k] = sum
	}
	for _, k := range pickCum(cum, hitScheduleLen, rand.New(rand.NewSource(subSeed(seed, 3)))) {
		w.sched = append(w.sched, rank[k])
	}
	return w, nil
}

// coldBlock is the per-20-request family quota of cold_mixed: the mixed
// corpus weights (adders .30, muxpaths .15, datapaths .20, sweeps .20,
// ladders .05, faultmix .10), laid out exactly so every prefix of the
// schedule has the corpus proportions and run-to-run cost stays level.
var coldBlock = []struct {
	family string
	n      int
}{
	{"adders", 6}, {"muxpaths", 3}, {"datapaths", 4}, {"sweeps", 4}, {"ladders", 1}, {"faultmix", 2},
}

// buildCold: the mixed-corpus families at their weights (less the
// members coldTooSlow drops), every request
// with a freshly drawn eval seed, so each is a distinct content address
// that misses every tier and runs the whole flow (and its journal and
// CAS writes). One client: sweeps and ladders already fan out over
// gapd's workers.
func buildCold(seed int64) (*workload, error) {
	c, err := mixedCorpus(seed)
	if err != nil {
		return nil, err
	}
	members := map[string][]jobs.Spec{}
	for _, it := range c.Items {
		if !coldTooSlow(it.Spec) {
			members[it.Family] = append(members[it.Family], it.Spec)
		}
	}
	r := rand.New(rand.NewSource(subSeed(seed, 4)))
	// Each family is visited in its own seeded order, cycling, so every
	// member recurs at the same rate.
	order := map[string][]int{}
	next := map[string]int{}
	var slots []string
	for _, b := range coldBlock {
		if len(members[b.family]) == 0 {
			return nil, fmt.Errorf("mixed corpus has no %s family", b.family)
		}
		order[b.family] = r.Perm(len(members[b.family]))
		for i := 0; i < b.n; i++ {
			slots = append(slots, b.family)
		}
	}
	w := &workload{name: coldMixed, seed: seed, setups: 41}
	seen := map[string]bool{}
	for len(w.specs) < coldScheduleLen {
		r.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
		for _, fam := range slots {
			k := next[fam]
			next[fam]++
			if k%len(order[fam]) == 0 && k > 0 {
				order[fam] = r.Perm(len(order[fam]))
			}
			spec := members[fam][order[fam][k%len(order[fam])]]
			for {
				spec.Seed = 1 + r.Int63n(1<<40)
				if !seen[spec.Hash()] {
					break
				}
			}
			seen[spec.Hash()] = true
			w.sched = append(w.sched, len(w.specs))
			w.add(spec)
		}
	}
	w.sched = w.sched[:coldScheduleLen]
	w.specs, w.ids = w.specs[:coldScheduleLen], w.ids[:coldScheduleLen]
	return w, nil
}

// coldTooSlow marks the mixed-corpus members cold_mixed leaves out: the
// depth-8 datapath evaluates and the datapath ladder cost 0.3-1 s each,
// 10-200x a typical request, so how many of them a closed-loop run of a
// few hundred requests happened to draw set its throughput and tail.
// Every other member, sweeps and ladders included, stays.
func coldTooSlow(s jobs.Spec) bool {
	if s.Design.Name != "datapath" {
		return false
	}
	return s.Kind == jobs.KindLadder || (s.Kind == jobs.KindEvaluate && s.Design.Depth >= 8)
}

func (w *workload) add(spec jobs.Spec) {
	w.specs = append(w.specs, spec)
	w.ids = append(w.ids, spec.Hash())
}

// addUnique adds spec unless its content address is already present.
func (w *workload) addUnique(spec jobs.Spec) {
	id := spec.Hash()
	for _, have := range w.ids {
		if have == id {
			return
		}
	}
	w.add(spec)
}

// pickCum draws n indices from the cumulative weight table cum.
func pickCum(cum []float64, n int, r *rand.Rand) []int {
	out := make([]int, n)
	total := cum[len(cum)-1]
	for i := range out {
		k := sort.SearchFloat64s(cum, r.Float64()*total)
		if k >= len(cum) {
			k = len(cum) - 1
		}
		out[i] = k
	}
	return out
}

// path is the gapd endpoint for a spec.
func path(s jobs.Spec) string { return "/v1/" + string(s.Kind) }

// entry returns the schedule slot k (wrapping for cycling workloads);
// ok is false past the end of a non-cycling schedule.
func (w *workload) entry(k int) (int, bool) {
	if k >= len(w.sched) {
		if !w.cycle {
			return 0, false
		}
		k %= len(w.sched)
	}
	return w.sched[k], true
}

// prefixSpecs returns the distinct spec indices of the first n schedule
// slots, in first-appearance order.
func (w *workload) prefixSpecs(n int) []int {
	seen := map[int]bool{}
	var out []int
	for k := 0; k < n && k < len(w.sched); k++ {
		if si := w.sched[k]; !seen[si] {
			seen[si] = true
			out = append(out, si)
		}
	}
	return out
}

// dump writes the workload's canonical form: a header line, one line per
// distinct spec, and one line per schedule slot. Two calls with the same
// (name, seed) produce identical bytes.
func (w *workload) dump(out io.Writer) error {
	bw := bufio.NewWriter(out)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]any{
		"workload": w.name, "seed": w.seed, "clients": measuredClients, "cache": w.cache,
		"preload": w.preload, "restart": w.restart, "cycle": w.cycle, "setups": w.setups,
		"specs": len(w.specs), "slots": len(w.sched),
	}); err != nil {
		return err
	}
	for i, s := range w.specs {
		if err := enc.Encode(map[string]any{"spec": i, "id": w.ids[i], "body": s}); err != nil {
			return err
		}
	}
	for k, si := range w.sched {
		if _, err := fmt.Fprintf(bw, "slot %d spec %d %s\n", k, si, w.ids[si][:16]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
