package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cas"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/serve"
)

// The traced run replays a workload's schedule in process, once per
// layer entry point, each pass on a fresh stack (cas.Open ->
// jobs.NewPool -> serve.NewHandler) brought to the workload's
// precondition:
//
//	pass 1  HTTP over loopback, the handler wrapped in a timing middleware
//	pass 2  serve.Handler.ServeHTTP into a recorder
//	pass 3  jobs.Pool.Do
//	pass 4  jobs.Run under core.WithStageObserver (the serial reference)
//	pass 5  cas.Store.Put/GetE and Journal appends on the result bodies
//
// A request's time in one layer is its span in that layer's pass minus
// its span in the next pass down; the handler's own time is taken on a
// RAM-warm stack instead, ServeHTTP and Pool.Do back to back on each
// request (see probes). Passes run one request at a time and the traced
// stack evaluates flows serially (Parallelism 1), so the spans of one
// request line up pass by pass. gapd itself is not instrumented.

// stageNames are the flow stages core reports, in flow order.
var stageNames = []string{"synthesize", "presize", "floorplan", "pipeline", "postsize", "domino", "timing", "rate"}

const (
	// traceHitRequests is the replayed prefix of a hit workload's
	// schedule; traceColdRequests that of cold_mixed (each one runs the
	// whole flow in passes 1-4).
	traceHitRequests  = 2000
	traceColdRequests = 40
	// probeRequests is the length of the tier probes (RAM hit, CAS hit,
	// allocation counts), cycling over the replayed prefix.
	probeRequests = 2000
	// allocRequests is the length of the allocation count, cycling over
	// the replayed prefix (run with the collector off, so kept short).
	allocRequests = 500
	// allocRounds is one uncounted round plus the counted ones.
	allocRounds = 3
	// overheadRequests is the length of the tracing-overhead replay,
	// half of it with spans on, cycling over the replayed prefix.
	overheadRequests = 6000
	// shedRequests is the length of the concurrent replay that counts
	// shed requests.
	shedRequests = 4000
	// reopenReps times cas.Open and ReplayJournal on populated
	// directories; the median is reported.
	reopenReps = 5
	// reqHeader carries the replay index to the pass-1 middleware.
	reqHeader = "X-Bench-Req"
)

// span is one timed call at a layer boundary.
type span struct {
	Pass   int    `json:"pass"`
	Req    int    `json:"req"` // replay index, or -1 for set-up work
	Spec   int    `json:"spec"`
	Layer  string `json:"layer"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the trace epoch
	End    int64  `json:"end_ns"`
}

type tracer struct {
	epoch time.Time
	spans []span
}

// add records a span ending now that started at t0 and returns its
// duration.
func (t *tracer) add(pass, req, spec int, layer, parent string, t0 time.Time) time.Duration {
	end := time.Now()
	t.spans = append(t.spans, span{pass, req, spec, layer, parent, int64(t0.Sub(t.epoch)), int64(end.Sub(t.epoch))})
	return end.Sub(t0)
}

// tstack is one in-process gapd stack.
type tstack struct {
	store   *cas.Store
	journal *jobs.Journal
	pool    *jobs.Pool
	handler *serve.Handler
}

// openStack builds a stack over dir the way gapd boots: store, journal,
// pool, optional journal recovery, handler.
func openStack(ctx context.Context, dir string, workers, cache int, recover bool) (*tstack, error) {
	store, err := cas.Open(cas.Options{Dir: filepath.Join(dir, "store"), ScrubSeed: 1})
	if err != nil {
		return nil, err
	}
	jdir := filepath.Join(dir, "journal")
	j, err := jobs.OpenJournal(jdir)
	if err != nil {
		store.Close()
		return nil, err
	}
	pool := jobs.NewPool(jobs.Options{Workers: workers, Parallelism: 1, CacheEntries: cache, Journal: j, Store: store})
	s := &tstack{store: store, journal: j, pool: pool}
	if recover {
		if _, err := jobs.RecoverFromJournal(ctx, pool, jdir); err != nil {
			s.close()
			return nil, err
		}
	}
	s.handler = serve.NewHandler(serve.Options{Pool: pool})
	return s, nil
}

func (s *tstack) close() {
	if s.handler != nil {
		s.handler.Quiesce()
	}
	_ = s.journal.Close()
	_ = s.store.Close()
}

// flowRec is one spec's pass-4 run.
type flowRec struct {
	res    *jobs.Result
	digest string
	wall   time.Duration
	stage  [8]time.Duration
	calls  [8]int
}

// persistRec is one spec's pass-5 costs.
type persistRec struct {
	put, get, appendJ time.Duration
}

type tier int

const (
	tierRAM tier = iota
	tierCAS
	tierMiss
)

// poolRec is pass 3's per-request record.
type poolRec struct {
	dur   time.Duration
	run   time.Duration // misses: the result's own jobs.Run time
	tier  tier
	queue time.Duration // misses: StartedAt - CreatedAt
}

// tracedRun carries one traced run's state across passes.
type tracedRun struct {
	ctx     context.Context
	cfg     config
	w       *workload
	tr      *tracer
	chk     *checker
	scratch string
	replay  []int // spec index per replayed request
	set     []int // distinct specs the flow pass runs, set-up order
	flow    map[int]*flowRec
	persist map[int]persistRec
	seeds   map[int]string // pass -> populated directory to boot from
	dirs    int
	// persistDir is pass 5's populated directory (the CAS probe reads it).
	persistDir string
}

func (t *tracedRun) freshDir() string {
	t.dirs++
	return filepath.Join(t.scratch, fmt.Sprintf("stack%d", t.dirs))
}

// traced runs the five passes and the tier probes, prints the
// reconciliation table, and reports the per-layer metrics.
func traced(ctx context.Context, cfg config, w *workload, led map[string]string, scratch string) (result, map[string]any, error) {
	t := &tracedRun{ctx: ctx, cfg: cfg, w: w, tr: &tracer{epoch: time.Now()}, chk: newChecker(),
		scratch: scratch, seeds: map[int]string{}}
	n := traceHitRequests
	if !w.cycle {
		n = traceColdRequests
	}
	for k := 0; k < n; k++ {
		si, _ := w.entry(k)
		t.replay = append(t.replay, si)
	}
	if w.preload {
		for si := range w.specs {
			t.set = append(t.set, si)
		}
	} else {
		t.set = w.prefixSpecs(n)
	}

	var err error
	if t.flow, err = t.passFlow(led); err != nil {
		return result{}, nil, err
	}
	kindMS, err := t.kindWalls()
	if err != nil {
		return result{}, nil, err
	}
	pers, err := t.passPersist()
	if err != nil {
		return result{}, nil, err
	}
	p3, setupMiss, ramRatio, err := t.passPool()
	if err != nil {
		return result{}, nil, err
	}
	respBytes, err := t.passHandler()
	if err != nil {
		return result{}, nil, err
	}
	p1, shed, overhead, err := t.passHTTP()
	if err != nil {
		return result{}, nil, err
	}
	probe, err := t.probes()
	if err != nil {
		return result{}, nil, err
	}
	refs := map[string]string{}
	for si, fr := range t.flow {
		refs[w.ids[si]] = fr.digest
	}
	t.chk.verify(refs)

	m := map[string]metric{}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

	// Reconciliation: per replayed request, self times that sum to the
	// pass-1 request time by construction. serve is the handler's own
	// cost on a hit from the probe (ServeHTTP minus Pool.Do on the same
	// request, back to back); the residue is what is left of the pass-1
	// handler span once serve and the pass-3 Pool.Do span are taken out.
	rows := []string{"http", "serve", "jobs", "cas.get", "persist"}
	for _, s := range stageNames {
		rows = append(rows, "flow."+s)
	}
	rows = append(rows, "flow.other", "residue")
	self := map[string]time.Duration{}
	var total, missOver, queue time.Duration
	var misses int
	for k, si := range t.replay {
		// A miss's flow time differs run to run by more than the layers
		// above it cost, so each pass's own jobs.Run time (the result's
		// elapsed_ms) is taken out before spans of different passes are
		// subtracted; only the non-flow parts are compared across passes.
		rtt, h1, d3 := p1[k].rtt, p1[k].handler, p3[k].dur
		run1, run3 := p1[k].run, p3[k].run
		total += rtt
		self["http"] += rtt - h1
		self["serve"] += probe.serve
		self["residue"] += (h1 - run1) - (d3 - run3) - probe.serve
		switch p3[k].tier {
		case tierRAM:
			self["jobs"] += d3
		case tierCAS:
			self["cas.get"] += t.persist[si].get
			self["jobs"] += d3 - t.persist[si].get
		case tierMiss:
			fr, pr := t.flow[si], t.persist[si]
			self["persist"] += pr.put + pr.appendJ
			self["jobs"] += d3 - run3 - pr.put - pr.appendJ
			// The pass-1 request's flow time, split by the stage shares
			// of the same spec's pass-4 run.
			var staged time.Duration
			for i, s := range stageNames {
				part := time.Duration(float64(run1) * float64(fr.stage[i]) / float64(fr.wall))
				self["flow."+s] += part
				staged += part
			}
			self["flow.other"] += run1 - staged
			missOver += d3 - run3
			queue += p3[k].queue
			misses++
		}
	}
	for _, sm := range setupMiss {
		missOver += sm.dur - sm.run
		queue += sm.queue
		misses++
	}
	rn := time.Duration(len(t.replay))
	fmt.Printf("traced run %s seed %d: %d replayed requests per pass, %d flow runs, %d set-up misses\n",
		w.name, cfg.seed, len(t.replay), len(t.set), len(setupMiss))
	fmt.Printf("  %-18s %12s %8s\n", "layer", "self us/req", "share")
	var sum time.Duration
	for _, r := range rows {
		sum += self[r]
		fmt.Printf("  %-18s %12.3f %7.2f%%\n", r, us(self[r]/rn), 100*float64(self[r])/float64(total))
	}
	fmt.Printf("  %-18s %12.3f          (pass-1 request time %.3f us/req)\n", "sum", us(sum/rn), us(total/rn))
	fmt.Printf("  %-18s %12.3f us/req  (pass-1 replay, spans on minus spans off)\n", "tracing overhead", overhead)

	m["http.self_us"] = metric{us(self["http"] / rn), "us"}
	m["serve.self_us"] = metric{us(probe.serve), "us"}
	m["serve.allocs_per_req"] = metric{float64(probe.handlerAllocs-probe.poolAllocs) / allocRequests, "count"}
	m["serve.resp_bytes"] = metric{respBytes, "bytes"}
	m["serve.shed_per_1k"] = metric{1000 * float64(shed) / shedRequests, "count"}
	m["jobs.ram_hit_us"] = metric{us(probe.ram), "us"}
	m["jobs.allocs_per_hit"] = metric{float64(probe.poolAllocs) / allocRequests, "count"}
	m["jobs.cas_hit_us"] = metric{us(probe.cas), "us"}
	m["jobs.ram_hit_ratio"] = metric{ramRatio, "ratio"}
	m["jobs.miss_overhead_ms"] = metric{ms(missOver / time.Duration(max(misses, 1))), "ms"}
	m["jobs.queue_wait_ms"] = metric{ms(queue / time.Duration(max(misses, 1))), "ms"}
	for k, v := range pers {
		m[k] = v
	}
	var stageSum [8]time.Duration
	var callSum [8]int
	for _, si := range t.set {
		for i := range stageNames {
			stageSum[i] += t.flow[si].stage[i]
			callSum[i] += t.flow[si].calls[i]
		}
	}
	for i, s := range stageNames {
		m["flow."+s+"_ms"] = metric{ms(stageSum[i]) / float64(len(t.set)), "ms"}
		m["flow."+s+"_calls"] = metric{float64(callSum[i]) / float64(len(t.set)), "count"}
	}
	for k, v := range kindMS {
		m["flow."+k+"_ms"] = metric{v, "ms"}
	}
	m["trace.request_us"] = metric{us(total / rn), "us"}
	m["trace.residue_us"] = metric{us(self["residue"] / rn), "us"}
	m["trace.overhead_us"] = metric{overhead, "us"}
	printMetrics(m)

	spansFile := filepath.Join(cfg.build, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, cfg.seed))
	if err := writeSpans(spansFile, t.tr.spans); err != nil {
		return result{}, nil, err
	}
	fmt.Printf("  %d spans written to %s\n", len(t.tr.spans), spansFile)
	failed := int(t.chk.failed.Load())
	if failed > 0 {
		fmt.Printf("  first failure: %s\n", t.chk.firstFailure())
	}
	attempted := 3*len(t.replay) + len(setupMiss)
	prov := provenance(cfg, map[string]any{"in_process": serve.Version()},
		[]string{"in-process", "workers=" + strconv.Itoa(cfg.nproc), "parallel=1", "cache=" + strconv.Itoa(w.cache)})
	return result{Correct: failed == 0, Attempted: attempted, Failed: min(failed, attempted), Metrics: m}, prov, nil
}

// passFlow (pass 4) runs every spec of the set through jobs.Run serially
// under a stage observer. Its normalized results are the reference the
// other passes are checked against, and are themselves checked against
// the ledger where it covers them.
func (t *tracedRun) passFlow(led map[string]string) (map[int]*flowRec, error) {
	out := map[int]*flowRec{}
	for _, si := range t.set {
		fr, err := t.runFlow(t.w.specs[si], si)
		if err != nil {
			return nil, err
		}
		if want, ok := led[t.w.ids[si]]; ok && want != fr.digest {
			t.chk.fail("serial run of %s disagrees with the ledger: %s, ledger %s", t.w.ids[si][:12], fr.digest, want)
		}
		out[si] = fr
	}
	return out, nil
}

func (t *tracedRun) runFlow(spec jobs.Spec, si int) (*flowRec, error) {
	fr := &flowRec{}
	var mu sync.Mutex
	obs := func(stage string, d time.Duration) {
		now := time.Now()
		mu.Lock()
		defer mu.Unlock()
		for i, s := range stageNames {
			if s == stage {
				fr.stage[i] += d
				fr.calls[i]++
			}
		}
		t.tr.spans = append(t.tr.spans, span{4, -1, si, "flow." + stage, "flow.run",
			int64(now.Add(-d).Sub(t.tr.epoch)), int64(now.Sub(t.tr.epoch))})
	}
	t0 := time.Now()
	res, err := jobs.Run(core.WithStageObserver(t.ctx, obs), spec, 1)
	if err != nil {
		return nil, fmt.Errorf("flow pass, %s: %w", spec.Hash()[:12], err)
	}
	fr.wall = t.tr.add(4, -1, si, "flow.run", "", t0)
	fr.res, fr.digest = res, resultDigest(res)
	return fr, nil
}

// kindWalls is the mean jobs.Run wall time per job kind over the set. A
// kind the workload never sends is timed on the first spec of that kind
// in the seed's cold_mixed schedule, so every workload reports it.
func (t *tracedRun) kindWalls() (map[string]float64, error) {
	sum := map[jobs.Kind]time.Duration{}
	cnt := map[jobs.Kind]int{}
	for _, si := range t.set {
		k := t.w.specs[si].Kind
		sum[k] += t.flow[si].wall
		cnt[k]++
	}
	var cold *workload
	out := map[string]float64{}
	for _, k := range []jobs.Kind{jobs.KindEvaluate, jobs.KindSweep, jobs.KindLadder} {
		if cnt[k] == 0 {
			if cold == nil {
				var err error
				if cold, err = buildCold(t.w.seed); err != nil {
					return nil, err
				}
			}
			for _, s := range cold.specs {
				if s.Kind == k {
					fr, err := t.runFlow(s, -1)
					if err != nil {
						return nil, err
					}
					sum[k], cnt[k] = fr.wall, 1
					break
				}
			}
		}
		out[string(k)] = float64(sum[k]) / float64(time.Millisecond) / float64(max(cnt[k], 1))
	}
	return out, nil
}

// passPersist (pass 5) writes every result body the pool would persist
// into a fresh store and journal, reads each back, and times reopening
// the populated directories.
func (t *tracedRun) passPersist() (map[string]metric, error) {
	dir := t.freshDir()
	t.persistDir = dir
	store, err := cas.Open(cas.Options{Dir: filepath.Join(dir, "store"), ScrubSeed: 1})
	if err != nil {
		return nil, err
	}
	jdir := filepath.Join(dir, "journal")
	j, err := jobs.OpenJournal(jdir)
	if err != nil {
		store.Close()
		return nil, err
	}
	t.persist = map[int]persistRec{}
	var put, get, app time.Duration
	for _, si := range t.set {
		id := t.w.ids[si]
		body, err := json.Marshal(t.flow[si].res.Normalized())
		if err != nil {
			return nil, err
		}
		var pr persistRec
		t0 := time.Now()
		if err := j.Accept(id, t.w.specs[si]); err != nil {
			return nil, err
		}
		pr.appendJ = t.tr.add(5, -1, si, "journal.accept", "", t0)
		t0 = time.Now()
		if err := store.Put(id, body); err != nil {
			return nil, err
		}
		pr.put = t.tr.add(5, -1, si, "cas.put", "", t0)
		t0 = time.Now()
		if err := j.Stored(id); err != nil {
			return nil, err
		}
		pr.appendJ += t.tr.add(5, -1, si, "journal.stored", "", t0)
		t.persist[si] = pr
		put += pr.put
		app += pr.appendJ
	}
	for _, si := range t.set {
		t0 := time.Now()
		got, err := store.GetE(t.w.ids[si])
		if err != nil {
			return nil, err
		}
		pr := t.persist[si]
		pr.get = t.tr.add(5, -1, si, "cas.get", "", t0)
		t.persist[si] = pr
		get += pr.get
		if len(got) == 0 {
			t.chk.fail("empty store read for %s", t.w.ids[si][:12])
		}
	}
	st := store.Stats()
	if err := j.Close(); err != nil {
		return nil, err
	}
	if err := store.Close(); err != nil {
		return nil, err
	}
	jbytes, err := dirBytes(jdir)
	if err != nil {
		return nil, err
	}
	var opens, replays []float64
	for r := 0; r < reopenReps; r++ {
		t0 := time.Now()
		s2, err := cas.Open(cas.Options{Dir: filepath.Join(dir, "store"), ScrubSeed: 1})
		if err != nil {
			return nil, err
		}
		opens = append(opens, float64(time.Since(t0))/float64(time.Millisecond))
		if err := s2.Close(); err != nil {
			return nil, err
		}
		t0 = time.Now()
		if _, err := jobs.ReplayJournal(jdir); err != nil {
			return nil, err
		}
		replays = append(replays, float64(time.Since(t0))/float64(time.Millisecond))
	}
	n := float64(len(t.set))
	usf := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / n }
	return map[string]metric{
		"cas.put_us":            {usf(put), "us"},
		"cas.get_us":            {usf(get), "us"},
		"cas.bytes_per_result":  {float64(st.LiveBytes) / float64(max(st.Records, 1)), "bytes"},
		"journal.append_us":     {usf(app), "us"},
		"journal.bytes_per_job": {float64(jbytes) / n, "bytes"},
		"cas.open_ms":           {median(opens), "ms"},
		"journal.replay_ms":     {median(replays), "ms"},
	}, nil
}

// setupMissRec is a pass-3 set-up miss.
type setupMissRec struct {
	spec            int
	dur, run, queue time.Duration
}

// passPool (pass 3) brings a fresh stack to the workload's precondition
// through Pool.Do (computing the working set; for cas_hits, closing and
// rebooting over the populated store and journal), then replays the
// schedule through Pool.Do.
func (t *tracedRun) passPool() ([]poolRec, []setupMissRec, float64, error) {
	dir := t.freshDir()
	st, err := openStack(t.ctx, dir, t.cfg.nproc, t.w.cache, false)
	if err != nil {
		return nil, nil, 0, err
	}
	var setup []setupMissRec
	if t.w.preload {
		for _, si := range t.set {
			r, err := t.do(st, -1, si)
			if err != nil {
				st.close()
				return nil, nil, 0, err
			}
			if r.tier != tierMiss {
				t.chk.fail("set-up request for %s was not a miss", t.w.ids[si][:12])
			}
			setup = append(setup, setupMissRec{si, r.dur, r.run, r.queue})
		}
		if t.w.restart {
			st.close()
			for _, pass := range []int{1, 2} {
				seed := t.freshDir()
				if err := copyDir(dir, seed); err != nil {
					return nil, nil, 0, err
				}
				t.seeds[pass] = seed
			}
			if st, err = openStack(t.ctx, dir, t.cfg.nproc, t.w.cache, true); err != nil {
				return nil, nil, 0, err
			}
		}
	}
	defer st.close()
	out := make([]poolRec, len(t.replay))
	ram := 0
	for k, si := range t.replay {
		r, err := t.do(st, k, si)
		if err != nil {
			return nil, nil, 0, err
		}
		out[k] = r
		if r.tier == tierRAM {
			ram++
		}
	}
	return out, setup, float64(ram) / float64(len(t.replay)), nil
}

// do times one Pool.Do, classifies the tier that answered from the
// pool's counters, and checks the answer.
func (t *tracedRun) do(st *tstack, k, si int) (poolRec, error) {
	met := st.pool.Metrics()
	ram0, cas0 := met.CacheHits.Load(), met.CASHits.Load()
	t0 := time.Now()
	res, err := st.pool.Do(t.ctx, t.w.specs[si])
	d := t.tr.add(3, k, si, "jobs.do", "serve.handler", t0)
	if err != nil {
		return poolRec{}, fmt.Errorf("pool pass, %s: %w", t.w.ids[si][:12], err)
	}
	r := poolRec{dur: d, tier: tierMiss}
	switch {
	case met.CacheHits.Load() > ram0:
		r.tier = tierRAM
	case met.CASHits.Load() > cas0:
		r.tier = tierCAS
	default:
		r.run = msDuration(res.ElapsedMS)
		if j, ok := st.pool.Lookup(t.w.ids[si]); ok {
			s := j.Status()
			c, err1 := time.Parse(time.RFC3339Nano, s.CreatedAt)
			s2, err2 := time.Parse(time.RFC3339Nano, s.StartedAt)
			if err1 == nil && err2 == nil {
				r.queue = s2.Sub(c)
			}
		}
	}
	if got := resultDigest(res); got != t.flow[si].digest {
		t.chk.fail("Pool.Do answer for %s: %s, serial %s", t.w.ids[si][:12], got, t.flow[si].digest)
	}
	return r, nil
}

// precondition returns a fresh stack in the state pass `pass` replays
// from: the working set held (warm_hits, seeded from the flow pass's
// results), the populated store rebooted (cas_hits), or empty.
func (t *tracedRun) precondition(pass int) (*tstack, error) {
	if seed, ok := t.seeds[pass]; ok {
		return openStack(t.ctx, seed, t.cfg.nproc, t.w.cache, true)
	}
	st, err := openStack(t.ctx, t.freshDir(), t.cfg.nproc, t.w.cache, false)
	if err != nil {
		return nil, err
	}
	if t.w.preload {
		for _, si := range t.set {
			if _, err := st.pool.StoreResult(t.flow[si].res); err != nil {
				st.close()
				return nil, err
			}
		}
	}
	return st, nil
}

// discard is a reusable http.ResponseWriter that keeps nothing, so the
// allocation probe counts only what the handler allocates.
type discard struct{ h http.Header }

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) WriteHeader(int)             {}
func (d *discard) Write(b []byte) (int, error) { return len(b), nil }

// requests builds one ServeHTTP request per replayed entry, cycling to n.
func (t *tracedRun) requests(n int) []*http.Request {
	out := make([]*http.Request, n)
	for k := range out {
		si := t.replay[k%len(t.replay)]
		body, _ := specBody(t.w.specs[si])
		// A request context of its own: children of one shared parent
		// context churn that parent's child map, whose growth would show
		// up, at random, in the allocation counts.
		r, _ := http.NewRequestWithContext(context.Background(), http.MethodPost, path(t.w.specs[si]), bytes.NewReader(body))
		r.Header.Set("Content-Type", "application/json")
		r.RemoteAddr = "127.0.0.1:1"
		out[k] = r
	}
	return out
}

// passHandler (pass 2) replays the schedule through ServeHTTP.
func (t *tracedRun) passHandler() (float64, error) {
	st, err := t.precondition(2)
	if err != nil {
		return 0, err
	}
	defer st.close()
	reqs := t.requests(len(t.replay))
	var bytesOut int64
	for k, si := range t.replay {
		rec := httptest.NewRecorder()
		t0 := time.Now()
		st.handler.ServeHTTP(rec, reqs[k])
		t.tr.add(2, k, si, "serve.handler", "http", t0)
		bytesOut += int64(rec.Body.Len())
		if rec.Code != http.StatusOK {
			t.chk.fail("handler answered %d for %s", rec.Code, t.w.ids[si][:12])
			continue
		}
		t.chk.observe(t.w.ids[si], rec.Body.Bytes(), rec.Header().Get(cluster.DigestHeader))
	}
	return float64(bytesOut) / float64(len(t.replay)), nil
}

// httpRec is pass 1's per-request record: the client's round trip, the
// handler span the middleware took, and the jobs.Run time the response
// reports (zero for a cached answer).
type httpRec struct{ rtt, handler, run time.Duration }

// msDuration converts a result's elapsed_ms.
func msDuration(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

// freshRun is the jobs.Run time a response body reports for a freshly
// computed result, or zero for a cached one.
func freshRun(body []byte) time.Duration {
	var r struct {
		Cached    bool    `json:"cached"`
		ElapsedMS float64 `json:"elapsed_ms"`
	}
	if json.Unmarshal(body, &r) != nil || r.Cached {
		return 0
	}
	return msDuration(r.ElapsedMS)
}

// passHTTP (pass 1) replays the schedule over loopback HTTP to the
// handler wrapped in a timing middleware. On the now-warm stack it then
// measures the middleware's own cost, alternating spans off and on
// request by request, and counts the requests gapd sheds when nproc
// clients send the replay at once.
func (t *tracedRun) passHTTP() ([]httpRec, int64, float64, error) {
	st, err := t.precondition(1)
	if err != nil {
		return nil, 0, 0, err
	}
	defer st.close()
	n := len(t.replay)
	starts := make([]atomic.Int64, n)
	ends := make([]atomic.Int64, n)
	var spansOn atomic.Bool
	spansOn.Store(true)
	mw := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !spansOn.Load() {
			st.handler.ServeHTTP(w, r)
			return
		}
		k, err := strconv.Atoi(r.Header.Get(reqHeader))
		t0 := time.Now()
		st.handler.ServeHTTP(w, r)
		t1 := time.Now()
		if err == nil && k >= 0 && k < n {
			starts[k].Store(int64(t0.Sub(t.tr.epoch)))
			ends[k].Store(int64(t1.Sub(t.tr.epoch)))
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, 0, err
	}
	srv := &http.Server{Handler: mw, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		_ = srv.Shutdown(context.Background())
		<-served
	}()
	d, err := newDriver(t.w, "http://"+ln.Addr().String(), t.chk, t.cfg.nproc)
	if err != nil {
		return nil, 0, 0, err
	}
	defer d.close()
	d.tag = func(r *http.Request, k int) { r.Header.Set(reqHeader, strconv.Itoa(k)) }
	var buf bytes.Buffer
	out := make([]httpRec, n)
	for k, si := range t.replay {
		t0 := time.Now()
		ok := d.send(k, si, &buf)
		out[k].rtt = t.tr.add(1, k, si, "http", "", t0)
		s, e := starts[k].Load(), ends[k].Load()
		t.tr.spans = append(t.tr.spans, span{1, k, si, "serve.handler", "http", s, e})
		out[k].handler = time.Duration(e - s)
		if ok {
			out[k].run = freshRun(buf.Bytes())
		}
	}
	// Tracing overhead: mean request time with the middleware's spans on
	// minus off. The state alternates request by request, so a drift in
	// the host's speed falls on both halves alike.
	var on, off time.Duration
	var non, noff int
	for i := 0; i < overheadRequests; i++ {
		k := i % n
		state := (i+i/n)%2 == 0
		spansOn.Store(state)
		t0 := time.Now()
		d.send(k, t.replay[k], &buf)
		if state {
			on += time.Since(t0)
			non++
		} else {
			off += time.Since(t0)
			noff++
		}
	}
	spansOn.Store(false)
	overhead := (float64(on)/float64(non) - float64(off)/float64(noff)) / float64(time.Microsecond)

	// Shedding: the replay again from nproc clients at once.
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < t.cfg.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := int(next.Add(1) - 1); i < shedRequests; i = int(next.Add(1) - 1) {
				d.send(i%n, t.replay[i%n], &buf)
			}
		}()
	}
	wg.Wait()
	return out, d.shed.Load(), overhead, nil
}

// probeResult carries the tier probes' numbers.
type probeResult struct {
	ram, cas                  time.Duration // mean Pool.Do per hit
	serve                     time.Duration // mean ServeHTTP minus Pool.Do per RAM hit
	handlerAllocs, poolAllocs uint64        // over allocRequests calls
}

// probes times ServeHTTP and Pool.Do back to back on RAM hits (a stack
// holding every replayed result) and Pool.Do on CAS hits (a pool with
// its RAM tier disabled over the pass-5 store), and counts allocations
// per ServeHTTP and per Pool.Do hit with the garbage collector off on
// one P, so the counts are exact.
func (t *tracedRun) probes() (probeResult, error) {
	var pr probeResult
	st, err := openStack(t.ctx, t.freshDir(), t.cfg.nproc, 0, false)
	if err != nil {
		return pr, err
	}
	defer st.close()
	for _, si := range t.set {
		if _, err := st.pool.StoreResult(t.flow[si].res); err != nil {
			return pr, err
		}
	}
	warm := t.requests(len(t.replay))
	dw := &discard{h: http.Header{}}
	for k, si := range t.replay {
		st.handler.ServeHTTP(dw, warm[k])
		if _, err := st.pool.Do(t.ctx, t.w.specs[si]); err != nil {
			return pr, err
		}
	}
	met := st.pool.Metrics()
	hits0 := met.CacheHits.Load()
	var ram, handler time.Duration
	for k, r := range t.requests(probeRequests) {
		si := t.replay[k%len(t.replay)]
		clear(dw.h)
		t0 := time.Now()
		st.handler.ServeHTTP(dw, r)
		handler += t.tr.add(6, k, si, "serve.hit", "", t0)
		t0 = time.Now()
		if _, err := st.pool.Do(t.ctx, t.w.specs[si]); err != nil {
			return pr, err
		}
		ram += t.tr.add(6, k, si, "jobs.ram_hit", "", t0)
	}
	if got := met.CacheHits.Load() - hits0; got != 2*probeRequests {
		return pr, fmt.Errorf("RAM probe: %d of %d calls hit RAM", got, 2*probeRequests)
	}
	pr.ram = ram / probeRequests
	pr.serve = (handler - ram) / probeRequests

	var reqs []*http.Request
	for round := 0; round < allocRounds; round++ {
		reqs = append(reqs, t.requests(allocRequests)...)
	}
	specs := make([]jobs.Spec, allocRequests)
	for k := range specs {
		specs[k] = t.w.specs[t.replay[k%len(t.replay)]]
	}
	// One P, no collection, and a window per call: sync.Pool caches
	// (encoding/json's among them) never miss. An uncounted first round
	// grows the runtime's own structures (the timer heap the handler's
	// request timeouts land in) to size. A goroutine the scheduler runs
	// when it preempts the loop can still allocate inside a window, so
	// each call's count is the least over the counted rounds: its own
	// allocations are the same every round, a stray one is not.
	procs := runtime.GOMAXPROCS(1)
	gc := debug.SetGCPercent(-1)
	runtime.GC()
	hmin := make([]uint64, allocRequests)
	pmin := make([]uint64, allocRequests)
	for round := 0; round < allocRounds && err == nil; round++ {
		for k, r := range reqs[round*allocRequests : (round+1)*allocRequests] {
			clear(dw.h)
			ha := allocs(func() { st.handler.ServeHTTP(dw, r) })
			pa := allocs(func() { _, err = st.pool.Do(t.ctx, specs[k]) })
			if err != nil {
				break
			}
			if round == 1 || ha < hmin[k] {
				hmin[k] = ha
			}
			if round == 1 || pa < pmin[k] {
				pmin[k] = pa
			}
		}
	}
	for k := range hmin {
		pr.handlerAllocs += hmin[k]
		pr.poolAllocs += pmin[k]
	}
	debug.SetGCPercent(gc)
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return pr, err
	}

	store, err := cas.Open(cas.Options{Dir: filepath.Join(t.persistDir, "store"), ScrubSeed: 1})
	if err != nil {
		return pr, err
	}
	defer store.Close()
	pool := jobs.NewPool(jobs.Options{Workers: t.cfg.nproc, Parallelism: 1, CacheEntries: -1, Store: store})
	cas0 := pool.Metrics().CASHits.Load()
	var casd time.Duration
	for k := 0; k < probeRequests; k++ {
		si := t.replay[k%len(t.replay)]
		t0 := time.Now()
		res, err := pool.Do(t.ctx, t.w.specs[si])
		if err != nil {
			return pr, err
		}
		casd += t.tr.add(6, k, si, "jobs.cas_hit", "", t0)
		if k < len(t.replay) && resultDigest(res) != t.flow[si].digest {
			t.chk.fail("CAS probe answer for %s differs from the serial run", t.w.ids[si][:12])
		}
	}
	if got := pool.Metrics().CASHits.Load() - cas0; got != probeRequests {
		return pr, fmt.Errorf("CAS probe: %d of %d calls hit the store", got, probeRequests)
	}
	pr.cas = casd / probeRequests
	return pr, nil
}

// allocs counts the heap allocations fn makes.
func allocs(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}

// writeSpans writes every span as one JSON line.
func writeSpans(file string, spans []span) error {
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return errors.New("copyDir: " + p + " is not a regular file")
		}
		in, err := os.Open(p)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
