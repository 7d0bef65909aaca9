// Command gapbench is the repository benchmark: it measures gapd end to
// end on seeded workloads (cas_hits and cold_mixed, which BENCHMARK.json
// names, and warm_hits) and, in a separate traced run, layer by layer in
// process. See README.md for the metrics, the workloads and the layer map.
//
// Run it through run.sh, which builds gapd and this program from the
// tree under test:
//
//	bash gapbench/run.sh --workload cas_hits --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/jobs"
)

// warmup is the unmeasured closed-loop phase before a hit workload's
// measured phase: connections open, the RAM/CAS split settles.
const warmup = time.Second

// clientProcs is the benchmark's GOMAXPROCS while it drives the measured
// phase.
const clientProcs = 1

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	gapd     string
	build    string
	nproc    int
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", casHits, "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 30, "length of the measured phase")
	flag.IntVar(&cfg.trace, "trace", 0, "0: end-to-end run against a gapd child; 1: in-process traced run")
	flag.StringVar(&cfg.gapd, "gapd", "", "gapd binary built from the tree under test")
	flag.StringVar(&cfg.build, "build", ".bench_build", "scratch directory for the run's files")
	dump := flag.Bool("dump-schedule", false, "print the workload's canonical schedule and exit")
	answers := flag.String("write-answers", "", "compute the serial reference for the seed's schedules, write the answer ledger to this file, and exit")
	flag.Parse()
	cfg.nproc = runtime.NumCPU()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch {
	case *dump:
		var w *workload
		if w, err = buildWorkload(cfg.workload, cfg.seed); err == nil {
			err = w.dump(os.Stdout)
		}
	case *answers != "":
		err = writeLedger(ctx, *answers, cfg.seed, cfg.nproc)
	default:
		err = run(ctx, cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "gapbench: %v\n", err)
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(ctx context.Context, cfg config) error {
	if cfg.trace != 0 && cfg.trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	w, err := buildWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return err
	}
	led, err := loadLedger()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.build, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(cfg.build, "run-"+w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	var res result
	var prov map[string]any
	if cfg.trace == 1 {
		res, prov, err = traced(ctx, cfg, w, led, scratch)
	} else {
		if cfg.gapd == "" {
			return errors.New("--gapd is required (run through run.sh)")
		}
		res, prov, err = endToEnd(ctx, cfg, w, led, scratch)
	}
	if err != nil {
		return err
	}
	prov["workload"], prov["seed"], prov["seconds"], prov["trace"] = w.name, cfg.seed, cfg.seconds, cfg.trace
	pb, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", pb)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// endToEnd sets gapd up for the workload setupReps times, measures the
// last set-up closed loop for cfg.seconds, and checks every answer.
func endToEnd(ctx context.Context, cfg config, w *workload, led map[string]string, scratch string) (result, map[string]any, error) {
	chk := newChecker()
	var (
		srv    *server
		flags  []string
		setups []float64
	)
	defer func() { srv.stop() }()
	for rep := 0; rep < w.setups; rep++ {
		dir := filepath.Join(scratch, fmt.Sprintf("setup%d", rep))
		flags = gapdFlags(w, cfg.nproc, dir)
		logPath := filepath.Join(scratch, fmt.Sprintf("gapd%d.log", rep))
		t0 := time.Now()
		var err error
		if srv, err = startGapd(ctx, cfg.gapd, logPath, flags); err != nil {
			return result{}, nil, err
		}
		if w.preload {
			d, err := newDriver(w, srv.base, chk, cfg.nproc)
			if err != nil {
				return result{}, nil, err
			}
			err = d.preload(ctx)
			d.close()
			if err != nil {
				return result{}, nil, err
			}
		}
		if w.restart {
			srv.stop()
			if srv, err = startGapd(ctx, cfg.gapd, logPath, flags); err != nil {
				return result{}, nil, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		if rep < w.setups-1 {
			srv.stop()
			if err := os.RemoveAll(dir); err != nil {
				return result{}, nil, err
			}
		}
	}

	d, err := newDriver(w, srv.base, chk, measuredClients)
	if err != nil {
		return result{}, nil, err
	}
	defer d.close()
	// The closed-loop client runs on one P: it has one request in flight,
	// and a second P only adds runtime threads that wake, spin and compete
	// with gapd for the host's CPUs. The answer check after the run gets
	// every P back.
	procs := runtime.GOMAXPROCS(clientProcs)
	if w.cycle {
		d.run(ctx, time.Now(), warmup)
	}
	start := time.Now()
	stopSampling := make(chan struct{})
	sampled := make(chan []procSample)
	go func() { sampled <- sampleProc(srv, start, stopSampling) }()
	ph := d.run(ctx, start, time.Duration(cfg.seconds)*time.Second)
	close(stopSampling)
	samples := <-sampled
	runtime.GOMAXPROCS(procs)
	hwm, err := srv.statusMB("VmHWM")
	if err != nil {
		return result{}, nil, err
	}
	ver, err := srv.version()
	if err != nil {
		return result{}, nil, err
	}
	argv := srv.cmd.Args
	srv.stop()
	if err := ctx.Err(); err != nil {
		return result{}, nil, err
	}

	// Answers: every response observed (set-up, warm-up and measured)
	// against the serial reference, computed outside the timed window.
	ids := chk.wanted()
	specOf := map[string]jobs.Spec{}
	for i, id := range w.ids {
		specOf[id] = w.specs[i]
	}
	refStart := time.Now()
	refs, err := references(ctx, ids, specOf, led, cfg.nproc)
	if err != nil {
		return result{}, nil, err
	}
	fromLedger := 0
	for _, id := range ids {
		if _, ok := led[id]; ok {
			fromLedger++
		}
	}
	wrong := chk.verify(refs)
	failed := int(chk.failed.Load())
	// Measured-phase failures were counted at receive time; answers
	// found wrong after the run are charged to the measured phase too.
	mfailed := ph.failed + int(wrong)
	if mfailed > ph.attempted {
		mfailed = ph.attempted
	}

	fmt.Printf("workload %s seed %d: %d clients, %d requests in %.2fs (%d failed), %d distinct answers checked (%d from the ledger, reference %.1fs)\n",
		w.name, cfg.seed, measuredClients, ph.attempted, ph.elapsed.Seconds(), mfailed, len(ids), fromLedger, time.Since(refStart).Seconds())
	fmt.Printf("  set-ups: %v s\n", setups)
	fmt.Printf("  VmHWM %.3f MiB (server_peak_rss_mb is the 95th percentile of the VmRSS samples)\n", hwm)
	m := e2eMetrics(ph, mfailed, samples)
	m["setup_s"] = metric{midMean(setups), "s"}
	printMetrics(m)
	if failed > 0 {
		fmt.Printf("  first failure: %s\n", chk.firstFailure())
	}
	prov := provenance(cfg, ver, argv)
	prov["client_gomaxprocs"] = clientProcs
	return result{Correct: failed == 0 && mfailed == 0, Attempted: ph.attempted, Failed: mfailed, Metrics: m}, prov, nil
}

// quantile is the nearest-rank quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(k, 0), len(sorted)-1)]
}

// beyond is how many samples of n lie above the q quantile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// midMean is the mean of the middle half of v: the lowest and highest
// quarter are dropped. Set-up times come in two modes about 25 % apart
// (cold_mixed's 2.7 and 3.4 ms, mixed within a run in proportions that
// vary from run to run), so their median jumps from one mode to the
// other between runs; the middle half's mean moves with the proportion
// and still ignores a stray slow set-up.
func midMean(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	s = s[len(s)/4 : len(s)-len(s)/4]
	if len(s) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-28s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

// provenance stamps a result with what produced it.
func provenance(cfg config, gapdVersion map[string]any, gapdArgs []string) map[string]any {
	return map[string]any{
		"gapd_version": gapdVersion,
		"gapd_args":    gapdArgs,
		"bench_go":     runtime.Version(),
		"nproc":        cfg.nproc,
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"cpu_model":    cpuModel(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// specBody is the request body for a spec.
func specBody(s jobs.Spec) ([]byte, error) { return json.Marshal(s) }
