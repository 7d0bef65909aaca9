package main

import (
	"fmt"
	"sort"
	"time"
)

// procSample is one reading of gapd's /proc counters.
type procSample struct {
	at  float64 // seconds since the measured phase started
	cpu time.Duration
	rss float64 // VmRSS, MiB
}

// sampleInterval spaces the /proc readings.
const sampleInterval = 50 * time.Millisecond

// sampleProc reads gapd's CPU time and VmRSS at start and every
// sampleInterval until stop is closed, then once more.
func sampleProc(srv *server, start time.Time, stop <-chan struct{}) []procSample {
	var out []procSample
	read := func() {
		cpu, err := srv.cpuTime()
		rss, err2 := srv.statusMB("VmRSS")
		if err == nil && err2 == nil {
			out = append(out, procSample{time.Since(start).Seconds(), cpu, rss})
		}
	}
	read()
	tick := time.NewTicker(sampleInterval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			read()
			return out
		case <-tick.C:
			read()
		}
	}
}

// e2eMetrics computes the end-to-end metrics of a measured phase, each
// over the whole phase: throughput is completed requests over elapsed
// time, the latency percentiles are taken over every request's latency,
// and the server CPU is gapd's CPU time over the phase per completed
// request. mfailed counts the phase's failed requests, including answers
// found wrong after the run.
func e2eMetrics(ph phase, mfailed int, samples []procSample) map[string]metric {
	completed := ph.attempted - mfailed
	// The RSS gapd holds at its peak: the 95th percentile of the samples.
	// The highest sample (and VmHWM) also catch allocation spikes too
	// short to matter, which moved them by up to a quarter between runs.
	rss := make([]float64, len(samples))
	for i, s := range samples {
		rss[i] = s.rss
	}
	sort.Float64s(rss)
	lat := append([]float64(nil), ph.latMS...)
	sort.Float64s(lat)
	cpu := samples[len(samples)-1].cpu - samples[0].cpu
	fmt.Printf("  %d latency samples; p95 has %d beyond, p99 %d\n", len(lat), beyond(len(lat), 0.95), beyond(len(lat), 0.99))
	return map[string]metric{
		"success_rate":          {float64(completed) / float64(max(ph.attempted, 1)), "ratio"},
		"server_peak_rss_mb":    {quantile(rss, 0.95), "MiB"},
		"throughput_rps":        {float64(completed) / ph.elapsed.Seconds(), "1/s"},
		"latency_p50_ms":        {quantile(lat, 0.50), "ms"},
		"latency_p95_ms":        {quantile(lat, 0.95), "ms"},
		"latency_p99_ms":        {quantile(lat, 0.99), "ms"},
		"server_cpu_ms_per_req": {msOf(cpu) / float64(max(completed, 1)), "ms"},
	}
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
