package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
)

// requestTimeout bounds one request; a request that takes longer fails.
const requestTimeout = 60 * time.Second

// driver sends a workload's requests to one gapd over keep-alive
// loopback connections, closed loop: each client sends its next request
// only when the previous answer is in. The schedule cursor is shared, so
// the request sequence is the workload's, whichever client sends it.
type driver struct {
	w       *workload
	clients int
	base    string
	bodies  [][]byte // request body per spec
	paths   []string // endpoint per spec
	chk     *checker
	client  *http.Client
	next    atomic.Int64 // schedule cursor
	// tag, when set, adds headers to request k before it is sent.
	tag func(r *http.Request, k int)
	// shed counts 429 answers.
	shed atomic.Int64
}

func newDriver(w *workload, base string, chk *checker, clients int) (*driver, error) {
	d := &driver{w: w, clients: clients, base: base, chk: chk}
	for _, s := range w.specs {
		b, err := specBody(s)
		if err != nil {
			return nil, err
		}
		d.bodies = append(d.bodies, b)
		d.paths = append(d.paths, path(s))
	}
	d.client = &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxIdleConns:        clients,
			MaxIdleConnsPerHost: clients,
			MaxConnsPerHost:     clients,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
	}
	return d, nil
}

func (d *driver) close() { d.client.CloseIdleConnections() }

// send posts spec si as request k and checks the response; it returns
// whether the response passed the checks made at receive time. buf
// holds the body.
func (d *driver) send(k, si int, buf *bytes.Buffer) bool {
	req, err := http.NewRequest(http.MethodPost, d.base+d.paths[si], bytes.NewReader(d.bodies[si]))
	if err != nil {
		d.chk.fail("request %s: %v", d.w.ids[si][:12], err)
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	if d.tag != nil {
		d.tag(req, k)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		d.chk.fail("request %s: %v", d.w.ids[si][:12], err)
		return false
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		d.chk.fail("reading %s: %v", d.w.ids[si][:12], err)
		return false
	}
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode == http.StatusTooManyRequests {
			d.shed.Add(1)
		}
		d.chk.fail("%s answered %d: %.200s", d.w.ids[si][:12], resp.StatusCode, buf.Bytes())
		return false
	}
	return d.chk.observe(d.w.ids[si], buf.Bytes(), resp.Header.Get(cluster.DigestHeader))
}

// preload sends every spec once, from the driver's clients, and fails
// on the first bad response: the set-up that makes the working set hot.
func (d *driver) preload(ctx context.Context) error {
	var next atomic.Int64
	var bad atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < d.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for ctx.Err() == nil {
				si := int(next.Add(1) - 1)
				if si >= len(d.w.specs) {
					return
				}
				if !d.send(si, si, &buf) {
					bad.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := bad.Load(); n > 0 {
		return fmt.Errorf("%d set-up requests failed; first: %s", n, d.chk.firstFailure())
	}
	return ctx.Err()
}

// phase is the outcome of one closed-loop phase.
type phase struct {
	// latMS holds one latency per attempted request, in ms; a failed
	// request counts as +Inf, missing any latency limit.
	latMS     []float64
	attempted int
	failed    int
	elapsed   time.Duration
}

// run drives the schedule closed loop from the driver's clients from
// start for dur, then lets each client finish its request in flight.
func (d *driver) run(ctx context.Context, start time.Time, dur time.Duration) phase {
	deadline := start.Add(dur)
	lats := make([][]float64, d.clients)
	fails := make([]int, d.clients)
	var wg sync.WaitGroup
	for c := 0; c < d.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for ctx.Err() == nil && time.Now().Before(deadline) {
				k := int(d.next.Add(1) - 1)
				si, ok := d.w.entry(k)
				if !ok {
					return
				}
				t0 := time.Now()
				ok = d.send(k, si, &buf)
				ms := float64(time.Since(t0)) / float64(time.Millisecond)
				if !ok {
					ms = math.Inf(1)
					fails[c]++
				}
				lats[c] = append(lats[c], ms)
			}
		}(c)
	}
	wg.Wait()
	p := phase{elapsed: time.Since(start)}
	for c := range lats {
		p.latMS = append(p.latMS, lats[c]...)
		p.failed += fails[c]
	}
	p.attempted = len(p.latMS)
	return p
}
