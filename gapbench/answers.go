package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/jobs"
)

// The answer ledger: the SHA-256 of each normalized result the serial
// reference produced, keyed by content address, for every spec the
// default seed's schedules reach. A content address fixes the answer, so
// the ledger serves any seed whose specs it covers; the rest are
// computed in process, outside the timed window.
//
//go:embed answers.json
var ledgerJSON []byte

type ledger struct {
	Seed    int64             `json:"seed"`
	Answers map[string]string `json:"answers"`
}

func loadLedger() (map[string]string, error) {
	var l ledger
	if err := json.Unmarshal(ledgerJSON, &l); err != nil {
		return nil, fmt.Errorf("answers.json: %w", err)
	}
	return l.Answers, nil
}

// resultDigest is the answer identity: SHA-256 of the normalized
// result's JSON (run-dependent envelope fields zeroed).
func resultDigest(res *jobs.Result) string {
	b, err := json.Marshal(res.Normalized())
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checker verifies responses. Each distinct body is decoded once (keyed
// by its SHA-256, which is checked against X-Gapd-Result-Digest on every
// response); the answer it carries is compared with the reference after
// the run, when every reference is known.
type checker struct {
	mu     sync.Mutex
	bodies map[string]bodyInfo    // body SHA-256 -> what it decodes to
	seen   map[answerKey]int      // (requested id, body SHA-256) -> responses
	failed atomic.Int64           // responses that failed before the answer check
	first  atomic.Pointer[string] // first failure, for the report
}

type bodyInfo struct {
	id, answer string
}

type answerKey struct{ want, body string }

func newChecker() *checker {
	return &checker{bodies: map[string]bodyInfo{}, seen: map[answerKey]int{}}
}

func (c *checker) fail(format string, args ...any) {
	c.failed.Add(1)
	msg := fmt.Sprintf(format, args...)
	c.first.CompareAndSwap(nil, &msg)
}

// observe checks one 200 response for the spec with content address
// want: the digest header must match the body, the body must decode to
// a result for want. It reports whether the response passed so far.
func (c *checker) observe(want string, body []byte, digestHeader string) bool {
	sum := sha256.Sum256(body)
	bd := hex.EncodeToString(sum[:])
	if bd != digestHeader {
		c.fail("digest header %q does not match body %s", digestHeader, bd)
		return false
	}
	c.mu.Lock()
	info, ok := c.bodies[bd]
	c.mu.Unlock()
	if !ok {
		var res jobs.Result
		if err := json.Unmarshal(body, &res); err != nil {
			c.fail("undecodable result body: %v", err)
			return false
		}
		info = bodyInfo{id: res.ID, answer: resultDigest(&res)}
		c.mu.Lock()
		c.bodies[bd] = info
		c.mu.Unlock()
	}
	if info.id != want {
		c.fail("asked for %s, got result %s", want[:12], info.id)
		return false
	}
	c.mu.Lock()
	c.seen[answerKey{want, bd}]++
	c.mu.Unlock()
	return true
}

// wanted lists the content addresses whose answers must be checked.
func (c *checker) wanted() []string {
	set := map[string]bool{}
	for k := range c.seen {
		set[k.want] = true
	}
	out := make([]string, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// verify compares every observed answer with refs and returns the
// number of responses that carried a wrong answer.
func (c *checker) verify(refs map[string]string) int64 {
	var bad int64
	for k, n := range c.seen {
		if got := c.bodies[k.body].answer; got != refs[k.want] {
			bad += int64(n)
			c.fail("wrong answer for %s: %s, reference %s", k.want[:12], got, refs[k.want])
		}
	}
	return bad
}

// firstFailure describes the first failure seen, or "".
func (c *checker) firstFailure() string {
	if p := c.first.Load(); p != nil {
		return *p
	}
	return ""
}

// references returns the reference answer digest for each id: from the
// ledger where it has one, otherwise by running the spec serially
// (jobs.Run, parallelism 1) on `workers` goroutines.
func references(ctx context.Context, ids []string, specOf map[string]jobs.Spec, ledger map[string]string, workers int) (map[string]string, error) {
	refs := make(map[string]string, len(ids))
	var todo []string
	for _, id := range ids {
		if d, ok := ledger[id]; ok {
			refs[id] = d
		} else {
			todo = append(todo, id)
		}
	}
	var (
		mu    sync.Mutex
		next  atomic.Int64
		first error
		wg    sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(todo) || ctx.Err() != nil {
					return
				}
				id := todo[k]
				res, err := jobs.Run(ctx, specOf[id], 1)
				mu.Lock()
				if err != nil && first == nil {
					first = fmt.Errorf("reference run of %s: %w", id[:12], err)
				} else if err == nil {
					refs[id] = resultDigest(res)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if first == nil {
		first = ctx.Err()
	}
	return refs, first
}

// writeLedger computes the serial reference for every spec the default
// seed's schedules reach (the whole working sets, and cold_mixed's first
// ledgerColdPrefix requests) and writes the ledger file.
func writeLedger(ctx context.Context, file string, seed int64, nproc int) error {
	specOf := map[string]jobs.Spec{}
	var ids []string
	for _, name := range workloadNames {
		w, err := buildWorkload(name, seed)
		if err != nil {
			return err
		}
		n := len(w.specs)
		if name == coldMixed {
			n = ledgerColdPrefix
		}
		for i := 0; i < n; i++ {
			if _, ok := specOf[w.ids[i]]; !ok {
				specOf[w.ids[i]] = w.specs[i]
				ids = append(ids, w.ids[i])
			}
		}
	}
	refs, err := references(ctx, ids, specOf, nil, nproc)
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(ledger{Seed: seed, Answers: refs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(file, append(b, '\n'), 0o644)
}

// ledgerColdPrefix is how many cold_mixed requests the ledger covers:
// about 1.6x what a 20 s measured phase consumes on a 2-CPU host.
const ledgerColdPrefix = 800
