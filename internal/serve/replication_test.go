package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/jobs"
)

// evalBody is a tiny valid evaluate spec shared by these tests.
const evalBody = `{"design":{"name":"datapath","width":8,"depth":2},"methodology":{"base":"typical-asic"},"seed":21}`

// TestDeadlineExpiredRejectedAtAdmission: a request whose propagated
// deadline already passed must be refused with 504 before admission —
// no job starts, no shed counter moves (it never competed for the
// budget), and the refusal is counted in deadline_rejected.
func TestDeadlineExpiredRejectedAtAdmission(t *testing.T) {
	srv, pool := newTestServer(t)
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/evaluate", strings.NewReader(evalBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.DeadlineHeader, time.Now().Add(-time.Second).UTC().Format(time.RFC3339Nano))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	var e map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || !strings.Contains(e["error"], "deadline") {
		t.Fatalf("error envelope %v (%v), want a deadline message", e, err)
	}
	if got := pool.Metrics().JobsStarted.Load(); got != 0 {
		t.Errorf("JobsStarted = %d, want 0 (expired request must not reach the pool)", got)
	}
	if got := pool.Metrics().JobsShed.Load(); got != 0 {
		t.Errorf("JobsShed = %d, want 0 (deadline rejection is not shedding)", got)
	}
	var m map[string]any
	getJSON(t, srv.URL+"/metrics", &m)
	if got := m["deadline_rejected"]; got != float64(1) {
		t.Errorf("deadline_rejected = %v, want 1", got)
	}
}

// TestDeadlineHeaderMalformed: an unparsable deadline is a client error,
// not a silent pass-through.
func TestDeadlineHeaderMalformed(t *testing.T) {
	srv, _ := newTestServer(t)
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/evaluate", strings.NewReader(evalBody))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.DeadlineHeader, "half past never")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

// TestResponseDigestHeader: every JSON response carries the SHA-256 of
// its exact body bytes — the integrity contract peers verify.
func TestResponseDigestHeader(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, body := postJSON(t, srv.URL+"/v1/evaluate", evalBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	sum := sha256.Sum256(body)
	if got, want := resp.Header.Get(cluster.DigestHeader), hex.EncodeToString(sum[:]); got != want {
		t.Errorf("digest header %q does not hash the body (%q)", got, want)
	}
}

// TestResultsEndpointRoundTrip: a result computed on one node can be
// read back over GET /v1/results/{id} (digest-stamped) and pushed to a
// second node over PUT, which verifies, stores, and dedups it.
func TestResultsEndpointRoundTrip(t *testing.T) {
	srvA, _ := newTestServer(t)
	poolB := jobs.NewPool(jobs.Options{Workers: 2})
	srvB := httptest.NewServer(NewHandler(Options{Pool: poolB}))
	t.Cleanup(srvB.Close)

	_, body := postJSON(t, srvA.URL+"/v1/evaluate", evalBody)
	var res jobs.Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}

	// GET the stored result from A, digest verified.
	resp, err := http.Get(srvA.URL + "/v1/results/" + res.ID)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET stored result: status %d", resp.StatusCode)
	}
	sum := sha256.Sum256(raw)
	if got := resp.Header.Get(cluster.DigestHeader); got != hex.EncodeToString(sum[:]) {
		t.Errorf("results digest header %q does not hash the body", got)
	}

	// Unknown-but-valid address 404s; malformed address 400s.
	resp, err = http.Get(srvA.URL + "/v1/results/" + strings.Repeat("0", 64))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown result: status %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(srvA.URL + "/v1/results/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("GET bad address: status %d, want 400", resp.StatusCode)
	}

	// PUT the copy to B: first push stores (201), second dedups (200).
	put := func(id string, payload []byte, digest string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPut, srvB.URL+"/v1/results/"+id, bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if digest != "" {
			req.Header.Set(cluster.DigestHeader, digest)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if got := put(res.ID, raw, hex.EncodeToString(sum[:])); got != http.StatusCreated {
		t.Fatalf("first PUT: status %d, want 201", got)
	}
	if got := put(res.ID, raw, hex.EncodeToString(sum[:])); got != http.StatusOK {
		t.Fatalf("second PUT: status %d, want 200 (dedup)", got)
	}
	if got := poolB.Metrics().ReplicasStored.Load(); got != 1 {
		t.Errorf("ReplicasStored = %d, want 1", got)
	}
	if _, ok := poolB.Cache().Get(res.ID); !ok {
		t.Error("pushed replica not in B's cache")
	}

	// A push whose bytes fail their digest is refused before decoding.
	if got := put(res.ID, raw, hex.EncodeToString(bytes.Repeat([]byte{1}, 32))); got != http.StatusBadRequest {
		t.Errorf("corrupt-digest PUT: status %d, want 400", got)
	}
	// A push whose payload is not the result it claims to be is refused
	// by the content-address check.
	tampered := bytes.Replace(raw, []byte(`"seed": 21`), []byte(`"seed": 22`), 1)
	if !bytes.Equal(tampered, raw) {
		tsum := sha256.Sum256(tampered)
		if got := put(res.ID, tampered, hex.EncodeToString(tsum[:])); got != http.StatusBadRequest {
			t.Errorf("tampered PUT: status %d, want 400", got)
		}
	}
	// A push under a path that contradicts the body's ID is refused.
	if got := put(strings.Repeat("a", 64), raw, hex.EncodeToString(sum[:])); got != http.StatusBadRequest {
		t.Errorf("mismatched-path PUT: status %d, want 400", got)
	}
}

// TestGossipBodyDigestChecked: a gossip exchange whose body does not
// match its digest is refused before any record is merged, so a flipped
// bit cannot add a member to the view; the same body with its true
// digest is merged.
func TestGossipBodyDigestChecked(t *testing.T) {
	pool := jobs.NewPool(jobs.Options{Workers: 1})
	clu, err := cluster.New(cluster.Options{
		SelfID: "a",
		Peers:  []cluster.Peer{{ID: "a", URL: "http://127.0.0.1:1"}},
		Gossip: &cluster.GossipOptions{Interval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(clu.Close)
	srv := httptest.NewServer(NewHandler(Options{Pool: pool, Cluster: clu}))
	t.Cleanup(srv.Close)

	body := []byte(`{"from":"z","records":[{"id":"z","url":"http://127.0.0.1:2","state":"alive","incarnation":0}]}`)
	sum := sha256.Sum256(body)
	post := func(digest string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+cluster.GossipPath, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(cluster.DigestHeader, digest)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	holdsZ := func() bool {
		for _, m := range clu.Status().Members {
			if m.ID == "z" {
				return true
			}
		}
		return false
	}

	if got := post(hex.EncodeToString(bytes.Repeat([]byte{1}, 32))); got != http.StatusBadRequest {
		t.Errorf("corrupt-digest gossip: status %d, want 400", got)
	}
	if holdsZ() {
		t.Error("a gossip body that failed its digest was merged")
	}
	if got := post(hex.EncodeToString(sum[:])); got != http.StatusOK {
		t.Errorf("gossip with its true digest: status %d, want 200", got)
	}
	if !holdsZ() {
		t.Error("a verified gossip body was not merged")
	}
}
