package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gossip"
)

// testKeys returns n deterministic pseudo-random hex keys shaped like
// spec hashes.
func testKeys(n int) []string {
	rng := rand.New(rand.NewSource(42))
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%016x%016x%016x%016x",
			rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64())
	}
	return keys
}

func testPeers(ids ...string) []Peer {
	peers := make([]Peer, len(ids))
	for i, id := range ids {
		peers[i] = Peer{ID: id, URL: "http://" + id}
	}
	return peers
}

// TestOwnershipPureFunction is the coordination-free acceptance test:
// rings built from any permutation of the same peer set assign every one
// of 1k keys the same owner and the same full rendezvous order, so N
// nodes agree without talking to each other.
func TestOwnershipPureFunction(t *testing.T) {
	peers := testPeers("a", "b", "c", "d", "e")
	keys := testKeys(1000)
	ref := NewRing(peers, 0)

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		shuffled := append([]Peer(nil), peers...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		r := NewRing(shuffled, 0)
		for _, k := range keys {
			if got, want := r.Owner(k), ref.Owner(k); got != want {
				t.Fatalf("trial %d key %s: owner %q != %q", trial, k[:12], got, want)
			}
			got, want := r.Rank(k), ref.Rank(k)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d key %s: rank %v != %v", trial, k[:12], got, want)
				}
			}
		}
	}
}

// TestRankIsOwnerFirstAndComplete: Rank[0] agrees with Owner and the
// rank covers every peer exactly once.
func TestRankIsOwnerFirstAndComplete(t *testing.T) {
	r := NewRing(testPeers("a", "b", "c"), 0)
	for _, k := range testKeys(200) {
		rank := r.Rank(k)
		if len(rank) != 3 {
			t.Fatalf("rank length %d", len(rank))
		}
		if rank[0] != r.Owner(k) {
			t.Fatalf("key %s: rank[0] %q != owner %q", k[:12], rank[0], r.Owner(k))
		}
		seen := map[string]bool{}
		for _, id := range rank {
			if seen[id] {
				t.Fatalf("key %s: duplicate %q in rank", k[:12], id)
			}
			seen[id] = true
		}
	}
}

// TestRemovalRemapsOnlyRemovedPeer is the minimal-disruption property
// that keeps caches warm across a peer death: dropping one peer moves
// exactly the keys that peer owned, and every surviving key keeps its
// owner.
func TestRemovalRemapsOnlyRemovedPeer(t *testing.T) {
	full := NewRing(testPeers("a", "b", "c", "d", "e"), 0)
	without := NewRing(testPeers("a", "b", "d", "e"), 0) // "c" removed
	keys := testKeys(1000)

	moved, owned := 0, 0
	for _, k := range keys {
		before, after := full.Owner(k), without.Owner(k)
		if after == "c" {
			t.Fatalf("key %s assigned to removed peer", k[:12])
		}
		if before == "c" {
			owned++
			// The orphaned slice must land on the key's next-in-rank
			// survivor, which is what the fallback path routes to.
			rank := full.Rank(k)
			if rank[1] != after {
				t.Errorf("key %s: remapped to %q, want next-in-rank %q", k[:12], after, rank[1])
			}
			continue
		}
		if before != after {
			moved++
		}
	}
	if owned == 0 {
		t.Fatal("degenerate key set: removed peer owned nothing")
	}
	if moved != 0 {
		t.Errorf("%d keys not owned by the removed peer changed owner", moved)
	}
}

// TestSharesBalancedAndWeighted: equal-weight peers split the key space
// near-evenly, and a double-weight peer wins about twice the share.
func TestSharesBalancedAndWeighted(t *testing.T) {
	even := NewRing(testPeers("a", "b", "c", "d"), 0)
	for id, share := range even.Shares(4096) {
		if share < 0.15 || share > 0.35 {
			t.Errorf("unweighted peer %s share %.3f, want ~0.25", id, share)
		}
	}

	peers := testPeers("a", "b", "c")
	peers[0].Weight = 2 // a holds twice the virtual nodes
	weighted := NewRing(peers, 0)
	shares := weighted.Shares(4096)
	if shares["a"] < 1.4*shares["b"] || shares["a"] < 1.4*shares["c"] {
		t.Errorf("weight-2 peer share %.3f vs %.3f/%.3f, want ~2x", shares["a"], shares["b"], shares["c"])
	}
}

func TestParsePeers(t *testing.T) {
	peers, err := ParsePeers("a=http://h1:8080, b=http://h2:8080,")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 || peers[0].ID != "a" || peers[1].URL != "http://h2:8080" {
		t.Fatalf("parsed %+v", peers)
	}
	for _, bad := range []string{"", "justanid", "=http://h", "a=", ","} {
		if _, err := ParsePeers(bad); err == nil {
			t.Errorf("ParsePeers(%q) accepted", bad)
		}
	}
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		opt  Options
	}{
		{"no id", Options{Peers: testPeers("a", "b")}},
		{"no url", Options{SelfID: "a"}},
		{"self url missing", Options{SelfID: "x", Peers: testPeers("a", "b")}},
		{"self url conflicting", Options{SelfID: "a", Peers: testPeers("a", "b"),
			Gossip: &GossipOptions{SelfURL: "http://elsewhere"}}},
		{"duplicate id", Options{SelfID: "a", Peers: testPeers("a", "a")}},
		{"empty url", Options{SelfID: "a", Peers: []Peer{{ID: "a"}}}},
	}
	for _, tc := range cases {
		if _, err := New(tc.opt); !errors.Is(err, ErrConfig) {
			t.Errorf("%s: New returned %v, want an ErrConfig error", tc.name, err)
		}
	}

	// The advertised URL is derived from self's seed entry, given
	// explicitly, or both when they agree (trailing slash aside).
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"derived", Options{SelfID: "a", Peers: testPeers("a", "b")}},
		{"advertised", Options{SelfID: "a", Gossip: &GossipOptions{SelfURL: "http://a/"}}},
		{"agreeing", Options{SelfID: "a", Peers: testPeers("a", "b"),
			Gossip: &GossipOptions{SelfURL: "http://a/"}}},
	} {
		c, err := New(tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// Seeds are contacts, not members: the boot ring is self alone.
		if c.Self() != "a" || c.Ring().Len() != 1 {
			t.Errorf("%s: cluster %q ring len %d, want a/1", tc.name, c.Self(), c.Ring().Len())
		}
		if got := c.gossip.view.Self().URL; got != "http://a" {
			t.Errorf("%s: advertised URL %q, want http://a", tc.name, got)
		}
		c.Close()
	}
}

// TestFlapDampingRouteStability: a flapping peer must not flip Route
// decisions or rebuild the ring. Every failed request makes the owner
// suspect — which keeps it in the ring and routable — and every success
// clears the suspicion, so up-down-up-down blips leave the spec routed
// to the same owner under the same ring generation throughout. Only
// the failure detector's dead verdict moves ownership.
func TestFlapDampingRouteStability(t *testing.T) {
	c, err := New(Options{SelfID: "a", Peers: testPeers("a", "b", "c")})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.gossip.view.Merge([]gossip.Member{
		{ID: "b", URL: "http://b", State: gossip.StateAlive},
		{ID: "c", URL: "http://c", State: gossip.StateAlive},
	})
	c.gossip.maybeRebuild()
	ring, gen := c.Ring(), c.gossip.view.Gen()
	if ring.Len() != 3 {
		t.Fatalf("ring len %d, want 3", ring.Len())
	}

	// Find a key owned by a non-self peer.
	var key, owner string
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("%064d", i)
		if o := ring.Owner(k); o != "a" {
			key, owner = k, o
			break
		}
	}
	if key == "" {
		t.Fatal("no key owned by a peer")
	}
	first := c.Route(key)
	if first.Local || first.Fallback || first.Targets[0].ID != owner {
		t.Fatalf("healthy owner %s not first target: %+v", owner, first)
	}

	const blips = 10
	for i := 0; i < blips; i++ {
		for _, report := range []func(){
			func() { c.reportFailure(owner) },
			func() { c.reportSuccess(owner) },
		} {
			report()
			rt := c.Route(key)
			if rt.Owner != first.Owner || rt.Local != first.Local || rt.Fallback != first.Fallback ||
				len(rt.Targets) != len(first.Targets) {
				t.Fatalf("blip %d: route oscillated: %+v vs %+v", i, rt, first)
			}
			for j := range rt.Targets {
				if rt.Targets[j].ID != first.Targets[j].ID {
					t.Fatalf("blip %d: target order changed", i)
				}
			}
			if c.Ring() != ring || c.gossip.view.Gen() != gen {
				t.Fatalf("blip %d: ring rebuilt (generation %d -> %d)", i, gen, c.gossip.view.Gen())
			}
		}
	}
	// Every failure was observed — the owner went suspect each time —
	// yet none of them reached the ring.
	if got := c.Metrics().Counters()["cluster_suspected"]; got != blips {
		t.Errorf("cluster_suspected = %d, want %d", got, blips)
	}
	if st, _ := c.gossip.view.State(owner); st != gossip.StateAlive {
		t.Errorf("owner state %s after a final success, want alive", st)
	}
}
