// Chaos-net: the partition-tolerance acceptance suite. Each test wires
// a deterministic netfault injector into every node's peer transport
// and asserts the cluster's invariants under network faults, for the
// fixed seed matrix {1, 7, 42}:
//
//   - an owner partitioned away mid-run cannot take its finished work
//     with it — a replica (or the fallback path) serves byte-identical
//     results;
//   - a corrupted peer response is rejected by digest verification and
//     never cached or relayed;
//   - a replica push lost to a partition is repaired by anti-entropy
//     within one sweep after the link heals.
package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/gossip"
	"repro/internal/jobs"
	"repro/internal/netfault"
	"repro/internal/serve"
)

// netTweak builds a startCluster tweak that wires the shared injector
// into each node's peer transport (keyed by the node's own id as src)
// and enables replication at factor 2.
func netTweak(t *testing.T, inj *netfault.Injector, more func(*cluster.Options)) func(*cluster.Options) {
	t.Helper()
	return func(o *cluster.Options) {
		hosts := make(map[string]string, len(o.Peers))
		for _, p := range o.Peers {
			u, err := url.Parse(p.URL)
			if err != nil {
				t.Fatal(err)
			}
			hosts[u.Host] = p.ID
		}
		self := o.SelfID
		o.Replicas = 2
		o.WrapTransport = func(rt http.RoundTripper) http.RoundTripper {
			return inj.Transport(self, netfault.HostResolver(hosts), rt)
		}
		if more != nil {
			more(o)
		}
	}
}

// waitCached polls until the node's result cache holds id.
func waitCached(t *testing.T, nd *node, id string, what string) *jobs.Result {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if res, ok := nd.pool.Cache().Get(id); ok {
			return res
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("%s: node %s never cached %.12s", what, nd.id, id)
	return nil
}

// allIDs lists every node id.
func allIDs(nodes []*node) []string {
	ids := make([]string, len(nodes))
	for i, nd := range nodes {
		ids[i] = nd.id
	}
	return ids
}

// TestChaosNetPartitionedOwnerReplicaServes: the tentpole scenario. The
// owner computes a result and replicates it; then the owner is
// partitioned away and the next replica holder refuses job traffic
// (torn POSTs). The entry node — last in rendezvous order — must still
// answer byte-identically to the serial reference, by fetching the
// finished result from the replica over GET /v1/results instead of
// recomputing: a partition cannot un-finish replicated work.
func TestChaosNetPartitionedOwnerReplicaServes(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			specs := clusterBatch(seed)
			ref := serialReference(t, specs)
			for _, spec := range specs {
				inj := netfault.New(netfault.Plan{Seed: seed})
				nodes := startCluster(t, 3, netTweak(t, inj, nil))
				rank := nodes[0].clu.Ring().Rank(spec.Hash())
				owner := byID(t, nodes, rank[0])
				replica := byID(t, nodes, rank[1])
				entry := byID(t, nodes, rank[2])

				// The owner computes and (asynchronously) replicates.
				res := submit(t, owner, spec)
				if got, want := normalizedJSON(t, res), ref[res.ID]; !bytes.Equal(got, want) {
					t.Fatalf("%s: owner result differs from serial reference", spec.Kind)
				}
				rres := waitCached(t, replica, res.ID, string(spec.Kind)+" replication")
				if got, want := normalizedJSON(t, rres), ref[res.ID]; !bytes.Equal(got, want) {
					t.Errorf("%s: replica copy differs from serial reference", spec.Kind)
				}

				// Partition the owner away; the replica holder stays
				// reachable but tears every job POST — so only the
				// replica-read path can avoid recomputing.
				inj.Isolate(owner.id, allIDs(nodes)...)
				replica.abortPosts.Store(true)

				res2 := submit(t, entry, spec)
				if got, want := normalizedJSON(t, res2), ref[res2.ID]; !bytes.Equal(got, want) {
					t.Errorf("%s: partitioned-owner result differs from serial reference\n got: %s\nwant: %s",
						spec.Kind, got, want)
				}
				if got := entry.clu.Metrics().Counters()["cluster_replica_hits"]; got < 1 {
					t.Errorf("%s: cluster_replica_hits = %d, want >= 1", spec.Kind, got)
				}
				if got := entry.pool.Metrics().JobsStarted.Load(); got != 0 {
					t.Errorf("%s: entry node started %d jobs, want 0 (replica read must avoid recompute)",
						spec.Kind, got)
				}
				if inj.Partitions.Load() < 1 {
					t.Errorf("%s: no partition faults fired", spec.Kind)
				}
			}
		})
	}
}

// TestChaosNetCorruptedResponseRejected: every response the owner sends
// is bit-corrupted in flight, gossip acks included. Digest verification
// must keep every corrupted ack out of the membership view, and must
// convert each corrupted result into a transient peer failure — the
// entry node retries
// down the rendezvous order and still answers byte-identically — and no
// node's cache may ever hold bytes that differ from the reference.
func TestChaosNetCorruptedResponseRejected(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			specs := clusterBatch(seed)
			ref := serialReference(t, specs)
			for _, spec := range specs {
				// Resolve ownership with a throwaway ring: Match must name
				// the owner before the cluster exists.
				probe := startCluster(t, 3, nil)
				ownerID := probe[0].clu.Ring().Owner(spec.Hash())

				inj := netfault.New(netfault.Plan{
					Seed:        seed,
					CorruptRate: 1, // every response from the owner is corrupted
					Match:       "->" + ownerID + "/",
				})
				// The join traffic is corrupted too: every ack the owner
				// sends fails its digest and is discarded unmerged, and the
				// cluster still forms through the owner's own joins, whose
				// requests reach the others intact.
				nodes := startCluster(t, 3, netTweak(t, inj, nil))
				owner := byID(t, nodes, ownerID)
				entry := otherThan(nodes, owner)
				for _, nd := range nodes {
					if nd == owner {
						continue
					}
					// Each other node's join exchange with the owner got a
					// corrupted ack; it must have been rejected, and the
					// owner's record must carry its true URL.
					deadline := time.Now().Add(10 * time.Second)
					for nd.clu.Metrics().Counters()["cluster_digest_rejected"] < 1 {
						if time.Now().After(deadline) {
							t.Fatalf("%s: node %s never rejected the owner's corrupted join ack", spec.Kind, nd.id)
						}
						time.Sleep(2 * time.Millisecond)
					}
					if m, ok := memberRecord(nd, ownerID); !ok || m.URL != owner.srv.URL {
						t.Errorf("%s: node %s holds owner record %+v, want URL %s", spec.Kind, nd.id, m.Member, owner.srv.URL)
					}
				}
				joinRejected := entry.clu.Metrics().Counters()["cluster_digest_rejected"]

				res := submit(t, entry, spec)
				if got, want := normalizedJSON(t, res), ref[res.ID]; !bytes.Equal(got, want) {
					t.Errorf("%s: result served through corruption differs from serial reference\n got: %s\nwant: %s",
						spec.Kind, got, want)
				}
				if got := entry.clu.Metrics().Counters()["cluster_digest_rejected"] - joinRejected; got < 1 {
					t.Errorf("%s: cluster_digest_rejected grew by %d on the result path, want >= 1", spec.Kind, got)
				}
				if inj.Corruptions.Load() < 1 {
					t.Errorf("%s: no corruption faults fired", spec.Kind)
				}
				// The corrupted bytes must not have been cached anywhere:
				// every cached copy of this result is reference-identical.
				for _, nd := range nodes {
					if cached, ok := nd.pool.Cache().Get(res.ID); ok {
						if got := normalizedJSON(t, cached); !bytes.Equal(got, ref[res.ID]) {
							t.Errorf("%s: node %s cached a corrupted result", spec.Kind, nd.id)
						}
					}
				}
			}
		})
	}
}

// TestChaosNetAntiEntropyRepairs: the completion-time replica push is
// lost to a directed partition; after the link heals, the background
// anti-entropy loop (running since boot) must converge the replica
// within one interval (counted in cluster_antientropy_repaired), after
// which the replica serves the result from cache even with the owner
// fully partitioned.
func TestChaosNetAntiEntropyRepairs(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			spec := clusterBatch(seed)[0]
			ref := serialReference(t, []jobs.Spec{spec})

			inj := netfault.New(netfault.Plan{Seed: seed})
			const aeInterval = 25 * time.Millisecond
			nodes := startCluster(t, 3, netTweak(t, inj, func(o *cluster.Options) {
				o.AntiEntropyInterval = aeInterval
			}))
			rank := nodes[0].clu.Ring().Rank(spec.Hash())
			owner := byID(t, nodes, rank[0])
			replica := byID(t, nodes, rank[1])
			entry := byID(t, nodes, rank[2])

			// Cut owner->replica before the job runs: the completion-time
			// push fails, the result exists only on the owner. The push
			// runs off the response path; Quiesce waits for it, and only
			// then is healing safe (healing earlier would let a slow push
			// goroutine replicate through the healed link and leave
			// anti-entropy nothing to repair).
			inj.Partition(owner.id, replica.id)
			res := submit(t, owner, spec)
			owner.mu.Lock()
			h := owner.inner.(*serve.Handler)
			owner.mu.Unlock()
			h.Quiesce()
			if inj.Partitions.Load() == 0 {
				t.Fatal("no owner->replica request hit the cut link")
			}
			if _, ok := replica.pool.Cache().Get(res.ID); ok {
				t.Fatal("replica received the push through a cut link")
			}

			// Heal; the next anti-entropy sweep must repair the replica.
			inj.Heal(owner.id, replica.id)
			waitCached(t, replica, res.ID, "anti-entropy repair")
			// The replica's cache fills inside the PUT handler, before the
			// owner's push sees the 201 — poll the sender-side counter.
			repairDeadline := time.Now().Add(5 * time.Second)
			for owner.clu.Metrics().Counters()["cluster_antientropy_repaired"] == 0 &&
				time.Now().Before(repairDeadline) {
				time.Sleep(2 * time.Millisecond)
			}
			if got := owner.clu.Metrics().Counters()["cluster_antientropy_repaired"]; got < 1 {
				t.Errorf("cluster_antientropy_repaired = %d, want >= 1", got)
			}

			// With the owner now fully partitioned, the repaired replica
			// carries the slice: the entry node forwards to it and gets the
			// cached, reference-identical result.
			inj.Isolate(owner.id, allIDs(nodes)...)
			res2 := submit(t, entry, spec)
			if got, want := normalizedJSON(t, res2), ref[res2.ID]; !bytes.Equal(got, want) {
				t.Errorf("post-repair result differs from serial reference\n got: %s\nwant: %s", got, want)
			}
			if res2.ID != res.ID {
				t.Errorf("ids differ: %s vs %s", res.ID, res2.ID)
			}
		})
	}
}

// TestHedgeLoserCanceled: the moment a hedge race has a winner, the
// losing leg's request must be canceled — observed here as the slow
// owner's handler seeing its context die long before its injected delay
// elapses, instead of sleeping out the full 10s holding a worker.
func TestHedgeLoserCanceled(t *testing.T) {
	nodes := startCluster(t, 3, func(o *cluster.Options) {
		o.HedgeAfter = 10 * time.Millisecond
	})
	spec := clusterBatch(13)[0]
	owner := byID(t, nodes, nodes[0].clu.Ring().Owner(spec.Hash()))
	entry := otherThan(nodes, owner)
	owner.delayPosts.Store(int64(10 * time.Second))

	start := time.Now()
	res := submit(t, entry, spec)
	if res.ID != spec.Hash() {
		t.Fatalf("wrong result id %.12s", res.ID)
	}

	// The losing leg must be canceled promptly after the winner returns,
	// not when the 10s delay expires.
	deadline := time.Now().Add(2 * time.Second)
	for owner.abortedDelays.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if owner.abortedDelays.Load() == 0 {
		t.Fatal("losing hedge leg was never canceled")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, delay is 10s — loser ran to completion", elapsed)
	}
	if got := entry.clu.Metrics().Counters()["cluster_hedged"]; got < 1 {
		t.Errorf("cluster_hedged = %d, want >= 1", got)
	}
}

// TestDeadlineSuppressesHedging: a propagated deadline smaller than the
// hedge threshold disables hedging for the request — a hedge that
// cannot answer before the caller's deadline is pure load — counted in
// cluster_hedges_suppressed.
func TestDeadlineSuppressesHedging(t *testing.T) {
	nodes := startCluster(t, 3, func(o *cluster.Options) {
		o.HedgeAfter = 2 * time.Second
	})
	spec := clusterBatch(17)[0]
	owner := byID(t, nodes, nodes[0].clu.Ring().Owner(spec.Hash()))
	entry := otherThan(nodes, owner)

	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, entry.srv.URL+"/v1/evaluate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.DeadlineHeader, time.Now().Add(1*time.Second).UTC().Format(time.RFC3339Nano))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (deadline has room for the job, just not for a hedge)", resp.StatusCode)
	}
	c := entry.clu.Metrics().Counters()
	if c["cluster_hedges_suppressed"] < 1 {
		t.Errorf("cluster_hedges_suppressed = %d, want >= 1", c["cluster_hedges_suppressed"])
	}
	if c["cluster_hedged"] != 0 {
		t.Errorf("cluster_hedged = %d, want 0 (hedging was suppressed)", c["cluster_hedged"])
	}
}

// waitRingLen blocks until nd's ring holds exactly n nodes.
func waitRingLen(t *testing.T, nd *node, n int) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for nd.clu.Ring().Len() != n {
		if time.Now().After(deadline) {
			t.Fatalf("node %s ring holds %d nodes, want %d", nd.id, nd.clu.Ring().Len(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestGossipSeedsHealMissedJoin: two nodes whose join exchanges both
// miss — nodes booting together, each before the other listens — boot
// as clusters of one. Probe rounds only target members the view already
// holds, so only the seed contacts can bring them together: once the
// link carries traffic, both rings must grow to two.
func TestGossipSeedsHealMissedJoin(t *testing.T) {
	inj := netfault.New(netfault.Plan{})
	inj.PartitionBoth("a", "b")
	nodes := startGossipCluster(t, []string{"a", "b"}, func(_ string, o *cluster.Options) {
		netTweak(t, inj, nil)(o)
	})
	// Both joins and a few seed retries hit the cut link.
	deadline := time.Now().Add(20 * time.Second)
	for inj.Partitions.Load() < 6 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d exchanges hit the cut link", inj.Partitions.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, nd := range nodes {
		if got := nd.clu.Ring().Len(); got != 1 {
			t.Fatalf("node %s ring holds %d nodes across the cut, want 1", nd.id, got)
		}
	}

	inj.HealAll()
	waitAlive(t, nodes, "a", "b")
	for _, nd := range nodes {
		waitRingLen(t, nd, 2)
	}
}

// TestGossipSeedsHealDeadVerdicts: a complete isolation longer than the
// suspicion window makes each side declare the other dead, and dead
// members are never probed again. After the link heals, the seed
// contacts carry each side's dead verdict to the other, each refutes
// with a bumped incarnation, and both rings return to two.
func TestGossipSeedsHealDeadVerdicts(t *testing.T) {
	inj := netfault.New(netfault.Plan{})
	nodes := startGossipCluster(t, []string{"a", "b"}, func(_ string, o *cluster.Options) {
		netTweak(t, inj, nil)(o)
	})
	a, b := nodes[0], nodes[1]
	waitAlive(t, nodes, "a", "b")

	inj.PartitionBoth("a", "b")
	waitMemberState(t, a, "b", gossip.StateDead)
	waitMemberState(t, b, "a", gossip.StateDead)
	waitRingLen(t, a, 1)
	waitRingLen(t, b, 1)

	inj.HealAll()
	waitAlive(t, nodes, "a", "b")
	for _, nd := range nodes {
		waitRingLen(t, nd, 2)
	}
	for _, nd := range nodes {
		if got := nd.clu.Metrics().Counters()["cluster_refutations"]; got < 1 {
			t.Errorf("node %s: cluster_refutations = %d, want >= 1 (its dead verdict refuted)", nd.id, got)
		}
	}
}
