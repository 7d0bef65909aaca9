package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"repro/internal/cas"
)

// This file is the glue between the pool and the disk tier
// (internal/cas): results are persisted as content-addressed records —
// the canonical spec hash is the address, the normalized JSON envelope
// is the body — so a restart rebuilds the full result corpus from the
// segment index without recomputing anything, and the RAM cache
// becomes a promotion tier over the store rather than the only copy.

// Store returns the pool's disk-tier result store, or nil when the
// pool runs RAM-only.
func (p *Pool) Store() *cas.Store { return p.store }

// storeGet reads and decodes the stored result for a content address.
// The store verifies CRC and SHA-256 on read; this layer additionally
// rejects an envelope whose ID disagrees with its address, so a stored
// body can never surface under the wrong key.
func (p *Pool) storeGet(id string) (*Result, bool) {
	res, err := p.storeGetE(id)
	return res, err == nil
}

// storeGetE is storeGet with the failure class preserved: ErrNotFound
// for an absent address, anything else for a record that existed but
// failed verification — the signal Do routes through read-repair.
func (p *Pool) storeGetE(id string) (*Result, error) {
	if p.store == nil {
		return nil, cas.ErrNotFound
	}
	body, err := p.store.GetE(id)
	if err != nil {
		return nil, err
	}
	var res Result
	if uerr := json.Unmarshal(body, &res); uerr != nil || res.ID != id {
		// The bytes verified but the envelope is wrong — a writer bug,
		// not bit rot. Counted as a CAS error and treated as corrupt so
		// the repair path can fetch a sane copy.
		p.metrics.CASErrors.Add(1)
		return nil, fmt.Errorf("cas: stored envelope does not decode to its address %s", id[:min(12, len(id))])
	}
	return &res, nil
}

// storePut persists the result's normalized envelope under its content
// address. Returns after the record is durably on disk (group-committed
// fsync inside the store).
func (p *Pool) storePut(res *Result) error {
	if p.store == nil || res == nil || res.ID == "" {
		return nil
	}
	body, err := json.Marshal(res.Normalized())
	if err != nil {
		return err
	}
	return p.store.Put(res.ID, body)
}

// persistResult makes a job's result durable: the body goes into the
// CAS (fsynced), then an unsynced stored line closes the job's accept.
// A failed Put counts a CAS error and leaves the accept open, so the
// next boot re-runs the job.
func (p *Pool) persistResult(id string, res *Result) {
	if err := p.storePut(res); err != nil {
		p.metrics.CASErrors.Add(1)
		return
	}
	p.journalStored(id)
}

// adopt installs a verified result computed elsewhere (a replica push
// or a read-repair fetch) into RAM and the CAS. It writes no journal
// line: no accept is open for a job this node never ran.
func (p *Pool) adopt(res *Result) {
	p.cache.Put(res.ID, res)
	if err := p.storePut(res); err != nil {
		p.metrics.CASErrors.Add(1)
	}
}

// SetReadRepair installs the read-repair hook — in production, the
// cluster layer's replica fetch (digest and content-address verified
// on its side of the wire). When a store read finds a corrupt or
// quarantined record, Do consults the hook before admitting a
// recompute; a repaired result is re-verified, re-Put into the local
// store (clearing the quarantine), and served as a cached hit. Install
// before traffic starts; a nil hook disables repair.
func (p *Pool) SetReadRepair(fn func(ctx context.Context, id string) (*Result, bool)) {
	p.mu.Lock()
	p.repair = fn
	p.mu.Unlock()
}

// readRepair runs the installed hook for id and adopts the fetched
// result after verifying it the same way StoreResult verifies a
// replica write: the payload's canonical spec must hash to the
// address. Adoption persists the body (the re-Put that heals the
// quarantine) and promotes it to RAM.
func (p *Pool) readRepair(ctx context.Context, id string) (*Result, bool) {
	p.mu.Lock()
	fn := p.repair
	p.mu.Unlock()
	if fn == nil {
		return nil, false
	}
	res, ok := fn(ctx, id)
	if !ok || res == nil || res.ID != id {
		return nil, false
	}
	canon, err := res.Spec.Canon()
	if err != nil || canon.Hash() != id {
		p.metrics.CASErrors.Add(1)
		return nil, false
	}
	cp := res.Normalized()
	p.adopt(cp)
	return cp, true
}

// probeCorrupt classifies a failed store read: true when the address
// held a record that failed verification, or is still quarantined from
// an earlier condemnation (by scrub, read, or compaction) — the cases
// where a replica fetch should precede a recompute.
func (p *Pool) probeCorrupt(readErr error, id string) bool {
	if p.store == nil {
		return false
	}
	if readErr != nil && !errors.Is(readErr, cas.ErrNotFound) {
		return true
	}
	return p.store.Quarantined(id)
}

// FindStored resolves a content address from the RAM cache, then the
// CAS store — the one result resolver, behind GET /v1/results/{id},
// replica fetches, and StoredView.Get.
func (p *Pool) FindStored(id string) (*Result, bool) {
	if res, ok := p.cache.Get(id); ok {
		return res, true
	}
	return p.storeGet(id)
}

// HasStored reports whether the id resolves in RAM or on disk without
// reading the body — the cheap membership check replica GETs use.
func (p *Pool) HasStored(id string) bool {
	if _, ok := p.cache.Get(id); ok {
		return true
	}
	return p.store != nil && p.store.Has(id)
}

// StoredView is the cluster-facing result set: the union of the RAM
// cache and the disk store. It satisfies the cluster layer's ResultStore
// contract structurally (jobs does not import cluster), so anti-entropy
// repair and ownership handoff walk the full durable corpus, not just
// what happens to be hot in RAM.
type StoredView struct{ p *Pool }

// StoredView returns the pool's cluster-facing result set.
func (p *Pool) StoredView() *StoredView { return &StoredView{p: p} }

// Keys snapshots every stored content address, deduplicated and sorted
// for deterministic repair sweeps.
func (v *StoredView) Keys() []string {
	seen := map[string]bool{}
	var keys []string
	for _, k := range v.p.cache.Keys() {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	if v.p.store != nil {
		for _, k := range v.p.store.Keys() { // already sorted
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

// Get resolves a content address through the pool's resolver.
func (v *StoredView) Get(id string) (*Result, bool) { return v.p.FindStored(id) }
