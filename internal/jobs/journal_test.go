package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// journalLines counts the records in dir's journal file.
func journalLines(t *testing.T, dir string) int {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Count(b, []byte("\n"))
}

// appendLegacyDone writes the fat "done" line an older journal carried:
// the job's full result inline.
func appendLegacyDone(t *testing.T, dir string, res *Result) {
	t.Helper()
	line, err := json.Marshal(map[string]any{"op": "done", "id": res.ID, "result": res})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(append(line, '\n')); err != nil {
		t.Fatal(err)
	}
}

// newStoredPool builds a journaled pool over a fresh store in its own
// temp dir.
func newStoredPool(t *testing.T, j *Journal) *Pool {
	t.Helper()
	s := openTestStore(t, t.TempDir())
	t.Cleanup(func() { s.Close() })
	return NewPool(Options{Workers: 1, Journal: j, Store: s})
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	specA, _ := smallEval(1).Canon()
	specB, _ := smallEval(2).Canon()
	specC, _ := smallEval(3).Canon()

	if err := j.Accept(specA.Hash(), specA); err != nil {
		t.Fatal(err)
	}
	if err := j.Accept(specB.Hash(), specB); err != nil {
		t.Fatal(err)
	}
	if err := j.Accept(specC.Hash(), specC); err != nil {
		t.Fatal(err)
	}
	if err := j.Stored(specA.Hash()); err != nil {
		t.Fatal(err)
	}
	if err := j.Fail(specC.Hash(), "spec rot", ClassSpec); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Pending) != 1 || rep.Pending[0].Hash() != specB.Hash() {
		t.Errorf("pending = %+v", rep.Pending)
	}
	if rep.Failed != 1 {
		t.Errorf("failed = %d", rep.Failed)
	}
	if rep.Truncated {
		t.Error("clean journal reported truncation")
	}
}

// TestJournalTornTail: a crash mid-append leaves a partial final line;
// replay must keep everything before it and report the truncation
// instead of failing.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := smallEval(1).Canon()
	if err := j.Accept(spec.Hash(), spec); err != nil {
		t.Fatal(err)
	}
	j.Close()

	path := filepath.Join(dir, journalFile)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"done","id":"abc","resu`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rep, err := ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated {
		t.Error("torn tail not reported")
	}
	if len(rep.Pending) != 1 {
		t.Errorf("pending = %d, want the record before the torn line", len(rep.Pending))
	}
}

func TestJournalMissingDirIsEmpty(t *testing.T) {
	rep, err := ReplayJournal(filepath.Join(t.TempDir(), "nope"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Pending)+rep.Failed != 0 {
		t.Errorf("replay of absent journal = %+v", rep)
	}
}

// TestJournalCompact: a journal written by an older build mixes legacy
// fat done lines, stored lines, failures, and repeated accepts. Replay
// leaves none of the closed jobs pending (a done line's body is never
// decoded into anything), a job re-accepted after its close is open
// again, and compaction keeps only the pending accepts.
func TestJournalCompact(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	done, _ := smallEval(1).Canon()
	stored, _ := smallEval(2).Canon()
	failed, _ := smallEval(3).Canon()
	pending, _ := smallEval(4).Canon()
	reopened, _ := smallEval(5).Canon()

	j.Accept(done.Hash(), done)
	j.Accept(done.Hash(), done)
	j.Accept(stored.Hash(), stored)
	j.Accept(pending.Hash(), pending)
	appendLegacyDone(t, dir, &Result{ID: done.Hash(), Kind: done.Kind, Spec: done})
	j.Stored(stored.Hash())
	j.Accept(failed.Hash(), failed)
	j.Fail(failed.Hash(), "gone", ClassFatal)
	j.Accept(reopened.Hash(), reopened)
	j.Stored(reopened.Hash())
	j.Accept(reopened.Hash(), reopened)
	j.Accept(pending.Hash(), pending)

	rep, err := ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{pending.Hash(): 2, reopened.Hash(): 1}
	if len(rep.Pending) != len(want) || rep.Failed != 1 || rep.Truncated {
		t.Fatalf("replay: %d pending, %d failed, truncated=%v; want 2, 1, false",
			len(rep.Pending), rep.Failed, rep.Truncated)
	}
	for i, id := range rep.PendingIDs {
		if want[id] != rep.PendingAccepts[i] {
			t.Errorf("pending %s: %d accepts, want %d", id[:12], rep.PendingAccepts[i], want[id])
		}
	}

	st, err := j.CompactNow()
	if err != nil {
		t.Fatal(err)
	}
	if st.PendingKept != 2 || st.DroppedFailed != 1 {
		t.Errorf("stats = %+v", st)
	}
	b, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if got := journalLines(t, dir); got != 3 {
		t.Errorf("compacted journal holds %d lines, want the 3 pending accepts", got)
	}
	if strings.Contains(string(b), `"result"`) || strings.Contains(string(b), `"op":"done"`) ||
		strings.Contains(string(b), `"op":"stored"`) || strings.Contains(string(b), `"op":"fail"`) {
		t.Errorf("compacted journal kept a closing record:\n%s", b)
	}
	after, err := ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Pending) != 2 || after.Failed != 0 {
		t.Errorf("after compact: %+v", after)
	}

	// The compacted journal must still accept appends.
	extra, _ := smallEval(6).Canon()
	if err := j.Accept(extra.Hash(), extra); err != nil {
		t.Fatal(err)
	}
	after, _ = ReplayJournal(dir)
	if len(after.Pending) != 3 {
		t.Errorf("append after compact lost: %+v", after)
	}
}

// TestJournalCompactNow drives the SIGHUP path: on-demand compaction of
// a live journal must shrink the file, drop every closed job, preserve
// pending accepts — repeated per replay generation, so the poison-job
// marker survives — report accurate stats, and leave the journal
// appendable.
func TestJournalCompactNow(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	done, _ := smallEval(1).Canon()
	pending, _ := smallEval(2).Canon()
	failed, _ := smallEval(3).Canon()

	// A noisy history: duplicate accepts for the completed job, two boot
	// generations for the pending one, and a terminal failure.
	j.Accept(done.Hash(), done)
	j.Accept(done.Hash(), done)
	j.Stored(done.Hash())
	j.Accept(pending.Hash(), pending)
	j.Accept(pending.Hash(), pending)
	j.Accept(failed.Hash(), failed)
	j.Fail(failed.Hash(), "rotten", ClassFatal)

	st, err := j.CompactNow()
	if err != nil {
		t.Fatal(err)
	}
	if st.PendingKept != 1 || st.DroppedFailed != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.BeforeBytes <= st.AfterBytes || st.AfterBytes <= 0 {
		t.Errorf("compaction did not shrink: %d -> %d bytes", st.BeforeBytes, st.AfterBytes)
	}
	if n := journalLines(t, dir); n != 2 {
		t.Errorf("compacted journal holds %d records, want the 2 pending accepts", n)
	}

	rep, err := ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Pending) != 1 || rep.Pending[0].Hash() != pending.Hash() {
		t.Errorf("pending after compaction = %+v", rep.Pending)
	}
	if rep.PendingAccepts[0] != 2 {
		t.Errorf("pending accept generations = %d, want 2 preserved", rep.PendingAccepts[0])
	}
	if rep.Failed != 0 {
		t.Errorf("failure history survived compaction: %d", rep.Failed)
	}

	// Still a live journal: appends keep landing after the rewrite.
	extra, _ := smallEval(4).Canon()
	if err := j.Accept(extra.Hash(), extra); err != nil {
		t.Fatal(err)
	}
	rep, _ = ReplayJournal(dir)
	if len(rep.Pending) != 2 {
		t.Errorf("append after CompactNow lost: %+v", rep)
	}

	// Nil receiver (no -journal configured) is a no-op, matching the
	// SIGHUP handler's unconditional call shape.
	var nilJ *Journal
	if _, err := nilJ.CompactNow(); err != nil {
		t.Errorf("nil CompactNow: %v", err)
	}
}

// TestJournalUnwritableDegrades: a journal whose file has been closed
// under it reports unhealthy (the /healthz degradation signal) but the
// pool keeps executing jobs.
func TestJournalUnwritableDegrades(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !j.Healthy() {
		t.Fatal("fresh journal unhealthy")
	}
	j.Close()
	spec, _ := smallEval(1).Canon()
	if err := j.Accept(spec.Hash(), spec); err == nil {
		t.Fatal("append to closed journal succeeded")
	}
	if j.Healthy() {
		t.Error("failed append left journal healthy")
	}

	p := newStoredPool(t, j)
	res, err := p.Do(context.Background(), smallEval(1))
	if err != nil || res == nil {
		t.Fatalf("pool stopped serving on journal failure: %v", err)
	}
	if p.Metrics().JournalErrors.Load() == 0 {
		t.Error("journal errors not counted")
	}
}

// TestNewPoolRejectsJournalWithoutStore: the journal holds only
// intents, so a journal with no store to hold results is not a
// configuration.
func TestNewPoolRejectsJournalWithoutStore(t *testing.T) {
	j, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	defer func() {
		if recover() == nil {
			t.Error("NewPool accepted a journal without a store")
		}
	}()
	NewPool(Options{Workers: 1, Journal: j})
}

// TestRecoveryFailsPoisonJobsTerminally: a pending job whose accept
// count shows it has already been replayed MaxReplayGenerations times is
// the crash-loop signature (it hard-kills the process on every boot, so
// no terminal record ever lands). Recovery must fail it terminally and
// move on instead of re-executing it forever.
func TestRecoveryFailsPoisonJobsTerminally(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	poison, _ := smallEval(1).Canon()
	healthy, _ := smallEval(2).Canon()
	// One accept per boot generation: the original plus
	// MaxReplayGenerations replays, none of which reached a terminal
	// record.
	for i := 0; i <= MaxReplayGenerations; i++ {
		if err := j.Accept(poison.Hash(), poison); err != nil {
			t.Fatal(err)
		}
	}
	// A job one generation younger must still be replayed.
	for i := 0; i < MaxReplayGenerations; i++ {
		if err := j.Accept(healthy.Hash(), healthy); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	p := newStoredPool(t, j2)
	ran := map[string]int{}
	p.runFn = func(ctx context.Context, c Spec, _ int) (*Result, error) {
		ran[c.Hash()]++
		return &Result{ID: c.Hash(), Kind: c.Kind, Spec: c}, nil
	}
	stats, err := RecoverFromJournal(context.Background(), p, dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReplaysExhausted != 1 {
		t.Errorf("replays exhausted = %d, want 1", stats.ReplaysExhausted)
	}
	if stats.Resubmitted != 1 {
		t.Errorf("resubmitted = %d, want only the healthy job", stats.Resubmitted)
	}
	if ran[poison.Hash()] != 0 {
		t.Errorf("poison job re-executed %d times", ran[poison.Hash()])
	}
	if ran[healthy.Hash()] != 1 {
		t.Errorf("healthy job ran %d times, want 1", ran[healthy.Hash()])
	}
	if got := p.Metrics().JournalReplaysExhausted.Load(); got != 1 {
		t.Errorf("replays_exhausted metric = %d", got)
	}

	// The verdict converges: the next boot sees nothing pending — the
	// poison job is terminal, the healthy one completed — and the
	// compacted journal holds no record of either.
	rep, err := ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Pending) != 0 {
		t.Errorf("post-recovery journal still has %d pending jobs", len(rep.Pending))
	}
	if n := journalLines(t, dir); n != 0 {
		t.Errorf("post-recovery journal holds %d records, want 0", n)
	}
}

// TestReplayCountsAcceptGenerations: ReplayJournal reports one accept
// per boot generation for pending jobs, the marker the poison cap keys
// on.
func TestReplayCountsAcceptGenerations(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := smallEval(1).Canon()
	j.Accept(spec.Hash(), spec)
	j.Accept(spec.Hash(), spec)
	j.Close()

	rep, err := ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Pending) != 1 || len(rep.PendingAccepts) != 1 {
		t.Fatalf("pending = %d, accepts = %d", len(rep.Pending), len(rep.PendingAccepts))
	}
	if rep.PendingAccepts[0] != 2 {
		t.Errorf("accept generations = %d, want 2", rep.PendingAccepts[0])
	}
}

// TestPoolJournalsLifecycle: a completed job leaves exactly two journal
// records — its fsynced accept with the canonical spec, and the stored
// line that closes it — and its result body lives only in the store.
func TestPoolJournalsLifecycle(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	p := newStoredPool(t, j)
	res, err := p.Do(context.Background(), smallEval(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	var ops []string
	for _, line := range bytes.Split(bytes.TrimSpace(b), []byte("\n")) {
		var rec JournalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.ID != res.ID {
			t.Errorf("journal record for %s, want %s", rec.ID[:12], res.ID[:12])
		}
		ops = append(ops, rec.Op)
	}
	if strings.Join(ops, ",") != "accept,stored" {
		t.Errorf("journal ops = %v, want [accept stored]", ops)
	}
	if bytes.Contains(b, []byte(`"result"`)) {
		t.Error("journal carries a result body")
	}
	stored, ok := p.storeGet(res.ID)
	if !ok || stored.Evaluation == nil ||
		stored.Evaluation.ShippedMHz != res.Evaluation.ShippedMHz {
		t.Error("stored result payload does not match the served result")
	}
	if p.Metrics().JournalAccepted.Load() != 1 || p.Metrics().JournalStored.Load() != 1 {
		t.Errorf("journal counters: accepted=%d stored=%d",
			p.Metrics().JournalAccepted.Load(), p.Metrics().JournalStored.Load())
	}
}

// TestAdoptedResultsWriteNoJournalLine: a replica push (StoreResult) and
// a read-repair fetch install a result this node never accepted, so
// they land in RAM and the store but leave the journal untouched.
func TestAdoptedResultsWriteNoJournalLine(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	c1, _ := smallEval(1).Canon()
	c2, _ := smallEval(2).Canon()
	replica, err := Run(context.Background(), c1, 1)
	if err != nil {
		t.Fatal(err)
	}
	repaired, err := Run(context.Background(), c2, 1)
	if err != nil {
		t.Fatal(err)
	}

	p := newStoredPool(t, j)
	if created, err := p.StoreResult(replica); err != nil || !created {
		t.Fatalf("StoreResult = %v, %v", created, err)
	}
	p.SetReadRepair(func(ctx context.Context, id string) (*Result, bool) {
		return repaired, id == repaired.ID
	})
	if _, ok := p.readRepair(context.Background(), repaired.ID); !ok {
		t.Fatal("read-repair did not adopt the fetched result")
	}
	for _, id := range []string{replica.ID, repaired.ID} {
		if !p.Store().Has(id) {
			t.Errorf("adopted result %s not in the store", id[:12])
		}
	}
	if n := journalLines(t, dir); n != 0 {
		t.Errorf("adoption wrote %d journal records, want 0", n)
	}
	if got := p.Metrics().JournalStored.Load() + p.Metrics().JournalAccepted.Load(); got != 0 {
		t.Errorf("adoption counted %d journal writes, want 0", got)
	}
}
