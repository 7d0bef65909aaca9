package jobs

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// journalFile is the segment name inside the journal directory.
const journalFile = "journal.jsonl"

// JournalRecord is one line of the append-only job journal: an intent
// log, not a result archive. "accept" records carry the full canonical
// spec and are fsynced before the job runs, so a crash between accept
// and completion leaves enough on disk to re-run the job. "stored"
// records close an accept once the result body is durable in the CAS
// store, the only durable copy of a finished result. "fail" records
// close out jobs whose failure was terminal (spec errors, exhausted
// retries) so replay does not chase them forever. A legacy "done" line
// from an older journal replays as a close-out: the body it carries is
// never decoded, and that result recomputes on demand.
type JournalRecord struct {
	Op    string `json:"op"` // accept | stored | fail
	ID    string `json:"id"`
	Spec  *Spec  `json:"spec,omitempty"`
	Error string `json:"error,omitempty"`
	Class Class  `json:"class,omitempty"`
	T     string `json:"t,omitempty"` // RFC3339Nano append time
}

// Journal is the crash-safe job log. All methods are safe for concurrent
// use; a write failure marks the journal unhealthy (visible to /healthz)
// but never blocks job execution — losing durability degrades the
// service, it does not stop it.
type Journal struct {
	dir  string
	path string

	mu      sync.Mutex
	f       *os.File
	healthy atomic.Bool
}

// OpenJournal opens (creating if needed) the journal in dir.
func OpenJournal(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: journal dir: %w", err)
	}
	path := filepath.Join(dir, journalFile)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobs: journal open: %w", err)
	}
	j := &Journal{dir: dir, path: path, f: f}
	j.healthy.Store(true)
	return j, nil
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// Healthy reports whether the last journal write succeeded. The HTTP
// layer degrades /healthz to 503 when this goes false.
func (j *Journal) Healthy() bool {
	if j == nil {
		return true
	}
	return j.healthy.Load()
}

// Accept journals a job acceptance and fsyncs: after Accept returns nil
// the job survives a process kill.
func (j *Journal) Accept(id string, spec Spec) error {
	return j.append(JournalRecord{Op: "accept", ID: id, Spec: &spec}, true)
}

// Stored closes a job's accept once its result is durable in the CAS
// store. Unsynced by design: the CAS record already hit disk (the store
// group-commits its fsyncs), and recovery looks up every pending accept
// in the store index before re-running it, so a lost stored line costs
// an index lookup, never a recompute.
func (j *Journal) Stored(id string) error {
	return j.append(JournalRecord{Op: "stored", ID: id}, false)
}

// Fail journals a terminal failure so replay does not resubmit a job
// that can never succeed (spec errors) or already burned its retries.
func (j *Journal) Fail(id string, msg string, class Class) error {
	return j.append(JournalRecord{Op: "fail", ID: id, Error: msg, Class: class}, true)
}

// append writes one record line; sync forces it to disk.
func (j *Journal) append(rec JournalRecord, sync bool) error {
	if j == nil {
		return nil
	}
	rec.T = time.Now().UTC().Format(time.RFC3339Nano)
	line, err := json.Marshal(rec)
	if err != nil {
		j.healthy.Store(false)
		return fmt.Errorf("jobs: journal marshal: %w", err)
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		j.healthy.Store(false)
		return errors.New("jobs: journal closed")
	}
	if _, err := j.f.Write(line); err != nil {
		j.healthy.Store(false)
		return fmt.Errorf("jobs: journal write: %w", err)
	}
	if sync {
		if err := j.f.Sync(); err != nil {
			j.healthy.Store(false)
			return fmt.Errorf("jobs: journal sync: %w", err)
		}
	}
	j.healthy.Store(true)
	return nil
}

// Sync flushes the journal to disk.
func (j *Journal) Sync() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	return j.f.Sync()
}

// Close syncs and closes the journal. Appends after Close fail and mark
// the journal unhealthy.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// MaxReplayGenerations bounds boot-time re-executions of one pending
// job. Every replay re-journals the job's accept record, so the accept
// count is a crash-generation marker: a job whose accept count keeps
// growing without a terminal record is taking the process down on every
// boot (OOM, runtime fatal — outside the panic fence). Rather than
// crash-loop the daemon forever, recovery journals such a job as a
// terminal failure and moves on.
const MaxReplayGenerations = 3

// Replayed is what a journal replay recovered.
type Replayed struct {
	// Pending are accepted jobs with no closing record — work a crash
	// interrupted, in acceptance order.
	Pending []Spec
	// PendingAccepts holds, parallel to Pending, how many accept records
	// the journal carries for each pending job since its last close —
	// one per boot that tried it, so accepts-1 is the number of replays
	// already attempted.
	PendingAccepts []int
	// PendingIDs holds, parallel to Pending, the journaled job IDs
	// (canonical spec hashes), so callers need not re-derive them.
	PendingIDs []string
	// Failed counts jobs whose closing record was a failure.
	Failed int
	// Truncated reports that the final line was a partial write (the
	// crash landed mid-append) and was ignored.
	Truncated bool
}

// ReplayJournal reads dir's journal and classifies every job it
// mentions by its newest record: an accept opens the job, and a stored,
// fail, or legacy done line closes it. It tolerates a truncated final
// line — the signature of a crash during append — and an absent journal
// (nothing to recover).
func ReplayJournal(dir string) (Replayed, error) {
	var rep Replayed
	f, err := os.Open(filepath.Join(dir, journalFile))
	if errors.Is(err, os.ErrNotExist) {
		return rep, nil
	}
	if err != nil {
		return rep, fmt.Errorf("jobs: journal replay: %w", err)
	}
	defer f.Close()

	type entry struct {
		spec    *Spec
		accepts int // accepts since the last close; 0 means closed
		failed  bool
	}
	byID := map[string]*entry{}
	var order []string

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec JournalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			// A torn line can only be the last one the process wrote;
			// anything after it would have failed the same way, so stop
			// here and report the truncation.
			rep.Truncated = true
			break
		}
		e, ok := byID[rec.ID]
		if !ok {
			e = &entry{}
			byID[rec.ID] = e
			order = append(order, rec.ID)
		}
		switch rec.Op {
		case "accept":
			e.spec = rec.Spec
			e.accepts++
			e.failed = false
		case "stored", "done":
			e.accepts = 0
			e.failed = false
		case "fail":
			e.accepts = 0
			e.failed = true
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			rep.Truncated = true
		} else if !errors.Is(err, io.EOF) {
			return rep, fmt.Errorf("jobs: journal replay: %w", err)
		}
	}

	for _, id := range order {
		e := byID[id]
		switch {
		case e.failed:
			rep.Failed++
		case e.accepts > 0 && e.spec != nil:
			rep.Pending = append(rep.Pending, *e.spec)
			rep.PendingAccepts = append(rep.PendingAccepts, e.accepts)
			rep.PendingIDs = append(rep.PendingIDs, id)
		}
	}
	return rep, nil
}

// CompactStats summarizes one compaction.
type CompactStats struct {
	// BeforeBytes/AfterBytes are the journal file sizes around the
	// rewrite.
	BeforeBytes int64
	AfterBytes  int64
	// PendingKept counts in-flight jobs whose accept records were
	// preserved — compacting a live journal must not orphan work a
	// crash would need to recover.
	PendingKept int
	// DroppedFailed counts terminally failed jobs whose history was
	// discarded.
	DroppedFailed int
}

// CompactNow atomically rewrites the journal to hold only the accepts of
// pending jobs — repeated per replay generation, so the poison-job
// crash-loop marker survives compaction. Closed jobs (stored, failed,
// legacy done) leave no line behind. Appends are blocked for the
// duration, giving the rewrite a consistent snapshot. Recovery ends with
// it, and gapd runs it on SIGHUP.
func (j *Journal) CompactNow() (CompactStats, error) {
	if j == nil {
		return CompactStats{}, nil
	}
	dir := j.dir // immutable after OpenJournal
	j.mu.Lock()
	defer j.mu.Unlock()
	var st CompactStats
	if fi, err := os.Stat(j.path); err == nil {
		st.BeforeBytes = fi.Size()
	}
	rep, err := ReplayJournal(dir)
	if err != nil {
		return st, err
	}
	now := time.Now().UTC().Format(time.RFC3339Nano)
	var lines [][]byte
	for i := range rep.Pending {
		spec := rep.Pending[i]
		line, err := json.Marshal(JournalRecord{Op: "accept", ID: rep.PendingIDs[i], Spec: &spec, T: now})
		if err != nil {
			return st, fmt.Errorf("jobs: journal compact: %w", err)
		}
		for n := 0; n < rep.PendingAccepts[i]; n++ {
			lines = append(lines, line)
		}
	}
	st.PendingKept = len(rep.Pending)
	st.DroppedFailed = rep.Failed
	if err := j.rewriteLocked(lines); err != nil {
		return st, err
	}
	if fi, err := os.Stat(j.path); err == nil {
		st.AfterBytes = fi.Size()
	}
	return st, nil
}

// rewriteLocked atomically replaces the journal with the given record
// lines (tmp file + fsync + rename) and reopens the append handle.
// Caller holds j.mu.
func (j *Journal) rewriteLocked(lines [][]byte) error {
	tmp, err := os.CreateTemp(j.dir, journalFile+".tmp*")
	if err != nil {
		return fmt.Errorf("jobs: journal compact: %w", err)
	}
	defer os.Remove(tmp.Name())
	w := bufio.NewWriter(tmp)
	for _, line := range lines {
		w.Write(line)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("jobs: journal compact: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("jobs: journal compact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("jobs: journal compact: %w", err)
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		return fmt.Errorf("jobs: journal compact: %w", err)
	}
	if j.f != nil {
		j.f.Close()
	}
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		j.f = nil
		j.healthy.Store(false)
		return fmt.Errorf("jobs: journal reopen: %w", err)
	}
	j.f = f
	j.healthy.Store(true)
	return nil
}

// RecoverStats summarizes a boot-time journal recovery.
type RecoverStats struct {
	// ResolvedFromStore counts pending jobs whose result the CAS store
	// already held — the crash landed between the store's fsync and the
	// stored line. Each is closed by an index lookup, not re-run.
	ResolvedFromStore int
	// Resubmitted counts pending jobs re-run through the pool.
	Resubmitted int
	// FailedReplays counts resubmitted jobs that failed again.
	FailedReplays int
	// SkippedTerminal counts journal jobs with terminal failure records
	// (not re-run).
	SkippedTerminal int
	// ReplaysExhausted counts pending jobs skipped because they had
	// already been replayed MaxReplayGenerations times — the poison-job
	// signature of a boot-time crash loop. They are journaled as
	// terminal failures, not re-run.
	ReplaysExhausted int
	// Truncated reports a torn final journal line was discarded.
	Truncated bool
}

// RecoverFromJournal re-drives dir's pending intents through the pool:
// accepts the store already answers are closed with a stored line,
// the rest are re-executed (poison jobs excepted), and the journal is
// compacted to whatever is still pending. Recovery reads no result
// body: finished results stay in the CAS store and are served from it
// on demand, so re-executed jobs recompute from the same canonical spec
// and everything else is exactly the bytes the original run stored.
func RecoverFromJournal(ctx context.Context, p *Pool, dir string) (RecoverStats, error) {
	var stats RecoverStats
	rep, err := ReplayJournal(dir)
	if err != nil {
		return stats, err
	}
	stats.Truncated = rep.Truncated
	stats.SkippedTerminal = rep.Failed
	for i, spec := range rep.Pending {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		id := rep.PendingIDs[i]
		// A crash can land between the CAS fsync and the stored journal
		// line: the accept looks pending but the body is already
		// durable. An index lookup closes it without a recompute.
		if p.store.Has(id) {
			p.journalStored(id)
			p.metrics.JournalReplayedDone.Add(1)
			stats.ResolvedFromStore++
			continue
		}
		// A pending job whose accept count already shows
		// MaxReplayGenerations replays is crash-looping the boot path:
		// journal it terminal (fsynced before any re-run, so the verdict
		// survives yet another crash) and skip it.
		if rep.PendingAccepts[i]-1 >= MaxReplayGenerations {
			p.metrics.JournalReplaysExhausted.Add(1)
			stats.ReplaysExhausted++
			p.journalFail(id, fmt.Errorf(
				"jobs: replay budget exhausted after %d generations (poison job)",
				rep.PendingAccepts[i]-1), ClassFatal)
			continue
		}
		p.metrics.JournalReplayedPending.Add(1)
		stats.Resubmitted++
		if _, err := p.Do(ctx, spec); err != nil {
			stats.FailedReplays++
		}
	}
	if j := p.opt.Journal; j != nil && j.Dir() == dir {
		if _, err := j.CompactNow(); err != nil {
			return stats, err
		}
	}
	return stats, nil
}
