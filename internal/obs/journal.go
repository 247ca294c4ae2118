package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"strings"
	"sync"

	"lattice/internal/sim"
)

// Stage names one step of the job lifecycle the journal tracks:
//
//	submit → validate → estimate → place → dispatch →
//	run / preempt / reissue / fault / requeue → quorum →
//	complete | fail
//
// Components record the stages they own: GSBL validates, the
// meta-scheduler submits/estimates/places/dispatches, requeues after
// resource death, and owns the terminal stages, the LRMs record run
// and preempt, the BOINC server records reissue and quorum, and the
// fault injector records fault.
type Stage string

const (
	StageSubmit   Stage = "submit"
	StageValidate Stage = "validate"
	StageEstimate Stage = "estimate"
	StagePlace    Stage = "place"
	StageDispatch Stage = "dispatch"
	StageRun      Stage = "run"
	StagePreempt  Stage = "preempt"
	StageReissue  Stage = "reissue"
	StageFault    Stage = "fault"
	StageRequeue  Stage = "requeue"
	StageQuorum   Stage = "quorum"
	StageComplete Stage = "complete"
	StageFail     Stage = "fail"
)

// Workflow-level stages, recorded by internal/dag with the workflow
// run ID in the Batch field and the stage ID (not a grid job ID) in
// the Job field. None of them is terminal in the job-conservation
// sense: a workflow stage expands into grid jobs that carry their own
// submit→terminal lifecycles.
const (
	StageWfSubmit    Stage = "wf-submit"
	StageWfReady     Stage = "wf-ready"
	StageWfDispatch  Stage = "wf-dispatch"
	StageWfStageDone Stage = "wf-stage-done"
	StageWfStageFail Stage = "wf-stage-fail"
	StageWfRetry     Stage = "wf-retry"
	StageWfSkip      Stage = "wf-skip"
	StageWfComplete  Stage = "wf-complete"
	StageWfFail      Stage = "wf-fail"
)

// Above-job-level robustness stages, recorded by the admission layer
// and the meta-scheduler.
const (
	// StageShed records a submission rejected by the admission layer
	// (per-user quota or load shed) before any batch or grid job
	// existed. It is journaled with empty Batch and Job fields and the
	// shed reason plus computed retry-after in Detail. At the
	// *submission* level it is terminal: with admission control on,
	// every submission ends in exactly one of completed, failed, or
	// shed (the first two accounted through its batch's jobs, the
	// last here). Job-level TerminalCounts is unaffected because a
	// shed submission never expanded into jobs.
	StageShed Stage = "wf-shed"
	// StageBreaker records a per-resource circuit-breaker transition
	// (open, half-open probe, reopened, closed) in the meta-scheduler,
	// with the resource name in the Resource field and no batch or
	// job.
	StageBreaker Stage = "breaker"
)

// Terminal reports whether the stage ends a job's lifecycle. StageShed
// is deliberately excluded: it is terminal for a *submission*, not a
// job — the job-conservation invariant (every submitted job reaches
// exactly one of complete|fail) only covers work that entered the
// grid, while shed submissions are accounted by the submission-level
// invariant submissions == batches + sheds.
func (s Stage) Terminal() bool { return s == StageComplete || s == StageFail }

// Event is one journal entry. At is virtual time.
type Event struct {
	At       sim.Time `json:"at"`
	Batch    string   `json:"batch,omitempty"`
	Job      string   `json:"job,omitempty"`
	Stage    Stage    `json:"stage"`
	Resource string   `json:"resource,omitempty"`
	Detail   string   `json:"detail,omitempty"`
}

// Journal is an append-only record of lifecycle events with a running
// digest. Events are stamped with virtual time at Record, so the
// journal of a fixed-seed simulation is identical run to run — the
// digest turns that into a one-line assertion.
//
// Events live in chunks whose capacity is fixed when they are opened:
// firstChunk events, doubling per chunk up to maxChunk. Record appends
// into the last chunk and opens a new one when it is full, so a stored
// event is never copied or written again. Readers take mu only to
// snapshot the chunk headers (see view) and fold outside the lock, so a
// /trace request against a long journal does not stall Record.
type Journal struct {
	mu       sync.Mutex
	clock    sim.Clock
	hash     hash.Hash
	scratch  []byte // framing buffer reused by every Record
	chunks   [][]Event
	n        int // events in all chunks
	observer func(ev Event, n int, digest hash.Hash)
}

// Chunk capacities, in events: 64 events (5.5 kB) for a journal that
// stays small, 4 096 (360 kB) once it is long.
const (
	firstChunk = 64
	maxChunk   = 4096
)

// NewJournal creates an empty journal on the given virtual clock.
func NewJournal(clock sim.Clock) *Journal {
	return &Journal{clock: clock, hash: sha256.New(), scratch: make([]byte, 0, eventScratchCap)}
}

// SetObserver installs a callback invoked synchronously for every
// recorded event, after it is hashed: n is the journal's length with ev
// in it and digest the running SHA-256 over those n events, which fn
// may Sum but must never Write. The callback runs under the journal
// lock — it must not call back into the journal. The durability layer
// uses this to checkpoint the journal's digest into the write-ahead
// log.
func (j *Journal) SetObserver(fn func(ev Event, n int, digest hash.Hash)) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.observer = fn
}

// Record appends one event stamped with the current virtual time.
func (j *Journal) Record(batch, job string, stage Stage, resource, detail string) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	ev := Event{At: j.clock.Now(), Batch: batch, Job: job, Stage: stage, Resource: resource, Detail: detail}
	last := len(j.chunks) - 1
	if last < 0 || len(j.chunks[last]) == cap(j.chunks[last]) {
		size := firstChunk
		if last >= 0 {
			size = min(2*cap(j.chunks[last]), maxChunk)
		}
		j.chunks = append(j.chunks, make([]Event, 0, size))
		last++
	}
	j.chunks[last] = append(j.chunks[last], ev)
	j.n++
	j.scratch = hashEvent(j.hash, j.scratch, ev)
	if j.observer != nil {
		j.observer(ev, j.n, j.hash) //lint:allow lockorder -- the observer checkpoints the digest into the WAL: it must see the hash at exactly this event, which only mu guarantees
	}
}

// eventScratchCap is the framing buffer's starting capacity: a typical
// event frames to under 100 bytes, and AppendEvent grows the buffer
// once for the rare long Detail.
const eventScratchCap = 256

// AppendEvent appends one event to dst in the journal's canonical
// framing — fields separated by unit separators, events by newlines,
// the timestamp in shortest round-trip float form — and returns the
// extended slice. Every journal digest is SHA-256 over this framing.
func AppendEvent(dst []byte, ev Event) []byte {
	dst = appendFloat(dst, float64(ev.At))
	dst = append(append(dst, 0x1f), ev.Batch...)
	dst = append(append(dst, 0x1f), ev.Job...)
	dst = append(append(dst, 0x1f), ev.Stage...)
	dst = append(append(dst, 0x1f), ev.Resource...)
	dst = append(append(dst, 0x1f), ev.Detail...)
	return append(dst, '\n')
}

// hashEvent streams one framed event into h with a single Write,
// framing it in scratch (overwritten; pass the returned slice back in
// to reuse its capacity).
func hashEvent(h hash.Hash, scratch []byte, ev Event) []byte {
	scratch = AppendEvent(scratch[:0], ev)
	h.Write(scratch) //lint:allow errdrop -- hash.Hash documents that Write never errors
	return scratch
}

// view is a reader's snapshot of the journal's first n events: the
// headers of the full chunks and a copy of the last chunk's header.
// Taking it holds mu for O(1); walking it needs no lock, because Record
// never writes a stored event again — it writes only past the copied
// tail's length, and only the last chunk's header, which the view does
// not alias.
type view struct {
	sealed [][]Event
	tail   []Event
	n      int
}

func (j *Journal) view() view {
	j.mu.Lock()
	defer j.mu.Unlock()
	last := len(j.chunks) - 1
	if last < 0 {
		return view{}
	}
	return view{sealed: j.chunks[:last:last], tail: j.chunks[last], n: j.n}
}

// each calls fn with the view's first n events (n ≤ v.n), one chunk at
// a time, in append order.
func (v view) each(n int, fn func([]Event)) {
	for i := 0; i <= len(v.sealed) && n > 0; i++ {
		c := v.tail
		if i < len(v.sealed) {
			c = v.sealed[i]
		}
		c = c[:min(n, len(c))]
		fn(c)
		n -= len(c)
	}
}

// Len reports the number of recorded events.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	return j.view().n
}

// Events returns a copy of the journal in append order.
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	v := j.view()
	if v.n == 0 {
		return nil
	}
	out := make([]Event, 0, v.n)
	v.each(v.n, func(c []Event) { out = append(out, c...) })
	return out
}

// Digest returns the hex SHA-256 over every event recorded so far.
// Two runs of the same seeded simulation must agree on it.
func (j *Journal) Digest() string {
	if j == nil {
		return ""
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return hex.EncodeToString(j.hash.Sum(nil))
}

// TerminalCounts returns, for every job whose lifecycle the journal
// saw begin (a submit event with a job ID), how many terminal
// (complete/fail) events it recorded. Conservation means every
// submitted job maps to exactly 1. Jobs that only appear in local
// events — e.g. reference-cluster retraining forks submitted below the
// grid level — are excluded: the journal never saw them submitted, so
// it cannot owe them a terminal state.
func (j *Journal) TerminalCounts() map[string]int {
	if j == nil {
		return nil
	}
	v := j.view()
	out := make(map[string]int)
	v.each(v.n, func(c []Event) {
		for i := range c {
			ev := &c[i]
			if ev.Job == "" {
				continue
			}
			if ev.Stage == StageSubmit {
				if _, seen := out[ev.Job]; !seen {
					out[ev.Job] = 0
				}
			}
			if _, seen := out[ev.Job]; seen && ev.Stage.Terminal() {
				out[ev.Job]++
			}
		}
	})
	return out
}

// Attr is a span annotation (re-exported label shape for JSON).
type Attr = Label

// SpanView is the JSON shape of one span, served by the portal's
// /trace/{batch} endpoint. Times are virtual seconds.
type SpanView struct {
	ID       uint64  `json:"id"`
	Parent   uint64  `json:"parent,omitempty"`
	Job      string  `json:"job,omitempty"`
	Name     string  `json:"name"`
	Start    float64 `json:"start"`
	End      float64 `json:"end"`
	InFlight bool    `json:"inFlight,omitempty"`
	Attrs    []Attr  `json:"attrs,omitempty"`
}

// Trace folds the journal into one batch's span tree: a "batch" root
// from the batch's first job-lifecycle event to the terminal event that
// left none of its submitted jobs open, then one "job" span per submit
// event in submit order, closed by the job's terminal event and
// carrying one resource attribute per placement. Spans are numbered
// within the batch, root 1. ok is false when the journal holds no
// job-lifecycle event for the ID — workflow-level (wf-*) events, which
// file a run ID under Batch, do not make a trace. One linear scan of a
// snapshot, outside the journal lock: the price of an endpoint nothing
// polls, paid by the reader instead of by every submission, and never
// by Record waiting on it.
func (j *Journal) Trace(batch string) (spans []SpanView, ok bool) {
	if j == nil || batch == "" {
		return nil, false
	}
	v := j.view()
	byJob := make(map[string]int) // job ID → index in spans
	open, lastEnd := 0, 0.0
	v.each(v.n, func(c []Event) {
		for k := range c {
			ev := &c[k]
			if ev.Batch != batch || strings.HasPrefix(string(ev.Stage), "wf-") {
				continue
			}
			if spans == nil {
				spans = append(spans, SpanView{ID: 1, Name: "batch", Start: float64(ev.At), InFlight: true})
			}
			i, seen := byJob[ev.Job]
			switch {
			case ev.Stage == StageSubmit && !seen && ev.Job != "":
				byJob[ev.Job] = len(spans)
				spans = append(spans, SpanView{
					ID: uint64(len(spans) + 1), Parent: 1, Job: ev.Job, Name: "job",
					Start: float64(ev.At), InFlight: true,
				})
				open++
			case ev.Stage == StagePlace && seen:
				spans[i].Attrs = append(spans[i].Attrs, Attr{Key: "resource", Value: ev.Resource})
			case ev.Stage.Terminal() && seen && spans[i].InFlight:
				spans[i].End, spans[i].InFlight = float64(ev.At), false
				open--
				lastEnd = spans[i].End
			}
		}
	})
	if len(spans) > 1 && open == 0 {
		spans[0].End, spans[0].InFlight = lastEnd, false
	}
	return spans, spans != nil
}
