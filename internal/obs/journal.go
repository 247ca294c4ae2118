package obs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"math"
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
// An event is stored as an entry: its time and one names-table ref per
// string field, no pointer, so the collector never scans the events.
// Entries live in chunks whose capacity is fixed when they are opened:
// firstChunk entries, doubling per chunk up to maxChunk. Record appends
// into the last chunk and opens a new one when it is full, so a stored
// entry is never copied or written again. The names table is the same
// shape: fixed-length chunks of strings, written once, never moved.
// Readers take mu only to snapshot the chunk headers (see view) and
// fold outside the lock, so a /trace request against a long journal
// does not stall Record.
type Journal struct {
	mu       sync.Mutex
	clock    sim.Clock
	hash     hash.Hash
	scratch  []byte // framing buffer reused by every Record
	atBits   uint64 // the last framed At, whose framing starts scratch
	atLen    int    // length of that framing; 0 before the first Record
	chunks   [][]entry
	n        int        // events in all chunks
	names    [][]string // names-table chunks, each made at its full length
	nameN    int        // rows used in the last names chunk
	cache    [cacheSlots]cachedName
	observer func(ev Event, n int, digest hash.Hash)
}

// entry is one stored event: its time and a names-table ref per field.
type entry struct {
	at                                  sim.Time
	batch, job, stage, resource, detail uint32
}

// A names-table ref is chunk<<nameShift | row. Chunks hold at most
// maxChunk rows, so the row fits below the shift, and 2^20 chunks of
// 4 096 strings are 64 GB of string headers: the table cannot run out
// of refs before the process runs out of memory. Ref 0 is the first
// row of the first chunk, which holds "".
const nameShift = 12

// cacheSlots is the size of the direct-mapped cache from a string to
// the ref of its last row. Callers hand Record the same slab-cut
// strings again and again, so a hit is usually a pointer compare; a
// miss appends the string again, so one name can have several refs,
// and readers compare names, never refs.
const (
	cacheBits  = 10
	cacheSlots = 1 << cacheBits
)

type cachedName struct {
	s   string
	ref uint32
}

// Chunk capacities, in events and in names: 64 (2 kB of entries) for a
// journal that stays small, 4 096 (128 kB) once it is long.
const (
	firstChunk = 64
	maxChunk   = 1 << nameShift
)

// NewJournal creates an empty journal on the given virtual clock.
func NewJournal(clock sim.Clock) *Journal {
	return &Journal{
		clock: clock, hash: sha256.New(), scratch: make([]byte, 0, eventScratchCap),
		names: [][]string{make([]string, firstChunk)}, nameN: 1,
	}
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
		j.chunks = append(j.chunks, make([]entry, 0, size))
		last++
	}
	j.chunks[last] = append(j.chunks[last], entry{
		at: ev.At, batch: j.ref(batch), job: j.ref(job), stage: j.ref(string(stage)),
		resource: j.ref(resource), detail: j.ref(detail),
	})
	j.n++
	j.frame(ev)
	j.hash.Write(j.scratch) //lint:allow errdrop -- hash.Hash documents that Write never errors
	if j.observer != nil {
		j.observer(ev, j.n, j.hash) //lint:allow lockorder -- the observer checkpoints the digest into the WAL: it must see the hash at exactly this event, which only mu guarantees
	}
}

// ref returns a names-table ref that reads back as s: the cached ref
// when s's cache slot holds s, otherwise a new row, which the slot then
// holds. Called under mu.
func (j *Journal) ref(s string) uint32 {
	if s == "" {
		return 0
	}
	c := &j.cache[cacheSlot(s)]
	if c.s == s {
		return c.ref
	}
	last := len(j.names) - 1
	if j.nameN == len(j.names[last]) {
		j.names = append(j.names, make([]string, min(2*len(j.names[last]), maxChunk)))
		last++
		j.nameN = 0
	}
	j.names[last][j.nameN] = s
	c.s, c.ref = s, uint32(last)<<nameShift|uint32(j.nameN)
	j.nameN++
	return c.ref
}

// cacheSlot hashes s's length and its last eight bytes, where the IDs
// and details the journal sees differ, to a cache slot.
func cacheSlot(s string) int {
	var tail uint64
	for i := max(len(s)-8, 0); i < len(s); i++ {
		tail = tail<<8 | uint64(s[i])
	}
	return int((tail + uint64(len(s))*0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9 >> (64 - cacheBits))
}

// frame frames ev into j.scratch with AppendEvent. Half of a busy
// journal's events share the previous event's instant, so when At has
// the previous event's bits (bits, not ==: -0 equals 0 and frames
// differently) the framed timestamp at the front of scratch is kept and
// only the fields are appended again.
func (j *Journal) frame(ev Event) {
	bits := math.Float64bits(float64(ev.At))
	if j.atLen > 0 && bits == j.atBits {
		j.scratch = appendFields(j.scratch[:j.atLen], ev)
		return
	}
	j.scratch = AppendEvent(j.scratch[:0], ev)
	j.atBits, j.atLen = bits, bytes.IndexByte(j.scratch, 0x1f) // a framed float holds no 0x1f
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
	return appendFields(appendFloat(dst, float64(ev.At)), ev)
}

// appendFields is AppendEvent after the timestamp.
func appendFields(dst []byte, ev Event) []byte {
	dst = append(append(dst, 0x1f), ev.Batch...)
	dst = append(append(dst, 0x1f), ev.Job...)
	dst = append(append(dst, 0x1f), ev.Stage...)
	dst = append(append(dst, 0x1f), ev.Resource...)
	dst = append(append(dst, 0x1f), ev.Detail...)
	return append(dst, '\n')
}

// view is a reader's snapshot of the journal's first n events: the
// headers of the full chunks, a copy of the last chunk's header and the
// names-table chunk headers. Taking it holds mu for O(1); walking it
// needs no lock, because Record never writes a stored entry or name
// again — it writes only past the copied tail's length, into names
// rows no snapshotted entry refers to, and only the last entry chunk's
// header, which the view does not alias. A names chunk's header is
// never written after it is appended.
type view struct {
	sealed [][]entry
	tail   []entry
	names  [][]string
	n      int
}

func (j *Journal) view() view {
	j.mu.Lock()
	defer j.mu.Unlock()
	last := len(j.chunks) - 1
	if last < 0 {
		return view{}
	}
	k := len(j.names)
	return view{sealed: j.chunks[:last:last], tail: j.chunks[last], names: j.names[:k:k], n: j.n}
}

// name resolves a names-table ref.
func (v view) name(ref uint32) string {
	return v.names[ref>>nameShift][ref&(maxChunk-1)]
}

// event rebuilds a stored entry; its strings alias the ones Record was
// given, so rebuilding allocates nothing.
func (v view) event(e *entry) Event {
	return Event{
		At: e.at, Batch: v.name(e.batch), Job: v.name(e.job), Stage: Stage(v.name(e.stage)),
		Resource: v.name(e.resource), Detail: v.name(e.detail),
	}
}

// each calls fn with the view's first n entries (n ≤ v.n), one chunk at
// a time, in append order.
func (v view) each(n int, fn func([]entry)) {
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

// Each calls fn with every event recorded so far, in append order. It
// folds a snapshot in place, outside the journal lock, rebuilding each
// event from its chunk: it copies nothing, so a fold costs only what fn
// allocates, whatever the journal's length, and fn may record into the
// journal (what it records is past the snapshot).
func (j *Journal) Each(fn func(Event)) {
	if j == nil {
		return
	}
	v := j.view()
	v.each(v.n, func(c []entry) {
		for i := range c {
			fn(v.event(&c[i]))
		}
	})
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
	v.each(v.n, func(c []entry) {
		for i := range c {
			job := v.name(c[i].job)
			if job == "" {
				continue
			}
			stage := Stage(v.name(c[i].stage))
			if stage == StageSubmit {
				if _, seen := out[job]; !seen {
					out[job] = 0
				}
			}
			if _, seen := out[job]; seen && stage.Terminal() {
				out[job]++
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
	v.each(v.n, func(c []entry) {
		for k := range c {
			if v.name(c[k].batch) != batch {
				continue
			}
			ev := v.event(&c[k])
			if strings.HasPrefix(string(ev.Stage), "wf-") {
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
