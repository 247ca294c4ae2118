package gsbl

import (
	"archive/zip"
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"strconv"

	"lattice/internal/admit"
	"lattice/internal/metasched"
	"lattice/internal/obs"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

// BatchStatus summarizes a batch's progress.
type BatchStatus struct {
	ID        string
	Total     int
	Completed int
	Failed    int
	Pending   int
	Running   int
	Done      bool
	CreatedAt sim.Time
	DoneAt    sim.Time
}

// Batch tracks one portal submission through the grid.
type Batch struct {
	ID         string
	Submission workload.Submission
	// Origin labels the path the submission arrived through: "service",
	// "portal", "core", or "<run>/<stage>" for a workflow stage batch.
	Origin    string
	Jobs      []*metasched.GridJob
	CreatedAt sim.Time
	DoneAt    sim.Time
	done      bool
	// settled jobs — Jobs[:settled] — are terminal and tallied in
	// completed/failed; jobDone advances the prefix, so telling whether
	// the batch is over costs O(1) amortized per job rather than a walk
	// of the batch.
	settled, completed, failed int
	// onDone fires once when the batch reaches its terminal state;
	// the workflow engine uses it to advance the stage graph.
	onDone func(BatchStatus)
}

// Service is the grid-services facade: it validates submissions,
// expands them into grid jobs via the meta-scheduler, tracks batches,
// notifies users, and packages results.
type Service struct {
	eng     *sim.Engine
	sched   *metasched.Scheduler
	mailer  *Mailer
	rng     *sim.RNG
	batches map[string]*Batch
	nextID  int
	// From Options.
	idPrefix string
	obs      *obs.Obs
	durable  Durability

	// Serialized front-door state (see ingest.go).
	ingest         IngestConfig
	ingestFree     sim.Time
	ingestDepth    int
	ingestErrs     []error
	ingestInsCache *ingestIns

	// Admission-control state (see admitpath.go). admit nil means the
	// overload-protection layer is off and the ingest queue is FIFO.
	admit          *admit.Controller
	admitServing   bool
	admitBusyUntil sim.Time
	shedQuota      int
	shedOverload   int
}

// Durability is the write-ahead-log hook for submissions entering the
// coordinator. The submission is recorded after validation and before
// any scheduling side effect, so a recovered run can re-inject it and
// regenerate everything downstream. queued marks an *enqueue* behind
// the front door: recovery re-enqueues it and re-execution regenerates
// the drain-time scheduling.
type Durability interface {
	Submission(at sim.Time, origin string, queued bool, sub workload.Submission)
}

// Options is everything about a Service that is fixed at construction;
// the zero value is a synchronous, unobserved, non-durable facade.
type Options struct {
	// Obs makes validation a journal event, the first one of the
	// batch's trace.
	Obs *obs.Obs
	// IDPrefix qualifies batch IDs ("shard0-batch-000001") so a cluster
	// front router can attribute an ID to its coordinator shard.
	IDPrefix string
	// Ingest is the front-door throughput model (see ingest.go).
	Ingest IngestConfig
	// Admit, when enabled, puts admission control in front of the ingest
	// queue (see admitpath.go); it requires Ingest.
	Admit admit.Config
	// Durable is the write-ahead-log hook; nil disables it.
	Durable Durability
}

// NewService wires the facade.
func NewService(eng *sim.Engine, sched *metasched.Scheduler, mailer *Mailer, rng *sim.RNG, opts Options) (*Service, error) {
	s := &Service{
		eng:      eng,
		sched:    sched,
		mailer:   mailer,
		rng:      rng,
		batches:  make(map[string]*Batch),
		idPrefix: opts.IDPrefix,
		obs:      opts.Obs,
		durable:  opts.Durable,
		ingest:   opts.Ingest,
	}
	if opts.Admit.Enabled() {
		// The ingest cost function prices each submission's front-door
		// occupancy, which is the currency the fair-share queue and the
		// wait budget meter.
		if !opts.Ingest.Enabled() {
			return nil, fmt.Errorf("gsbl: admission control requires the ingest model")
		}
		ctl, err := admit.NewController(opts.Admit)
		if err != nil {
			return nil, err
		}
		s.admit = ctl
	}
	return s, nil
}

// Request is one submission offered to the service.
type Request struct {
	Sub workload.Submission
	// Origin labels the path the submission arrived through: "service",
	// "portal", "core" ("shard<k>/core" under a cluster), or
	// "<run>/<stage>" for a workflow stage. The durable record carries
	// it, and it is what a cluster routes and core's reference fork
	// key on.
	Origin string
	// Direct expands the submission on the spot even when a front door
	// is modelled; otherwise it queues behind the door (a service
	// without one expands every request on the spot).
	Direct bool
	// OnDone, when set, marks a batch derived from an input the
	// durability layer already witnessed — a workflow stage. It is
	// deliberately not recorded as a WAL input (recovery re-injects the
	// workflow and re-execution regenerates every stage submission;
	// recording both would double-inject), its validate event names the
	// origin, and OnDone fires once when the batch is terminal.
	OnDone func(BatchStatus)
	// OnAccepted, when set, fires once with the created batch, the
	// deferred scheduling error, or the *admit.Rejection that shed the
	// request: before Submit returns when the outcome is known by then,
	// otherwise from the engine event that drains or sheds it.
	OnAccepted func(*Batch, error)
}

// Submit is the one way a submission becomes a batch. It runs the GARLI
// validation pre-pass applied "before any jobs are scheduled … to
// ensure there are no problems with the data files and parameters
// specified", writes the one durable record — exactly as the input
// arrived, before BatchTag assignment mutates it and before the
// admission decision, so a shed submission replays and
// deterministically re-sheds — and then either expands the submission
// or queues it behind the front door. The batch is nil when the
// request was queued or shed, neither of which is an error: Submit
// fails on a rejected input, or when expanding on the spot fails.
func (s *Service) Submit(r Request) (*Batch, error) {
	if err := r.Sub.Validate(); err != nil {
		return nil, err
	}
	queued := !r.Direct && s.ingest.Enabled()
	if s.durable != nil && r.OnDone == nil {
		s.durable.Submission(s.eng.Now(), r.Origin, queued, r.Sub)
	}
	if queued {
		s.enqueue(r)
		return nil, nil
	}
	detail := fmt.Sprintf("%d replicates for %s", r.Sub.Replicates, r.Sub.UserEmail)
	if r.OnDone != nil {
		detail += " via " + r.Origin
	}
	b, err := s.submit(r.Sub, r.Origin, detail, r.OnDone)
	if err != nil {
		return nil, err
	}
	if r.OnAccepted != nil {
		r.OnAccepted(b, nil)
	}
	return b, nil
}

// submit is the shared accept path: batch bookkeeping, validation
// journal event, scheduler expansion, submission mail.
func (s *Service) submit(sub workload.Submission, origin, validateDetail string, onDone func(BatchStatus)) (*Batch, error) {
	s.nextID++
	b := &Batch{
		ID:         fmt.Sprintf("%sbatch-%06d", s.idPrefix, s.nextID),
		Submission: sub,
		Origin:     origin,
		CreatedAt:  s.eng.Now(),
		onDone:     onDone,
	}
	// Journal the validation pre-pass (batch-level event, no job ID).
	s.obs.Record(b.ID, "", obs.StageValidate, "", validateDetail)
	sub.BatchTag = b.ID
	jobs, err := s.sched.SubmitBatch(&sub, s.rng, func(j *metasched.GridJob) { s.jobDone(b, j) })
	if err != nil {
		return nil, err
	}
	b.Jobs = jobs
	s.batches[b.ID] = b
	s.mailer.Send(s.eng.Now(), sub.UserEmail,
		fmt.Sprintf("[Lattice] %s submitted", b.ID),
		fmt.Sprintf("Your submission of %d replicates was accepted as %s (%d grid jobs).",
			sub.Replicates, b.ID, len(jobs)))
	return b, nil
}

// RunStage implements the workflow engine's Runner contract
// (internal/dag): a ready stage becomes an ordinary derived batch
// whose origin names the workflow run and stage, and the stage
// advances when the batch is terminal.
func (s *Service) RunStage(runID, stageID string, sub workload.Submission, done func(completed, failed int)) (string, error) {
	b, err := s.Submit(Request{Sub: sub, Origin: runID + "/" + stageID, Direct: true,
		OnDone: func(st BatchStatus) { done(st.Completed, st.Failed) }})
	if err != nil {
		return "", err
	}
	return b.ID, nil
}

// jobDone handles a terminal job state and fires batch-level events.
func (s *Service) jobDone(b *Batch, j *metasched.GridJob) {
	if j.Status == metasched.StatusFailed {
		s.mailer.Send(s.eng.Now(), b.Submission.UserEmail,
			fmt.Sprintf("[Lattice] job failure in %s", b.ID),
			fmt.Sprintf("Job %s failed: %s", j.Desc.JobID, j.FailReason))
	}
	if b.done || !b.settle() {
		return
	}
	st := BatchStatus{ID: b.ID, Total: len(b.Jobs), Completed: b.completed, Failed: b.failed,
		Done: true, CreatedAt: b.CreatedAt}
	b.done = true
	b.DoneAt = s.eng.Now()
	s.mailer.Send(s.eng.Now(), b.Submission.UserEmail,
		fmt.Sprintf("[Lattice] %s complete", b.ID),
		fmt.Sprintf("All %d jobs finished (%d completed, %d failed). Results are ready for download.",
			st.Total, st.Completed, st.Failed))
	if b.onDone != nil {
		b.onDone(st)
	}
}

// settle advances the settled prefix over every job that has reached a
// terminal state — including one cancelled through the scheduler, which
// ends without a jobDone call — and reports whether that is all of them.
func (b *Batch) settle() bool {
	for ; b.settled < len(b.Jobs); b.settled++ {
		switch b.Jobs[b.settled].Status {
		case metasched.StatusCompleted:
			b.completed++
		case metasched.StatusFailed:
			b.failed++
		default:
			return false
		}
	}
	return true
}

// Batch returns a batch by ID.
func (s *Service) Batch(id string) (*Batch, bool) {
	b, ok := s.batches[id]
	return b, ok
}

// Batches lists batch IDs in creation order.
func (s *Service) Batches() []string {
	ids := make([]string, 0, len(s.batches))
	for id := range s.batches {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Status reports batch progress.
func (s *Service) Status(id string) (BatchStatus, error) {
	b, ok := s.batches[id]
	if !ok {
		return BatchStatus{}, fmt.Errorf("gsbl: unknown batch %s", id)
	}
	return s.status(b), nil
}

func (s *Service) status(b *Batch) BatchStatus {
	st := BatchStatus{ID: b.ID, Total: len(b.Jobs), CreatedAt: b.CreatedAt, DoneAt: b.DoneAt}
	for _, j := range b.Jobs {
		switch j.Status {
		case metasched.StatusCompleted:
			st.Completed++
		case metasched.StatusFailed:
			st.Failed++
		case metasched.StatusRunning:
			st.Running++
		default:
			st.Pending++
		}
	}
	st.Done = st.Completed+st.Failed == st.Total
	return st
}

// CancelBatch cancels every non-terminal job of a batch.
//
//lint:allow deadexport -- DESIGN.md lists cancel in the job lifecycle (submit/status/cancel/results); a user cancels, the simulation never does
func (s *Service) CancelBatch(id string) error {
	b, ok := s.batches[id]
	if !ok {
		return fmt.Errorf("gsbl: unknown batch %s", id)
	}
	for _, j := range b.Jobs {
		s.sched.Cancel(j.Desc.JobID)
	}
	return nil
}

// ResultsZip packages a finished batch's outputs into one zip archive,
// the post-processing step the portal serves for download. Each job
// contributes its result files; a batch-level summary is included.
func (s *Service) ResultsZip(id string) ([]byte, error) {
	b, ok := s.batches[id]
	if !ok {
		return nil, fmt.Errorf("gsbl: unknown batch %s", id)
	}
	st := s.status(b)
	if !st.Done {
		return nil, fmt.Errorf("gsbl: batch %s still has %d jobs outstanding", id, st.Pending+st.Running)
	}
	var out bytes.Buffer
	out.Grow(len(b.Jobs)*zipBytesPerJob + 1024)
	z := zipWriter{
		zw:   zip.NewWriter(&out),
		hdrs: make([]zip.FileHeader, 0, 2*st.Completed+st.Failed+1),
	}
	var body []byte // every entry is rendered here, then copied out by add
	for _, j := range b.Jobs {
		name := j.Desc.JobID
		if j.Status != metasched.StatusCompleted {
			body = append(append(body[:0], j.FailReason...), '\n')
			if err := z.add(name, ".FAILED", body); err != nil {
				return nil, err
			}
			continue
		}
		body = append(append(body[:0], "# best tree for "...), name...)
		body = strconv.AppendInt(append(body, " (searchreps="...), int64(j.Spec.SearchReps), 10)
		body = append(append(append(body, ") from resource "...), j.Resource...), '\n')
		if err := z.add(name, ".best.tre", body); err != nil {
			return nil, err
		}
		body = append(append(body[:0], "job "...), name...)
		body = append(append(body, "\nresource "...), j.Resource...)
		body = strconv.AppendInt(append(body, "\nattempts "...), int64(j.Attempts), 10)
		body = appendSeconds(append(body, "\nwall_seconds "...), float64(j.CompletedAt.Sub(j.StartedAt)))
		body = append(body, '\n')
		if err := z.add(name, ".screen.log", body); err != nil {
			return nil, err
		}
	}
	body = append(append(body[:0], "batch: "...), b.ID...)
	body = strconv.AppendInt(append(body, "\nreplicates: "...), int64(b.Submission.Replicates), 10)
	body = strconv.AppendInt(append(body, "\njobs: "...), int64(st.Total), 10)
	body = strconv.AppendInt(append(body, "\ncompleted: "...), int64(st.Completed), 10)
	body = strconv.AppendInt(append(body, "\nfailed: "...), int64(st.Failed), 10)
	body = appendSeconds(append(body, "\nsubmitted_at: "...), float64(b.CreatedAt))
	body = appendSeconds(append(body, "\nfinished_at: "...), float64(b.DoneAt))
	body = append(body, '\n')
	if err := z.add("batch_summary.txt", "", body); err != nil {
		return nil, err
	}
	if err := z.zw.Close(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// appendSeconds appends v as fmt's %.0f would print it.
func appendSeconds(dst []byte, v float64) []byte {
	return strconv.AppendFloat(dst, v, 'f', 0, 64)
}

const (
	// storeBelow is the body length under which an archive entry is
	// stored instead of deflated. Measured on these text bodies (job
	// stubs, and log- and Newick-shaped text grown line by line):
	// level-5 deflate plus the 16-byte data descriptor a streamed entry
	// carries comes out larger than the input up to about 130 bytes
	// (89 -> 106, 131 -> 128, 143 -> 141) and smaller from there on
	// (262 -> 178, 1 kB -> ~350), so short stubs are cheaper stored —
	// in archive bytes as well as in the 640 kB of compressor state a
	// deflated entry resets — and kB-sized GARLI trees and logs still
	// compress.
	storeBelow = 128
	// zipBytesPerJob pre-sizes the archive for stub-sized outputs: a
	// completed job's two entries cost two 30-byte local headers, two
	// 46-byte directory records, its ~35-byte ID six times and ~130
	// bytes of fixed text. Larger outputs grow the buffer as usual.
	zipBytesPerJob = 544
	// zipVersion20 is the "version needed to extract" archive/zip
	// itself stamps on every entry it creates.
	zipVersion20 = 20
)

// zipWriter is ResultsZip's single entry writer.
type zipWriter struct {
	zw *zip.Writer
	// hdrs backs every entry's header (zw keeps a pointer to each until
	// Close), sized up front so entries share one allocation.
	hdrs []zip.FileHeader
}

// add writes one entry, name+suffix, holding body: stored when the body
// is shorter than storeBelow, deflated otherwise. The rule reads only
// the body's length. A stored entry's CRC and sizes are known up
// front, so it goes in raw: no compressor, no hash state, no trailing
// data descriptor.
func (z *zipWriter) add(name, suffix string, body []byte) error {
	z.hdrs = append(z.hdrs, zip.FileHeader{Name: name + suffix, Method: zip.Deflate})
	fh := &z.hdrs[len(z.hdrs)-1]
	var (
		w   io.Writer
		err error
	)
	if len(body) < storeBelow {
		fh.Method = zip.Store
		fh.CreatorVersion, fh.ReaderVersion = zipVersion20, zipVersion20
		fh.CRC32 = crc32.ChecksumIEEE(body)
		fh.CompressedSize64 = uint64(len(body))
		fh.UncompressedSize64 = uint64(len(body))
		w, err = z.zw.CreateRaw(fh)
	} else {
		w, err = z.zw.CreateHeader(fh)
	}
	if err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}
