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
	// idPrefix qualifies batch IDs ("shard0-batch-000001") so a
	// cluster front router can attribute an ID to its coordinator
	// shard; empty for single-coordinator deployments.
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
// regenerate everything downstream. QueuedSubmission is the same
// contract for the serialized ingest path: the record marks an
// *enqueue* — recovery re-enqueues it and re-execution regenerates
// the drain-time scheduling.
type Durability interface {
	Submission(at sim.Time, origin string, sub workload.Submission)
	QueuedSubmission(at sim.Time, origin string, sub workload.Submission)
}

// SetDurable installs the durability hook (nil disables it).
func (s *Service) SetDurable(d Durability) { s.durable = d }

// SetIDPrefix qualifies every subsequently created batch ID with a
// prefix. Call before the first submission; existing IDs are not
// rewritten.
func (s *Service) SetIDPrefix(p string) { s.idPrefix = p }

// SetObs wires the facade to an observability hub: validation becomes
// a journal event and each batch gets a root trace span covering
// submission to last terminal job.
func (s *Service) SetObs(o *obs.Obs) { s.obs = o }

// NewService wires the facade.
func NewService(eng *sim.Engine, sched *metasched.Scheduler, mailer *Mailer, rng *sim.RNG) *Service {
	return &Service{
		eng:     eng,
		sched:   sched,
		mailer:  mailer,
		rng:     rng,
		batches: make(map[string]*Batch),
	}
}

// Validate runs the GARLI validation pre-pass applied "before any jobs
// are scheduled … to ensure there are no problems with the data files
// and parameters specified".
func (s *Service) Validate(sub *workload.Submission) error {
	return sub.Validate()
}

// SubmitBatch validates and schedules a submission. On completion of
// every replicate the user is emailed and results become downloadable.
func (s *Service) SubmitBatch(sub workload.Submission) (*Batch, error) {
	return s.SubmitBatchOrigin(sub, "service")
}

// SubmitBatchOrigin is SubmitBatch with an explicit origin label
// ("service", "portal", "core") naming the path the submission
// arrived through. The durability layer records the label so recovery
// can re-inject each submission through the same path — paths differ
// in bookkeeping (portal ownership) and RNG side effects (core's
// reference fork).
func (s *Service) SubmitBatchOrigin(sub workload.Submission, origin string) (*Batch, error) {
	if err := s.Validate(&sub); err != nil {
		return nil, err
	}
	if s.durable != nil {
		// Record the input exactly as it arrived (before BatchTag
		// assignment mutates it).
		s.durable.Submission(s.eng.Now(), origin, sub)
	}
	return s.submit(sub, origin,
		fmt.Sprintf("%d replicates for %s", sub.Replicates, sub.UserEmail), nil)
}

// SubmitBatchDerived schedules a submission derived from an input the
// durability layer already witnessed — a workflow stage batch. It is
// deliberately *not* recorded as a WAL input: crash recovery
// re-injects the workflow itself, and deterministic re-execution
// regenerates every stage submission; recording both would
// double-inject on replay. The origin labels the deriving context
// ("<run>/<stage>") through the journal, and onDone fires once when
// the batch reaches its terminal state.
func (s *Service) SubmitBatchDerived(sub workload.Submission, origin string, onDone func(BatchStatus)) (*Batch, error) {
	if err := s.Validate(&sub); err != nil {
		return nil, err
	}
	return s.submit(sub, origin,
		fmt.Sprintf("%d replicates for %s via %s", sub.Replicates, sub.UserEmail, origin), onDone)
}

// submit is the shared accept path: batch bookkeeping, trace root,
// validation journal event, scheduler expansion, submission mail.
func (s *Service) submit(sub workload.Submission, origin, validateDetail string, onDone func(BatchStatus)) (*Batch, error) {
	s.nextID++
	b := &Batch{
		ID:         fmt.Sprintf("%sbatch-%06d", s.idPrefix, s.nextID),
		Submission: sub,
		Origin:     origin,
		CreatedAt:  s.eng.Now(),
		onDone:     onDone,
	}
	// Root the batch's trace before any job span, and journal the
	// validation pre-pass (batch-level event, no job ID).
	s.obs.Root(b.ID)
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
	b, err := s.SubmitBatchDerived(sub, runID+"/"+stageID, func(st BatchStatus) {
		done(st.Completed, st.Failed)
	})
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
	st := s.status(b)
	if st.Done && !b.done {
		b.done = true
		b.DoneAt = s.eng.Now()
		s.obs.Root(b.ID).End()
		s.mailer.Send(s.eng.Now(), b.Submission.UserEmail,
			fmt.Sprintf("[Lattice] %s complete", b.ID),
			fmt.Sprintf("All %d jobs finished (%d completed, %d failed). Results are ready for download.",
				st.Total, st.Completed, st.Failed))
		if b.onDone != nil {
			b.onDone(st)
		}
	}
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
