package gsbl

import (
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strconv"
	"unicode/utf8"

	"lattice/internal/admit"
	"lattice/internal/metasched"
	"lattice/internal/obs"
	"lattice/internal/shard"
	"lattice/internal/sim"
	"lattice/internal/slab"
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

// Batch tracks one portal submission through the grid. It is the one
// record a submission costs: Submit builds it from the Request, and
// until the request is accepted it is the pending request too — its
// scheduled arrival, its place behind the front door and the admit
// queue's payload. Accepting it stamps ID and CreatedAt and expands its
// jobs; a shed request never gets an ID and is dropped.
type Batch struct {
	ID         string
	Submission workload.Submission
	// Origin labels the path the submission arrived through: "service",
	// "portal", "core", or "<run>/<stage>" for a workflow stage batch.
	Origin    string
	Jobs      []*metasched.GridJob
	CreatedAt sim.Time
	DoneAt    sim.Time
	// one backs Jobs for a one-job batch.
	one [1]*metasched.GridJob
	// completed and failed count the jobs JobDone has been told of, so
	// telling whether the batch is over costs O(1) per job rather than
	// a walk of the batch. (int32 keeps the record within the
	// allocator's 288-byte size class, which TestBatchLayout pins; a
	// batch has at most workload.MaxReplicates jobs.)
	completed, failed int32
	// direct and scheduled are the request's Direct and Scheduled;
	// scheduled is cleared when the arrival fires.
	direct, scheduled bool
	// arrived is when the pending request arrives: its Due while it is
	// scheduled, then the instant it went behind the front door.
	arrived sim.Time
	// onDone fires once when the batch reaches its terminal state;
	// the workflow engine uses it to advance the stage graph.
	onDone func(BatchStatus)
	// svc is the service that made the batch, whose clock its end reads.
	svc *Service
}

// Due reports when a scheduled request arrives (Request.Due), while
// that arrival is still pending; ok is false otherwise.
func (b *Batch) Due() (at sim.Time, ok bool) {
	if !b.scheduled {
		return 0, false
	}
	return b.arrived, true
}

// Service is the grid-services facade: it validates submissions,
// expands them into grid jobs via the meta-scheduler, tracks batches,
// notifies users, and packages results.
type Service struct {
	eng   *sim.Engine
	sched *metasched.Scheduler
	rng   *sim.RNG
	// batches holds every accepted batch in creation order: batches[n-1]
	// is batch n.
	batches []*Batch
	// names holds the batch IDs and journal details, which the batch
	// and the journal keep for the service's life; it is guarded as
	// batches is.
	names slab.Slab
	// From Options.
	idPrefix string
	obs      *obs.Obs
	durable  Durability

	// Front-door state and scheduled requests not yet due (see ingest.go).
	arrivals       int
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
// coordinator. The request is recorded after validation and before any
// scheduling side effect, so a recovered run can re-inject it and
// regenerate everything downstream. The hook gets the request's own
// record, b, before any ID is stamped: its Origin, Submission and Due
// are the request's. queued marks an *enqueue* behind the front door:
// recovery re-enqueues it and re-execution regenerates the drain-time
// scheduling. b.Submission never changes, so the hook may keep a
// pointer to it.
type Durability interface {
	Submission(at sim.Time, b *Batch, queued bool)
}

// Options is everything about a Service that is fixed at construction;
// with only Obs set it is a synchronous, non-durable facade.
type Options struct {
	// Obs is the hub whose journal holds the service's validate events
	// and, with the scheduler journaling into the same hub, its jobs'
	// terminals: the events the outbox is folded from (Sent). Required.
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
func NewService(eng *sim.Engine, sched *metasched.Scheduler, rng *sim.RNG, opts Options) (*Service, error) {
	if opts.Obs == nil {
		return nil, fmt.Errorf("gsbl: Options.Obs is required")
	}
	s := &Service{
		eng:      eng,
		sched:    sched,
		rng:      rng,
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
	// Scheduled makes the request arrive at Due instead of now: Submit
	// validates and records it now, and an engine event delivers it at
	// Due (after the events already scheduled for that instant). The
	// delivery is derived from the record, so it is never recorded.
	Scheduled bool
	Due       sim.Time
	// OnDone, when set, marks a batch derived from an input the
	// durability layer already witnessed — a workflow stage. It is
	// deliberately not recorded as a WAL input (recovery re-injects the
	// workflow and re-execution regenerates every stage submission;
	// recording both would double-inject), its validate event names the
	// origin, and OnDone fires once when the batch is terminal.
	OnDone func(BatchStatus)
}

// Submit is the one way a submission becomes a batch. It runs the GARLI
// validation pre-pass applied "before any jobs are scheduled … to
// ensure there are no problems with the data files and parameters
// specified", writes the one durable record — exactly as the input
// arrived, before BatchTag assignment mutates it and before the
// admission decision, so a shed submission replays and
// deterministically re-sheds — and then expands the submission, queues
// it behind the front door, or schedules its arrival. Submit returns
// the batch when it expanded the request on the spot, and (nil, nil)
// when it queued or scheduled it; what happens to a queued request
// later is journaled, not returned. When the admission layer sheds the
// arriving request itself — by quota, or as the overflow victim — the
// error is that decision, an unwrapped *admit.Rejection; otherwise
// Submit fails only on a rejected input. Validation is the one refusal
// point: a request it accepts always expands, on the spot or later.
func (s *Service) Submit(r Request) (*Batch, error) {
	if err := r.Sub.Validate(); err != nil {
		return nil, err
	}
	b := &Batch{Submission: r.Sub, Origin: r.Origin, direct: r.Direct, scheduled: r.Scheduled,
		arrived: r.Due, onDone: r.OnDone, svc: s}
	behind := !r.Direct && s.ingest.Enabled()
	if s.durable != nil && r.OnDone == nil {
		s.durable.Submission(s.eng.Now(), b, behind)
	}
	switch {
	case r.Scheduled:
		s.arrivals++
		s.eng.At(r.Due, (*arrival)(b))
	case behind:
		if rej := s.enqueue(b); rej != nil {
			return nil, rej
		}
	default:
		return s.accept(b), nil
	}
	return nil, nil
}

// accept expands a pending request into its batch — batch bookkeeping,
// the validation journal event (which the submission mail is folded
// from), scheduler expansion. The validate detail names a derived
// batch's origin, and otherwise adds suffix.
func (s *Service) accept(b *Batch, suffix ...string) *Batch {
	if b.onDone != nil {
		suffix = []string{" via ", b.Origin}
	}
	detail := s.validateDetail(&b.Submission, suffix...)
	s.batches = append(s.batches, b)
	b.ID = s.batchID(len(s.batches))
	b.CreatedAt = s.eng.Now()
	// Journal the validation pre-pass (batch-level event, no job ID).
	s.obs.Record(b.ID, "", obs.StageValidate, "", detail)
	sub := b.Submission
	sub.BatchTag = b.ID
	b.Jobs = s.sched.SubmitBatch(&sub, s.rng, b, b.one[:0])
	return b
}

// batchID names batch n: the service's prefix, "batch-" and n padded to
// six digits.
func (s *Service) batchID(n int) string {
	var buf [48]byte
	return s.names.String(shard.AppendID(buf[:0], s.idPrefix, "batch", n))
}

// validateDetail is the validate event's detail: "<n> replicates for
// <email>" and then each of suffix.
func (s *Service) validateDetail(sub *workload.Submission, suffix ...string) string {
	var buf [96]byte
	d := appendSubmission(buf[:0], sub)
	for _, x := range suffix {
		d = append(d, x...)
	}
	return s.names.String(d)
}

// appendSubmission appends "<n> replicates for <email>", the words every
// validate and shed detail names a submission by.
func appendSubmission(dst []byte, sub *workload.Submission) []byte {
	dst = strconv.AppendInt(dst, int64(sub.Replicates), 10)
	return append(append(dst, " replicates for "...), sub.UserEmail...)
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

// JobDone implements metasched.Owner: one of the batch's jobs is
// terminal, which may end the batch. The scheduler reports each job
// exactly once — when it completes, or when it fails for good — so the
// two counters reach len(Jobs) exactly once, at the last job's end.
func (b *Batch) JobDone(j *metasched.GridJob) {
	if j.Status == metasched.StatusFailed {
		b.failed++
	} else {
		b.completed++
	}
	b.finish()
}

// finish ends the batch at the report that makes every job terminal:
// it stamps DoneAt and fires onDone.
func (b *Batch) finish() {
	if int(b.completed+b.failed) != len(b.Jobs) {
		return
	}
	st := BatchStatus{ID: b.ID, Total: len(b.Jobs), Completed: int(b.completed), Failed: int(b.failed),
		Done: true, CreatedAt: b.CreatedAt}
	b.DoneAt = b.svc.eng.Now()
	if b.onDone != nil {
		b.onDone(st)
	}
}

// Batch returns a batch by ID. Only the ID batchID built resolves: any
// other spelling of its number is unknown.
func (s *Service) Batch(id string) (*Batch, bool) {
	if n, ok := shard.IDNumber(id, s.idPrefix, "batch"); ok && n <= len(s.batches) {
		return s.batches[n-1], true
	}
	return nil, false
}

// Batches lists batch IDs in creation order.
func (s *Service) Batches() []string {
	ids := make([]string, 0, len(s.batches))
	for _, b := range s.batches {
		ids = append(ids, b.ID)
	}
	return ids
}

// Status reports batch progress.
func (s *Service) Status(id string) (BatchStatus, error) {
	b, ok := s.Batch(id)
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

// ResultsZip packages a finished batch's outputs into one zip archive,
// the post-processing step the portal serves for download. Each job
// contributes its result files; a batch-level summary is included.
func (s *Service) ResultsZip(id string) ([]byte, error) {
	b, ok := s.Batch(id)
	if !ok {
		return nil, fmt.Errorf("gsbl: unknown batch %s", id)
	}
	st := s.status(b)
	if !st.Done {
		return nil, fmt.Errorf("gsbl: batch %s still has %d jobs outstanding", id, st.Pending+st.Running)
	}
	z := zipWriter{
		buf:  make([]byte, 0, len(b.Jobs)*zipBytesPerJob+1024),
		recs: make([]zipRecord, 0, 2*st.Completed+st.Failed+1),
	}
	var body []byte // every entry is rendered here, then copied out by add
	for _, j := range b.Jobs {
		name := j.ID
		if j.Status != metasched.StatusCompleted {
			body = append(append(body[:0], j.FailReason...), '\n')
			if err := z.add(name, ".FAILED", body); err != nil {
				return nil, err
			}
			continue
		}
		body = append(append(body[:0], "# best tree for "...), name...)
		body = strconv.AppendInt(append(body, " (searchreps="...), int64(j.SearchReps), 10)
		body = append(append(append(body, ") from resource "...), j.Resource()...), '\n')
		if err := z.add(name, ".best.tre", body); err != nil {
			return nil, err
		}
		body = append(append(body[:0], "job "...), name...)
		body = append(append(body, "\nresource "...), j.Resource()...)
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
	return z.close()
}

// appendSeconds appends v as fmt's %.0f would print it.
func appendSeconds(dst []byte, v float64) []byte {
	return strconv.AppendFloat(dst, v, 'f', 0, 64)
}

const (
	// storeBelow is the body length under which an archive entry is
	// stored instead of deflated. Measured on these text bodies (job
	// stubs, and log- and Newick-shaped text grown line by line):
	// level-5 deflate plus the 16-byte data descriptor a deflated entry
	// carries comes out larger than the input up to about 130 bytes
	// (89 -> 106, 131 -> 128, 143 -> 141) and smaller from there on
	// (262 -> 178, 1 kB -> ~350), so short stubs are cheaper stored —
	// in archive bytes as well as in the 640 kB of compressor state a
	// deflated entry resets — and kB-sized GARLI trees and logs still
	// compress.
	storeBelow = 128
	// zipBytesPerJob pre-sizes the one buffer the whole archive is
	// written into, for stub-sized outputs: a completed job's two
	// entries cost two 30-byte local headers, two 46-byte directory
	// records, its ~35-byte ID six times and ~130 bytes of fixed text.
	// Larger outputs grow the buffer as usual.
	zipBytesPerJob = 544

	// zipLocalLen is the fixed part of a local file header (PKWARE
	// APPNOTE 4.3.7); the entry's name follows it.
	zipLocalLen = 30
	// zipMax16 bounds a name's length and the entry count, zipMax32 any
	// size or offset: archive/zip refuses a longer name, and at either
	// count it switches to zip64, which ResultsZip refuses instead.
	zipMax16 = 1<<16 - 1
	zipMax32 = 1<<32 - 1
)

// le writes the zip format's little-endian fields.
var le = binary.LittleEndian

// zipRecord is what the central directory repeats about one entry; the
// name is read back from the entry's local header.
type zipRecord struct {
	offset, crc, compressed, uncompressed uint32
	flags, method, nameLen                uint16
}

// zipWriter is ResultsZip's single entry writer. It writes the zip
// format itself, byte for byte what archive/zip's Writer wrote for the
// same entries (results_test.go keeps that writer as the oracle), into
// one buffer: each entry's local header, name and data, then at close
// the central directory and the end record.
type zipWriter struct {
	buf  []byte
	recs []zipRecord
	// fw is the one deflate compressor, made on the first deflated
	// entry and Reset for each later one.
	fw *flate.Writer
}

// Write appends compressed bytes for fw.
func (z *zipWriter) Write(p []byte) (int, error) {
	z.buf = append(z.buf, p...)
	return len(p), nil
}

// add writes one entry, name+suffix, holding body: stored when the body
// is shorter than storeBelow, deflated otherwise. The rule reads only
// the body's length. A stored entry's CRC and sizes are known up front
// and go in its local header; a deflated entry's follow its data in a
// data descriptor (flag 0x8), as archive/zip streams them. Every '/'
// and '\' in the name is written as '_', so each entry sits at the
// archive root whatever the user's address held.
func (z *zipWriter) add(name, suffix string, body []byte) error {
	n := len(name) + len(suffix)
	if n > zipMax16 {
		return fmt.Errorf("gsbl: archive entry name of %d bytes is over the zip limit", n)
	}
	if uint64(len(body)) >= zipMax32 {
		return fmt.Errorf("gsbl: archive entry %s%s of %d bytes needs zip64", name, suffix, len(body))
	}
	off := len(z.buf)
	z.buf = append(z.buf, make([]byte, zipLocalLen)...)
	z.buf = append(append(z.buf, name...), suffix...)
	entry := z.buf[off+zipLocalLen:]
	for i, c := range entry {
		if c == '/' || c == '\\' {
			entry[i] = '_'
		}
	}
	r := zipRecord{
		offset:       uint32(off),
		crc:          crc32.ChecksumIEEE(body),
		uncompressed: uint32(len(body)),
		nameLen:      uint16(n),
	}
	if len(body) < storeBelow {
		r.compressed = r.uncompressed
		z.buf = append(z.buf, body...)
	} else {
		r.method = 8 // deflate
		r.flags = 0x8
		if needsUTF8Flag(entry) {
			r.flags |= 0x800
		}
		start := len(z.buf)
		if z.fw == nil {
			fw, err := flate.NewWriter(z, 5) // archive/zip's level
			if err != nil {
				return err
			}
			z.fw = fw
		} else {
			z.fw.Reset(z)
		}
		if _, err := z.fw.Write(body); err != nil {
			return err
		}
		if err := z.fw.Close(); err != nil {
			return err
		}
		r.compressed = uint32(len(z.buf) - start)
		z.buf = le.AppendUint32(z.buf, 0x08074b50)
		z.buf = le.AppendUint32(z.buf, r.crc)
		z.buf = le.AppendUint32(z.buf, r.compressed)
		z.buf = le.AppendUint32(z.buf, r.uncompressed)
	}
	h := z.buf[off : off+zipLocalLen]
	le.PutUint32(h, 0x04034b50)
	le.PutUint16(h[4:], 20) // version needed to extract
	le.PutUint16(h[6:], r.flags)
	le.PutUint16(h[8:], r.method)
	// time and date stay 0; so do CRC and sizes of a deflated entry
	if r.method == 0 {
		le.PutUint32(h[14:], r.crc)
		le.PutUint32(h[18:], r.compressed)
		le.PutUint32(h[22:], r.uncompressed)
	}
	le.PutUint16(h[26:], r.nameLen)
	z.recs = append(z.recs, r)
	return nil
}

// close appends the central directory, each record followed by the
// name copied from its local header, and the end record, and returns
// the archive.
func (z *zipWriter) close() ([]byte, error) {
	start := len(z.buf)
	if len(z.recs) >= zipMax16 || uint64(start) >= zipMax32 {
		return nil, fmt.Errorf("gsbl: archive of %d entries and %d bytes needs zip64", len(z.recs), start)
	}
	for _, r := range z.recs {
		z.buf = le.AppendUint32(z.buf, 0x02014b50)
		z.buf = le.AppendUint16(z.buf, 20) // version made by
		z.buf = le.AppendUint16(z.buf, 20) // version needed to extract
		z.buf = le.AppendUint16(z.buf, r.flags)
		z.buf = le.AppendUint16(z.buf, r.method)
		z.buf = le.AppendUint32(z.buf, 0) // time and date
		z.buf = le.AppendUint32(z.buf, r.crc)
		z.buf = le.AppendUint32(z.buf, r.compressed)
		z.buf = le.AppendUint32(z.buf, r.uncompressed)
		z.buf = le.AppendUint16(z.buf, r.nameLen)
		// extra and comment lengths, disk number, internal and
		// external attributes: all 0
		z.buf = append(z.buf, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
		z.buf = le.AppendUint32(z.buf, r.offset)
		name := int(r.offset) + zipLocalLen
		z.buf = append(z.buf, z.buf[name:name+int(r.nameLen)]...)
	}
	size := len(z.buf) - start
	if uint64(size) >= zipMax32 {
		return nil, fmt.Errorf("gsbl: archive directory of %d bytes needs zip64", size)
	}
	z.buf = le.AppendUint32(z.buf, 0x06054b50)
	z.buf = le.AppendUint32(z.buf, 0) // disk numbers
	z.buf = le.AppendUint16(z.buf, uint16(len(z.recs)))
	z.buf = le.AppendUint16(z.buf, uint16(len(z.recs)))
	z.buf = le.AppendUint32(z.buf, uint32(size))
	z.buf = le.AppendUint32(z.buf, uint32(start))
	z.buf = le.AppendUint16(z.buf, 0) // comment length
	return z.buf, nil
}

// needsUTF8Flag is archive/zip's rule for setting flag 0x800 on a
// deflated entry: the name is valid UTF-8 and holds a rune outside
// 0x20–0x7d, which CP-437 readers would misread. (The rule also counts
// a backslash, which never survives add's mapping.) A stored entry's
// flags stay 0, as CreateRaw left them.
func needsUTF8Flag(name []byte) bool {
	require := false
	for i := 0; i < len(name); {
		r, size := utf8.DecodeRune(name[i:])
		i += size
		if r < 0x20 || r > 0x7d {
			if r == utf8.RuneError && size == 1 {
				return false
			}
			require = true
		}
	}
	return require
}
