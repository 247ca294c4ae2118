package gsbl

import (
	"archive/zip"
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"lattice/internal/grid/mds"
	"lattice/internal/lrm"
	"lattice/internal/metasched"
	"lattice/internal/obs"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

// referenceZip is ResultsZip's renderer as it stood before the
// store-or-deflate writer — fmt.Fprintf into zw.Create, every entry
// deflated — kept as the oracle for entry order, names and bytes.
func referenceZip(b *Batch, st BatchStatus) ([]byte, error) {
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	summary := &bytes.Buffer{}
	fmt.Fprintf(summary, "batch: %s\nreplicates: %d\njobs: %d\ncompleted: %d\nfailed: %d\n",
		b.ID, b.Submission.Replicates, st.Total, st.Completed, st.Failed)
	fmt.Fprintf(summary, "submitted_at: %.0f\nfinished_at: %.0f\n",
		float64(b.CreatedAt), float64(b.DoneAt))
	for _, j := range b.Jobs {
		name := j.ID
		if j.Status == metasched.StatusCompleted {
			w, err := zw.Create(name + ".best.tre")
			if err != nil {
				return nil, err
			}
			if _, err := fmt.Fprintf(w, "# best tree for %s (searchreps=%d) from resource %s\n",
				name, j.SearchReps, j.Resource()); err != nil {
				return nil, err
			}
			lw, err := zw.Create(name + ".screen.log")
			if err != nil {
				return nil, err
			}
			if _, err := fmt.Fprintf(lw, "job %s\nresource %s\nattempts %d\nwall_seconds %.0f\n",
				name, j.Resource(), j.Attempts, float64(j.CompletedAt.Sub(j.StartedAt))); err != nil {
				return nil, err
			}
		} else {
			w, err := zw.Create(name + ".FAILED")
			if err != nil {
				return nil, err
			}
			if _, err := fmt.Fprintf(w, "%s\n", j.FailReason); err != nil {
				return nil, err
			}
		}
	}
	w, err := zw.Create("batch_summary.txt")
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(summary.Bytes()); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

type zipEntry struct {
	name   string
	body   []byte
	method uint16
	flags  uint16
}

// readZip opens every entry; reading to EOF makes archive/zip verify
// each entry's CRC-32 and size against its header.
func readZip(t *testing.T, data []byte) []zipEntry {
	t.Helper()
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	var out []zipEntry
	for _, f := range zr.File {
		rc, err := f.Open()
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		body, err := io.ReadAll(rc)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		rc.Close()
		out = append(out, zipEntry{f.Name, body, f.Method, f.Flags})
	}
	return out
}

// TestResultsZipMatchesReference runs a batch that ends with completed
// jobs and jobs the cluster failed, some of whose bodies fall on the
// deflate side of the break-even, and holds ResultsZip to the old
// renderer entry for entry.
func TestResultsZipMatchesReference(t *testing.T) {
	eng, svc := failingService(t, replicates(0, 1, 2))
	sub := smallSubmission(9)
	sub.Spec.NumTaxa = 80
	sub.Spec.SeqLength = 3000
	b, err := svc.Submit(direct(sub))
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(30 * sim.Day))
	// A resource-level failure with a long reason, and a completed job
	// whose resource name pushes both of its bodies past the break-even.
	b.Jobs[3].Status = metasched.StatusFailed
	b.Jobs[3].FailReason = "boinc: too many errors (may have bug) " + strings.Repeat("after reissue ", 20)
	b.Jobs[4] = movedTo(t, b.Jobs[4], strings.Repeat("campus-condor-pool-", 6)+"a")
	st := svc.status(b)
	if !st.Done || st.Completed != 5 || st.Failed != 4 {
		t.Fatalf("fixture: %+v", st)
	}

	got, err := svc.ResultsZip(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := referenceZip(b, st)
	if err != nil {
		t.Fatal(err)
	}
	g, w := readZip(t, got), readZip(t, ref)
	if len(g) != len(w) {
		t.Fatalf("%d entries, reference has %d", len(g), len(w))
	}
	stored, deflated := 0, 0
	for i := range w {
		if g[i].name != w[i].name {
			t.Fatalf("entry %d is %q, reference has %q", i, g[i].name, w[i].name)
		}
		if !bytes.Equal(g[i].body, w[i].body) {
			t.Errorf("%s:\n got %q\nwant %q", g[i].name, g[i].body, w[i].body)
		}
		if len(g[i].body) < storeBelow {
			stored++
			if g[i].method != zip.Store {
				t.Errorf("%s (%d bytes) has method %d, want stored", g[i].name, len(g[i].body), g[i].method)
			}
			if g[i].flags&0x8 != 0 {
				t.Errorf("%s is stored but announces a data descriptor", g[i].name)
			}
		} else {
			deflated++
			if g[i].method != zip.Deflate {
				t.Errorf("%s (%d bytes) has method %d, want deflated", g[i].name, len(g[i].body), g[i].method)
			}
		}
	}
	// Four stub pairs, three cancellations and the summary stored; the
	// long-named pair and the long failure deflated.
	if stored != 12 || deflated != 3 {
		t.Errorf("%d stored and %d deflated entries, want 12 and 3", stored, deflated)
	}
	if len(got) >= len(ref) {
		t.Errorf("archive is %d bytes, all-deflate reference %d", len(got), len(ref))
	}
}

// finishedBatch registers a terminal batch of n completed stub jobs as
// the service's one batch, without running the grid.
func finishedBatch(tb testing.TB, svc *Service, n int) *Batch {
	b := &Batch{
		ID:         "batch-000001",
		Submission: smallSubmission(n),
		CreatedAt:  0,
		DoneAt:     sim.Time(9 * sim.Hour),
	}
	resources := make([]string, n)
	for i := range resources {
		resources[i] = "condor-physics"
	}
	b.Jobs = onResources(tb, resources)
	for i, j := range b.Jobs {
		j.ID = fmt.Sprintf("researcher_example_edu-r%04d-%d", i, i+1)
		j.SearchReps = 2
		j.Status = metasched.StatusCompleted
		j.Attempts = int32(1 + i%3)
		j.StartedAt = sim.Time(i)
		j.CompletedAt = sim.Time(i + 7200 + 13*i)
	}
	svc.batches = []*Batch{b}
	return b
}

// onResources returns one grid job per entry of resources, placed by a
// real scheduler on a stub resource of that name — placement is the
// one thing that sets the resource a job reports — or left unplaced for
// "". The jobs are one-replicate jobs, running; callers set the
// exported fields they pin.
func onResources(tb testing.TB, resources []string) []*metasched.GridJob {
	tb.Helper()
	shared.mu.Lock()
	defer shared.mu.Unlock()
	p := &shared.placer
	if p.sched == nil || len(p.stubs) > placerStubs || p.placed > placerJobs {
		*p = newPlacer(tb)
	}
	jobs := make([]*metasched.GridJob, 0, len(resources))
	for _, name := range resources {
		st := p.stubs[name]
		if st == nil && name != "" {
			st = &stubLRM{name: name}
			p.stubs[name] = st
			if err := p.sched.Register(st, 1); err != nil {
				tb.Fatal(err)
			}
		}
		if st != p.open {
			for _, r := range []*stubLRM{p.open, st} {
				if r != nil {
					r.open = r == st
					p.idx.Publish(r.Info())
				}
			}
			p.open = st
		}
		placed := p.sched.SubmitBatch(&p.sub, p.rng, nil, nil)
		jobs = append(jobs, placed[0])
	}
	p.placed += len(resources)
	return jobs
}

// shared is the one placer onResources reuses, so a fuzz worker builds
// a scheduler once per placerJobs jobs rather than once per input.
var shared struct {
	mu     sync.Mutex
	placer placer
}

// A placer is rebuilt once it has registered placerStubs resources, so
// the resource list a placement scans stays short, or placed placerJobs
// jobs, so the jobs it keeps running stay few.
const (
	placerStubs = 8
	placerJobs  = 4096
)

// placer is a scheduler over stub resources, at most one of them open.
type placer struct {
	sched  *metasched.Scheduler
	idx    *mds.Index
	stubs  map[string]*stubLRM
	open   *stubLRM
	sub    workload.Submission
	rng    *sim.RNG
	placed int
}

func newPlacer(tb testing.TB) placer {
	eng := sim.NewEngine()
	idx, err := mds.NewIndex(eng, sim.Day)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := metasched.DefaultConfig()
	cfg.RescanInterval = 0
	return placer{sched: metasched.New(eng, idx, cfg, metasched.Options{}), idx: idx,
		stubs: map[string]*stubLRM{}, sub: smallSubmission(1), rng: sim.NewRNG(1)}
}

// movedTo is j as the results zip sees it, placed on resource instead.
func movedTo(tb testing.TB, j *metasched.GridJob, resource string) *metasched.GridJob {
	m := onResources(tb, []string{resource})[0]
	m.ID, m.SearchReps, m.Attempts, m.Status = j.ID, j.SearchReps, j.Attempts, j.Status
	m.FailReason, m.StartedAt, m.CompletedAt = j.FailReason, j.StartedAt, j.CompletedAt
	return m
}

// stubLRM takes every job and runs none. It offers CPUs only while
// open, so the scheduler places a job on the one open stub.
type stubLRM struct {
	name string
	open bool
}

func (s *stubLRM) Name() string          { return s.name }
func (s *stubLRM) Submit(*lrm.Job) error { return nil }
func (s *stubLRM) Cancel(string) bool    { return false }
func (s *stubLRM) Stats() lrm.Stats      { return lrm.Stats{} }
func (s *stubLRM) Info() lrm.Info {
	info := lrm.Info{Name: s.name, Kind: "pbs", NodeMemoryMB: 1 << 20,
		Platforms: []lrm.Platform{lrm.LinuxX86}, Stable: true}
	if s.open {
		info.TotalCPUs, info.FreeCPUs = 1<<30, 1<<30
	}
	return info
}

// TestResultsZipAllocBudget pins the cost of the portal's largest
// download, 2000 jobs and 4001 entries, for the whole archive: the
// archive/zip writer spent about 28 000 allocations on it (7 per entry:
// the name string and six inside archive/zip); writing the format into
// one buffer takes a handful, whatever the entry count.
func TestResultsZipAllocBudget(t *testing.T) {
	_, svc := testService(t)
	b := finishedBatch(t, svc, 2000)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := svc.ResultsZip(b.ID); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("%.0f allocations for a %d-entry archive, budget 8", allocs, 2*len(b.Jobs)+1)
	} else {
		t.Logf("%.0f allocations", allocs)
	}
}

// oracleWriter is ResultsZip's entry writer as it stood on archive/zip
// — a stored entry through CreateRaw with its CRC and sizes up front,
// a deflated one through CreateHeader — kept as the byte-for-byte
// oracle for the format zipWriter now writes itself.
type oracleWriter struct {
	zw   *zip.Writer
	hdrs []zip.FileHeader
}

func (z *oracleWriter) add(name string, body []byte) error {
	z.hdrs = append(z.hdrs, zip.FileHeader{Name: name, Method: zip.Deflate})
	fh := &z.hdrs[len(z.hdrs)-1]
	var (
		w   io.Writer
		err error
	)
	if len(body) < storeBelow {
		fh.Method = zip.Store
		fh.CreatorVersion, fh.ReaderVersion = 20, 20
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

// oracleZip writes entries, in order, with oracleWriter.
func oracleZip(entries []zipEntry) ([]byte, error) {
	var out bytes.Buffer
	z := oracleWriter{zw: zip.NewWriter(&out), hdrs: make([]zip.FileHeader, 0, len(entries))}
	for _, e := range entries {
		if err := z.add(e.name, e.body); err != nil {
			return nil, err
		}
	}
	if err := z.zw.Close(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// entryNames maps a job's file name to its archive entry name.
var entryNames = strings.NewReplacer("/", "_", `\`, "_")

// oracleArchive is what ResultsZip must return for b: the reference
// renderer's entries, names mapped, written by oracleWriter.
func oracleArchive(t *testing.T, svc *Service, b *Batch) ([]byte, error) {
	t.Helper()
	ref, err := referenceZip(b, svc.status(b))
	if err != nil {
		return nil, err
	}
	entries := readZip(t, ref)
	for i := range entries {
		entries[i].name = entryNames.Replace(entries[i].name)
	}
	return oracleZip(entries)
}

// checkAgainstOracle holds ResultsZip's archive of b to oracleArchive
// byte for byte, and reads every entry back, CRC verified, with a
// local, separator-free name.
func checkAgainstOracle(t *testing.T, svc *Service, b *Batch) {
	t.Helper()
	got, err := svc.ResultsZip(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracleArchive(t, svc, b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%d-byte archive differs from the %d-byte oracle at byte %d:\n got % x\nwant % x",
			len(got), len(want), i, got[i:min(i+48, len(got))], want[i:min(i+48, len(want))])
	}
	for _, e := range readZip(t, got) {
		if !filepath.IsLocal(e.name) || strings.ContainsAny(e.name, `/\`) {
			t.Fatalf("entry %q leaves the archive root", e.name)
		}
	}
}

// zipService is a Service with no grid, for registering finished
// batches directly.
func zipService(t testing.TB) *Service {
	eng := sim.NewEngine()
	svc, err := NewService(eng, nil, sim.NewRNG(1), Options{Obs: obs.New(eng)})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestResultsZipMatchesOracle holds the direct writer to the archive/zip
// oracle on batches of 1, 7, 300 and 2000 jobs that mix stored and
// deflated entries with failed jobs, non-ASCII, invalid-UTF-8, '~',
// '/' and '\' names.
func TestResultsZipMatchesOracle(t *testing.T) {
	odd := []string{"caf\u00e9", "\xff\xfe", "tilde~", `back\slash`, "/abs/path", "ctl\x01", "\u4e16\u754c"}
	for _, n := range []int{1, 7, 300, 2000} {
		svc := zipService(t)
		b := finishedBatch(t, svc, n)
		for i, j := range b.Jobs {
			if i%3 == 1 {
				j.ID = odd[i%len(odd)] + j.ID
			}
			switch i % 5 {
			case 2:
				j.Status = metasched.StatusFailed
				j.FailReason = strings.Repeat("lost result ", 1+i%20)
			case 4:
				b.Jobs[i] = movedTo(t, j, strings.Repeat("campus-condor-pool-", 1+i%9))
			}
		}
		checkAgainstOracle(t, svc, b)
	}
}

// TestResultsZipRefusesZip64 checks the limits: ResultsZip writes an
// archive up to the last name length and entry count archive/zip
// writes without zip64, identical to the oracle, and refuses one past
// them — where the oracle fails too, or switches to zip64.
func TestResultsZipRefusesZip64(t *testing.T) {
	const suffix = len(".screen.log") // the longer of a completed job's two
	svc := zipService(t)
	b := finishedBatch(t, svc, 1)
	b.Jobs[0].ID = strings.Repeat("n", 1<<16-1-suffix)
	checkAgainstOracle(t, svc, b)
	b.Jobs[0].ID += "n"
	if _, err := svc.ResultsZip(b.ID); err == nil {
		t.Errorf("a %d-byte entry name was accepted", 1<<16)
	}
	if _, err := oracleArchive(t, svc, b); err == nil {
		t.Errorf("the oracle accepted a %d-byte entry name", 1<<16)
	}

	// A completed job's two entries, 32 766 times, a failed job's one
	// and the summary: 65 534, the most a zip holds without zip64. The
	// oracle rewrites the archive's own entries here (rendering them
	// all-deflated through referenceZip costs seconds); the smaller
	// batches above check what the entries hold.
	b = finishedBatch(t, svc, 32767)
	b.Jobs[0].Status, b.Jobs[0].FailReason = metasched.StatusFailed, "lost"
	got, err := svc.ResultsZip(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	entries := readZip(t, got)
	want, err := oracleZip(entries)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1<<16-2 || !bytes.Equal(got, want) {
		t.Fatalf("%d-entry archive: %d bytes, oracle %d, equal %v", len(entries), len(got), len(want), bytes.Equal(got, want))
	}
	b.Jobs[0].Status = metasched.StatusCompleted
	if _, err := svc.ResultsZip(b.ID); err == nil {
		t.Errorf("a %d-entry archive was accepted", 1<<16-1)
	}
	want, err = oracleZip(append(entries, zipEntry{name: "one-more", body: []byte("x")}))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(want, []byte("PK\x06\x06")) {
		t.Errorf("the oracle wrote %d entries without a zip64 end record", 1<<16-1)
	}
}

// TestResultsZipEntriesStayInsideTheArchive submits batches from guest
// addresses that carry path separators — a job ID keeps every byte of
// the address but '@' and '.' — and requires every entry name to be
// local (not absolute, no "..") with no backslash, the rule Go's own
// zip reader enforces under GODEBUG=zipinsecurepath=0 and what keeps a
// naive unzip inside its target directory. The archive is flat, so no
// name holds a '/' either: "a/b@c" must not make a directory "a".
func TestResultsZipEntriesStayInsideTheArchive(t *testing.T) {
	for _, email := range []string{`/etc/cron.d/x@y`, `..\..\evil@x`, `a/b@c`} {
		eng, svc := testService(t)
		sub := smallSubmission(2)
		sub.UserEmail = email
		b, err := svc.Submit(direct(sub))
		if err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(sim.Time(30 * sim.Day))
		data, err := svc.ResultsZip(b.ID)
		if err != nil {
			t.Fatalf("%s: %v", email, err)
		}
		for _, e := range readZip(t, data) {
			if !filepath.IsLocal(e.name) || strings.ContainsAny(e.name, `/\`) {
				t.Errorf("%s: entry %q leaves the archive root", email, e.name)
			}
		}
	}
}

var zipSink []byte

func BenchmarkResultsZip2000(b *testing.B) {
	eng := sim.NewEngine()
	svc, err := NewService(eng, nil, sim.NewRNG(1), Options{Obs: obs.New(eng)})
	if err != nil {
		b.Fatal(err)
	}
	batch := finishedBatch(b, svc, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z, err := svc.ResultsZip(batch.ID)
		if err != nil {
			b.Fatal(err)
		}
		zipSink = z
	}
	b.SetBytes(int64(len(zipSink)))
}

// fixedEstimate predicts the same reference seconds for every spec.
type fixedEstimate float64

func (f fixedEstimate) Predict(*workload.JobSpec) (float64, error) { return float64(f), nil }

// TestBundledBatchResultsZip runs a bundled batch to its end and pins
// its archive byte for byte. An estimate of 50 s a replicate bundles
// 2-replicate specs 18 to a job, so 40 replicates become two jobs of
// 36 search replicates and a remainder job of 8: each tree file names
// its job's own count, which the job keeps for the archive.
func TestBundledBatchResultsZip(t *testing.T) {
	eng := sim.NewEngine()
	hub := obs.New(eng)
	sched := gridOn(t, eng, metasched.Options{Obs: hub}, nil)
	sched.SetPredictor(fixedEstimate(100))
	svc := mustService(t, eng, sched, Options{Obs: hub})
	sub := smallSubmission(40)
	sub.Spec.SearchReps = 2
	b, err := svc.Submit(direct(sub))
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(30 * sim.Day))
	data, err := svc.ResultsZip(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	var reps []string
	for _, e := range readZip(t, data) {
		if _, after, ok := strings.Cut(string(e.body), "(searchreps="); ok {
			n, _, _ := strings.Cut(after, ")")
			reps = append(reps, n)
		}
	}
	if got := strings.Join(reps, ","); got != "36,36,8" {
		t.Errorf("tree files name searchreps %s, want 36,36,8", got)
	}
	const want = "77c9ce26c19cc57707f22e02fefb7d0a38608ecfd8801ca94170ab772dce57ac"
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
		t.Errorf("archive sha256 %s, want %s", got, want)
	}
}
