package gsbl

import (
	"archive/zip"
	"bytes"
	"fmt"
	"strings"
	"testing"

	"lattice/internal/grid/mds"
	"lattice/internal/lrm"
	"lattice/internal/lrm/cluster"
	"lattice/internal/metasched"
	"lattice/internal/obs"
	"lattice/internal/phylo"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

// journalEvents collects the journal through Each, for the tests that
// index, slice or print it.
func journalEvents(j *obs.Journal) []obs.Event {
	var out []obs.Event
	j.Each(func(ev obs.Event) { out = append(out, ev) })
	return out
}

// testGrid builds the one-cluster grid every service fixture runs on,
// its scheduler journaling into hub, the hub the service must share:
// the service's outbox is folded from both components' events.
func testGrid(t *testing.T) (*sim.Engine, *metasched.Scheduler, *obs.Obs) {
	t.Helper()
	eng := sim.NewEngine()
	hub := obs.New(eng)
	return eng, gridOn(t, eng, metasched.Options{Obs: hub}, nil), hub
}

// gridOn is testGrid's one-cluster grid on a caller-made engine, for
// tests that wire the scheduler to a hub built on that engine. A
// non-nil fail makes the cluster fail every job fail picks (see
// failing).
func gridOn(t *testing.T, eng *sim.Engine, opts metasched.Options, fail func(jobID string) bool) *metasched.Scheduler {
	t.Helper()
	idx, err := mds.NewIndex(eng, 5*sim.Minute)
	if err != nil {
		t.Fatal(err)
	}
	hpc, err := cluster.New(eng, nil, nil, cluster.Config{
		Kind: "pbs", Name: "hpc", Platform: lrm.LinuxX86,
		Nodes: []cluster.NodeClass{{Count: 16, Cores: 1, Speed: 1.5, MemoryMB: 8192}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mds.StartProvider(eng, idx, hpc, sim.Minute); err != nil {
		t.Fatal(err)
	}
	sched := metasched.New(eng, idx, metasched.DefaultConfig(), opts)
	var target lrm.LRM = hpc
	if fail != nil {
		target = &failing{LRM: hpc, eng: eng, pick: fail}
	}
	if err := sched.Register(target, 1.5); err != nil {
		t.Fatal(err)
	}
	return sched
}

// failing is a cluster that fails, ten minutes in, every job pick
// names by ID, each failure a second after the one before so no two
// share an instant. The scheduler reissues such a job until its retry
// limit, and then the job fails for good — the one way a job of a
// batch ends failed.
type failing struct {
	lrm.LRM
	eng   *sim.Engine
	pick  func(jobID string) bool
	fails int
}

func (f *failing) Submit(j *lrm.Job) error {
	if !f.pick(j.ID) {
		return f.LRM.Submit(j)
	}
	f.fails++
	f.eng.Schedule(10*sim.Minute+sim.Duration(f.fails)*sim.Second, func() {
		j.Owner.Fail(j, f.eng.Now(), "pbs: node died")
	})
	return nil
}

// replicates picks the jobs of the given replicate numbers.
func replicates(reps ...int) func(jobID string) bool {
	return func(id string) bool {
		for _, r := range reps {
			if strings.Contains(id, fmt.Sprintf("-r%04d-", r)) {
				return true
			}
		}
		return false
	}
}

// failingService is testService over a cluster that fails every job
// fail picks.
func failingService(t *testing.T, fail func(jobID string) bool) (*sim.Engine, *Service) {
	t.Helper()
	eng := sim.NewEngine()
	hub := obs.New(eng)
	return eng, mustService(t, eng, gridOn(t, eng, metasched.Options{Obs: hub}, fail), Options{Obs: hub})
}

// mustService builds a service over a testGrid with the given options.
func mustService(t *testing.T, eng *sim.Engine, sched *metasched.Scheduler, opts Options) *Service {
	t.Helper()
	svc, err := NewService(eng, sched, sim.NewRNG(1), opts)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func testService(t *testing.T) (*sim.Engine, *Service) {
	t.Helper()
	eng, sched, hub := testGrid(t)
	return eng, mustService(t, eng, sched, Options{Obs: hub})
}

// direct is a request expanded on the spot under the "service" origin.
func direct(sub workload.Submission) Request {
	return Request{Sub: sub, Origin: "service", Direct: true}
}

func smallSubmission(replicates int) workload.Submission {
	return workload.Submission{
		Spec: workload.JobSpec{
			DataType: phylo.Nucleotide, SubstModel: "HKY85",
			RateHet: phylo.RateGamma, NumRateCats: 4, GammaShape: 0.5,
			NumTaxa: 12, SeqLength: 500, SearchReps: 1,
			StartingTree: phylo.StartStepwise, AttachmentsPerTaxon: 10,
			Seed: 7,
		},
		Replicates: replicates,
		UserEmail:  "researcher@example.edu",
	}
}

func TestGarliAppXMLRoundTrip(t *testing.T) {
	app := GarliApp()
	data, err := app.XML()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseAppDescription(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "garli" || len(back.Params) != len(app.Params) {
		t.Errorf("round trip lost content: %s, %d params", back.Name, len(back.Params))
	}
	var het *workload.Param
	for i := range back.Params {
		if back.Params[i].Name == "ratehetmodel" {
			het = &back.Params[i]
		}
	}
	if het == nil || len(het.Options) != 3 {
		t.Errorf("ratehetmodel parameter mangled: %+v", het)
	}
	if _, err := ParseAppDescription([]byte("<gridApplication></gridApplication>")); err == nil {
		t.Error("expected error for unnamed app")
	}
	if _, err := ParseAppDescription([]byte("not xml")); err == nil {
		t.Error("expected error for invalid XML")
	}
}

func TestBatchLifecycle(t *testing.T) {
	eng, svc := testService(t)
	b, err := svc.Submit(direct(smallSubmission(8)))
	if err != nil {
		t.Fatal(err)
	}
	st, err := svc.Status(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 8 {
		t.Fatalf("batch has %d jobs, want 8", st.Total)
	}
	eng.RunUntil(sim.Time(30 * sim.Day))
	st, _ = svc.Status(b.ID)
	if !st.Done || st.Completed != 8 {
		t.Fatalf("batch not finished: %+v", st)
	}
	// Submission + completion notifications.
	msgs := svc.SentTo("researcher@example.edu")
	if len(msgs) < 2 {
		t.Fatalf("got %d notifications, want >= 2", len(msgs))
	}
	if !strings.Contains(msgs[len(msgs)-1].Subject, "complete") {
		t.Errorf("last notification subject %q", msgs[len(msgs)-1].Subject)
	}
}

func TestValidationRejectsBadSubmission(t *testing.T) {
	_, svc := testService(t)
	bad := smallSubmission(0)
	if _, err := svc.Submit(direct(bad)); err == nil {
		t.Error("zero-replicate submission accepted")
	}
	bad = smallSubmission(5)
	bad.Spec.NumTaxa = 1
	if _, err := svc.Submit(direct(bad)); err == nil {
		t.Error("1-taxon submission accepted")
	}
	bad = smallSubmission(workload.MaxReplicates + 1)
	if _, err := svc.Submit(direct(bad)); err == nil {
		t.Error("over-limit replicate count accepted")
	}
}

func TestResultsZip(t *testing.T) {
	eng, svc := testService(t)
	b, err := svc.Submit(direct(smallSubmission(5)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.ResultsZip(b.ID); err == nil {
		t.Error("zip available before batch finished")
	}
	eng.RunUntil(sim.Time(30 * sim.Day))
	data, err := svc.ResultsZip(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, f := range zr.File {
		names[f.Name] = true
	}
	if !names["batch_summary.txt"] {
		t.Error("zip missing batch summary")
	}
	tre, logs := 0, 0
	for n := range names {
		if strings.HasSuffix(n, ".best.tre") {
			tre++
		}
		if strings.HasSuffix(n, ".screen.log") {
			logs++
		}
	}
	if tre != 5 || logs != 5 {
		t.Errorf("zip has %d tree files and %d logs, want 5 each", tre, logs)
	}
}

// TestSentIsTheCallersToExtend: what Sent returned is the caller's —
// appending to it or editing it must not reach the outbox, and the next
// notification must not overwrite what the caller appended.
func TestSentIsTheCallersToExtend(t *testing.T) {
	_, svc := testService(t)
	for i := 0; i < 3; i++ {
		if _, err := svc.Submit(direct(smallSubmission(1))); err != nil {
			t.Fatal(err)
		}
	}
	mine := append(svc.Sent(), Notification{To: "caller"})
	mine[0].Subject = "edited"
	if _, err := svc.Submit(direct(smallSubmission(1))); err != nil {
		t.Fatal(err)
	}
	if mine[3].To != "caller" {
		t.Errorf("the next notification overwrote the caller's appended one with %+v", mine[3])
	}
	sent := svc.Sent()
	if len(sent) != 4 || sent[0].Subject != "[Lattice] batch-000001 submitted" ||
		sent[3].Subject != "[Lattice] batch-000004 submitted" {
		t.Errorf("outbox = %+v", sent)
	}
}

func TestUnknownBatchQueries(t *testing.T) {
	_, svc := testService(t)
	if _, err := svc.Status("nope"); err == nil {
		t.Error("status of unknown batch succeeded")
	}
	if _, err := svc.ResultsZip("nope"); err == nil {
		t.Error("zip of unknown batch succeeded")
	}
	if _, ok := svc.Batch("nope"); ok {
		t.Error("lookup of unknown batch succeeded")
	}
}

func TestBatchesSorted(t *testing.T) {
	_, svc := testService(t)
	for i := 0; i < 3; i++ {
		if _, err := svc.Submit(direct(smallSubmission(1))); err != nil {
			t.Fatal(err)
		}
	}
	ids := svc.Batches()
	if len(ids) != 3 {
		t.Fatalf("got %d batches", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Error("batch IDs not sorted")
		}
	}
}
