package gsbl

import (
	"archive/zip"
	"bytes"
	"strings"
	"testing"

	"lattice/internal/grid/mds"
	"lattice/internal/lrm"
	"lattice/internal/lrm/cluster"
	"lattice/internal/metasched"
	"lattice/internal/phylo"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

// testGrid builds the one-cluster grid every service fixture runs on.
func testGrid(t *testing.T) (*sim.Engine, *metasched.Scheduler) {
	t.Helper()
	eng := sim.NewEngine()
	return eng, gridOn(t, eng, metasched.Options{})
}

// gridOn is testGrid's one-cluster grid on a caller-made engine, for
// tests that wire the scheduler to a hub built on that engine.
func gridOn(t *testing.T, eng *sim.Engine, opts metasched.Options) *metasched.Scheduler {
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
	if _, err := mds.StartProvider(eng, idx, hpc, sim.Minute); err != nil {
		t.Fatal(err)
	}
	sched := metasched.New(eng, idx, metasched.DefaultConfig(), opts)
	if err := sched.Register(hpc, 1.5); err != nil {
		t.Fatal(err)
	}
	return sched
}

// mustService builds a service over a testGrid with the given options.
func mustService(t *testing.T, eng *sim.Engine, sched *metasched.Scheduler, opts Options) *Service {
	t.Helper()
	svc, err := NewService(eng, sched, &Mailer{}, sim.NewRNG(1), opts)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func testService(t *testing.T) (*sim.Engine, *Service, *Mailer) {
	t.Helper()
	eng, sched := testGrid(t)
	svc := mustService(t, eng, sched, Options{})
	return eng, svc, svc.mailer
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
	var het *Param
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
	eng, svc, mailer := testService(t)
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
	msgs := mailer.SentTo("researcher@example.edu")
	if len(msgs) < 2 {
		t.Fatalf("got %d notifications, want >= 2", len(msgs))
	}
	if !strings.Contains(msgs[len(msgs)-1].Subject, "complete") {
		t.Errorf("last notification subject %q", msgs[len(msgs)-1].Subject)
	}
}

func TestValidationRejectsBadSubmission(t *testing.T) {
	_, svc, _ := testService(t)
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
	eng, svc, _ := testService(t)
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

// TestCancelBatch cancels a whole running batch: the cancel ends the
// batch the way a last completing job would — DoneAt at the cancel
// instant, one completion mail, OnDone fired once.
func TestCancelBatch(t *testing.T) {
	eng, svc, mailer := testService(t)
	sub := smallSubmission(4)
	sub.Spec.NumTaxa = 80
	sub.Spec.SeqLength = 3000 // long jobs
	var done []BatchStatus
	b, err := svc.Submit(Request{Sub: sub, Origin: "wf-000001/search", Direct: true,
		OnDone: func(st BatchStatus) { done = append(done, st) }})
	if err != nil {
		t.Fatal(err)
	}
	const at = sim.Time(5 * sim.Minute)
	eng.RunUntil(at)
	if err := svc.CancelBatch(b.ID); err != nil {
		t.Fatal(err)
	}
	if b.DoneAt != at {
		t.Errorf("DoneAt = %v, want the cancel instant %v", b.DoneAt, at)
	}
	eng.RunUntil(sim.Time(2 * sim.Day))
	st, _ := svc.Status(b.ID)
	if st.Completed != 0 {
		t.Errorf("%d jobs completed despite cancellation", st.Completed)
	}
	if !st.Done || st.DoneAt != at {
		t.Errorf("cancelled batch not terminal at %v: %+v", at, st)
	}
	if len(done) != 1 || done[0].Failed != 4 || !done[0].Done {
		t.Errorf("OnDone fired with %+v, want once with 4 failed", done)
	}
	var completions int
	for _, m := range mailer.Sent() {
		if m.Subject == "[Lattice] "+b.ID+" complete" {
			completions++
			if m.At != at {
				t.Errorf("completion mail sent at %v, want %v", m.At, at)
			}
		}
	}
	if completions != 1 {
		t.Errorf("%d completion mails, want 1", completions)
	}
	if err := svc.CancelBatch(b.ID); err != nil {
		t.Fatal(err)
	}
	if len(done) > 1 {
		t.Errorf("a second CancelBatch fired OnDone again")
	}
	if err := svc.CancelBatch("nope"); err == nil {
		t.Error("cancel of unknown batch succeeded")
	}
}

// TestSentIsTheCallersToExtend: what Sent returned is the caller's —
// appending to it or editing it must not reach the outbox, and the next
// notification must not overwrite what the caller appended.
func TestSentIsTheCallersToExtend(t *testing.T) {
	_, svc, m := testService(t)
	for i := 0; i < 3; i++ {
		if _, err := svc.Submit(direct(smallSubmission(1))); err != nil {
			t.Fatal(err)
		}
	}
	mine := append(m.Sent(), Notification{To: "caller"})
	mine[0].Subject = "edited"
	if _, err := svc.Submit(direct(smallSubmission(1))); err != nil {
		t.Fatal(err)
	}
	if mine[3].To != "caller" {
		t.Errorf("the next notification overwrote the caller's appended one with %+v", mine[3])
	}
	sent := m.Sent()
	if len(sent) != 4 || sent[0].Subject != "[Lattice] batch-000001 submitted" ||
		sent[3].Subject != "[Lattice] batch-000004 submitted" {
		t.Errorf("outbox = %+v", sent)
	}
}

func TestUnknownBatchQueries(t *testing.T) {
	_, svc, _ := testService(t)
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
	_, svc, _ := testService(t)
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
