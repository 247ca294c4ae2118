package gsbl

import (
	"cmp"
	"fmt"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"lattice/internal/admit"
	"lattice/internal/grid/mds"
	"lattice/internal/lrm"
	"lattice/internal/lrm/cluster"
	"lattice/internal/metasched"
	"lattice/internal/obs"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

// The accept path built its batch IDs, journal details and mail through
// fmt.Sprintf with the formats below. They stay here as the oracle the
// append functions and the mail renderer are held to, byte for byte.

func sprintfBatchID(prefix string, n int) string { return fmt.Sprintf("%sbatch-%06d", prefix, n) }

func sprintfValidate(sub workload.Submission) string {
	return fmt.Sprintf("%d replicates for %s", sub.Replicates, sub.UserEmail)
}

func sprintfDrained(sub workload.Submission) string {
	return fmt.Sprintf("%d replicates for %s (ingest-drained)", sub.Replicates, sub.UserEmail)
}

func sprintfShed(b *Batch, rej *admit.Rejection) string {
	return fmt.Sprintf("%s: %d replicates for %s via %s; retry after %.0fs",
		rej.Reason, b.Submission.Replicates, b.Submission.UserEmail, b.Origin, rej.RetryAfter.Seconds())
}

func sprintfSubmitted(at sim.Time, b *Batch) Notification {
	return Notification{At: at, To: b.Submission.UserEmail,
		Subject: fmt.Sprintf("[Lattice] %s submitted", b.ID),
		Body: fmt.Sprintf("Your submission of %d replicates was accepted as %s (%d grid jobs).",
			b.Submission.Replicates, b.ID, len(b.Jobs))}
}

func sprintfJobFailed(at sim.Time, b *Batch, j *metasched.GridJob) Notification {
	return Notification{At: at, To: b.Submission.UserEmail,
		Subject: fmt.Sprintf("[Lattice] job failure in %s", b.ID),
		Body:    fmt.Sprintf("Job %s failed: %s", j.ID, j.FailReason)}
}

func sprintfComplete(at sim.Time, b *Batch, total, completed, failed int) Notification {
	return Notification{At: at, To: b.Submission.UserEmail,
		Subject: fmt.Sprintf("[Lattice] %s complete", b.ID),
		Body: fmt.Sprintf("All %d jobs finished (%d completed, %d failed). Results are ready for download.",
			total, completed, failed)}
}

// oracleEmails are submitter addresses the details must carry through
// untouched: plain, several '@' and '.', '%' verbs, non-ASCII bytes
// and one longer than every stack buffer.
var oracleEmails = []string{
	"researcher@example.edu",
	"a.b@c.d@e.f.g",
	"100%@%d.example",
	"jürgen.müller@uni-köln.de",
	"\xff\xfe@invalid-utf8",
	strings.Repeat("long.address", 12) + "@example.edu",
}

func TestBatchIDMatchesSprintf(t *testing.T) {
	ns := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 99_999, 999_999, 1_000_000, 123_456_789}
	for _, prefix := range []string{"", "shard0-", "shard13-"} {
		s := &Service{idPrefix: prefix}
		for _, n := range ns {
			if got, want := s.batchID(n), sprintfBatchID(prefix, n); got != want {
				t.Errorf("batchID(%q, %d) = %q, want %q", prefix, n, got, want)
			}
		}
	}
}

func TestDetailsMatchSprintf(t *testing.T) {
	origins := []string{"service", "shard3/core", "wf-000001/model-selection"}
	retries := []sim.Duration{0, 0.4, 0.5, 1.5, 2.5, 6 * sim.Second, 1234.56, 1e9}
	s := &Service{}
	for _, email := range oracleEmails {
		for _, reps := range []int{1, 7, 2000} {
			sub := userSubmission(email, reps)
			if got, want := s.validateDetail(&sub), sprintfValidate(sub); got != want {
				t.Errorf("direct validate detail %q, want %q", got, want)
			}
			if got, want := s.validateDetail(&sub, " (ingest-drained)"), sprintfDrained(sub); got != want {
				t.Errorf("drained validate detail %q, want %q", got, want)
			}
			for _, origin := range origins {
				if got, want := s.validateDetail(&sub, " via ", origin), sprintfValidate(sub)+" via "+origin; got != want {
					t.Errorf("via validate detail %q, want %q", got, want)
				}
				b := &Batch{Submission: sub, Origin: origin}
				for _, reason := range []string{admit.ReasonQuota, admit.ReasonOverload} {
					for _, after := range retries {
						rej := &admit.Rejection{Reason: reason, RetryAfter: after}
						if got, want := s.shedDetail(b, rej), sprintfShed(b, rej); got != want {
							t.Errorf("shed detail %q, want %q", got, want)
						}
					}
				}
			}
		}
	}
}

// TestMailRendersTheSentText reads the outbox after each notification
// and again at the end, and holds both readings to the text the
// Sprintf formats give for the mail's batch and job: a submitted batch,
// a job failure whose reason holds '%' and non-ASCII, sent to a
// non-ASCII address, a completion with failed jobs, and a batch whose
// every job the cluster fails.
func TestMailRendersTheSentText(t *testing.T) {
	eng, svc := failingService(t, func(id string) bool { return strings.HasPrefix(id, "failer_example_edu-") })
	var want []Notification
	check := func(step string) {
		t.Helper()
		if got := svc.Sent(); !slices.Equal(got, want) {
			t.Fatalf("%s: outbox\n%+v\nwant\n%+v", step, got, want)
		}
	}

	// Submitted: through the real accept path.
	b, err := svc.Submit(direct(smallSubmission(3)))
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, sprintfSubmitted(eng.Now(), b))
	check("submitted")
	eng.RunUntil(sim.Time(sim.Hour))
	if st, _ := svc.Status(b.ID); !st.Done || st.Completed != 3 {
		t.Fatalf("first batch %+v", st)
	}
	want = append(want, sprintfComplete(b.DoneAt, b, 3, 3, 0))
	check("completed")

	// A hand-run batch of three jobs, registered as the service's next
	// batch: one fails with an awkward reason, two complete, which ends
	// the batch with a failed job in it. Each end is journaled before
	// JobDone hears of it, as the scheduler does.
	hand := &Batch{Submission: userSubmission("jürgen@uni-köln.de", 3), svc: svc}
	svc.batches = append(svc.batches, hand)
	hand.ID = svc.batchID(len(svc.batches))
	for i := 0; i < 3; i++ {
		hand.Jobs = append(hand.Jobs, &metasched.GridJob{Job: lrm.Job{ID: fmt.Sprintf("hand-r%04d-%d", i, i)}})
	}
	failed := hand.Jobs[1]
	failed.Status, failed.FailReason = metasched.StatusFailed, "faults: 100% of nœuds lost (%d %s)"
	svc.obs.Record(hand.ID, failed.ID, obs.StageFail, "hpc", failed.FailReason)
	hand.JobDone(failed)
	want = append(want, sprintfJobFailed(eng.Now(), hand, failed))
	check("job failure")
	eng.RunUntil(sim.Time(2 * sim.Hour))
	for _, i := range []int{0, 2} {
		hand.Jobs[i].Status = metasched.StatusCompleted
		svc.obs.Record(hand.ID, hand.Jobs[i].ID, obs.StageComplete, "hpc", "")
		hand.JobDone(hand.Jobs[i])
	}
	want = append(want, sprintfComplete(eng.Now(), hand, 3, 2, 1))
	check("completion with a failed job")

	// Every job failed for good by the cluster: a job-failure mail
	// each, in the order they failed, then the completion.
	doomed := smallSubmission(4)
	doomed.UserEmail = "failer@example.edu"
	c, err := svc.Submit(direct(doomed))
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, sprintfSubmitted(eng.Now(), c))
	eng.RunUntil(sim.Time(2 * sim.Day))
	jobs := slices.Clone(c.Jobs)
	slices.SortFunc(jobs, func(x, y *metasched.GridJob) int { return cmp.Compare(x.CompletedAt, y.CompletedAt) })
	for i, j := range jobs {
		if j.Status != metasched.StatusFailed || (i > 0 && j.CompletedAt == jobs[i-1].CompletedAt) {
			t.Fatalf("fixture: job %s ended %v at %v", j.ID, j.Status, j.CompletedAt)
		}
		want = append(want, sprintfJobFailed(j.CompletedAt, c, j))
	}
	want = append(want, sprintfComplete(c.DoneAt, c, 4, 0, 4))
	check("failed by the cluster")

	// The run goes on; every mail still reads the same.
	eng.RunUntil(sim.Time(30 * sim.Day))
	check("end of run")

	for _, to := range []string{"researcher@example.edu", "jürgen@uni-köln.de", "failer@example.edu", "nobody@example.edu"} {
		var mine []Notification
		for _, n := range want {
			if n.To == to {
				mine = append(mine, n)
			}
		}
		if got := svc.SentTo(to); !slices.Equal(got, mine) {
			t.Errorf("SentTo(%q) = %+v, want %+v", to, got, mine)
		}
	}
}

// TestIDsAndDetailsAllocateOnce: IDs and details are cut from the
// service's slab, so 10 000 of each cost at most one allocation per
// chunk they fill, and not one each. The collector is off for the
// count: a cycle allocates a few objects of its own.
func TestIDsAndDetailsAllocateOnce(t *testing.T) {
	const chunk = 4096 // internal/slab's chunk size
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := &Service{idPrefix: "shard13-"}
	sub := smallSubmission(1)
	b := &Batch{Submission: sub, Origin: "shard13/core"}
	rej := &admit.Rejection{Reason: admit.ReasonOverload, RetryAfter: 1234.5}
	var total, longest int
	cut := func(x string) {
		total += len(x)
		longest = max(longest, len(x))
	}
	const n = 10_000
	allocs := testing.AllocsPerRun(1, func() {
		total = 0
		for i := 0; i < n; i++ {
			cut(s.batchID(123_456 + i))
			cut(s.validateDetail(&sub))
			cut(s.validateDetail(&sub, " via ", "wf-000001/search"))
			cut(s.validateDetail(&sub, " (ingest-drained)"))
			cut(s.shedDetail(b, rej))
		}
	})
	// A chunk that is full wastes less than the longest string; one more
	// for the chunk the warm-up run left partly filled.
	if chunks := float64(total/(chunk-longest) + 1); allocs > chunks {
		t.Errorf("%d IDs and details, %d bytes: %.0f allocations, want at most %.0f", 5*n, total, allocs, chunks)
	}
}

// TestBatchesInCreationOrderPastSixDigits: batch 1 000 000 is listed
// after batch 999 999, though it sorts before it as a string.
func TestBatchesInCreationOrderPastSixDigits(t *testing.T) {
	_, svc := testService(t)
	svc.batches = make([]*Batch, 999_997)
	for i := range svc.batches {
		svc.batches[i] = &Batch{} // batches 1 to 999 997 stand in, unnamed
	}
	var want []string
	for i := 0; i < 3; i++ {
		b, err := svc.Submit(direct(smallSubmission(1)))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, b.ID)
	}
	if want[2] != "batch-1000000" {
		t.Fatalf("fixture: third batch is %s", want[2])
	}
	if got := svc.Batches(); !slices.Equal(got[len(got)-3:], want) {
		t.Errorf("Batches() ends %v, want creation order %v", got[len(got)-3:], want)
	}
}

// doorGrid is a service with a front door over n 16-node PBS clusters,
// every component reporting to one hub. The MDS entries never expire
// and are published once, so the engine holds only what submissions
// schedule, plus the scheduler's rescan when rescan > 0.
func doorGrid(tb testing.TB, n int, rescan sim.Duration) (*sim.Engine, *Service) {
	tb.Helper()
	eng := sim.NewEngine()
	hub := obs.New(eng)
	idx, err := mds.NewIndex(eng, 1000*sim.Day)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := metasched.DefaultConfig()
	cfg.RescanInterval = rescan
	sched := metasched.New(eng, idx, cfg, metasched.Options{Obs: hub})
	for i := 0; i < n; i++ {
		c, err := cluster.New(eng, nil, hub, cluster.Config{
			Kind: "pbs", Name: fmt.Sprintf("pbs%02d", i), Platform: lrm.LinuxX86,
			Nodes: []cluster.NodeClass{{Count: 16, Cores: 1, Speed: 1, MemoryMB: 8192}},
		})
		if err != nil {
			tb.Fatal(err)
		}
		idx.Publish(c.Info())
		if err := sched.Register(c, 1); err != nil {
			tb.Fatal(err)
		}
	}
	svc, err := NewService(eng, sched, sim.NewRNG(1), Options{Obs: hub,
		Ingest: IngestConfig{PerSubmissionSeconds: 0.5}})
	if err != nil {
		tb.Fatal(err)
	}
	return eng, svc
}

// acceptPathAllocBudget is what one queued one-replicate submission
// costs from enqueue through drain to its completion mail, measured:
// two records — the batch (the pending request until the drain, its
// own drain event, the owner of its jobs, and the holder of its one-job
// list) and the grid job (its first attempt's lrm.Job, owner and
// staging events inline). The cluster's running record (its own
// completion event) comes from the cluster's free list. The batch ID,
// the validate detail and the job ID are cut from the service's and the
// scheduler's slabs, which, like the journal's chunks and the engine's
// tables, amortize to under one. No engine event and
// no callback allocates. With a cluster record made per job the same
// cycle cost 3; with a string allocated per ID and detail and an
// attempt record apart from the grid job, 7; with a separate queued
// request and job list, 9; with an *event per engine event and a
// closure per callback, 21; with the IDs and details built through
// fmt.Sprintf and the mail rendered when sent, 36 (45 under the race
// detector, which now adds nothing).
const acceptPathAllocBudget = 2

func TestAcceptPathAllocations(t *testing.T) {
	eng, svc := doorGrid(t, 1, 0)
	sub := smallSubmission(1)
	r := Request{Sub: sub, Origin: "service"}
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := svc.Submit(r); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	})
	if n := len(svc.Batches()); n != 501 {
		t.Fatalf("%d batches after 501 submissions", n)
	}
	for _, id := range svc.Batches() {
		if st, _ := svc.Status(id); !st.Done || st.Completed != 1 {
			t.Fatalf("%s: %+v", id, st)
		}
	}
	if allocs > acceptPathAllocBudget {
		t.Errorf("%.0f allocations per accepted submission, budget %d", allocs, acceptPathAllocBudget)
	}
	t.Logf("%.0f allocations per accepted submission", allocs)
}

// BenchmarkIngestDrain drives 10 000 one-replicate submissions through
// the front door of a 16-cluster grid, arriving all at once, until every
// batch is done: the ingest layer end to end, one op per 10 000.
func BenchmarkIngestDrain(b *testing.B) {
	const subs = 10_000
	sub := smallSubmission(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng, svc := doorGrid(b, 16, 2*sim.Minute)
		b.StartTimer()
		for u := 0; u < subs; u++ {
			if _, err := svc.Submit(Request{Sub: sub, Origin: "service"}); err != nil {
				b.Fatal(err)
			}
		}
		eng.RunUntil(sim.Time(30 * sim.Day))
		b.StopTimer()
		if n := len(svc.Batches()); n != subs {
			b.Fatalf("%d of %d submissions became batches", n, subs)
		}
		b.StartTimer()
	}
}
