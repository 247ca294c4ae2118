package gsbl

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"lattice/internal/metasched"
	"lattice/internal/obs"
	"lattice/internal/sim"
)

// TestJobDoneTalliesLikeTheWalk runs a 2000-job batch, five of whose
// jobs the cluster fails for good, and holds what JobDone announces
// from its counters — the completion mail, the onDone status, the
// instant — to the full walk status() does for the portal.
func TestJobDoneTalliesLikeTheWalk(t *testing.T) {
	// Failures from both ends of the batch.
	eng, svc := failingService(t, replicates(0, 1, 700, 1998, 1999))
	var (
		b     *Batch
		got   BatchStatus
		want  BatchStatus
		at    sim.Time
		fired int
	)
	b, err := svc.Submit(Request{Sub: smallSubmission(2000), Origin: "wf-000001/search", Direct: true,
		OnDone: func(st BatchStatus) {
			fired++
			got, want, at = st, svc.status(b), eng.Now()
		}})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Jobs) != 2000 {
		t.Fatalf("fixture: %d jobs", len(b.Jobs))
	}
	eng.RunUntil(sim.Time(60 * sim.Day))

	if fired != 1 {
		t.Fatalf("onDone fired %d times", fired)
	}
	// The status handed to onDone is cut before DoneAt is stamped.
	want.DoneAt = 0
	if got != want || !got.Done || got.Failed != 5 || got.Completed != 1995 {
		t.Errorf("onDone status %+v, walk says %+v", got, want)
	}
	var last sim.Time
	for _, j := range b.Jobs {
		if j.CompletedAt > last {
			last = j.CompletedAt
		}
	}
	if at != last || b.DoneAt != last {
		t.Errorf("batch done at %v (DoneAt %v), last job ended at %v", at, b.DoneAt, last)
	}
	if st, _ := svc.Status(b.ID); st != svc.status(b) || !st.Done || st.DoneAt != last {
		t.Errorf("Status = %+v", st)
	}
	sent := svc.Sent()
	mail := sent[len(sent)-1]
	if mail.At != last || mail.Subject != "[Lattice] "+b.ID+" complete" ||
		mail.Body != fmt.Sprintf("All %d jobs finished (%d completed, %d failed). Results are ready for download.",
			want.Total, want.Completed, want.Failed) {
		t.Errorf("completion mail = %+v", mail)
	}
	for _, m := range sent[:len(sent)-1] {
		if m.Subject == mail.Subject {
			t.Errorf("second completion mail at %v", m.At)
		}
	}
}

// TestJobDoneDoesNotRecount pins the shape of the fix: JobDone runs
// once per terminal job, so neither it nor finish may call the O(jobs)
// status walk.
func TestJobDoneDoesNotRecount(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "batch.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || (fn.Name.Name != "JobDone" && fn.Name.Name != "finish") {
			continue
		}
		found++
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "status" {
				t.Errorf("%s calls status()", fn.Name.Name)
			}
			return true
		})
	}
	if found != 2 {
		t.Fatalf("batch.go has %d of JobDone and finish", found)
	}
}

// TestSettleModel drives 300 generated batches of 1–40 jobs through
// random interleavings of the two ways a job ends — the scheduler
// journaling a completion or a failure and reporting it to JobDone,
// once per job — and
// after every step holds the counters to a recount of the jobs
// reported so far. The batch must finish exactly once, at the report
// of its last open job, with one completion mail, one onDone and one
// job-failure mail per failure.
func TestSettleModel(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		g := sim.NewRNG(seed)
		_, svc := testService(t)
		n := 1 + g.Intn(40)
		var dones []BatchStatus
		b, err := svc.Submit(Request{Sub: smallSubmission(n), Origin: "wf-000001/model", Direct: true,
			OnDone: func(st BatchStatus) { dones = append(dones, st) }})
		if err != nil {
			t.Fatal(err)
		}
		if len(b.Jobs) != n {
			t.Fatalf("seed %d: %d jobs, want %d", seed, len(b.Jobs), n)
		}
		open := append([]*metasched.GridJob(nil), b.Jobs...)
		completed, failed := 0, 0
		for step := 0; len(open) > 0; step++ {
			k := g.Intn(len(open))
			j := open[k]
			open = append(open[:k], open[k+1:]...)
			if g.Intn(3) == 0 {
				j.Status, j.FailReason = metasched.StatusFailed, "model failure"
				svc.obs.Record(b.ID, j.ID, obs.StageFail, "hpc", j.FailReason)
				failed++
			} else {
				j.Status = metasched.StatusCompleted
				svc.obs.Record(b.ID, j.ID, obs.StageComplete, "hpc", "")
				completed++
			}
			b.JobDone(j)
			if int(b.completed) != completed || int(b.failed) != failed {
				t.Fatalf("seed %d step %d: tallies %d/%d, %d/%d reported", seed, step, b.completed, b.failed, completed, failed)
			}
			if len(dones) > 0 && len(open) > 0 {
				t.Fatalf("seed %d step %d: finished with %d of %d jobs open", seed, step, len(open), n)
			}
		}
		if len(dones) != 1 || dones[0].Completed != completed || dones[0].Failed != failed || dones[0].Total != n {
			t.Fatalf("seed %d: onDone calls %+v, want one with %d completed, %d failed", seed, dones, completed, failed)
		}
		completions, failMails := 0, 0
		for _, m := range svc.Sent() {
			switch {
			case m.Subject == "[Lattice] "+b.ID+" complete":
				completions++
			case m.Subject == "[Lattice] job failure in "+b.ID:
				failMails++
			}
		}
		if completions != 1 || failMails != failed {
			t.Fatalf("seed %d: %d completion mails and %d job-failure mails, want 1 and %d",
				seed, completions, failMails, failed)
		}
	}
}
