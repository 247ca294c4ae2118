package gsbl

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"lattice/internal/metasched"
	"lattice/internal/sim"
)

// TestJobDoneTalliesLikeTheWalk runs a 2000-job batch, some of it
// cancelled through the scheduler (which ends a job without telling the
// service), and holds what JobDone announces from its counters — the
// completion mail, the onDone status, the instant — to the full walk
// status() does for the portal.
func TestJobDoneTalliesLikeTheWalk(t *testing.T) {
	eng, svc, mailer := testService(t)
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
	// Cancel from both ends of the batch, running and queued alike.
	for _, i := range []int{0, 1, 700, 1998, 1999} {
		if j := b.Jobs[i]; !svc.sched.Cancel(j.ID) {
			t.Fatalf("cancel %s refused (%v)", j.ID, j.Status)
		}
	}
	if b.done || fired != 0 {
		t.Fatal("a cancellation ended the batch")
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
	sent := mailer.Sent()
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
// random interleavings of the four ways a job ends — the scheduler
// reporting a completion or a failure to JobDone, a Scheduler.Cancel
// (which ends a job without telling the batch) and CancelBatch — and
// after every step holds the settled prefix to an O(n²) recount:
// Jobs[:settled] is terminal and tallied, and every JobDone or
// CancelBatch leaves the cursor at the longest terminal prefix. The
// batch must finish exactly once, at the step that makes every job
// terminal, with one completion mail, one onDone and one job-failure
// mail per reported failure.
func TestSettleModel(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		g := sim.NewRNG(seed)
		_, svc, mailer := testService(t)
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
		terminal := func(j *metasched.GridJob) bool {
			return j.Status == metasched.StatusCompleted || j.Status == metasched.StatusFailed
		}
		// recount is the O(n²) model: the longest prefix of terminal jobs,
		// each prefix checked from scratch.
		recount := func() (prefix, completed, failed int) {
			for i := 0; i <= n; i++ {
				all := true
				for _, j := range b.Jobs[:i] {
					all = all && terminal(j)
				}
				if all {
					prefix = i
				}
			}
			for _, j := range b.Jobs[:prefix] {
				if j.Status == metasched.StatusCompleted {
					completed++
				} else {
					failed++
				}
			}
			return
		}
		reportedFailures, finishedAt := 0, -1
		for step := 0; !b.done || g.Intn(4) > 0; step++ {
			var open []*metasched.GridJob
			for _, j := range b.Jobs {
				if !terminal(j) {
					open = append(open, j)
				}
			}
			wasDone := b.done
			told := true // the batch heard of this step
			switch op := g.Intn(10); {
			case len(open) == 0 || op == 0:
				if err := svc.CancelBatch(b.ID); err != nil {
					t.Fatal(err)
				}
			case op <= 4:
				j := open[g.Intn(len(open))]
				j.Status = metasched.StatusCompleted
				b.JobDone(j)
			case op <= 6:
				j := open[g.Intn(len(open))]
				j.Status, j.FailReason = metasched.StatusFailed, "model failure"
				reportedFailures++
				b.JobDone(j)
			default:
				if !svc.sched.Cancel(open[g.Intn(len(open))].ID) {
					t.Fatalf("seed %d step %d: Scheduler.Cancel refused an open job", seed, step)
				}
				told = false
			}
			prefix, completed, failed := recount()
			settled := int(b.completed + b.failed)
			if settled > prefix || (told && !b.done && settled != prefix) {
				t.Fatalf("seed %d step %d: settled %d, terminal prefix %d", seed, step, settled, prefix)
			}
			sc, sf := 0, 0
			for _, j := range b.Jobs[:settled] {
				if j.Status == metasched.StatusCompleted {
					sc++
				} else {
					sf++
				}
			}
			if int(b.completed) != sc || int(b.failed) != sf {
				t.Fatalf("seed %d step %d: tallies %d/%d, prefix holds %d/%d", seed, step, b.completed, b.failed, sc, sf)
			}
			if b.done && !wasDone {
				if finishedAt >= 0 || !told || prefix != n || completed+failed != n {
					t.Fatalf("seed %d step %d: finished with prefix %d of %d (told %v, earlier finish at %d)",
						seed, step, prefix, n, told, finishedAt)
				}
				finishedAt = step
			}
			if !b.done && told && prefix == n {
				t.Fatalf("seed %d step %d: every job terminal and the batch not finished", seed, step)
			}
		}
		_, completed, failed := recount()
		if len(dones) != 1 || dones[0].Completed != completed || dones[0].Failed != failed || dones[0].Total != n {
			t.Fatalf("seed %d: onDone calls %+v, want one with %d completed, %d failed", seed, dones, completed, failed)
		}
		completions, failMails := 0, 0
		for _, m := range mailer.Sent() {
			switch {
			case m.Subject == "[Lattice] "+b.ID+" complete":
				completions++
			case m.Subject == "[Lattice] job failure in "+b.ID:
				failMails++
			}
		}
		if completions != 1 || failMails != reportedFailures {
			t.Fatalf("seed %d: %d completion mails and %d job-failure mails, want 1 and %d",
				seed, completions, failMails, reportedFailures)
		}
	}
}
