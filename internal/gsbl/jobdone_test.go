package gsbl

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"lattice/internal/sim"
)

// TestJobDoneTalliesLikeTheWalk runs a 2000-job batch, some of it
// cancelled through the scheduler (which ends a job without telling the
// service), and holds what jobDone announces from its counters — the
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

// TestJobDoneDoesNotRecount pins the shape of the fix: jobDone runs
// once per terminal job, so it must not call the O(jobs) status walk.
func TestJobDoneDoesNotRecount(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "batch.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "jobDone" {
			continue
		}
		found = true
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "status" {
				t.Errorf("jobDone calls status()")
			}
			return true
		})
	}
	if !found {
		t.Fatal("batch.go has no jobDone")
	}
}
