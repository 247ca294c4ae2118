package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lattice/internal/admit"
	"lattice/internal/dag"
	"lattice/internal/gsbl"
	"lattice/internal/phylo"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

// doorSubmission is a minutes-scale submission, so a table of
// deployments runs to done quickly.
func doorSubmission(email string, seed int64) workload.Submission {
	return workload.Submission{
		Spec: workload.JobSpec{
			DataType: phylo.Nucleotide, SubstModel: "HKY85",
			RateHet: phylo.RateGamma, NumRateCats: 4, GammaShape: 0.5,
			NumTaxa: 12, SeqLength: 500, SearchReps: 1,
			StartingTree: phylo.StartStepwise, AttachmentsPerTaxon: 10, Seed: seed,
		},
		Replicates: 4,
		UserEmail:  email,
	}
}

// serve answers one portal request in-process. A non-empty body makes it
// a POST of that content type.
func serve(l *Lattice, path, token, ctype string, body []byte) *httptest.ResponseRecorder {
	method := http.MethodGet
	if body != nil {
		method = http.MethodPost
	}
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if token != "" {
		req.Header.Set("X-Lattice-Token", token)
	}
	rec := httptest.NewRecorder()
	l.Portal.Handler().ServeHTTP(rec, req)
	return rec
}

// status is the status code of a GET.
func status(l *Lattice, path, token string) int {
	return serve(l, path, token, "", nil).Code
}

// register creates a portal account and returns its token.
func register(t *testing.T, l *Lattice, email string) string {
	t.Helper()
	rec := serve(l, "/register", "", "application/x-www-form-urlencoded", []byte("email="+email))
	var out struct{ Token string }
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out.Token == "" {
		t.Fatalf("register %s: %d %s", email, rec.Code, rec.Body)
	}
	return out.Token
}

// createWorkflow posts a workflow through the portal and returns the run ID.
func createWorkflow(t *testing.T, l *Lattice, token string, wf workload.Workflow) string {
	t.Helper()
	body, err := json.Marshal(wf)
	if err != nil {
		t.Fatal(err)
	}
	rec := serve(l, "/workflow/create", token, "application/json", body)
	var out struct{ Workflow string }
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out.Workflow == "" {
		t.Fatalf("workflow create: %d %s", rec.Code, rec.Body)
	}
	return out.Workflow
}

// demoWorkflow is the four-stage standard analysis at a size that
// finishes in virtual hours.
func demoWorkflow(email string) workload.Workflow {
	return dag.StandardAnalysis("standard-analysis", email, 3, doorSubmission(email, 3).Spec, 2, 3)
}

// TestBootWorkflowVisible: a workflow submitted without the portal —
// what `lattice -workflow` does at boot — is served at the URL the
// binary prints. It answered 404 while the portal kept its own list of
// what it had created.
func TestBootWorkflowVisible(t *testing.T) {
	lat, err := New(recoverConfig(31))
	if err != nil {
		t.Fatal(err)
	}
	run, err := lat.SubmitWorkflow(demoWorkflow("demo@example.edu"))
	if err != nil {
		t.Fatal(err)
	}
	if code := status(lat, "/workflow/"+run.ID, ""); code != http.StatusOK {
		t.Fatalf("GET /workflow/%s = %d, want 200", run.ID, code)
	}
	if code := status(lat, "/workflow/wf-999999", ""); code != http.StatusNotFound {
		t.Fatalf("unknown run = %d, want 404", code)
	}
}

// TestWorkflowStageBatchesVisible: every batch ID a /workflow/<id> body
// lists is itself served at /batch/<id>, under the workflow owner's
// access rule.
func TestWorkflowStageBatchesVisible(t *testing.T) {
	lat, err := New(recoverConfig(32))
	if err != nil {
		t.Fatal(err)
	}
	alice, eve := register(t, lat, "alice@lab.edu"), register(t, lat, "eve@lab.edu")
	id := createWorkflow(t, lat, alice, demoWorkflow("ignored@example.edu"))
	lat.Portal.Pump(2 * sim.Day)

	rec := serve(lat, "/workflow/"+id, alice, "", nil)
	var st dag.RunStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("GET /workflow/%s: %d %s", id, rec.Code, rec.Body)
	}
	if st.State != dag.RunComplete || len(st.Stages) != 4 {
		t.Fatalf("workflow after two days: %+v", st)
	}
	for _, sg := range st.Stages {
		if sg.BatchID == "" {
			t.Fatalf("stage %s lists no batch", sg.ID)
		}
		if code := status(lat, "/batch/"+sg.BatchID+"?format=json", alice); code != http.StatusOK {
			t.Errorf("stage %s: GET /batch/%s = %d for the owner, want 200", sg.ID, sg.BatchID, code)
		}
		if code := status(lat, "/batch/"+sg.BatchID, eve); code != http.StatusForbidden {
			t.Errorf("stage %s: GET /batch/%s = %d for another user, want 403", sg.ID, sg.BatchID, code)
		}
	}
}

// TestPortalStateSurvivesRecover: what a user created through the
// portal — an account, a workflow, a batch — answers the same after the
// coordinator is killed and recovered. The workflow answered 404:
// replay re-injects it into the workflow engine, and only the portal's
// private list knew who owned it.
func TestPortalStateSurvivesRecover(t *testing.T) {
	cfg := recoverConfig(33)
	cfg.Durable = t.TempDir() + "/wal"
	lat, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	alice, eve := register(t, lat, "alice@lab.edu"), register(t, lat, "eve@lab.edu")
	wfID := createWorkflow(t, lat, alice, demoWorkflow("ignored@example.edu"))
	lat.Portal.Pump(sim.Hour)

	var form bytes.Buffer
	mw := multipart.NewWriter(&form)
	for k, v := range map[string]string{"ratematrix": "HKY85", "replicates": "3"} {
		if err := mw.WriteField(k, v); err != nil {
			t.Fatal(err)
		}
	}
	fw, err := mw.CreateFormFile("datafile", "data.fasta")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		fmt.Fprintf(fw, ">taxon%d\n%s\n", i, strings.Repeat("ACGTTGCA"[i:i+3], 40))
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	rec := serve(lat, "/garli/create", alice, mw.FormDataContentType(), form.Bytes())
	var created struct{ Batch string }
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil || created.Batch == "" {
		t.Fatalf("create batch: %d %s", rec.Code, rec.Body)
	}
	lat.Portal.Pump(sim.Hour)

	check := func(when string, l *Lattice) {
		t.Helper()
		for _, path := range []string{"/workflow/" + wfID, "/batch/" + created.Batch + "?format=json"} {
			if code := status(l, path, alice); code != http.StatusOK {
				t.Errorf("%s: GET %s = %d for its owner, want 200", when, path, code)
			}
			if code := status(l, path, eve); code != http.StatusForbidden {
				t.Errorf("%s: GET %s = %d for another user, want 403", when, path, code)
			}
		}
	}
	check("before the kill", lat)
	if err := lat.CloseDurable(); err != nil {
		t.Fatal(err)
	}
	recovered, err := Recover(cfg.Durable, cfg)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer recovered.CloseDurable()
	check("after Recover", recovered)
}

// TestReplayEquivalenceOverTheOneDoor: whatever origin a request
// carries, whichever door the deployment models and whether or not the
// request goes through it, a killed and recovered coordinator ends
// indistinguishable from one that never died — journal digest, every
// batch's origin and portal visibility, the count of reference forks,
// and the submissions the admission layer shed.
func TestReplayEquivalenceOverTheOneDoor(t *testing.T) {
	doors := []struct {
		name   string
		ingest gsbl.IngestConfig
		admit  admit.Config
	}{
		{"off", gsbl.IngestConfig{}, admit.Config{}},
		{"fifo", gsbl.IngestConfig{PerSubmissionSeconds: 10, PerReplicateSeconds: 1}, admit.Config{}},
		{"admit", gsbl.IngestConfig{PerSubmissionSeconds: 10, PerReplicateSeconds: 1}, admit.Config{MaxQueueDepth: 1}},
	}
	for _, origin := range []string{"core", "portal", "service", "shard1/core"} {
		for _, door := range doors {
			for _, direct := range []bool{true, false} {
				origin, door, direct := origin, door, direct
				name := fmt.Sprintf("%s/%s/queued", strings.ReplaceAll(origin, "/", "-"), door.name)
				if direct {
					name = strings.TrimSuffix(name, "queued") + "direct"
				}
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					// Estimator and reference cluster are on in this federation,
					// so core's retraining fork is live.
					cfg := recoverConfig(34)
					cfg.Ingest, cfg.Admit = door.ingest, door.admit

					// The same live history on both: three arrivals before the
					// engine ever steps, a fourth while the door is still busy
					// with them, then five more virtual seconds.
					live := func(l *Lattice) {
						t.Helper()
						offer := func(user string, seed int64) {
							if _, err := l.submit(gsbl.Request{Sub: doorSubmission(user+"@example.edu", seed), Origin: origin, Direct: direct}); err != nil {
								t.Fatal(err)
							}
						}
						offer("ann", 1)
						offer("bob", 2)
						offer("cyd", 3)
						l.Engine.RunUntil(15)
						offer("dee", 4)
						l.Engine.RunUntil(20)
					}
					twin, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					live(twin)

					cfg.Durable = t.TempDir() + "/wal"
					killed, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					live(killed)
					if err := killed.CloseDurable(); err != nil {
						t.Fatal(err)
					}
					rec, err := Recover(cfg.Durable, cfg)
					if err != nil {
						t.Fatalf("Recover: %v", err)
					}
					defer rec.CloseDurable()
					if rec.Recovery == nil || rec.Recovery.Inputs != 4 {
						t.Fatalf("recovery report %+v, want 4 inputs replayed", rec.Recovery)
					}

					quota, overload := twin.Service.Sheds()
					queued := !direct && door.ingest.Enabled()
					if wantShed := queued && door.admit.Enabled(); (overload > 0) != wantShed || quota != 0 {
						t.Fatalf("twin sheds = (%d quota, %d overload), want overload sheds: %v", quota, overload, wantShed)
					}
					// Both stop on the same hour boundary, so their journals
					// stay comparable.
					want := 4 - overload
					for _, l := range []*Lattice{twin, rec} {
						for at := sim.Time(sim.Hour); !allDone(l, want); at = at.Add(sim.Hour) {
							if at > sim.Time(20*sim.Day) {
								t.Fatalf("%d of %d batches done after 20 days", len(l.Service.Batches()), want)
							}
							l.Engine.RunUntil(at)
						}
					}

					if got, want := rec.Obs.Journal.Digest(), twin.Obs.Journal.Digest(); got != want {
						t.Errorf("recovered digest %.12s != uninterrupted %.12s", got, want)
					}
					if q, o := rec.Service.Sheds(); q != quota || o != overload {
						t.Errorf("recovered sheds = (%d, %d), uninterrupted (%d, %d)", q, o, quota, overload)
					}
					// The fork is a direct-"core" feature: one per request the
					// service expanded on the spot, none behind a door.
					wantForks := 0
					if origin == "core" && !queued {
						wantForks = 4
					}
					if twin.Retrains() != wantForks || rec.Retrains() != wantForks {
						t.Errorf("reference forks: uninterrupted %d, recovered %d, want %d", twin.Retrains(), rec.Retrains(), wantForks)
					}
					ids := twin.Service.Batches()
					if got := rec.Service.Batches(); strings.Join(got, ",") != strings.Join(ids, ",") {
						t.Fatalf("recovered batches %v, uninterrupted %v", got, ids)
					}
					for _, id := range ids {
						tb, _ := twin.Service.Batch(id)
						rb, _ := rec.Service.Batch(id)
						if rb.Origin != origin || tb.Origin != origin || rb.Submission.UserEmail != tb.Submission.UserEmail {
							t.Errorf("%s: recovered (%s, %s), uninterrupted (%s, %s), want origin %s",
								id, rb.Origin, rb.Submission.UserEmail, tb.Origin, tb.Submission.UserEmail, origin)
						}
						path := "/batch/" + id + "?format=json"
						if a, b := status(twin, path, ""), status(rec, path, ""); a != http.StatusOK || b != http.StatusOK {
							t.Errorf("GET %s: uninterrupted %d, recovered %d, want 200 on both", path, a, b)
						}
					}
				})
			}
		}
	}
}

// allDone reports whether the lattice holds want batches, all terminal.
func allDone(l *Lattice, want int) bool {
	ids := l.Service.Batches()
	if len(ids) != want {
		return false
	}
	for _, id := range ids {
		if st, err := l.Service.Status(id); err != nil || !st.Done {
			return false
		}
	}
	return true
}
