package portal

import (
	"archive/zip"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"

	"lattice/internal/admit"
	"lattice/internal/dag"
	"lattice/internal/grid/mds"
	"lattice/internal/gsbl"
	"lattice/internal/lrm"
	"lattice/internal/lrm/cluster"
	"lattice/internal/metasched"
	"lattice/internal/obs"
	"lattice/internal/phylo"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

// fixture builds a bare portal over a one-cluster grid.
func fixture(t *testing.T) (*Portal, *httptest.Server, *gsbl.Mailer) {
	t.Helper()
	return fixtureOpts(t, gsbl.Options{}, Options{})
}

// fixtureOpts builds a portal over a one-cluster grid from the given
// service and portal options, always with a workflow engine behind it.
func fixtureOpts(t *testing.T, sopts gsbl.Options, popts Options) (*Portal, *httptest.Server, *gsbl.Mailer) {
	t.Helper()
	eng := sim.NewEngine()
	idx, err := mds.NewIndex(eng, 5*sim.Minute)
	if err != nil {
		t.Fatal(err)
	}
	hpc, err := cluster.New(eng, nil, nil, cluster.Config{
		Kind: "pbs", Name: "hpc", Platform: lrm.LinuxX86,
		Nodes: []cluster.NodeClass{{Count: 32, Cores: 1, Speed: 2, MemoryMB: 8192}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mds.StartProvider(eng, idx, hpc, sim.Minute); err != nil {
		t.Fatal(err)
	}
	sched := metasched.New(eng, idx, metasched.DefaultConfig(), metasched.Options{})
	if err := sched.Register(hpc, 2); err != nil {
		t.Fatal(err)
	}
	mailer := &gsbl.Mailer{}
	svc, err := gsbl.NewService(eng, sched, mailer, sim.NewRNG(1), sopts)
	if err != nil {
		t.Fatal(err)
	}
	popts.Workflows = dag.NewEngine(eng, svc, popts.Obs, dag.Config{})
	p := New(eng, svc, popts)
	ts := httptest.NewServer(p.Handler())
	t.Cleanup(ts.Close)
	return p, ts, mailer
}

// testFASTA generates a small alignment upload body.
func testFASTA(t *testing.T) string {
	t.Helper()
	rng := sim.NewRNG(5)
	m, _ := phylo.NewJC69()
	rs, _ := phylo.NewSiteRates(phylo.RateHomogeneous, 0, 0, 1)
	tree := phylo.RandomTree(phylo.TaxonNames(8), 0.1, rng)
	al, err := phylo.SimulateAlignment(tree, m, rs, 300, rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := al.WriteFASTA(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// multipartForm builds a submission request body.
func multipartForm(t *testing.T, fields map[string]string, fasta string) (string, io.Reader) {
	t.Helper()
	var body bytes.Buffer
	w := multipart.NewWriter(&body)
	for k, v := range fields {
		if err := w.WriteField(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if fasta != "" {
		fw, err := w.CreateFormFile("datafile", "data.fasta")
		if err != nil {
			t.Fatal(err)
		}
		io.WriteString(fw, fasta)
	}
	w.Close()
	return w.FormDataContentType(), &body
}

func TestIndexAndFormPages(t *testing.T) {
	_, ts, _ := fixture(t)
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(page), "Lattice") {
		t.Error("index page missing project name")
	}
	resp, err = http.Get(ts.URL + "/garli/create")
	if err != nil {
		t.Fatal(err)
	}
	form, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, frag := range []string{"ratehetmodel", "datatype", "replicates", "attachmentspertaxon", `type="file"`} {
		if !strings.Contains(string(form), frag) {
			t.Errorf("generated form missing %q", frag)
		}
	}
}

func TestAppXMLServed(t *testing.T) {
	_, ts, _ := fixture(t)
	resp, err := http.Get(ts.URL + "/garli/app.xml")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	app, err := gsbl.ParseAppDescription(data)
	if err != nil {
		t.Fatalf("served XML unparseable: %v", err)
	}
	if app.Name != "garli" {
		t.Errorf("app name %q", app.Name)
	}
}

// submitBatch drives the full guest submission flow and returns the
// batch ID.
func submitBatch(t *testing.T, ts *httptest.Server, fields map[string]string, fasta string) string {
	t.Helper()
	ctype, body := multipartForm(t, fields, fasta)
	resp, err := http.Post(ts.URL+"/garli/create", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submission rejected (%d): %s", resp.StatusCode, raw)
	}
	var out struct {
		Batch string `json:"batch"`
		Jobs  int    `json:"jobs"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("bad response %s: %v", raw, err)
	}
	return out.Batch
}

func TestGuestSubmissionEndToEnd(t *testing.T) {
	p, ts, mailer := fixture(t)
	batch := submitBatch(t, ts, map[string]string{
		"email":        "guest@example.org",
		"datatype":     "nucleotide",
		"ratematrix":   "HKY85",
		"ratehetmodel": "gamma",
		"replicates":   "10",
	}, testFASTA(t))

	// Status before completion.
	resp, err := http.Get(ts.URL + "/batch/" + batch + "?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var st gsbl.BatchStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.Total != 10 {
		t.Fatalf("batch shows %d jobs, want 10", st.Total)
	}
	// Download should 409 while running.
	resp, _ = http.Get(ts.URL + "/batch/" + batch + "/download")
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("download before completion returned %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Let the grid run.
	p.Pump(60 * sim.Day)

	resp, _ = http.Get(ts.URL + "/batch/" + batch + "?format=json")
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if !st.Done || st.Completed != 10 {
		t.Fatalf("batch not done: %+v", st)
	}
	resp, _ = http.Get(ts.URL + "/batch/" + batch + "/download")
	zipData, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(zipData) == 0 {
		t.Fatalf("download failed: %d, %d bytes", resp.StatusCode, len(zipData))
	}
	if resp.Header.Get("Content-Type") != "application/zip" {
		t.Errorf("content type %q", resp.Header.Get("Content-Type"))
	}
	if len(mailer.SentTo("guest@example.org")) < 2 {
		t.Error("guest did not receive notifications")
	}
}

func TestValidationPrePassRejectsBadUpload(t *testing.T) {
	_, ts, _ := fixture(t)
	// Ragged alignment must be rejected before scheduling.
	bad := ">a\nACGT\n>b\nAC\n>c\nACGT\n"
	ctype, body := multipartForm(t, map[string]string{"email": "g@x.org", "replicates": "5"}, bad)
	resp, err := http.Post(ts.URL+"/garli/create", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad alignment accepted: %d", resp.StatusCode)
	}
}

func TestValidationRejectsMissingFileAndEmail(t *testing.T) {
	_, ts, _ := fixture(t)
	ctype, body := multipartForm(t, map[string]string{"email": "g@x.org"}, "")
	resp, _ := http.Post(ts.URL+"/garli/create", ctype, body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing data file accepted: %d", resp.StatusCode)
	}
	resp.Body.Close()
	ctype, body = multipartForm(t, map[string]string{}, testFASTA(t))
	resp, _ = http.Post(ts.URL+"/garli/create", ctype, body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing email accepted: %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestReplicateLimitEnforced(t *testing.T) {
	_, ts, _ := fixture(t)
	ctype, body := multipartForm(t, map[string]string{
		"email": "g@x.org", "replicates": "2001",
	}, testFASTA(t))
	resp, err := http.Post(ts.URL+"/garli/create", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("2001 replicates accepted: %d", resp.StatusCode)
	}
}

func TestRegisteredUserFlow(t *testing.T) {
	_, ts, _ := fixture(t)
	// Register.
	resp, err := http.Post(ts.URL+"/register", "application/x-www-form-urlencoded",
		strings.NewReader("email=alice@lab.edu"))
	if err != nil {
		t.Fatal(err)
	}
	var reg struct{ Token string }
	json.NewDecoder(resp.Body).Decode(&reg)
	resp.Body.Close()
	if reg.Token == "" {
		t.Fatal("no token issued")
	}

	// Submit with token (no email field needed).
	ctype, body := multipartForm(t, map[string]string{"replicates": "3"}, testFASTA(t))
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/garli/create", body)
	req.Header.Set("Content-Type", ctype)
	req.Header.Set("X-Lattice-Token", reg.Token)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("registered submission rejected: %s", raw)
	}
	var out struct{ Batch string }
	json.Unmarshal(raw, &out)

	// /myjobs lists it.
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/myjobs", nil)
	req.Header.Set("X-Lattice-Token", reg.Token)
	resp, _ = http.DefaultClient.Do(req)
	var rows []struct{ Batch string }
	json.NewDecoder(resp.Body).Decode(&rows)
	resp.Body.Close()
	if len(rows) != 1 || rows[0].Batch != out.Batch {
		t.Errorf("myjobs rows = %+v", rows)
	}

	// A different registered user cannot view it.
	resp, _ = http.Post(ts.URL+"/register", "application/x-www-form-urlencoded",
		strings.NewReader("email=eve@lab.edu"))
	var reg2 struct{ Token string }
	json.NewDecoder(resp.Body).Decode(&reg2)
	resp.Body.Close()
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/batch/"+out.Batch, nil)
	req.Header.Set("X-Lattice-Token", reg2.Token)
	resp, _ = http.DefaultClient.Do(req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("cross-user access returned %d, want 403", resp.StatusCode)
	}
}

func TestRegisterValidation(t *testing.T) {
	_, ts, _ := fixture(t)
	resp, _ := http.Post(ts.URL+"/register", "application/x-www-form-urlencoded",
		strings.NewReader("email=notanemail"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad email accepted: %d", resp.StatusCode)
	}
	resp, _ = http.Get(ts.URL + "/register")
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /register returned %d", resp.StatusCode)
	}
}

func TestUnknownBatch404(t *testing.T) {
	_, ts, _ := fixture(t)
	resp, _ := http.Get(ts.URL + "/batch/batch-999999")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown batch returned %d", resp.StatusCode)
	}
}

func TestNEXUSUploadAccepted(t *testing.T) {
	_, ts, _ := fixture(t)
	nexus := `#NEXUS
BEGIN DATA;
  DIMENSIONS NTAX=4 NCHAR=12;
  FORMAT DATATYPE=DNA;
  MATRIX
    a ACGTACGTACGT
    b ACGTACGAACGA
    c ACGAACGTACGT
    d ACGTACTTACGT
  ;
END;
`
	batch := submitBatch(t, ts, map[string]string{
		"email":      "nexus@lab.edu",
		"replicates": "3",
	}, nexus)
	if batch == "" {
		t.Fatal("no batch created from NEXUS upload")
	}
}

func TestGridStatusEndpoint(t *testing.T) {
	_, ts, _ := fixture(t)
	// Unconfigured → 404.
	resp, err := http.Get(ts.URL + "/grid/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unconfigured status returned %d", resp.StatusCode)
	}
	_, ts, _ = fixtureOpts(t, gsbl.Options{}, Options{
		StatusSource: func() any { return map[string]int{"resources": 1} }})
	resp, err = http.Get(ts.URL + "/grid/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["resources"] != 1 {
		t.Errorf("status payload %v", out)
	}
}

// TestArtifactCacheAtomic covers the durable artifact path: when an
// artifact directory is configured, downloading a finished batch
// publishes the result zip on disk via atomic temp+rename, and an
// interrupted rewrite never clobbers the published archive.
func TestArtifactCacheAtomic(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "artifacts") // created by the first download
	p, ts, _ := fixtureOpts(t, gsbl.Options{}, Options{ArtifactDir: dir})
	batch := submitBatch(t, ts, map[string]string{
		"email":        "durable@example.org",
		"datatype":     "nucleotide",
		"ratematrix":   "HKY85",
		"ratehetmodel": "gamma",
		"replicates":   "4",
	}, testFASTA(t))
	p.Pump(60 * sim.Day)

	resp, err := http.Get(ts.URL + "/batch/" + batch + "/download")
	if err != nil {
		t.Fatal(err)
	}
	served, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("download returned %d", resp.StatusCode)
	}

	path := filepath.Join(dir, batch+".zip")
	cached, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no cached artifact: %v", err)
	}
	if !bytes.Equal(cached, served) {
		t.Fatalf("cached artifact (%d bytes) != served download (%d bytes)", len(cached), len(served))
	}
	zr, err := zip.NewReader(bytes.NewReader(cached), int64(len(cached)))
	if err != nil {
		t.Fatalf("cached artifact is not a valid zip: %v", err)
	}
	if len(zr.File) == 0 {
		t.Fatal("cached zip is empty")
	}

	// A writer dying mid-copy must leave the published archive intact
	// and litter nothing.
	half := len(cached) / 2
	err = writeFileAtomic(path, io.MultiReader(
		bytes.NewReader(cached[:half]),
		iotest.ErrReader(errors.New("disk yanked")),
	))
	if err == nil {
		t.Fatal("interrupted copy reported success")
	}
	after, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(after, cached) {
		t.Fatalf("interrupted rewrite damaged the published artifact (err=%v)", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp file %s littered after interrupted copy", e.Name())
		}
	}
}

// admitFixture builds a portal whose service has the front door and the
// admission controller in front of it.
func admitFixture(t *testing.T, acfg admit.Config) (*Portal, *httptest.Server) {
	t.Helper()
	p, ts, _ := fixtureOpts(t, gsbl.Options{
		Ingest: gsbl.IngestConfig{PerSubmissionSeconds: 1, PerReplicateSeconds: 0.25},
		Admit:  acfg,
	}, Options{})
	return p, ts
}

// TestCreateJobAdmission walks the admission-aware submission path: an
// admitted submission is acknowledged 202 (queued behind the door) and
// becomes visible when the drain accepts it; a quota-exhausted repeat
// is answered 429 with the controller's Retry-After hint.
func TestCreateJobAdmission(t *testing.T) {
	p, ts := admitFixture(t, admit.Config{UserRatePerHour: 3600, UserBurst: 10})
	fields := map[string]string{
		"email":        "stampede@example.org",
		"datatype":     "nucleotide",
		"ratematrix":   "HKY85",
		"ratehetmodel": "gamma",
		"replicates":   "8",
	}
	fasta := testFASTA(t)

	ctype, body := multipartForm(t, fields, fasta)
	resp, err := http.Post(ts.URL+"/garli/create", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("admitted submission returned %d: %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "queued") {
		t.Fatalf("202 body %s does not say queued", raw)
	}

	// Second 8-replicate submission at the same virtual instant: 2
	// tokens left in the bucket, refill 1/s, so retry after 6s.
	ctype, body = multipartForm(t, fields, fasta)
	resp, err = http.Post(ts.URL+"/garli/create", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("quota-exhausted submission returned %d: %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("Retry-After"); got != "6" {
		t.Fatalf("Retry-After = %q, want 6", got)
	}
	if !strings.Contains(string(raw), "quota") {
		t.Fatalf("429 body %s does not name the quota", raw)
	}

	// Draining the door makes the accepted batch visible.
	p.Pump(sim.Hour)
	p.mu.Lock()
	owned := p.svc.Batches()
	p.mu.Unlock()
	if len(owned) != 1 {
		t.Fatalf("owned batches after drain = %v, want exactly one", owned)
	}
	resp, err = http.Get(ts.URL + "/batch/" + owned[0] + "?format=json")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status for drained submission returned %d", resp.StatusCode)
	}
}

// do sends one request with an optional API token and returns the status
// code and body.
func do(t *testing.T, method, url, token, ctype string, body io.Reader) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if token != "" {
		req.Header.Set("X-Lattice-Token", token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// registerUser creates an account and returns its token.
func registerUser(t *testing.T, ts *httptest.Server, email string) string {
	t.Helper()
	code, raw := do(t, http.MethodPost, ts.URL+"/register", "", "application/x-www-form-urlencoded",
		strings.NewReader("email="+email))
	var reg struct{ Token string }
	if err := json.Unmarshal(raw, &reg); err != nil || reg.Token == "" {
		t.Fatalf("register %s: %d %s", email, code, raw)
	}
	return reg.Token
}

// smallSpec is a minutes-scale job specification.
func smallSpec() workload.JobSpec {
	return workload.JobSpec{
		DataType: phylo.Nucleotide, SubstModel: "HKY85", RateHet: phylo.RateGamma,
		NumRateCats: 4, GammaShape: 0.5, NumTaxa: 12, SeqLength: 500, SearchReps: 1,
		StartingTree: phylo.StartStepwise, AttachmentsPerTaxon: 10, Seed: 7,
	}
}

// TestWorkflowEndpoints walks POST /workflow/create and GET
// /workflow/<id>: guest and token creation (the token's e-mail overrides
// the body's), and every refusal the two handlers can give.
func TestWorkflowEndpoints(t *testing.T) {
	_, ts, _ := fixture(t)
	alice, eve := registerUser(t, ts, "alice@lab.edu"), registerUser(t, ts, "eve@lab.edu")
	spec := smallSpec()
	wfJSON := func(email string) io.Reader {
		raw, err := json.Marshal(dag.StandardAnalysis("analysis", email, 3, spec, 2, 3))
		if err != nil {
			t.Fatal(err)
		}
		return bytes.NewReader(raw)
	}
	create := func(token, email string) (int, string) {
		code, raw := do(t, http.MethodPost, ts.URL+"/workflow/create", token, "application/json", wfJSON(email))
		var out struct {
			Workflow string
			Stages   int
		}
		if code == http.StatusOK {
			if err := json.Unmarshal(raw, &out); err != nil || out.Stages != 4 {
				t.Fatalf("create body %s: %v", raw, err)
			}
		}
		return code, out.Workflow
	}
	owner := func(id, token string) string {
		code, raw := do(t, http.MethodGet, ts.URL+"/workflow/"+id, token, "", nil)
		if code != http.StatusOK {
			t.Fatalf("GET /workflow/%s = %d: %s", id, code, raw)
		}
		var st dag.RunStatus
		if err := json.Unmarshal(raw, &st); err != nil || len(st.Stages) != 4 {
			t.Fatalf("status body %s: %v", raw, err)
		}
		return st.User
	}

	code, guestRun := create("", "guest@example.org")
	if code != http.StatusOK {
		t.Fatalf("guest create = %d", code)
	}
	if got := owner(guestRun, ""); got != "guest@example.org" {
		t.Errorf("guest run owned by %q", got)
	}
	code, aliceRun := create(alice, "someone-else@example.org")
	if code != http.StatusOK {
		t.Fatalf("token create = %d", code)
	}
	if got := owner(aliceRun, alice); got != "alice@lab.edu" {
		t.Errorf("token run owned by %q, want the token's e-mail", got)
	}

	for _, tc := range []struct {
		name   string
		method string
		path   string
		token  string
		body   io.Reader
		want   int
	}{
		{"guest without an e-mail", http.MethodPost, "/workflow/create", "", wfJSON(""), http.StatusBadRequest},
		{"unknown token creates", http.MethodPost, "/workflow/create", "tok-999999", wfJSON("x@example.org"), http.StatusUnauthorized},
		{"malformed JSON", http.MethodPost, "/workflow/create", alice, strings.NewReader("{not json"), http.StatusBadRequest},
		{"invalid workflow", http.MethodPost, "/workflow/create", alice, strings.NewReader(`{"name":"empty"}`), http.StatusBadRequest},
		{"GET on create", http.MethodGet, "/workflow/create", alice, nil, http.StatusMethodNotAllowed},
		{"other user's token reads", http.MethodGet, "/workflow/" + aliceRun, eve, nil, http.StatusForbidden},
		{"unknown token reads", http.MethodGet, "/workflow/" + aliceRun, "tok-999999", nil, http.StatusForbidden},
		{"guest reads a run it holds the ID of", http.MethodGet, "/workflow/" + aliceRun, "", nil, http.StatusOK},
		{"unknown run", http.MethodGet, "/workflow/wf-999999", alice, nil, http.StatusNotFound},
		{"no run ID", http.MethodGet, "/workflow/", alice, nil, http.StatusBadRequest},
		{"a run is not a batch", http.MethodGet, "/batch/" + aliceRun, alice, nil, http.StatusNotFound},
	} {
		if code, raw := do(t, tc.method, ts.URL+tc.path, tc.token, "application/json", tc.body); code != tc.want {
			t.Errorf("%s: %s %s = %d, want %d (%s)", tc.name, tc.method, tc.path, code, tc.want, raw)
		}
	}
}

// TestMyJobsListsInCreationOrder pins the /myjobs row order (it used to
// follow a map's iteration order) and its scope: every batch submitted
// under the account's e-mail, however it reached the service, and
// nobody else's.
func TestMyJobsListsInCreationOrder(t *testing.T) {
	p, ts, _ := fixture(t)
	alice := registerUser(t, ts, "alice@lab.edu")
	fasta := testFASTA(t)
	var want []string
	for i := 0; i < 12; i++ {
		fields := map[string]string{"replicates": "1"}
		token := alice
		if i%3 == 2 {
			fields["email"], token = "guest@example.org", ""
		}
		ctype, body := multipartForm(t, fields, fasta)
		code, raw := do(t, http.MethodPost, ts.URL+"/garli/create", token, ctype, body)
		var out struct{ Batch string }
		if err := json.Unmarshal(raw, &out); err != nil || code != http.StatusOK {
			t.Fatalf("create %d: %d %s", i, code, raw)
		}
		if token != "" {
			want = append(want, out.Batch)
		}
	}
	// One that never went through the form: same e-mail, another origin.
	p.mu.Lock()
	sub := workload.Submission{Spec: smallSpec(), Replicates: 1, UserEmail: "alice@lab.edu"}
	b, err := p.svc.Submit(gsbl.Request{Sub: sub, Origin: "core", Direct: true})
	p.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, b.ID)

	for round := 0; round < 3; round++ {
		code, raw := do(t, http.MethodGet, ts.URL+"/myjobs", alice, "", nil)
		var rows []struct{ Batch string }
		if err := json.Unmarshal(raw, &rows); err != nil || code != http.StatusOK {
			t.Fatalf("/myjobs: %d %s", code, raw)
		}
		var got []string
		for _, r := range rows {
			got = append(got, r.Batch)
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("/myjobs rows %v, want %v", got, want)
		}
	}
	if code, _ := do(t, http.MethodGet, ts.URL+"/myjobs", "", "", nil); code != http.StatusUnauthorized {
		t.Errorf("/myjobs without a token = %d, want 401", code)
	}
}

// failingWriter is a ResponseWriter whose client has gone away.
type failingWriter struct{ httptest.ResponseRecorder }

func (*failingWriter) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }

// TestClientWriteErrorsCounted: a response body that cannot be written
// shows up on /metrics, and the series does not exist before the first
// failure.
func TestClientWriteErrorsCounted(t *testing.T) {
	hub := obs.New(sim.NewEngine())
	p, _, _ := fixtureOpts(t, gsbl.Options{}, Options{Obs: hub})
	const series = "lattice_portal_client_write_errors_total"
	if strings.Contains(hub.Exposition(), series) {
		t.Fatal("the counter exists before any write failed")
	}
	p.Handler().ServeHTTP(&failingWriter{}, httptest.NewRequest(http.MethodGet, "/", nil))
	p.Handler().ServeHTTP(&failingWriter{}, httptest.NewRequest(http.MethodGet, "/garli/app.xml", nil))
	p.WriteJSON(&failingWriter{}, map[string]int{"shards": 2})
	metrics, err := obs.ParseExposition(hub.Exposition())
	if err != nil {
		t.Fatal(err)
	}
	if metrics[series] != 3 {
		t.Fatalf("%s = %v after three failed writes, want 3", series, metrics[series])
	}
}
