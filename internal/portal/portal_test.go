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

	"lattice/internal/wal"

	"lattice/internal/admit"
	"lattice/internal/grid/mds"
	"lattice/internal/gsbl"
	"lattice/internal/lrm"
	"lattice/internal/lrm/pbs"
	"lattice/internal/metasched"
	"lattice/internal/phylo"
	"lattice/internal/sim"
)

// fixture builds a portal over a one-cluster grid.
func fixture(t *testing.T) (*Portal, *httptest.Server, *gsbl.Mailer) {
	t.Helper()
	eng := sim.NewEngine()
	idx, err := mds.NewIndex(eng, 5*sim.Minute)
	if err != nil {
		t.Fatal(err)
	}
	hpc, err := pbs.New(eng, pbs.Config{
		Name: "hpc", Platform: lrm.LinuxX86,
		Nodes: []pbs.NodeClass{{Count: 32, Speed: 2, MemoryMB: 8192}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mds.StartProvider(eng, idx, hpc, sim.Minute); err != nil {
		t.Fatal(err)
	}
	sched := metasched.New(eng, idx, metasched.DefaultConfig())
	if err := sched.Register(hpc, 2); err != nil {
		t.Fatal(err)
	}
	mailer := &gsbl.Mailer{}
	svc := gsbl.NewService(eng, sched, mailer, sim.NewRNG(1))
	p := New(eng, svc)
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
	p, ts, _ := fixture(t)
	// Unconfigured → 404.
	resp, err := http.Get(ts.URL + "/grid/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unconfigured status returned %d", resp.StatusCode)
	}
	p.SetStatusSource(func() any { return map[string]int{"resources": 1} })
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
	p, ts, _ := fixture(t)
	dir := filepath.Join(t.TempDir(), "artifacts") // created by the first download
	p.SetArtifactDir(dir)
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
	err = wal.CopyFileAtomic(path, io.MultiReader(
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

// admitFixture builds a portal over a grid with the ingest model and
// admission controller in front of the door.
func admitFixture(t *testing.T, acfg admit.Config) (*Portal, *httptest.Server) {
	t.Helper()
	eng := sim.NewEngine()
	idx, err := mds.NewIndex(eng, 5*sim.Minute)
	if err != nil {
		t.Fatal(err)
	}
	hpc, err := pbs.New(eng, pbs.Config{
		Name: "hpc", Platform: lrm.LinuxX86,
		Nodes: []pbs.NodeClass{{Count: 32, Speed: 2, MemoryMB: 8192}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mds.StartProvider(eng, idx, hpc, sim.Minute); err != nil {
		t.Fatal(err)
	}
	sched := metasched.New(eng, idx, metasched.DefaultConfig())
	if err := sched.Register(hpc, 2); err != nil {
		t.Fatal(err)
	}
	svc := gsbl.NewService(eng, sched, &gsbl.Mailer{}, sim.NewRNG(1))
	svc.SetIngest(gsbl.IngestConfig{PerSubmissionSeconds: 1, PerReplicateSeconds: 0.25})
	if err := svc.SetAdmit(acfg); err != nil {
		t.Fatal(err)
	}
	p := New(eng, svc)
	ts := httptest.NewServer(p.Handler())
	t.Cleanup(ts.Close)
	return p, ts
}

// TestCreateJobAdmission walks the admission-aware submission path: an
// admitted submission is acknowledged 202 (queued behind the door) and
// gains ownership when the drain accepts it; a quota-exhausted repeat
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

	// Draining the door registers ownership for the accepted batch.
	p.Pump(sim.Hour)
	p.mu.Lock()
	var owned []string
	for id, owner := range p.owners {
		if owner == "stampede@example.org" {
			owned = append(owned, id)
		}
	}
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
