package portal

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"lattice/internal/admit"
	"lattice/internal/dag"
	"lattice/internal/gsbl"
	"lattice/internal/obs"
	"lattice/internal/phylo"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

// Portal serves the science-portal HTTP interface over a gsbl.Service.
// All handlers serialize access to the (single-threaded) simulation
// through one mutex. It keeps no record of who owns what: a batch or a
// workflow run is visible when the service or the workflow engine
// holds it, and its owner is the e-mail it was submitted under — so
// whatever path created it (form, API, boot flag, crash replay), the
// portal shows it.
type Portal struct {
	mu      sync.Mutex
	eng     *sim.Engine
	svc     *gsbl.Service
	app     *gsbl.AppDescription
	users   map[string]string // token → email
	nextTok int
	opts    Options
}

// Durability is the write-ahead-log hook for portal account state.
// Called under the portal lock; implementations must not call back
// into the portal.
type Durability interface {
	User(at sim.Time, token, email string)
}

// Options is everything about a Portal that is fixed at construction.
// Obs, Workflows and StatusSource are required; Durable is optional,
// because a non-durable deployment has none.
type Options struct {
	// Obs backs GET /metrics (text exposition) and GET /trace/{batch}
	// (span tree as JSON, folded from the journal per request), and
	// counts failed response writes. The hub's registry and journal have
	// their own synchronization, so these handlers do not take the portal
	// mutex and never block the Pump.
	Obs *obs.Obs
	// Workflows backs POST /workflow/create and GET /workflow/{id}. The
	// engine runs on the simulation goroutine, so handlers access it
	// under the portal mutex exactly as they do the service layer.
	Workflows *dag.Engine
	// StatusSource backs /grid/status — typically the grid's MDS
	// snapshot plus scheduler statistics. It is invoked under the portal
	// mutex, serialized with Pump, so it may read the simulation; it must
	// not re-enter the portal, and what it returns must not share
	// simulation state, because the body is encoded after the mutex is
	// released.
	StatusSource func() any
	// Durable is the write-ahead-log hook; nil disables it.
	Durable Durability
}

// New builds a portal for the GARLI application. It panics when a
// required option is missing: that is a wiring error, not a request.
func New(eng *sim.Engine, svc *gsbl.Service, opts Options) *Portal {
	if opts.Obs == nil || opts.Workflows == nil || opts.StatusSource == nil {
		panic("portal: Options.Obs, Workflows and StatusSource are required")
	}
	return &Portal{
		eng:   eng,
		svc:   svc,
		app:   gsbl.GarliApp(),
		users: make(map[string]string),
		opts:  opts,
	}
}

// RestoreUser re-creates a registered account from the durable log,
// keeping the token counter ahead of every restored token so new
// registrations never collide.
func (p *Portal) RestoreUser(token, email string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.users[token] = email
	var n int
	if _, err := fmt.Sscanf(token, "tok-%06d", &n); err == nil && n > p.nextTok {
		p.nextTok = n
	}
	if p.opts.Durable != nil {
		p.opts.Durable.User(p.eng.Now(), token, email)
	}
}

// WriteJSON serializes v to w with the portal's client-error
// accounting — exported for the cluster front router's merged
// endpoints.
func (p *Portal) WriteJSON(w http.ResponseWriter, v any) { p.writeJSON(w, v) }

// NoteClientErr counts a response body that failed to write: the client
// disconnected mid-response, which a handler cannot report anywhere
// else. Exported for the cluster front router's own endpoints.
func (p *Portal) NoteClientErr() {
	p.opts.Obs.Counter("lattice_portal_client_write_errors_total",
		"Response bodies that failed to write because the client went away").Inc()
}

// LookupToken resolves a registered API token to its email. A cluster
// front router uses it to find the shard that issued a token.
func (p *Portal) LookupToken(token string) (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	email, ok := p.users[token]
	return email, ok
}

// requester resolves the request's API token: sent reports whether the
// request carries one, email is the account it is registered to ("" for
// an unknown token).
func (p *Portal) requester(r *http.Request) (email string, sent bool) {
	tok := r.Header.Get("X-Lattice-Token")
	if tok == "" {
		return "", false
	}
	email, _ = p.LookupToken(tok)
	return email, true
}

// mayRead is the access rule for everything an owner's e-mail guards:
// registered users may only see their own batches and workflow runs;
// guests may query any ID they hold (capability-style).
func (p *Portal) mayRead(r *http.Request, owner string) bool {
	email, sent := p.requester(r)
	return !sent || (email != "" && email == owner)
}

// writeBody writes a response body, recording client disconnects.
func (p *Portal) writeBody(w io.Writer, data []byte) {
	if _, err := w.Write(data); err != nil {
		p.NoteClientErr()
	}
}

// writeJSON sets the JSON content type and encodes v to w, recording
// failed writes.
func (p *Portal) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		p.NoteClientErr()
	}
}

// Handler returns the portal's HTTP mux.
func (p *Portal) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", p.handleIndex)
	mux.HandleFunc("/garli/create", p.handleCreate)
	mux.HandleFunc("/garli/app.xml", p.handleAppXML)
	mux.HandleFunc("/register", p.handleRegister)
	mux.HandleFunc("/myjobs", p.handleMyJobs)
	mux.HandleFunc("/batch/", p.handleBatch)
	mux.HandleFunc("/workflow/create", p.handleWorkflowCreate)
	mux.HandleFunc("/workflow/", p.handleWorkflowStatus)
	mux.HandleFunc("/grid/status", p.handleGridStatus)
	mux.HandleFunc("/metrics", p.handleMetrics)
	mux.HandleFunc("/trace/", p.handleTrace)
	return mux
}

// handleMetrics serves the metrics registry in text exposition format.
func (p *Portal) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p.writeBody(w, []byte(p.opts.Obs.Exposition()))
}

// handleTrace serves /trace/{batch}: the batch's span tree as JSON.
func (p *Portal) handleTrace(w http.ResponseWriter, r *http.Request) {
	batch := strings.TrimPrefix(r.URL.Path, "/trace/")
	if batch == "" {
		http.Error(w, "batch ID required", http.StatusBadRequest)
		return
	}
	spans, ok := p.opts.Obs.Journal.Trace(batch)
	if !ok {
		http.NotFound(w, r)
		return
	}
	p.writeJSON(w, map[string]any{"batch": batch, "spans": spans})
}

// Pump advances the simulated grid by d — the bridge between HTTP
// wall-clock and virtual time (cmd/lattice drives this from a ticker;
// tests call it directly).
func (p *Portal) Pump(d sim.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.eng.RunUntil(p.eng.Now().Add(d))
}

// Locked runs fn under the portal mutex, serialized with Pump and every
// handler that touches the simulation — how a cluster front router
// reads a shard's state. fn must not re-enter the portal.
func (p *Portal) Locked(fn func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fn() //lint:allow lockorder -- running fn under mu is the point: it reads the simulation the pump advances
}

func (p *Portal) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	p.writeBody(w, []byte(fmt.Sprintf(`<html><body><h1>The Lattice Project</h1>
<p>Available grid services:</p>
<ul><li><a href="/garli/create">%s</a></li></ul>
</body></html>`, p.app.Title)))
}

func (p *Portal) handleAppXML(w http.ResponseWriter, r *http.Request) {
	data, err := p.app.XML()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/xml")
	p.writeBody(w, data)
}

// handleRegister creates a registered user and returns an API token.
func (p *Portal) handleRegister(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	email := r.FormValue("email")
	if !strings.Contains(email, "@") || workload.CheckEmail(email) != nil {
		http.Error(w, "valid email required", http.StatusBadRequest)
		return
	}
	p.mu.Lock()
	p.nextTok++
	token := fmt.Sprintf("tok-%06d", p.nextTok)
	p.users[token] = email
	if p.opts.Durable != nil {
		p.opts.Durable.User(p.eng.Now(), token, email)
	}
	p.mu.Unlock()
	p.writeJSON(w, map[string]string{"token": token, "email": email})
}

// identify resolves the requester's email: a registered token takes
// precedence; otherwise guest mode requires an email form value.
func (p *Portal) identify(r *http.Request) (string, bool) {
	if email, sent := p.requester(r); sent {
		return email, email != ""
	}
	email := r.FormValue("email")
	if strings.Contains(email, "@") && workload.CheckEmail(email) == nil {
		return email, true
	}
	return "", false
}

func (p *Portal) handleCreate(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		page, err := RenderForm(p.app)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/html")
		p.writeBody(w, []byte(page))
	case http.MethodPost:
		p.createJob(w, r)
	default:
		http.Error(w, "unsupported method", http.StatusMethodNotAllowed)
	}
}

// createJob parses the form, validates the upload and parameters, and
// submits the batch.
func (p *Portal) createJob(w http.ResponseWriter, r *http.Request) {
	if err := r.ParseMultipartForm(32 << 20); err != nil {
		http.Error(w, "bad form: "+err.Error(), http.StatusBadRequest)
		return
	}
	email, ok := p.identify(r)
	if !ok {
		http.Error(w, "guest submissions require an email address", http.StatusBadRequest)
		return
	}
	spec, replicates, bootstrap, err := p.parseSpec(r)
	if err != nil {
		http.Error(w, "validation failed: "+err.Error(), http.StatusBadRequest)
		return
	}
	sub := workload.Submission{
		Spec:       *spec,
		Replicates: replicates,
		Bootstrap:  bootstrap,
		UserEmail:  email,
	}
	// The one door decides: a batch when the submission was expanded
	// on the spot, an admission refusal of this request (HTTP 429 with
	// the controller's deterministic Retry-After hint), or neither when it
	// is queued behind the door, where it can still be shed later, inside
	// Pump.
	p.mu.Lock()
	batch, err := p.svc.Submit(gsbl.Request{Sub: sub, Origin: "portal"})
	p.mu.Unlock()
	shed, isShed := err.(*admit.Rejection)
	switch {
	case isShed:
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(shed.RetryAfter.Seconds()))))
		http.Error(w, shed.Error(), http.StatusTooManyRequests)
	case err != nil:
		http.Error(w, "validation failed: "+err.Error(), http.StatusBadRequest)
	case batch == nil:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		p.writeJSON(w, map[string]any{"status": "queued", "replicates": replicates})
	default:
		p.writeJSON(w, map[string]any{
			"batch":      batch.ID,
			"jobs":       len(batch.Jobs),
			"replicates": replicates,
		})
	}
}

// parseSpec converts form fields (and the uploaded data file) into a
// job specification, checking the upload with GARLI's validation mode.
// The specification itself is checked once, by the door
// (gsbl.Service.Submit validates the whole submission).
func (p *Portal) parseSpec(r *http.Request) (*workload.JobSpec, int, bool, error) {
	spec, err := workload.ParseSpec(r.FormValue)
	if err != nil {
		return nil, 0, false, err
	}
	replicates, err := strconv.Atoi(p.formValue(r, "replicates"))
	if err != nil {
		return nil, 0, false, fmt.Errorf("parameter replicates: %w", err)
	}
	bootstrap := p.formValue(r, "bootstrap") == "yes"

	// The uploaded alignment defines the data dimensions; GARLI's
	// validation mode checks it before scheduling.
	file, _, err := r.FormFile("datafile")
	if err != nil {
		return nil, 0, false, fmt.Errorf("sequence data file required")
	}
	defer file.Close()
	al, err := phylo.ReadAlignment(file, spec.DataType)
	if err != nil {
		return nil, 0, false, err
	}
	// A NEXUS FORMAT block overrides the form's datatype choice.
	spec.DataType = al.Type
	if err := al.Validate(); err != nil {
		return nil, 0, false, err
	}
	spec.NumTaxa = al.NumTaxa()
	spec.SeqLength = al.Length()
	return &spec, replicates, bootstrap, nil
}

// formValue is the submitted value of the form field name, or the
// default the application description declares for it: the form is
// rendered from that description, so its defaults are stated once.
func (p *Portal) formValue(r *http.Request, name string) string {
	if v := r.FormValue(name); v != "" {
		return v
	}
	for _, prm := range p.app.Params {
		if prm.Name == name {
			return prm.Default
		}
	}
	return ""
}

// handleBatch serves /batch/{id}[/download] with per-user access
// control for registered users.
func (p *Portal) handleBatch(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/batch/")
	parts := strings.SplitN(rest, "/", 2)
	id := parts[0]
	p.mu.Lock()
	b, known := p.svc.Batch(id)
	p.mu.Unlock()
	if !known {
		http.NotFound(w, r)
		return
	}
	if !p.mayRead(r, b.Submission.UserEmail) {
		http.Error(w, "forbidden", http.StatusForbidden)
		return
	}
	if len(parts) == 2 && parts[1] == "download" {
		p.mu.Lock()
		data, err := p.svc.ResultsZip(id)
		p.mu.Unlock()
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.Header().Set("Content-Type", "application/zip")
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%s.zip", id))
		p.writeBody(w, data)
		return
	}
	p.mu.Lock()
	st, err := p.svc.Status(id)
	p.mu.Unlock()
	if err != nil {
		http.NotFound(w, r)
		return
	}
	if r.URL.Query().Get("format") == "json" {
		p.writeJSON(w, st)
		return
	}
	page, err := renderStatus(st)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/html")
	p.writeBody(w, []byte(page))
}

// handleWorkflowCreate accepts a JSON workload.Workflow and submits
// it to the workflow engine. A registered token's email overrides the
// body's userEmail; guests must supply one in the body.
func (p *Portal) handleWorkflowCreate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var wf workload.Workflow
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&wf); err != nil {
		http.Error(w, "bad workflow JSON: "+err.Error(), http.StatusBadRequest)
		return
	}
	if email, sent := p.requester(r); sent {
		if email == "" {
			http.Error(w, "unknown token", http.StatusUnauthorized)
			return
		}
		wf.UserEmail = email
	} else if !strings.Contains(wf.UserEmail, "@") {
		http.Error(w, "guest workflows require a userEmail", http.StatusBadRequest)
		return
	}
	p.mu.Lock()
	run, err := p.opts.Workflows.Submit(wf)
	p.mu.Unlock()
	if err != nil {
		http.Error(w, "validation failed: "+err.Error(), http.StatusBadRequest)
		return
	}
	p.writeJSON(w, map[string]any{
		"workflow": run.ID,
		"stages":   len(run.Order),
	})
}

// handleWorkflowStatus serves /workflow/{id}: per-stage state in
// topological order, with the same per-user access control as
// batches.
func (p *Portal) handleWorkflowStatus(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/workflow/")
	if id == "" || id == "create" {
		http.Error(w, "workflow run ID required", http.StatusBadRequest)
		return
	}
	p.mu.Lock()
	st, err := p.opts.Workflows.Status(id)
	p.mu.Unlock()
	if err != nil {
		http.NotFound(w, r)
		return
	}
	if !p.mayRead(r, st.User) {
		http.Error(w, "forbidden", http.StatusForbidden)
		return
	}
	p.writeJSON(w, st)
}

// handleGridStatus reports the federation's current state.
func (p *Portal) handleGridStatus(w http.ResponseWriter, r *http.Request) {
	var status any
	p.Locked(func() { status = p.opts.StatusSource() })
	p.writeJSON(w, status)
}

// handleMyJobs lists a registered user's batches in creation order.
func (p *Portal) handleMyJobs(w http.ResponseWriter, r *http.Request) {
	email, _ := p.requester(r)
	if email == "" {
		http.Error(w, "registration token required", http.StatusUnauthorized)
		return
	}
	type row struct {
		Batch  string `json:"batch"`
		Status gsbl.BatchStatus
	}
	var rows []row
	p.mu.Lock()
	for _, id := range p.svc.Batches() {
		if b, _ := p.svc.Batch(id); b.Submission.UserEmail != email {
			continue
		}
		if st, err := p.svc.Status(id); err == nil {
			rows = append(rows, row{Batch: id, Status: st})
		}
	}
	p.mu.Unlock()
	p.writeJSON(w, rows)
}
