package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"lattice/internal/faults"
	"lattice/internal/gsbl"
	"lattice/internal/metasched"
	"lattice/internal/phylo"
	"lattice/internal/shard"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

// clusterBase is a small all-PBS federation template: deterministic
// (no per-machine jitter draws), fast, and homogeneous so digests
// depend only on routing and scheduling.
func clusterBase(seed int64) Config {
	var res []ResourceSpec
	for i := 0; i < 4; i++ {
		res = append(res, ResourceSpec{
			Kind: "pbs", Name: fmt.Sprintf("pbs%02d", i),
			Nodes: 16, Speed: 2.0, MemMB: 4096,
		})
	}
	return Config{
		Seed:      seed,
		Scheduler: metasched.DefaultConfig(),
		Resources: res,
	}
}

func clusterSubmission(email string, seed int64) workload.Submission {
	return workload.Submission{
		Spec: workload.JobSpec{
			DataType: phylo.Nucleotide, SubstModel: "HKY85",
			RateHet: phylo.RateGamma, NumRateCats: 4, GammaShape: 0.6,
			NumTaxa: 15, SeqLength: 600, SearchReps: 1,
			StartingTree: phylo.StartStepwise, AttachmentsPerTaxon: 10, Seed: seed,
		},
		Replicates: 4,
		UserEmail:  email,
	}
}

// clusterFASTA generates a small alignment for portal submissions.
func clusterFASTA(t *testing.T) string {
	t.Helper()
	rng := sim.NewRNG(6)
	m, err := phylo.NewJC69()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := phylo.NewSiteRates(phylo.RateHomogeneous, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
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

// clusterForm builds a multipart submission body.
func clusterForm(t *testing.T, fields map[string]string, fasta string) (string, io.Reader) {
	t.Helper()
	var body bytes.Buffer
	w := multipart.NewWriter(&body)
	for k, v := range fields {
		if err := w.WriteField(k, v); err != nil {
			t.Fatal(err)
		}
	}
	fw, err := w.CreateFormFile("datafile", "data.fasta")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(fw, fasta); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return w.FormDataContentType(), &body
}

// clusterDone reports whether every shard has drained its ingest
// queue and finished every accepted batch.
func clusterDone(c *Cluster) bool {
	if c.PendingArrivals() != 0 {
		return false
	}
	for _, l := range c.Shards {
		if l.Service.IngestDepth() != 0 {
			return false
		}
		for _, id := range l.Service.Batches() {
			st, err := l.Service.Status(id)
			if err != nil || !st.Done {
				return false
			}
		}
	}
	return true
}

// runClusterToDone pumps on absolute 1-hour boundaries until done.
func runClusterToDone(t *testing.T, c *Cluster, deadline sim.Time) {
	t.Helper()
	const step = sim.Hour
	now := sim.Time(0)
	for _, l := range c.Shards {
		if l.Engine.Now() > now {
			now = l.Engine.Now()
		}
	}
	for at := sim.Time(sim.Duration(int(float64(now)/float64(step))+1) * step); at <= deadline; at = at.Add(step) {
		c.RunUntil(at)
		if clusterDone(c) {
			return
		}
	}
	t.Fatalf("cluster not done by t=%v", deadline)
}

// checkConservation asserts exactly-one-terminal per submitted job on
// every shard.
func checkConservation(t *testing.T, c *Cluster) {
	t.Helper()
	total := 0
	for k, l := range c.Shards {
		for job, n := range l.Obs.Journal.TerminalCounts() {
			if n != 1 {
				t.Errorf("shard %d: job %s has %d terminal events, want 1", k, job, n)
			}
			total++
		}
	}
	if total == 0 {
		t.Fatal("no jobs observed at all")
	}
}

// TestClusterRoutedSubmissions checks the whole accept path: each
// submission lands on its router-owned shard, batch IDs carry the
// shard prefix, the serialized front door drains, and every job
// reaches exactly one terminal state.
func TestClusterRoutedSubmissions(t *testing.T) {
	base := clusterBase(21)
	base.Ingest = gsbl.IngestConfig{PerSubmissionSeconds: 2, PerReplicateSeconds: 0.5}
	c, err := NewCluster(ClusterConfig{Shards: 2, Base: base})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		email := fmt.Sprintf("user%02d@example.edu", i)
		k := c.ScheduleSubmission(0, clusterSubmission(email, int64(100+i)))
		if want := shard.Route(email, "core", 2); k != want {
			t.Errorf("submission for %s routed to shard %d, want %d", email, k, want)
		}
	}
	runClusterToDone(t, c, sim.Time(10*sim.Day))
	accepted := 0
	for k, l := range c.Shards {
		if errs := l.Service.IngestErrors(); len(errs) != 0 {
			t.Errorf("shard %d: %v", k, errs)
		}
		for _, id := range l.Service.Batches() {
			accepted++
			b, _ := l.Service.Batch(id)
			if !strings.HasPrefix(id, fmt.Sprintf("shard%d-batch-", k)) {
				t.Errorf("batch %s not prefixed for shard %d", id, k)
			}
			if want := shard.Route(b.Submission.UserEmail, "core", 2); want != k {
				t.Errorf("batch %s for %s lives on shard %d, want %d", id, b.Submission.UserEmail, k, want)
			}
		}
	}
	if accepted != 10 {
		t.Fatalf("%d batches accepted, want 10", accepted)
	}
	checkConservation(t, c)
}

// TestClusterPartitionAndLeaseShares checks the two share modes: the
// static partition splits the federation round-robin (and drops the
// reference cluster from shards that don't own it), the lease mode
// replicates it everywhere with gates that admit exactly one shard
// per resource at any instant.
func TestClusterPartitionAndLeaseShares(t *testing.T) {
	base := clusterBase(22)
	part, err := NewCluster(ClusterConfig{Shards: 2, Base: base})
	if err != nil {
		t.Fatal(err)
	}
	if got := part.Shards[0].ResourceNames(); len(got) != 2 || got[0] != "pbs00" || got[1] != "pbs02" {
		t.Errorf("shard 0 partition = %v, want [pbs00 pbs02]", got)
	}
	if got := part.Shards[1].ResourceNames(); len(got) != 2 || got[0] != "pbs01" || got[1] != "pbs03" {
		t.Errorf("shard 1 partition = %v, want [pbs01 pbs03]", got)
	}

	lease, err := NewCluster(ClusterConfig{Shards: 2, Base: base, Share: shard.ShareLease})
	if err != nil {
		t.Fatal(err)
	}
	for k, l := range lease.Shards {
		if got := len(l.ResourceNames()); got != 4 {
			t.Errorf("lease shard %d sees %d resources, want 4", k, got)
		}
	}
	// At t=0 (epoch 0) resource i is leased to shard i mod 2.
	if r, _ := lease.Shards[0].Resource("pbs00"); r.Info().TotalCPUs == 0 {
		t.Error("shard 0 should hold pbs00's lease at t=0")
	}
	if r, _ := lease.Shards[0].Resource("pbs01"); r.Info().TotalCPUs != 0 {
		t.Error("shard 0 should not hold pbs01's lease at t=0")
	}
	if r, _ := lease.Shards[1].Resource("pbs01"); r.Info().TotalCPUs == 0 {
		t.Error("shard 1 should hold pbs01's lease at t=0")
	}

	// Work still completes under lease rotation.
	for i := 0; i < 6; i++ {
		email := fmt.Sprintf("lease%02d@example.edu", i)
		lease.ScheduleSubmission(0, clusterSubmission(email, int64(200+i)))
	}
	runClusterToDone(t, lease, sim.Time(10*sim.Day))
	checkConservation(t, lease)
}

// TestClusterSameSeedDigests is the determinism pin: at every shard
// count, two same-seed runs of the same scheduled workload produce
// bit-identical per-shard journals.
func TestClusterSameSeedDigests(t *testing.T) {
	run := func(shards int) string {
		base := clusterBase(23)
		base.Ingest = gsbl.IngestConfig{PerSubmissionSeconds: 2, PerReplicateSeconds: 0.5}
		c, err := NewCluster(ClusterConfig{Shards: shards, Base: base})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			email := fmt.Sprintf("seeduser%02d@example.edu", i)
			c.ScheduleSubmission(sim.Time(float64(i)*533+7), clusterSubmission(email, int64(300+i)))
		}
		runClusterToDone(t, c, sim.Time(10*sim.Day))
		checkConservation(t, c)
		return c.Digest()
	}
	for _, n := range []int{1, 2, 4} {
		a, b := run(n), run(n)
		if a != b {
			t.Errorf("shards=%d: same-seed digests differ: %s vs %s", n, a, b)
		}
	}
}

// TestClusterFrontRouter drives the sharded deployment through HTTP
// only: registration routes by email, the token finds its home shard
// on later requests, batch and trace paths route by ID prefix, and
// the merged /metrics and /grid/status expose every shard.
func TestClusterFrontRouter(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Shards: 2, Base: clusterBase(24)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	const email = "router@example.edu"
	wantShard := shard.Route(email, "portal", 2)

	resp, err := http.PostForm(ts.URL+"/register", url.Values{"email": {email}})
	if err != nil {
		t.Fatal(err)
	}
	var reg struct {
		Token string `json:"token"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if reg.Token == "" {
		t.Fatal("no token issued")
	}
	if _, ok := c.Shards[wantShard].Portal.LookupToken(reg.Token); !ok {
		t.Fatalf("token not registered on owner shard %d", wantShard)
	}

	// Submit with the token only — the router must find the issuing
	// shard by scanning registered tokens.
	ctype, body := clusterForm(t, map[string]string{
		"datatype":     "nucleotide",
		"ratematrix":   "HKY85",
		"ratehetmodel": "gamma",
		"replicates":   "4",
	}, clusterFASTA(t))
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/garli/create", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ctype)
	req.Header.Set("X-Lattice-Token", reg.Token)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create rejected (%d): %s", resp.StatusCode, raw)
	}
	var out struct {
		Batch string `json:"batch"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.Batch, fmt.Sprintf("shard%d-batch-", wantShard)) {
		t.Fatalf("batch %s not created on owner shard %d", out.Batch, wantShard)
	}

	c.Pump(48 * sim.Hour)

	// The prefixed ID alone routes the status request.
	resp, err = http.Get(ts.URL + "/batch/" + out.Batch + "?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Done bool `json:"done"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !st.Done {
		t.Error("batch not done after 48 simulated hours")
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for k := range c.Shards {
		if !strings.Contains(string(metrics), fmt.Sprintf("shard=%q", fmt.Sprint(k))) {
			t.Errorf("merged /metrics missing shard=%d series", k)
		}
	}

	resp, err = http.Get(ts.URL + "/grid/status")
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		Shards []struct {
			Shard     int `json:"shard"`
			Resources []struct {
				Name string `json:"name"`
			} `json:"resources"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(status.Shards) != 2 {
		t.Fatalf("/grid/status reports %d shards, want 2", len(status.Shards))
	}
	if len(status.Shards[0].Resources)+len(status.Shards[1].Resources) != 4 {
		t.Error("/grid/status does not cover the full partitioned federation")
	}
}

// TestClusterShardCrashRecoversLocally kills exactly one shard under
// durability, recovers it from its own WAL directory, and proves the
// other shard was never touched and the cluster's final per-shard
// digests match an uninterrupted same-seed twin.
func TestClusterShardCrashRecoversLocally(t *testing.T) {
	const seed = 25
	const crashShard = 1
	crashAt := sim.Time(3*sim.Hour + 1800)
	shardFaults := func(k int) *faults.Schedule {
		if k != crashShard {
			return nil
		}
		return &faults.Schedule{CrashAt: []sim.Time{crashAt}}
	}
	schedule := func(c *Cluster) {
		for i := 0; i < 16; i++ {
			email := fmt.Sprintf("crashuser%02d@example.edu", i)
			// Arrivals straddle the crash so recovery must both replay
			// WAL-recorded enqueues and re-schedule undelivered ones.
			c.ScheduleSubmission(sim.Time(float64(i)*1500+13), clusterSubmission(email, int64(400+i)))
		}
	}
	base := clusterBase(seed)
	base.Ingest = gsbl.IngestConfig{PerSubmissionSeconds: 30, PerReplicateSeconds: 5}

	// Uninterrupted twin: same fault schedule, crash disarmed.
	twin, err := NewCluster(ClusterConfig{Shards: 2, Base: base, ShardFaults: shardFaults})
	if err != nil {
		t.Fatal(err)
	}
	twin.Shards[crashShard].Faults.SetCrashStops(false)
	schedule(twin)
	runClusterToDone(t, twin, sim.Time(10*sim.Day))

	// Durable run: killed, then recovered shard-locally.
	root := t.TempDir()
	c, err := NewCluster(ClusterConfig{
		Shards: 2, Base: base, ShardFaults: shardFaults,
		DurableRoot: root,
	})
	if err != nil {
		t.Fatal(err)
	}
	survivor := c.Shards[1-crashShard]
	schedule(c)
	for len(c.CrashedShards()) == 0 {
		c.RunUntil(c.Shards[0].Engine.Now().Add(sim.Hour))
	}
	if got := c.CrashedShards(); len(got) != 1 || got[0] != crashShard {
		t.Fatalf("crashed shards = %v, want [%d]", got, crashShard)
	}

	rep, err := c.RecoverShard(crashShard)
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || rep.Inputs == 0 {
		t.Fatalf("recovery replayed nothing: %+v", rep)
	}
	if c.Shards[1-crashShard] != survivor {
		t.Error("recovery rebuilt the surviving shard")
	}
	if c.Shards[1-crashShard].Recovery != nil {
		t.Error("surviving shard carries a recovery report")
	}
	runClusterToDone(t, c, sim.Time(10*sim.Day))
	checkConservation(t, c)

	// A durable directory is one log, plus the artifacts a download
	// published.
	id := c.Shards[crashShard].Service.Batches()[0]
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/batch/"+id+"/download", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("download of %s: %d %s", id, rec.Code, rec.Body)
	}
	for k, want := range map[int][]string{crashShard: {"artifacts", "wal.log"}, 1 - crashShard: {"wal.log"}} {
		entries, err := os.ReadDir(filepath.Join(root, fmt.Sprintf("shard%d", k)))
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range entries {
			got = append(got, e.Name())
		}
		if !slices.Equal(got, want) {
			t.Errorf("shard %d directory holds %v, want %v", k, got, want)
		}
	}

	want := twin.ShardDigests()
	got := c.ShardDigests()
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("shard %d digest %s != uninterrupted twin %s", k, got[k], want[k])
		}
	}
}

// TestClusterRestartsFromDurableRoot boots a sharded durable deployment
// twice on one root: the second NewCluster must resume every shard from
// its own WAL, mid-batch, instead of refusing the directory. A shard
// resumes at its last durable record and re-executes from there, so run
// on to the instant the first boot stopped at, every journal is the one
// it had then.
func TestClusterRestartsFromDurableRoot(t *testing.T) {
	cfg := ClusterConfig{Shards: 2, Base: clusterBase(31), DurableRoot: t.TempDir()}
	cfg.Base.Ingest = gsbl.IngestConfig{PerSubmissionSeconds: 30, PerReplicateSeconds: 5}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		email := fmt.Sprintf("restart%02d@example.edu", i)
		c.ScheduleSubmission(sim.Time(float64(i)*600+13), clusterSubmission(email, int64(500+i)))
	}
	doorsEmpty := func() bool {
		for _, l := range c.Shards {
			if l.Service.IngestDepth() != 0 {
				return false
			}
		}
		return c.PendingArrivals() == 0
	}
	for !doorsEmpty() {
		c.RunUntil(c.Shards[0].Engine.Now().Add(sim.Hour))
	}
	want := c.ShardDigests()
	stopped := c.Shards[0].Engine.Now()
	if err := c.CloseDurable(); err != nil {
		t.Fatal(err)
	}

	again, err := NewCluster(cfg)
	if err != nil {
		t.Fatalf("second boot on the same durable root: %v", err)
	}
	defer again.CloseDurable()
	for k, l := range again.Shards {
		if l.Recovery == nil || l.Recovery.Inputs == 0 {
			t.Errorf("shard %d: recovery report %+v, want its inputs replayed", k, l.Recovery)
		}
		if l.Recovery != nil && l.Recovery.Watermark > stopped {
			t.Errorf("shard %d resumed at %v, past the first boot's stop at %v", k, l.Recovery.Watermark, stopped)
		}
	}
	again.RunUntil(stopped)
	for k, l := range again.Shards {
		if got := l.Obs.Journal.Digest(); got != want[k] {
			t.Errorf("shard %d digest %s after restart, %s before", k, got, want[k])
		}
	}
}

// TestClusterLeaseRotationAcrossCrash pins lease rotation across a
// shard crash/recover boundary: under ShareLease a shard is killed
// after at least one rotation, stays down while further rotations
// elapse, and is rebuilt from its own WAL. Because lease ownership is
// a pure function of (resource, virtual time) — configuration, not
// replicated state — the recovered shard must see exactly the
// ownership an uninterrupted twin sees, and the final per-shard
// digests must match the twin's bit for bit.
func TestClusterLeaseRotationAcrossCrash(t *testing.T) {
	const seed = 26
	const crashShard = 0
	term := shard.DefaultLeaseTerm
	crashAt := sim.Time(term + term/2) // one rotation behind it, more while down
	shardFaults := func(k int) *faults.Schedule {
		if k != crashShard {
			return nil
		}
		return &faults.Schedule{CrashAt: []sim.Time{crashAt}}
	}
	schedule := func(c *Cluster) {
		for i := 0; i < 12; i++ {
			email := fmt.Sprintf("leasecrash%02d@example.edu", i)
			c.ScheduleSubmission(sim.Time(sim.Duration(i)*term/4+11), clusterSubmission(email, int64(500+i)))
		}
	}
	base := clusterBase(seed)
	base.Ingest = gsbl.IngestConfig{PerSubmissionSeconds: 30, PerReplicateSeconds: 5}

	twin, err := NewCluster(ClusterConfig{
		Shards: 2, Share: shard.ShareLease,
		Base: base, ShardFaults: shardFaults,
	})
	if err != nil {
		t.Fatal(err)
	}
	twin.Shards[crashShard].Faults.SetCrashStops(false)
	schedule(twin)
	runClusterToDone(t, twin, sim.Time(10*sim.Day))

	c, err := NewCluster(ClusterConfig{
		Shards: 2, Share: shard.ShareLease,
		Base: base, ShardFaults: shardFaults,
		DurableRoot: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	schedule(c)
	for len(c.CrashedShards()) == 0 {
		c.RunUntil(c.Shards[1-crashShard].Engine.Now().Add(sim.Hour))
	}
	// Let further rotations pass while the shard is down: the survivor
	// runs on alone, so by recovery time the leases the crashed shard
	// held have rotated away and back.
	c.RunUntil(c.Shards[1-crashShard].Engine.Now().Add(2 * term))
	if _, err := c.RecoverShard(crashShard); err != nil {
		t.Fatal(err)
	}

	// The recovered shard's gates agree with the schedule right now:
	// resource i is visible iff this shard owns its lease.
	leases := shard.Leases{Shards: 2, Term: term}
	rec := c.Shards[crashShard]
	now := rec.Engine.Now()
	for i, name := range rec.ResourceNames() {
		r, ok := rec.Resource(name)
		if !ok {
			t.Fatalf("recovered shard lost resource %s", name)
		}
		wantHeld := leases.Owner(i, now) == crashShard
		if gotHeld := r.Info().TotalCPUs > 0; gotHeld != wantHeld {
			t.Errorf("recovered shard: resource %s held=%v at t=%v, schedule says %v", name, gotHeld, now, wantHeld)
		}
	}

	runClusterToDone(t, c, sim.Time(10*sim.Day))
	checkConservation(t, c)
	want := twin.ShardDigests()
	got := c.ShardDigests()
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("shard %d digest %s != uninterrupted lease twin %s", k, got[k], want[k])
		}
	}
}
