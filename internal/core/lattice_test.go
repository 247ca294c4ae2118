package core

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"lattice/internal/faults"
	"lattice/internal/metasched"
	"lattice/internal/phylo"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

func smallConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	// Shrink for unit-test speed: fewer volunteers.
	for i := range cfg.Resources {
		if cfg.Resources[i].Kind == "boinc" {
			pop := *cfg.Resources[i].Population
			pop.Hosts = 50
			cfg.Resources[i].Population = &pop
		}
	}
	cfg.TrainingJobs = 60
	return cfg
}

func TestNewDefaultFederation(t *testing.T) {
	l, err := New(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(l.ResourceNames()) != 9 {
		t.Errorf("federation has %d resources, want 9", len(l.ResourceNames()))
	}
	if l.Boinc == nil {
		t.Error("BOINC server not wired")
	}
	if l.Estimator == nil {
		t.Fatal("estimator not wired")
	}
	if _, err := l.Estimator.Stats(); err != nil {
		t.Errorf("estimator not bootstrapped: %v", err)
	}
	// MDS should see every resource immediately (providers publish on
	// start).
	if got := len(l.Index.Snapshot()); got != 9 {
		t.Errorf("MDS sees %d resources, want 9", got)
	}
	if l.TotalCores() < 200 {
		t.Errorf("federation has only %d cores", l.TotalCores())
	}
}

func TestSubmissionFlowsThroughTheGrid(t *testing.T) {
	l, err := New(smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	sub := workload.Submission{
		Spec: workload.JobSpec{
			DataType: phylo.Nucleotide, SubstModel: "HKY85",
			RateHet: phylo.RateGamma, NumRateCats: 4, GammaShape: 0.6,
			NumTaxa: 15, SeqLength: 600, SearchReps: 1,
			StartingTree: phylo.StartStepwise, AttachmentsPerTaxon: 10, Seed: 3,
		},
		Replicates: 25,
		UserEmail:  "u@lab.edu",
	}
	b, err := l.SubmitSubmission(sub)
	if err != nil {
		t.Fatal(err)
	}
	l.Run(60 * sim.Day)
	st, err := l.Service.Status(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done {
		t.Fatalf("batch not done after 60 simulated days: %+v", st)
	}
	if st.Completed == 0 {
		t.Error("nothing completed")
	}
	if len(l.Service.SentTo("u@lab.edu")) < 2 {
		t.Error("user not notified")
	}
}

// TestSmokeDigestUnchangedByAdmitWiring pins the zero-cost-when-
// disabled guarantee of the admission layer: with Config.Admit left at
// its zero value, the exact CI smoke workload (cmd/lattice -smoke:
// DefaultConfig(1), generator seed 7, 10 replicates) produces the same
// journal digest it did before admission control existed. Any
// accidental behaviour change on the plain ingest path — an extra
// journal event, a reordered callback, a perturbed clock — shows up
// here as a digest break.
func TestSmokeDigestUnchangedByAdmitWiring(t *testing.T) {
	const want = "f85eb603dc66"
	l, err := New(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	sub := workload.NewGenerator(7).Submission()
	sub.Replicates = 10
	sub.UserEmail = "smoke@example.edu"
	b, err := l.SubmitSubmission(sub)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		l.Portal.Pump(6 * sim.Hour)
		if st, err := l.Service.Status(b.ID); err == nil && st.Done {
			break
		}
	}
	st, err := l.Service.Status(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done {
		t.Fatalf("smoke batch not done: %+v", st)
	}
	digest := l.Obs.Journal.Digest()
	if len(digest) < len(want) || digest[:len(want)] != want {
		t.Fatalf("smoke journal digest %.12s…, want %s… — the disabled admit path is not bit-identical to the pre-admission build", digest, want)
	}
}

func TestContinuousRetrainingFork(t *testing.T) {
	l, err := New(smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	before := l.Estimator.NumObservations()
	sub := workload.Submission{
		Spec: workload.JobSpec{
			DataType: phylo.Nucleotide, SubstModel: "JC69",
			NumTaxa: 10, SeqLength: 300, SearchReps: 1,
			StartingTree: phylo.StartRandom, Seed: 4,
		},
		Replicates: 5,
		UserEmail:  "u@lab.edu",
	}
	if _, err := l.SubmitSubmission(sub); err != nil {
		t.Fatal(err)
	}
	if l.Retrains() != 1 {
		t.Fatalf("reference forks = %d, want 1", l.Retrains())
	}
	l.Run(30 * sim.Day)
	if got := l.Estimator.NumObservations(); got != before+1 {
		t.Errorf("training matrix grew %d → %d; want +1", before, got)
	}
}

// TestReferenceForkFollowsTheFederation: a direct submission forks its
// retraining replicate exactly when the coordinator's own federation
// holds the resource named reference-cluster — once per submission in
// the default federation, never in one without it, and in a cluster
// only on the shard that owns it.
func TestReferenceForkFollowsTheFederation(t *testing.T) {
	sub := workload.Submission{
		Spec: workload.JobSpec{
			DataType: phylo.Nucleotide, SubstModel: "JC69",
			NumTaxa: 10, SeqLength: 300, SearchReps: 1,
			StartingTree: phylo.StartRandom, Seed: 4,
		},
		Replicates: 3,
		UserEmail:  "u@lab.edu",
	}
	forks := func(l *Lattice, subs int) int {
		t.Helper()
		for i := 0; i < subs; i++ {
			if _, err := l.SubmitSubmission(sub); err != nil {
				t.Fatal(err)
			}
		}
		return l.Retrains()
	}

	l, err := New(smallConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	if got := forks(l, 3); got != 3 {
		t.Errorf("default federation: %d forks for 3 direct submissions, want 3", got)
	}

	cfg := smallConfig(6)
	cfg.Resources = slices.DeleteFunc(cfg.Resources, func(rs ResourceSpec) bool { return rs.Name == "reference-cluster" })
	if l, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	if got := forks(l, 3); got != 0 {
		t.Errorf("federation without reference-cluster: %d forks, want 0", got)
	}

	base := smallConfig(6)
	if base.Resources[7].Name != "reference-cluster" {
		t.Fatalf("resource 7 is %q, want reference-cluster", base.Resources[7].Name)
	}
	c, err := NewCluster(ClusterConfig{Shards: 2, Base: base})
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range []int{0, 1} {
		if got := forks(c.Shards[k], 1); got != want {
			t.Errorf("shard %d: %d forks for one direct submission, want %d", k, got, want)
		}
	}
}

func TestEstimatorDisabledWithoutTraining(t *testing.T) {
	cfg := smallConfig(4)
	cfg.TrainingJobs = 0
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if l.Estimator != nil {
		t.Error("estimator present despite TrainingJobs = 0")
	}
}

func TestBadResourceKind(t *testing.T) {
	cfg := smallConfig(5)
	cfg.Resources = append(cfg.Resources, ResourceSpec{Kind: "slurm", Name: "nope", Nodes: 1, Speed: 1})
	if _, err := New(cfg); err == nil {
		t.Error("unknown resource kind accepted")
	}
}

func TestSchedulerPolicyPlumbing(t *testing.T) {
	cfg := smallConfig(6)
	cfg.Scheduler.Policy = metasched.PolicyNaive
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if l.Scheduler == nil {
		t.Fatal("no scheduler")
	}
}

func TestSGEAndDefaultBoincPopulation(t *testing.T) {
	cfg := Config{
		Seed: 9,
		Resources: []ResourceSpec{
			{Kind: "sge", Name: "slots", Nodes: 2, Cores: 4, Speed: 1.2, MemMB: 8192},
			{Kind: "boinc", Name: "volunteers"}, // default population
		},
	}
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sge, ok := l.Resource("slots")
	if !ok || sge.Info().TotalCPUs != 8 {
		t.Errorf("sge slots = %+v", sge.Info())
	}
	if l.Boinc == nil || l.Boinc.NumHosts() != 200 {
		t.Errorf("default BOINC population missing: %v", l.Boinc)
	}
}

func TestGridStatusThroughCore(t *testing.T) {
	l, err := New(smallConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(l.Portal.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/grid/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Resources []struct {
			Name string `json:"name"`
			Kind string `json:"kind"`
		} `json:"resources"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Resources) != 9 {
		t.Errorf("status lists %d resources, want 9", len(st.Resources))
	}
	kinds := map[string]bool{}
	for _, r := range st.Resources {
		kinds[r.Kind] = true
	}
	for _, want := range []string{"condor", "pbs", "sge", "boinc"} {
		if !kinds[want] {
			t.Errorf("status missing kind %q", want)
		}
	}
}

// TestGridStatusWhilePumping GETs /grid/status while another goroutine
// pumps the simulation, as cmd/lattice's ticker does. The status body
// reads the MDS index the pump's providers publish into, the scheduler
// and the clock, so it must be read under the portal lock — every
// shard's own lock behind the cluster router. Run under -race.
func TestGridStatusWhilePumping(t *testing.T) {
	flat, err := New(clusterBase(41))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewCluster(ClusterConfig{Shards: 2, Base: clusterBase(41)})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		handler http.Handler
		pump    func(sim.Duration)
	}{
		{"flat", flat.Portal.Handler(), flat.Portal.Pump},
		{"2-shard", sharded.Handler(), sharded.Pump},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						tc.pump(sim.Minute)
					}
				}
			}()
			defer wg.Wait()
			defer close(stop)
			for i := 0; i < 50; i++ {
				rec := httptest.NewRecorder()
				tc.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/grid/status", nil))
				if rec.Code != http.StatusOK {
					t.Fatalf("GET /grid/status: %d %s", rec.Code, rec.Body)
				}
			}
		})
	}
}

// refGateDown is a schedule under which the reference cluster's
// gatekeeper refuses every submission, so every retraining fork fails.
func refGateDown() *faults.Schedule {
	return &faults.Schedule{Events: []faults.Event{
		{At: 0, Kind: faults.KindSubmitFail, Resource: "reference-cluster", Duration: 365 * sim.Day, P: 1},
	}}
}

// TestFailedReferenceForkIsCounted loses every result the reference
// cluster returns: the retraining fork fails on the cluster after it
// was accepted, and that failure reaches RetrainErrors and the
// retraining error counter, naming the fork and its reason.
func TestFailedReferenceForkIsCounted(t *testing.T) {
	cfg := smallConfig(21)
	cfg.Faults = &faults.Schedule{Events: []faults.Event{
		{At: 0, Kind: faults.KindLostResult, Resource: "reference-cluster", Duration: 365 * sim.Day, P: 1},
	}}
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l.Run(sim.Second) // the fault window opens on the clock
	if _, err := l.SubmitSubmission(clusterSubmission("u@lab.edu", 3)); err != nil {
		t.Fatal(err)
	}
	l.Run(30 * sim.Day)
	if n := l.Retrains(); n != 1 {
		t.Fatalf("%d reference forks, want 1", n)
	}
	errs := l.RetrainErrors()
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "ref-fork-1") || !strings.Contains(errs[0].Error(), "result lost in transit") {
		t.Errorf("RetrainErrors() = %v, want the one lost fork, named with its reason", errs)
	}
	if v := l.Obs.Counter("lattice_estimate_retrain_errors_total", "").Value(); v != 1 {
		t.Errorf("lattice_estimate_retrain_errors_total = %g, want 1", v)
	}
}

// TestRetrainErrorsReachOperators drives the retraining loop's error
// path — which runs inside engine callbacks and has no caller to
// return to — and requires the failure to be counted on /metrics and
// named on /grid/status, flat and per shard, while the batch that
// triggered the fork completes untouched.
func TestRetrainErrorsReachOperators(t *testing.T) {
	sub := clusterSubmission("u@lab.edu", 3)
	status := func(h http.Handler) string {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/grid/status", nil))
		return rec.Body.String()
	}
	check := func(l *Lattice, batch string) {
		t.Helper()
		if errs := l.RetrainErrors(); len(errs) != 1 || !strings.Contains(errs[0].Error(), "gatekeeper refused") {
			t.Errorf("RetrainErrors() = %v, want the one refused fork", errs)
		}
		if v := l.Obs.Counter("lattice_estimate_retrain_errors_total", "").Value(); v != 1 {
			t.Errorf("lattice_estimate_retrain_errors_total = %g, want 1", v)
		}
		if st, err := l.Service.Status(batch); err != nil || !st.Done || st.Failed != 0 {
			t.Errorf("batch %s: %+v, %v; want done with no failures", batch, st, err)
		}
	}

	cfg := smallConfig(21)
	cfg.Faults = refGateDown()
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if body := status(l.Portal.Handler()); strings.Contains(body, "retrainErrors") || strings.Contains(body, "durableError") {
		t.Errorf("healthy /grid/status carries error fields: %s", body)
	}
	l.Run(sim.Second) // the fault window opens on the clock
	b, err := l.SubmitSubmission(sub)
	if err != nil {
		t.Fatal(err)
	}
	l.Run(30 * sim.Day)
	check(l, b.ID)
	if body := status(l.Portal.Handler()); !strings.Contains(body, `"retrainErrors":["`) {
		t.Errorf("/grid/status does not name the retraining failure: %s", body)
	}

	// Sharded: the reference cluster is resource 7, so of two shards
	// shard 1 owns it and is the one that forks.
	c, err := NewCluster(ClusterConfig{Shards: 2, Base: smallConfig(21), ShardFaults: func(k int) *faults.Schedule {
		if k != 1 {
			return nil
		}
		return refGateDown()
	}})
	if err != nil {
		t.Fatal(err)
	}
	c.RunUntil(sim.Time(sim.Second))
	b, err = c.Shards[1].SubmitSubmission(sub)
	if err != nil {
		t.Fatal(err)
	}
	c.RunUntil(sim.Time(30 * sim.Day))
	check(c.Shards[1], b.ID)
	var st struct {
		Shards []struct {
			RetrainErrors []string `json:"retrainErrors"`
		} `json:"shards"`
	}
	if err := json.Unmarshal([]byte(status(c.Handler())), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 2 || len(st.Shards[0].RetrainErrors) != 0 || len(st.Shards[1].RetrainErrors) != 1 {
		t.Errorf("cluster /grid/status shards = %+v, want the failure on shard 1 only", st.Shards)
	}
}
