// Command lattice boots the full grid system — the resource
// federation, MDS, meta-scheduler, runtime estimator, GSBL services —
// and serves the science portal over HTTP while virtual grid time
// advances at a configurable acceleration.
//
// Usage:
//
//	lattice -addr :8080 -accel 60   # 1 wall minute = 1 grid hour
//
// Then open http://localhost:8080/garli/create, upload a FASTA file,
// and watch your batch at /batch/<id>?format=json. Metrics are at
// /metrics (text exposition) and per-batch traces at /trace/<id>;
// pass -metrics-addr to serve those two endpoints on a separate
// listener as well.
//
// The -smoke flag boots the grid on a loopback port, pushes a small
// workload through it, scrapes /metrics and /trace over real HTTP,
// and exits non-zero unless the exposition parses and shows the
// workload — the CI boot check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"lattice/internal/admit"
	"lattice/internal/core"
	"lattice/internal/dag"
	"lattice/internal/faults"
	"lattice/internal/gsbl"
	"lattice/internal/obs"
	"lattice/internal/shard"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lattice:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr        = flag.String("addr", ":8080", "portal listen address")
		metricsAddr = flag.String("metrics-addr", "", "optional separate listen address for /metrics and /trace/")
		accel       = flag.Float64("accel", 60, "grid-time acceleration (virtual seconds per wall second)")
		seed        = flag.Int64("seed", 1, "random seed for the simulated federation")
		train       = flag.Int("train", 150, "runtime-model training jobs")
		smoke       = flag.Bool("smoke", false, "boot, run a small workload, self-scrape /metrics, and exit")
		withFaults  = flag.Bool("faults", false, "run under the default hostile fault schedule (outages, flaps, churn, lost results)")
		durable     = flag.String("durable", "", "directory for crash-consistent state (one append-only log, wal.log); on boot, existing state there is recovered by replay from genesis")
		workflow    = flag.Bool("workflow", false, "submit the four-stage standard-analysis demo workflow at boot; watch it at /workflow/<id>")
		shards      = flag.Int("shards", 1, "coordinator shard count; above 1 boots a sharded cluster behind a deterministic front router")
		share       = flag.String("share", "partition", "grid sharing mode under -shards: partition (static split) or lease (rotating leases)")
		withAdmit   = flag.Bool("admit", false, "enable overload protection: the serialized ingest door with per-user quotas, fair-share shedding (429 + Retry-After at the portal) and per-resource circuit breakers")
	)
	flag.Parse()

	cfg := core.DefaultConfig(*seed)
	cfg.TrainingJobs = *train
	if *withFaults {
		cfg.Faults = core.DefaultFaultSchedule()
		cfg.Scheduler.StabilityAlpha = 0.2
	}
	if *withAdmit {
		// Admission control meters the ingest door, so -admit implies
		// the ingest model.
		cfg.Ingest = gsbl.IngestConfig{PerSubmissionSeconds: 1.0, PerReplicateSeconds: 0.25}
		cfg.Admit = admit.DefaultConfig()
		cfg.Scheduler.BreakerThreshold = 5
		fmt.Println("overload protection active: admission control at the ingest door, circuit breakers in the scheduler")
	}
	if *shards > 1 {
		switch {
		case *smoke:
			return fmt.Errorf("-smoke checks the flat deployment; run it without -shards")
		case *workflow:
			return fmt.Errorf("-workflow submits its demo to the flat deployment; run it without -shards")
		case *metricsAddr != "":
			return fmt.Errorf("-metrics-addr serves the flat deployment's hub; under -shards the front router serves the merged /metrics")
		}
		return runCluster(cfg, *shards, *share, *durable, *withFaults, *addr, *accel)
	}
	var lat *core.Lattice
	var err error
	if *durable != "" {
		cfg.Durable = *durable
		// Recover falls through to a fresh boot when the directory
		// holds no durable state yet.
		lat, err = core.Recover(*durable, cfg)
	} else {
		lat, err = core.New(cfg)
	}
	if err != nil {
		return err
	}
	if !reportRecovery(*durable, lat.Recovery) && *durable != "" {
		fmt.Printf("durable state: write-ahead log at %s\n", *durable)
	}
	if *withFaults {
		fmt.Println("fault injection active: default hostile schedule armed (see /metrics lattice_faults_injected_total)")
	}
	if *smoke {
		return runSmoke(lat)
	}
	if *workflow {
		wf := dag.StandardAnalysis("standard-analysis", "demo@example.edu", *seed,
			workload.NewGenerator(*seed).Submission().Spec, 8, 100)
		run, err := lat.SubmitWorkflow(wf)
		if err != nil {
			return fmt.Errorf("demo workflow: %w", err)
		}
		fmt.Printf("demo workflow %s submitted: %d stages (model-selection → search ∥ bootstrap → consensus); status at /workflow/%s\n",
			run.ID, len(run.Order), run.ID)
	}
	fmt.Printf("The Lattice Project — grid up with %d resources, %d CPU cores visible\n",
		len(lat.ResourceNames()), lat.TotalCores())
	for _, name := range lat.ResourceNames() {
		r, _ := lat.Resource(name)
		info := r.Info()
		fmt.Printf("  %-18s %-7s %4d CPUs  stable=%-5v platforms=%v\n",
			info.Name, info.Kind, info.TotalCPUs, info.Stable, info.Platforms)
	}
	if lat.Estimator != nil {
		if st, err := lat.Estimator.Stats(); err == nil {
			fmt.Printf("runtime model: %d jobs, %.1f%% variance explained\n",
				lat.Estimator.NumObservations(), st.PctVarExplained)
		}
	}

	// Advance virtual time continuously.
	//lint:allow goroleak -- real-time pump lives for the whole process; the OS reaps it at exit
	go func() {
		const tick = 250 * time.Millisecond
		//lint:allow determinism -- the real-time bridge itself: wall ticks drive virtual time only here, outside any digested path
		for range time.Tick(tick) {
			lat.Portal.Pump(sim.Duration(*accel * tick.Seconds()))
		}
	}()

	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		fmt.Printf("metrics listening on %s\n", ln.Addr())
		//lint:allow goroleak -- metrics listener serves until process exit; no shutdown path exists by design
		go func() {
			if err := http.Serve(ln, metricsMux(lat)); err != nil {
				fmt.Fprintln(os.Stderr, "lattice: metrics server:", err)
			}
		}()
	}
	fmt.Printf("portal listening on %s (×%.0f time acceleration)\n", *addr, *accel)
	return http.ListenAndServe(*addr, lat.Portal.Handler())
}

// reportRecovery prints what a boot over existing durable state in dir
// resumed from, and reports whether there was anything to print.
func reportRecovery(dir string, rep *core.RecoveryReport) bool {
	if rep == nil {
		return false
	}
	fmt.Printf("recovered from %s: %d records verified (%d inputs replayed from genesis), resumed at t=%.0fs",
		dir, rep.Records, rep.Inputs, float64(rep.Watermark))
	if rep.TornTail {
		fmt.Print(" — torn final log record dropped")
	}
	fmt.Println()
	return true
}

// runCluster boots a sharded deployment: N coordinator shards behind
// the deterministic front router, each with its own engine, metrics
// hub and (under -durable) WAL directory root/shard<k>.
func runCluster(base core.Config, shards int, share, durable string, withFaults bool, addr string, accel float64) error {
	ccfg := core.ClusterConfig{
		Shards:      shards,
		Share:       shard.ShareMode(share),
		Base:        base,
		DurableRoot: durable,
	}
	// Fault schedules are per shard under a cluster; the template must
	// stay clean.
	ccfg.Base.Faults = nil
	if withFaults {
		ccfg.ShardFaults = func(int) *faults.Schedule { return core.DefaultFaultSchedule() }
	}
	c, err := core.NewCluster(ccfg)
	if err != nil {
		return err
	}
	if durable != "" {
		fmt.Printf("durable state: per-shard write-ahead logs under %s/shard<k>\n", durable)
	}
	fmt.Printf("The Lattice Project — %d coordinator shards (%s sharing) behind the front router\n",
		c.Size(), ccfg.Share)
	for k, lat := range c.Shards {
		fmt.Printf("  shard %d: %d resources, %d CPU cores visible\n",
			k, len(lat.ResourceNames()), lat.TotalCores())
		reportRecovery(filepath.Join(durable, fmt.Sprintf("shard%d", k)), lat.Recovery)
	}

	// Advance every shard's virtual clock continuously.
	//lint:allow goroleak -- real-time pump lives for the whole process; the OS reaps it at exit
	go func() {
		const tick = 250 * time.Millisecond
		//lint:allow determinism -- the real-time bridge itself: wall ticks drive virtual time only here, outside any digested path
		for range time.Tick(tick) {
			c.Pump(sim.Duration(accel * tick.Seconds()))
		}
	}()
	fmt.Printf("front router listening on %s (×%.0f time acceleration)\n", addr, accel)
	return http.ListenAndServe(addr, c.Handler())
}

// metricsMux exposes only the observability endpoints — what a
// scrape-only listener should serve.
func metricsMux(lat *core.Lattice) *http.ServeMux {
	portal := lat.Portal.Handler()
	mux := http.NewServeMux()
	mux.Handle("/metrics", portal)
	mux.Handle("/trace/", portal)
	return mux
}

// runSmoke is the CI boot check: serve the portal on a loopback port,
// run a small fixed-seed workload to completion, then scrape /metrics
// and /trace/ over HTTP and verify the exposition parses and reflects
// the workload and the trace has a closed root and one span per job.
func runSmoke(lat *core.Lattice) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: lat.Portal.Handler()}
	//lint:allow goroleak -- joined by the deferred srv.Close below: Serve returns ErrServerClosed and the goroutine exits
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "lattice: smoke server:", err)
		}
	}()
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("smoke: portal listening on %s\n", ln.Addr())

	sub := workload.NewGenerator(7).Submission()
	sub.Replicates = 10
	sub.UserEmail = "smoke@example.edu"
	batch, err := lat.SubmitSubmission(sub)
	if err != nil {
		return fmt.Errorf("smoke submit: %w", err)
	}
	for i := 0; i < 400; i++ {
		lat.Portal.Pump(6 * sim.Hour)
		if st, err := lat.Service.Status(batch.ID); err == nil && st.Done {
			break
		}
	}
	st, err := lat.Service.Status(batch.ID)
	if err != nil {
		return err
	}
	if !st.Done {
		return fmt.Errorf("smoke: batch %s not done after pumping (%d/%d terminal)",
			batch.ID, st.Completed+st.Failed, st.Total)
	}

	body, err := get(base + "/metrics")
	if err != nil {
		return err
	}
	metrics, err := obs.ParseExposition(string(body))
	if err != nil {
		return fmt.Errorf("smoke: /metrics unparseable: %w", err)
	}
	if len(metrics) == 0 {
		return fmt.Errorf("smoke: /metrics exposition is empty")
	}
	for _, key := range []string{
		"lattice_sched_jobs_submitted_total",
		"lattice_sched_jobs_completed_total",
	} {
		if metrics[key] <= 0 {
			return fmt.Errorf("smoke: metric %s is %g, want > 0", key, metrics[key])
		}
	}
	body, err = get(base + "/trace/" + batch.ID)
	if err != nil {
		return err
	}
	var trace struct {
		Spans []obs.SpanView `json:"spans"`
	}
	if err := json.Unmarshal(body, &trace); err != nil {
		return fmt.Errorf("smoke: /trace/%s unparseable: %w", batch.ID, err)
	}
	if len(trace.Spans) != 1+len(batch.Jobs) {
		return fmt.Errorf("smoke: /trace/%s has %d spans, want a root plus one per job (%d)",
			batch.ID, len(trace.Spans), len(batch.Jobs))
	}
	if trace.Spans[0].InFlight {
		return fmt.Errorf("smoke: /trace/%s root span still in flight after the batch finished", batch.ID)
	}
	fmt.Printf("smoke: OK — %d series, %d/%d jobs completed, journal digest %.12s…\n",
		len(metrics), st.Completed, st.Total, lat.Obs.Journal.Digest())
	return nil
}

// get fetches a URL and returns its body, treating any non-200 status
// as an error.
func get(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s (%.120s)", url, resp.Status, body)
	}
	return body, nil
}
