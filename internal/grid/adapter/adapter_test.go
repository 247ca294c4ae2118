package adapter

import (
	"strings"
	"testing"

	"lattice/internal/grid/rsl"
	"lattice/internal/lrm"
	"lattice/internal/lrm/cluster"
	"lattice/internal/sim"
)

func desc() *rsl.JobDescription {
	return &rsl.JobDescription{
		JobID:               "garli-42",
		Executable:          "garli",
		Arguments:           []string{"garli.conf"},
		Count:               1,
		MaxMemoryMB:         512,
		Platforms:           []lrm.Platform{lrm.LinuxX86},
		WallLimit:           2 * sim.Hour,
		EstimatedRefSeconds: 900,
		DelayBound:          2 * sim.Day,
		Work:                900 * lrm.ReferenceCellsPerSecond,
	}
}

func TestForKind(t *testing.T) {
	for _, kind := range []string{"condor", "pbs", "sge", "boinc"} {
		a, err := ForKind(kind)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if a.Kind() != kind {
			t.Errorf("adapter for %s reports kind %s", kind, a.Kind())
		}
	}
	if _, err := ForKind("slurm"); err == nil {
		t.Error("expected error for unknown kind")
	}
}

func TestRenderArtifacts(t *testing.T) {
	want := map[string][]string{
		"condor": {"universe = vanilla", "executable = garli", "Memory >= 512", "queue 1"},
		"pbs":    {"#PBS -N garli-42", "#PBS -l mem=512mb", "#PBS -l walltime=02:00:00"},
		"sge":    {"#$ -N garli-42", "#$ -l mem_free=512M", "#$ -l h_rt=7200"},
		"boinc":  {"<name>garli-42</name>", "<delay_bound>172800</delay_bound>", "rsc_fpops_est"},
	}
	for kind, fragments := range want {
		a, err := ForKind(kind)
		if err != nil {
			t.Fatal(err)
		}
		out, err := a.Render(desc())
		if err != nil {
			t.Fatalf("%s render: %v", kind, err)
		}
		for _, frag := range fragments {
			if !strings.Contains(out, frag) {
				t.Errorf("%s artifact missing %q:\n%s", kind, frag, out)
			}
		}
	}
}

func TestRenderMPIUsesmpirun(t *testing.T) {
	d := desc()
	d.NeedsMPI = true
	d.Count = 8
	a, _ := ForKind("pbs")
	out, err := a.Render(d)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "mpirun") || !strings.Contains(out, "nodes=8") {
		t.Errorf("MPI script wrong:\n%s", out)
	}
}

func TestRenderRejectsInvalid(t *testing.T) {
	d := desc()
	d.Work = 0
	for _, kind := range []string{"condor", "pbs", "sge", "boinc"} {
		a, _ := ForKind(kind)
		if _, err := a.Render(d); err == nil {
			t.Errorf("%s rendered an invalid description", kind)
		}
	}
}

func TestSubmitWiresCallbacks(t *testing.T) {
	eng := sim.NewEngine()
	c, err := cluster.New(eng, cluster.Config{
		Kind: "pbs", Name: "c", Platform: lrm.LinuxX86,
		Nodes: []cluster.NodeClass{{Count: 1, Cores: 1, Speed: 1, MemoryMB: 1024}},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := ForKind("pbs")
	completed := false
	if err := a.Submit(c, desc(), func() { completed = true }, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !completed {
		t.Error("completion callback never fired")
	}
}

func TestSubmitFailureCallback(t *testing.T) {
	eng := sim.NewEngine()
	c, err := cluster.New(eng, cluster.Config{
		Kind: "pbs", Name: "c", Platform: lrm.LinuxX86,
		Nodes: []cluster.NodeClass{{Count: 1, Cores: 1, Speed: 1, MemoryMB: 1024}},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := ForKind("pbs")
	d := desc()
	d.WallLimit = sim.Minute // the 15-minute job overruns it
	var reason string
	if err := a.Submit(c, d, nil, func(r string) { reason = r }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if reason == "" {
		t.Error("failure callback never fired")
	}
}
