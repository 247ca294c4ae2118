package gsbl

import (
	"archive/zip"
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"lattice/internal/grid/rsl"
	"lattice/internal/metasched"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

// referenceZip is ResultsZip's renderer as it stood before the
// store-or-deflate writer — fmt.Fprintf into zw.Create, every entry
// deflated — kept as the oracle for entry order, names and bytes.
func referenceZip(b *Batch, st BatchStatus) ([]byte, error) {
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	summary := &bytes.Buffer{}
	fmt.Fprintf(summary, "batch: %s\nreplicates: %d\njobs: %d\ncompleted: %d\nfailed: %d\n",
		b.ID, b.Submission.Replicates, st.Total, st.Completed, st.Failed)
	fmt.Fprintf(summary, "submitted_at: %.0f\nfinished_at: %.0f\n",
		float64(b.CreatedAt), float64(b.DoneAt))
	for _, j := range b.Jobs {
		name := j.Desc.JobID
		if j.Status == metasched.StatusCompleted {
			w, err := zw.Create(name + ".best.tre")
			if err != nil {
				return nil, err
			}
			if _, err := fmt.Fprintf(w, "# best tree for %s (searchreps=%d) from resource %s\n",
				name, j.Spec.SearchReps, j.Resource); err != nil {
				return nil, err
			}
			lw, err := zw.Create(name + ".screen.log")
			if err != nil {
				return nil, err
			}
			if _, err := fmt.Fprintf(lw, "job %s\nresource %s\nattempts %d\nwall_seconds %.0f\n",
				name, j.Resource, j.Attempts, float64(j.CompletedAt.Sub(j.StartedAt))); err != nil {
				return nil, err
			}
		} else {
			w, err := zw.Create(name + ".FAILED")
			if err != nil {
				return nil, err
			}
			if _, err := fmt.Fprintf(w, "%s\n", j.FailReason); err != nil {
				return nil, err
			}
		}
	}
	w, err := zw.Create("batch_summary.txt")
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(summary.Bytes()); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

type zipEntry struct {
	name   string
	body   []byte
	method uint16
	flags  uint16
}

// readZip opens every entry; reading to EOF makes archive/zip verify
// each entry's CRC-32 and size against its header.
func readZip(t *testing.T, data []byte) []zipEntry {
	t.Helper()
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	var out []zipEntry
	for _, f := range zr.File {
		rc, err := f.Open()
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		body, err := io.ReadAll(rc)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		rc.Close()
		out = append(out, zipEntry{f.Name, body, f.Method, f.Flags})
	}
	return out
}

// TestResultsZipMatchesReference runs a batch that ends with completed,
// failed and cancelled jobs, some of whose bodies fall on the deflate
// side of the break-even, and holds ResultsZip to the old renderer
// entry for entry.
func TestResultsZipMatchesReference(t *testing.T) {
	eng, svc, _ := testService(t)
	sub := smallSubmission(9)
	sub.Spec.NumTaxa = 80
	sub.Spec.SeqLength = 3000
	b, err := svc.Submit(direct(sub))
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(5 * sim.Minute))
	for _, j := range b.Jobs[:3] {
		if !svc.sched.Cancel(j.Desc.JobID) {
			t.Fatalf("cancel %s refused", j.Desc.JobID)
		}
	}
	eng.RunUntil(sim.Time(30 * sim.Day))
	// A resource-level failure with a long reason, and a completed job
	// whose resource name pushes both of its bodies past the break-even.
	b.Jobs[3].Status = metasched.StatusFailed
	b.Jobs[3].FailReason = "boinc: too many errors (may have bug) " + strings.Repeat("after reissue ", 20)
	b.Jobs[4].Resource = strings.Repeat("campus-condor-pool-", 6) + "a"
	st := svc.status(b)
	if !st.Done || st.Completed != 5 || st.Failed != 4 {
		t.Fatalf("fixture: %+v", st)
	}

	got, err := svc.ResultsZip(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := referenceZip(b, st)
	if err != nil {
		t.Fatal(err)
	}
	g, w := readZip(t, got), readZip(t, ref)
	if len(g) != len(w) {
		t.Fatalf("%d entries, reference has %d", len(g), len(w))
	}
	stored, deflated := 0, 0
	for i := range w {
		if g[i].name != w[i].name {
			t.Fatalf("entry %d is %q, reference has %q", i, g[i].name, w[i].name)
		}
		if !bytes.Equal(g[i].body, w[i].body) {
			t.Errorf("%s:\n got %q\nwant %q", g[i].name, g[i].body, w[i].body)
		}
		if len(g[i].body) < storeBelow {
			stored++
			if g[i].method != zip.Store {
				t.Errorf("%s (%d bytes) has method %d, want stored", g[i].name, len(g[i].body), g[i].method)
			}
			if g[i].flags&0x8 != 0 {
				t.Errorf("%s is stored but announces a data descriptor", g[i].name)
			}
		} else {
			deflated++
			if g[i].method != zip.Deflate {
				t.Errorf("%s (%d bytes) has method %d, want deflated", g[i].name, len(g[i].body), g[i].method)
			}
		}
	}
	// Four stub pairs, three cancellations and the summary stored; the
	// long-named pair and the long failure deflated.
	if stored != 12 || deflated != 3 {
		t.Errorf("%d stored and %d deflated entries, want 12 and 3", stored, deflated)
	}
	if len(got) >= len(ref) {
		t.Errorf("archive is %d bytes, all-deflate reference %d", len(got), len(ref))
	}
}

// finishedBatch registers a terminal batch of n completed stub jobs
// without running the grid.
func finishedBatch(svc *Service, n int) *Batch {
	b := &Batch{
		ID:         "batch-000001",
		Submission: smallSubmission(n),
		CreatedAt:  0,
		DoneAt:     sim.Time(9 * sim.Hour),
		done:       true,
	}
	spec := &workload.JobSpec{SearchReps: 2}
	for i := 0; i < n; i++ {
		b.Jobs = append(b.Jobs, &metasched.GridJob{
			Desc:        &rsl.JobDescription{JobID: fmt.Sprintf("researcher_example_edu-r%04d-%d", i, i+1)},
			Spec:        spec,
			Status:      metasched.StatusCompleted,
			Resource:    "condor-physics",
			Attempts:    1 + i%3,
			StartedAt:   sim.Time(i),
			CompletedAt: sim.Time(i + 7200 + 13*i),
		})
	}
	svc.batches[b.ID] = b
	return b
}

// TestResultsZipAllocBudget pins the per-entry cost of the portal's
// largest download: 2000 jobs, 4001 entries. The fmt/zw.Create renderer
// spent 15.3 allocations per entry.
func TestResultsZipAllocBudget(t *testing.T) {
	_, svc, _ := testService(t)
	b := finishedBatch(svc, 2000)
	entries := 2*len(b.Jobs) + 1
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := svc.ResultsZip(b.ID); err != nil {
			t.Fatal(err)
		}
	})
	if per := allocs / float64(entries); per > 8 {
		t.Errorf("%.1f allocations per entry (%.0f over %d entries), budget 8", per, allocs, entries)
	} else {
		t.Logf("%.2f allocations per entry", per)
	}
}

var zipSink []byte

func BenchmarkResultsZip2000(b *testing.B) {
	eng := sim.NewEngine()
	svc, err := NewService(eng, nil, &Mailer{}, sim.NewRNG(1), Options{})
	if err != nil {
		b.Fatal(err)
	}
	batch := finishedBatch(svc, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z, err := svc.ResultsZip(batch.ID)
		if err != nil {
			b.Fatal(err)
		}
		zipSink = z
	}
	b.SetBytes(int64(len(zipSink)))
}
