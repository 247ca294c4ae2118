package gsbl

import (
	"strings"
	"testing"

	"lattice/internal/metasched"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

// fuzzBatch decodes data into a finished batch of 1–40 jobs. Each job
// takes its ID bytes verbatim from the input (up to 511 of them: invalid
// UTF-8, '~', '/', '\\' and control bytes included), completes or
// fails, and draws its resource, fail reason, attempts and times, so
// bodies land on both sides of storeBelow. Input that runs out reads
// as zeros.
func fuzzBatch(tb testing.TB, data []byte) *Batch {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		c := data[0]
		data = data[1:]
		return int(c)
	}
	take := func(n int) string {
		n = min(n, len(data))
		s := string(data[:n])
		data = data[n:]
		return s
	}
	n := 1 + next()%40
	b := &Batch{
		ID:         "batch-000001",
		Submission: workload.Submission{Replicates: n},
		CreatedAt:  sim.Time(next()),
		DoneAt:     sim.Time(next() << 10),
	}
	type drawn struct {
		flags, reps, attempts int
		id, reason            string
		started, took         sim.Time
	}
	jobs := make([]drawn, n)
	resources := make([]string, n)
	for i := range jobs {
		d := &jobs[i]
		d.flags = next()
		d.id = take(next() + d.flags&1<<8)
		d.reps = next()
		resources[i] = take(next() % 200)
		d.attempts = next()
		d.started = sim.Time(next() << 8)
		d.took = sim.Time(next() << 12)
		if d.flags&2 != 0 {
			d.reason = take(next() + d.flags&4<<6)
		}
	}
	b.Jobs = onResources(tb, resources)
	for i, j := range b.Jobs {
		d := &jobs[i]
		j.ID, j.SearchReps, j.Attempts = d.id, d.reps, int32(d.attempts)
		j.Status, j.StartedAt, j.CompletedAt = metasched.StatusCompleted, d.started, d.started+d.took
		if d.flags&2 != 0 {
			j.Status, j.FailReason = metasched.StatusFailed, d.reason
		}
	}
	return b
}

// seedJob is one job of a seed input, encoded by fuzzSeed in the order
// fuzzBatch reads it.
type seedJob struct {
	id, resource, reason string
	failed               bool
}

func fuzzSeed(jobs ...seedJob) []byte {
	data := []byte{byte(len(jobs) - 1), 3, 9}
	for _, j := range jobs {
		flags := 0
		if len(j.id) > 255 {
			flags |= 1
		}
		if j.failed {
			flags |= 2
		}
		if len(j.reason) > 255 {
			flags |= 4
		}
		data = append(append(data, byte(flags), byte(len(j.id))), j.id...)
		data = append(append(data, 2, byte(len(j.resource))), j.resource...)
		data = append(data, 1, 3, 5)
		if j.failed {
			data = append(append(data, byte(len(j.reason))), j.reason...)
		}
	}
	return data
}

// FuzzResultsZip holds the direct zip writer to the archive/zip oracle
// on arbitrary finished batches: byte-identical output, every entry read
// back by archive/zip with its CRC verified, every name local.
func FuzzResultsZip(f *testing.F) {
	pool := strings.Repeat("campus-condor-pool-", 8)
	f.Add([]byte{0})
	f.Add(fuzzSeed(seedJob{id: "researcher_example_edu-r0000-1", resource: "condor-physics"}))
	f.Add(fuzzSeed(
		seedJob{id: "/etc/cron_d/x_y-r0000-1", resource: "pbs"},
		seedJob{id: `__\__\evil_x-r0001-2`, resource: "sge", failed: true, reason: "lost"},
		seedJob{id: "a/b_c-r0002-3", resource: pool},
	))
	f.Add(fuzzSeed(
		seedJob{id: "caf\u00e9~-r0000-1", resource: pool},
		seedJob{id: "\xff\xfe\x01-r0001-2", resource: pool},
		seedJob{id: "tab\there-r0002-3", resource: "boinc", failed: true,
			reason: "boinc: too many errors (may have bug) " + strings.Repeat("after reissue ", 20)},
		seedJob{id: strings.Repeat("\u4e16", 100), resource: "condor"},
	))
	f.Fuzz(func(t *testing.T, data []byte) {
		svc := zipService(t)
		b := fuzzBatch(t, data)
		svc.batches = []*Batch{b}
		checkAgainstOracle(t, svc, b)
	})
}
