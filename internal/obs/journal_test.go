package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"strings"
	"testing"

	"lattice/internal/sim"
)

// refHashEvent is the framing the journal digest was defined by: one
// Write per field through formatFloat and []byte conversions. It stays
// here as the reference AppendEvent must reproduce byte for byte —
// every pinned digest in the repository depends on it.
func refHashEvent(h hash.Hash, ev Event) {
	h.Write([]byte(formatFloat(float64(ev.At))))
	for _, f := range []string{ev.Batch, ev.Job, string(ev.Stage), ev.Resource, ev.Detail} {
		h.Write([]byte{0x1f})
		h.Write([]byte(f))
	}
	h.Write([]byte{'\n'})
}

// framingEvents returns the hand-picked edge cases followed by n
// seeded random events.
func framingEvents(n int) []Event {
	long := strings.Repeat("a long detail ", 2*eventScratchCap/14+1)
	evs := []Event{
		{},
		{At: 0, Stage: StageSubmit},
		{At: sim.Time(math.Inf(1)), Batch: "b", Job: "j", Stage: StageFail, Resource: "r", Detail: "d"},
		{At: sim.Time(math.Inf(-1)), Stage: StageRun},
		{At: 1e21, Stage: StageRun},
		{At: 1e20, Stage: StageRun},
		{At: 5e-324, Stage: StageRun},
		{At: sim.Time(math.Float64frombits(0x000fffffffffffff)), Stage: StageRun},
		{At: sim.Time(math.Copysign(0, -1)), Stage: StageRun},
		{At: 0.1 + 0.2, Stage: StagePlace, Detail: "policy=full attempt=1"},
		{At: 21600.25, Batch: "a\x1fb", Job: "c\nd", Stage: "x\x1f", Resource: "\n", Detail: "\x1f\n\x1f"},
		{At: 3, Batch: "shard0/batch-000001", Job: "u_example_edu-r0000-1", Stage: StageComplete, Resource: "pbs-07", Detail: long},
		{At: 4, Detail: strings.Repeat("x", eventScratchCap)},
	}
	rng := rand.New(rand.NewSource(13))
	alphabet := []string{"", "a", "pbs-03", "\x1f", "\n", "é", "batch-000042", "policy=full attempt=2"}
	str := func() string {
		var b strings.Builder
		for k := rng.Intn(4); k > 0; k-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}
	for i := 0; i < n; i++ {
		var at float64
		switch rng.Intn(4) {
		case 0:
			at = math.Float64frombits(rng.Uint64() &^ (0x7ff << 52)) // subnormal or zero, either sign
		case 1:
			at = float64(rng.Intn(1 << 20))
		case 2:
			at = math.Float64frombits(rng.Uint64())
			if math.IsNaN(at) {
				at = 0
			}
		default:
			at = rng.Float64() * 1e6
		}
		evs = append(evs, Event{At: sim.Time(at), Batch: str(), Job: str(), Stage: Stage(str()), Resource: str(), Detail: str()})
	}
	return evs
}

func TestAppendEventMatchesReferenceFraming(t *testing.T) {
	evs := framingEvents(10000)
	ref, got := sha256.New(), sha256.New()
	scratch := make([]byte, 0, eventScratchCap)
	for i, ev := range evs {
		one, oneRef := sha256.New(), sha256.New()
		refHashEvent(oneRef, ev)
		one.Write(AppendEvent(nil, ev))
		if a, b := hex.EncodeToString(one.Sum(nil)), hex.EncodeToString(oneRef.Sum(nil)); a != b {
			t.Fatalf("event %d %+v: framing digest %s, reference %s", i, ev, a, b)
		}
		refHashEvent(ref, ev)
		scratch = HashEvent(got, scratch, ev)
	}
	if a, b := hex.EncodeToString(got.Sum(nil)), hex.EncodeToString(ref.Sum(nil)); a != b {
		t.Fatalf("stream digest %s, reference %s", a, b)
	}
	if cap(scratch) <= eventScratchCap {
		t.Fatalf("scratch capacity %d: the long-detail events never took the growth path", cap(scratch))
	}
}

// settableClock lets a test stamp journal events with arbitrary times.
type settableClock struct{ now sim.Time }

func (c *settableClock) Now() sim.Time { return c.now }

func TestJournalDigestsAgreeWithReference(t *testing.T) {
	evs := framingEvents(500)
	clock := &settableClock{}
	j := NewJournal(clock)
	var observed []Event
	j.SetObserver(func(ev Event) { observed = append(observed, ev) })
	ref := sha256.New()
	for n, ev := range evs {
		if n%97 == 0 {
			at, err := j.DigestAt(n)
			if err != nil {
				t.Fatal(err)
			}
			if want := hex.EncodeToString(ref.Sum(nil)); at != want || j.Digest() != want {
				t.Fatalf("after %d events: DigestAt %s, Digest %s, reference %s", n, at, j.Digest(), want)
			}
		}
		clock.now = ev.At
		j.Record(ev.Batch, ev.Job, ev.Stage, ev.Resource, ev.Detail)
		refHashEvent(ref, ev)
	}
	want := hex.EncodeToString(ref.Sum(nil))
	full, err := j.DigestAt(len(evs))
	if err != nil {
		t.Fatal(err)
	}
	if j.Digest() != want || full != want {
		t.Fatalf("Digest %s, DigestAt(all) %s, reference %s", j.Digest(), full, want)
	}
	if len(observed) != len(evs) {
		t.Fatalf("observer saw %d of %d events", len(observed), len(evs))
	}
	for i := range evs {
		if observed[i] != evs[i] {
			t.Fatalf("observer event %d = %+v, recorded %+v", i, observed[i], evs[i])
		}
	}
}

func TestJournalFramingAllocations(t *testing.T) {
	ev := Event{At: 12345.678, Batch: "shard0/batch-000001", Job: "u_example_edu-r0000-1",
		Stage: StagePlace, Resource: "pbs-07", Detail: "policy=full attempt=1"}
	scratch := make([]byte, 0, eventScratchCap)
	if n := testing.AllocsPerRun(100, func() { scratch = AppendEvent(scratch[:0], ev) }); n != 0 {
		t.Errorf("AppendEvent allocates %v per event", n)
	}
	h := sha256.New()
	if n := testing.AllocsPerRun(100, func() { scratch = HashEvent(h, scratch, ev) }); n != 0 {
		t.Errorf("HashEvent allocates %v per event", n)
	}
	const runs = 1000
	j := NewJournal(&settableClock{now: 12345.678})
	j.events = make([]Event, 0, runs+2) // AllocsPerRun adds a warm-up call
	if n := testing.AllocsPerRun(runs, func() {
		j.Record(ev.Batch, ev.Job, ev.Stage, ev.Resource, ev.Detail)
	}); n != 0 {
		t.Errorf("Journal.Record allocates %v per event beyond growing the event slice", n)
	}
}

func TestCanonLabelsCopiesOnlyWhenUnsorted(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("lattice_sched_placements_total", "", L("policy", "full"), L("resource", "pbs-07"))
	if r.Counter("lattice_sched_placements_total", "", L("resource", "pbs-07"), L("policy", "full")) != c {
		t.Fatal("label order changed series identity")
	}
	if n := testing.AllocsPerRun(100, func() { c.Inc() }); n != 0 {
		t.Errorf("increment through a kept handle allocates %v", n)
	}
	labels := []Label{L("policy", "full"), L("resource", "pbs-07")}
	key, sorted := canonLabels(labels)
	if key != `policy="full",resource="pbs-07"` || &sorted[0] != &labels[0] {
		t.Fatalf("in-order labels: key %q, copied=%v", key, &sorted[0] != &labels[0])
	}
	reversed := []Label{labels[1], labels[0]}
	key, sorted = canonLabels(reversed)
	if key != `policy="full",resource="pbs-07"` || &sorted[0] == &reversed[0] || reversed[0].Key != "resource" {
		t.Fatalf("out-of-order labels: key %q, caller's slice reordered=%v", key, reversed[0].Key != "resource")
	}
	// The registry keeps its own copy of an in-order label slice.
	own := []Label{L("a", "1"), L("b", "2")}
	r.Gauge("g", "", own...).Set(1)
	own[0].Value = "mutated"
	if text := r.Exposition(); !strings.Contains(text, `g{a="1",b="2"} 1`) {
		t.Fatalf("series labels alias the caller's slice:\n%s", text)
	}
}
