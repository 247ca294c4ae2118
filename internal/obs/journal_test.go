package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

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

// hashEvent streams one framed event into h with a single Write,
// framing it in scratch (overwritten; pass the returned slice back in
// to reuse its capacity): Record's framing without its timestamp
// cache, for the reference readers.
func hashEvent(h hash.Hash, scratch []byte, ev Event) []byte {
	scratch = AppendEvent(scratch[:0], ev)
	h.Write(scratch)
	return scratch
}

// events collects the journal through Each, nil when it holds none: the
// copy the tests compare with their oracles.
func (j *Journal) events() []Event {
	var out []Event
	j.Each(func(ev Event) { out = append(out, ev) })
	return out
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
		{At: 0, Stage: StageRun},
		{At: sim.Time(math.Copysign(0, -1)), Stage: StageRun},
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
		scratch = hashEvent(got, scratch, ev)
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
	ref := sha256.New()
	var observed []Event
	var sums []string
	// The observer sees the length and the digest with ev folded in.
	j.SetObserver(func(ev Event, n int, digest hash.Hash) {
		if n != len(observed)+1 {
			t.Fatalf("observer told length %d after %d events", n, len(observed))
		}
		observed = append(observed, ev)
		sums = append(sums, hex.EncodeToString(digest.Sum(nil)))
	})
	for n, ev := range evs {
		if n%97 == 0 {
			if at, err := j.digestAt(n); err != nil || at != hex.EncodeToString(ref.Sum(nil)) {
				t.Fatalf("after %d events: digestAt %s, %v; reference %s", n, at, err, hex.EncodeToString(ref.Sum(nil)))
			}
		}
		clock.now = ev.At
		j.Record(ev.Batch, ev.Job, ev.Stage, ev.Resource, ev.Detail)
		refHashEvent(ref, ev)
		if want := hex.EncodeToString(ref.Sum(nil)); sums[n] != want || j.Digest() != want {
			t.Fatalf("after %d events: observer saw digest %s, Digest %s, reference %s", n+1, sums[n], j.Digest(), want)
		}
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
	fresh := NewJournal(&settableClock{})
	if n := testing.AllocsPerRun(100, func() { ev.At++; fresh.frame(ev) }); n != 0 {
		t.Errorf("framing a new instant allocates %v per event", n)
	}
	if n := testing.AllocsPerRun(100, func() { fresh.frame(ev) }); n != 0 {
		t.Errorf("framing the same instant allocates %v per event", n)
	}
	// 100 000 events fill 30 entry chunks (64, 128, …, 4 096, then
	// 4 096 each) and grow the chunk list six times; nothing else may
	// allocate, and no stored entry is copied, so the bytes stay within
	// one chunk of the entries' own size (one growing slice copied about
	// five times that). The five names resolve to rows of the names
	// chunk NewJournal opened, so the names table adds nothing.
	const records, maxObjects = 100000, 40
	j := NewJournal(&settableClock{now: 12345.678})
	objects, bytes := recordAllocs(func() {
		for i := 0; i < records; i++ {
			j.Record(ev.Batch, ev.Job, ev.Stage, ev.Resource, ev.Detail)
		}
	})
	if objects > maxObjects {
		t.Errorf("%d Records into a fresh journal allocate %d objects, want ≤ %d", records, objects, maxObjects)
	}
	if maxBytes := uint64(records+maxChunk) * uint64(unsafe.Sizeof(entry{})); bytes > maxBytes {
		t.Errorf("%d Records into a fresh journal allocate %d bytes, want ≤ %d", records, bytes, maxBytes)
	}
	seen := 0
	if n := testing.AllocsPerRun(10, func() { j.Each(func(Event) { seen++ }) }); n != 0 || seen != 11*records {
		t.Errorf("Each allocates %v times over %d events, want 0 over %d", n, seen, 11*records)
	}

	// A scaleout-shaped stream names a new batch and job every six
	// events: the names table grows by one string header per row, and
	// the cache keeps rows close to the distinct names.
	evs := scaleoutEvents(records)
	clock := &settableClock{}
	j = NewJournal(clock)
	_, bytes = recordAllocs(func() { recordAll(j, clock, evs) })
	rows := j.nameRows()
	if maxBytes := uint64(records+maxChunk)*uint64(unsafe.Sizeof(entry{})) + uint64(rows+maxChunk)*uint64(unsafe.Sizeof("")); bytes > maxBytes {
		t.Errorf("%d scaleout Records allocate %d bytes, want ≤ %d (%d names rows)", records, bytes, maxBytes, rows)
	}
	distinct := map[string]bool{"": true}
	for _, ev := range evs {
		for _, s := range []string{ev.Batch, ev.Job, string(ev.Stage), ev.Resource, ev.Detail} {
			distinct[s] = true
		}
	}
	if rows > len(distinct)*11/10 {
		t.Errorf("names table holds %d rows for %d distinct names, want ≤ 10%% more", rows, len(distinct))
	}
}

// recordAllocs returns the objects and bytes fn allocates on one P.
func recordAllocs(fn func()) (objects, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.GC() // the process's first GC starts its workers, which allocate
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// nameRows is the number of rows in the journal's names table, the
// empty name's included.
func (j *Journal) nameRows() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	rows := j.nameN
	for _, c := range j.names[:len(j.names)-1] {
		rows += len(c)
	}
	return rows
}

// TestJournalEntryIsPointerFree pins the stored form: an entry holds
// only numbers, so the collector never scans the journal's entry
// chunks, and it takes at most 32 bytes.
func TestJournalEntryIsPointerFree(t *testing.T) {
	var walk func(reflect.Type)
	walk = func(typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(typ.Field(i).Type)
			}
		case reflect.Array:
			walk(typ.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		default:
			t.Errorf("journal entry holds a %s (%s)", typ.Kind(), typ)
		}
	}
	walk(reflect.TypeOf(entry{}))
	if size := unsafe.Sizeof(entry{}); size > 32 {
		t.Errorf("journal entry takes %d bytes, want ≤ 32", size)
	}
}

// scaleoutEvents returns n events shaped like the journal of the
// ledger's scaleout workload: one-replicate batches, each validated,
// submitted, placed, dispatched, run and completed on one of 16 PBS
// clusters, with the coordinator's IDs and details.
func scaleoutEvents(n int) []Event {
	evs := make([]Event, 0, n)
	for b := 1; len(evs) < n; b++ {
		batch := fmt.Sprintf("batch-%06d", b)
		job := fmt.Sprintf("u%05d_example_edu-r0000-%d", b%100000, b)
		res := fmt.Sprintf("pbs-%02d", b%16)
		at := sim.Time(b) * 0.216
		for _, ev := range []Event{
			{Batch: batch, Stage: StageValidate, Detail: "1 replicate"},
			{Batch: batch, Job: job, Stage: StageSubmit},
			{Batch: batch, Job: job, Stage: StagePlace, Resource: res, Detail: "policy=full attempt=1"},
			{Batch: batch, Job: job, Stage: StageDispatch, Resource: res},
			{Batch: batch, Job: job, Stage: StageRun, Resource: res},
			{Batch: batch, Job: job, Stage: StageComplete, Resource: res},
		} {
			if len(evs) == n {
				break
			}
			ev.At = at
			evs = append(evs, ev)
		}
	}
	return evs
}

// scaleoutJournalEvents is the size of scaleout's journal: 10^5 users,
// six events each.
const scaleoutJournalEvents = 600000

// BenchmarkJournalRecord records a whole scaleout-sized journal per
// operation: framing and hashing every event, and the chunk allocations.
func BenchmarkJournalRecord(b *testing.B) {
	evs := scaleoutEvents(scaleoutJournalEvents)
	clock := &settableClock{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := NewJournal(clock)
		recordAll(j, clock, evs)
	}
}

// BenchmarkJournalTrace folds one batch's trace out of a scaleout-sized
// journal: the cost of one /trace/<id> request at the end of the run.
func BenchmarkJournalTrace(b *testing.B) {
	clock := &settableClock{}
	j := NewJournal(clock)
	recordAll(j, clock, scaleoutEvents(scaleoutJournalEvents))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if spans, ok := j.Trace("batch-050000"); !ok || len(spans) != 2 || spans[0].InFlight {
			b.Fatalf("trace = %+v, %v", spans, ok)
		}
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
