package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"lattice/internal/sim"
)

// refJournal is the journal's readers as they were over one flat,
// growing slice, kept as the oracle the chunked journal must reproduce
// event for event, byte for byte.
type refJournal struct{ events []Event }

func (r *refJournal) Events() []Event { return append([]Event(nil), r.events...) }

func (r *refJournal) DigestAt(n int) string {
	h := sha256.New()
	scratch := make([]byte, 0, eventScratchCap)
	for _, ev := range r.events[:n] {
		scratch = hashEvent(h, scratch, ev)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestAt is the hex SHA-256 over the journal's first n events, folded
// from a view outside the lock like every reader of the journal: the
// tests below hold it to the reference at every prefix, which pins the
// view and its chunk walk.
func (j *Journal) digestAt(n int) (string, error) {
	v := j.view()
	if n < 0 || n > v.n {
		return "", fmt.Errorf("obs: digestAt(%d) outside journal of %d events", n, v.n)
	}
	h := sha256.New()
	scratch := make([]byte, 0, eventScratchCap)
	v.each(n, func(c []entry) {
		for i := range c {
			scratch = hashEvent(h, scratch, v.event(&c[i]))
		}
	})
	return hex.EncodeToString(h.Sum(nil)), nil
}

func (r *refJournal) TerminalCounts() map[string]int {
	out := make(map[string]int)
	for _, ev := range r.events {
		if ev.Job == "" {
			continue
		}
		if ev.Stage == StageSubmit {
			if _, seen := out[ev.Job]; !seen {
				out[ev.Job] = 0
			}
		}
		if _, seen := out[ev.Job]; seen && ev.Stage.Terminal() {
			out[ev.Job]++
		}
	}
	return out
}

func (r *refJournal) Trace(batch string) (spans []SpanView, ok bool) {
	if batch == "" {
		return nil, false
	}
	byJob := make(map[string]int)
	open, lastEnd := 0, 0.0
	for _, ev := range r.events {
		if ev.Batch != batch || strings.HasPrefix(string(ev.Stage), "wf-") {
			continue
		}
		if spans == nil {
			spans = append(spans, SpanView{ID: 1, Name: "batch", Start: float64(ev.At), InFlight: true})
		}
		i, seen := byJob[ev.Job]
		switch {
		case ev.Stage == StageSubmit && !seen && ev.Job != "":
			byJob[ev.Job] = len(spans)
			spans = append(spans, SpanView{
				ID: uint64(len(spans) + 1), Parent: 1, Job: ev.Job, Name: "job",
				Start: float64(ev.At), InFlight: true,
			})
			open++
		case ev.Stage == StagePlace && seen:
			spans[i].Attrs = append(spans[i].Attrs, Attr{Key: "resource", Value: ev.Resource})
		case ev.Stage.Terminal() && seen && spans[i].InFlight:
			spans[i].End, spans[i].InFlight = float64(ev.At), false
			open--
			lastEnd = spans[i].End
		}
	}
	if len(spans) > 1 && open == 0 {
		spans[0].End, spans[0].InFlight = lastEnd, false
	}
	return spans, spans != nil
}

// lifecycleStream returns n seeded events shaped like a coordinator's
// journal and its awkward corners: eight batches whose jobs submit,
// place (often more than once), run and end interleaved, terminals in
// no particular order; a repeated submit, a second terminal for an
// ended job, a terminal for a job never submitted, a submit with no
// job; workflow (wf-*) events filed under the same batch IDs; sheds and
// breaker transitions with no batch at all.
func lifecycleStream(seed int64, n int) []Event {
	rng := rand.New(rand.NewSource(seed))
	evs := make([]Event, 0, n)
	var open []string
	batchOf := make(map[string]string)
	wf := []Stage{StageWfSubmit, StageWfReady, StageWfDispatch, StageWfStageDone, StageWfComplete, StageWfFail}
	at, jobs := 0.0, 0
	for len(evs) < n {
		at += rng.Float64()
		b := fmt.Sprintf("batch-%06d", rng.Intn(8))
		ev := Event{At: sim.Time(at), Batch: b}
		switch r := rng.Intn(24); {
		case r < 6:
			ev.Job, ev.Stage = fmt.Sprintf("%s-r%04d", b, jobs), StageSubmit
			open = append(open, ev.Job)
			batchOf[ev.Job] = b
			jobs++
		case r < 10 && len(open) > 0:
			ev.Job = open[rng.Intn(len(open))]
			ev.Batch, ev.Stage, ev.Resource = batchOf[ev.Job], StagePlace, fmt.Sprintf("pbs-%02d", rng.Intn(16))
			ev.Detail = fmt.Sprintf("policy=full attempt=%d", 1+rng.Intn(3))
		case r < 12 && len(open) > 0:
			ev.Job = open[rng.Intn(len(open))]
			ev.Batch, ev.Stage, ev.Resource = batchOf[ev.Job], []Stage{StageDispatch, StageRun, StagePreempt}[rng.Intn(3)], "pbs-00"
		case r < 16 && len(open) > 0:
			k := rng.Intn(len(open))
			ev.Job = open[k]
			open[k] = open[len(open)-1]
			open = open[:len(open)-1]
			ev.Batch, ev.Stage = batchOf[ev.Job], []Stage{StageComplete, StageComplete, StageFail}[rng.Intn(3)]
		case r == 16 && jobs > 0: // repeated submit or terminal of a job, ended or not
			ev.Job = fmt.Sprintf("%s-r%04d", b, rng.Intn(jobs))
			if owner := batchOf[ev.Job]; owner != "" {
				ev.Batch = owner
			}
			ev.Stage = []Stage{StageSubmit, StageComplete, StageFail}[rng.Intn(3)]
		case r == 17: // a terminal for a job the journal never saw submitted
			ev.Job, ev.Stage = fmt.Sprintf("fork-%d", rng.Intn(50)), StageComplete
		case r == 18:
			ev.Stage = StageSubmit
		case r == 19:
			ev.Stage = StageValidate
		case r == 20:
			ev.Job, ev.Stage = fmt.Sprintf("stage-%d", rng.Intn(4)), wf[rng.Intn(len(wf))]
		case r == 21:
			ev = Event{At: sim.Time(at), Stage: StageShed, Resource: "ingest", Detail: "quota: retry after 60s"}
		default:
			ev = Event{At: sim.Time(at), Stage: StageBreaker, Resource: "pbs-03", Detail: "half-open probe dispatched"}
		}
		evs = append(evs, ev)
	}
	return evs
}

// chunkBoundaries returns every journal length up to n at which a chunk
// fills.
func chunkBoundaries(n int) []int {
	var out []int
	for end, size := firstChunk, firstChunk; end <= n; end += size {
		out = append(out, end)
		size = min(2*size, maxChunk)
	}
	return out
}

func batchIDs(evs []Event) []string {
	seen := map[string]bool{"": true, "nope": true}
	for _, ev := range evs {
		seen[ev.Batch] = true
	}
	ids := make([]string, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// compareWithReference holds every reader of j to the flat-slice
// reference over the same events.
func compareWithReference(t *testing.T, j *Journal, evs []Event) {
	t.Helper()
	ref := &refJournal{events: evs}
	n := len(evs)
	if j.Len() != n {
		t.Fatalf("Len %d, want %d", j.Len(), n)
	}
	if got, want := j.events(), ref.Events(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Each differs from the reference (%d vs %d events)", len(got), len(want))
	}
	if got, want := j.Digest(), ref.DigestAt(n); got != want {
		t.Fatalf("Digest %s, reference %s", got, want)
	}
	check := []int{0, n}
	for _, b := range chunkBoundaries(n + 1) {
		check = append(check, b-1, b, b+1)
	}
	for _, k := range check {
		if k > n {
			continue
		}
		if got, err := j.digestAt(k); err != nil || got != ref.DigestAt(k) {
			t.Fatalf("digestAt(%d) = %s, %v; reference %s", k, got, err, ref.DigestAt(k))
		}
	}
	for _, k := range []int{-1, n + 1} {
		if _, err := j.digestAt(k); err == nil {
			t.Fatalf("digestAt(%d) of a %d-event journal did not fail", k, n)
		}
	}
	if got, want := j.TerminalCounts(), ref.TerminalCounts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("TerminalCounts differs from the reference:\n got %v\nwant %v", got, want)
	}
	for _, id := range batchIDs(evs) {
		got, gotOK := j.Trace(id)
		want, wantOK := ref.Trace(id)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("Trace(%q) = %+v, %v; reference %+v, %v", id, got, gotOK, want, wantOK)
		}
	}
}

func recordAll(j *Journal, clock *settableClock, evs []Event) {
	for _, ev := range evs {
		clock.now = ev.At
		j.Record(ev.Batch, ev.Job, ev.Stage, ev.Resource, ev.Detail)
	}
}

// TestChunkedJournalMatchesReference checks the chunked journal against
// the flat slice at lengths on both sides of the chunk boundaries and
// on a longer stream that crosses several 4 096-event chunks.
func TestChunkedJournalMatchesReference(t *testing.T) {
	stream := lifecycleStream(1, 12289)
	for _, n := range []int{0, 1, 63, 64, 65, 191, 192, 193, 4095, 4096, 4097, 12289} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			clock := &settableClock{}
			j := NewJournal(clock)
			recordAll(j, clock, stream[:n])
			compareWithReference(t, j, stream[:n])
		})
	}
	t.Run("seeded-20000", func(t *testing.T) {
		evs := lifecycleStream(20000, 20000)
		kinds := map[string]int{}
		for _, ev := range evs {
			switch {
			case ev.Stage == StageShed:
				kinds["shed"]++
			case strings.HasPrefix(string(ev.Stage), "wf-"):
				kinds["wf"]++
			case ev.Stage.Terminal():
				kinds["terminal"]++
			}
		}
		if kinds["shed"] == 0 || kinds["wf"] == 0 || kinds["terminal"] < 1000 {
			t.Fatalf("stream lacks the events it exists for: %v", kinds)
		}
		clock := &settableClock{}
		j := NewJournal(clock)
		recordAll(j, clock, evs)
		compareWithReference(t, j, evs)
	})
}

// collidingStream returns n events whose names all collide in pairs:
// every string field alternates, event by event, between a "left" and
// a "rght" spelling of equal length and equal last eight bytes, which
// hash to one cache slot, so nearly every Record misses the cache and
// appends its names again, filling names chunk after names chunk. Jobs
// submit, place, pass an out-of-vocabulary stage (which alternates
// too) and end, in one of three batches per side; some resources and details are empty, and a
// few events have no fields at all.
func collidingStream(n int) []Event {
	evs := make([]Event, 0, n)
	at := sim.Time(0)
	for k := 0; len(evs) < n; k++ {
		for s, stage := range []Stage{StageSubmit, StagePlace, "x-not-a-stage", StageComplete} {
			if s == 3 && k%5 == 0 {
				stage = StageFail
			}
			for _, side := range []string{"left", "rght"} {
				ev := Event{
					At:    at,
					Batch: fmt.Sprintf("%s/batch-%06d", side, k%3),
					Job:   fmt.Sprintf("%s/batch-%06d-r%06d", side, k%3, k),
					Stage: stage,
				}
				if s == 2 {
					ev.Stage = Stage(side) + stage
				}
				if k%4 != 0 {
					ev.Resource = side + "/pbs-cluster-07"
				}
				if s != 3 {
					ev.Detail = side + " policy=full attempt=1"
				}
				if k%7 == 3 && s == 2 {
					ev = Event{At: at}
				}
				evs = append(evs, ev)
			}
			if k%3 != 0 {
				at += 0.5
			}
		}
	}
	return evs[:n]
}

// TestCollidingNamesMatchReference records a stream whose names fight
// over cache slots and cross several names chunks, and holds every
// reader to the flat-slice reference after every event: the digest,
// Each, TerminalCounts and the trace of every batch. A name recorded
// twice gets two refs; the readers must not tell.
func TestCollidingNamesMatchReference(t *testing.T) {
	evs := collidingStream(1200)
	for _, ev := range evs[:8] {
		if ev.Batch != "" && cacheSlot(ev.Batch) != cacheSlot(strings.Replace(ev.Batch, "left", "rght", 1)) {
			t.Fatalf("%q and its rght twin hash to different slots", ev.Batch)
		}
	}
	ids := batchIDs(evs)
	clock := &settableClock{}
	j := NewJournal(clock)
	ref := &refJournal{}
	h := sha256.New()
	var scratch []byte
	for k, ev := range evs {
		clock.now = ev.At
		j.Record(ev.Batch, ev.Job, ev.Stage, ev.Resource, ev.Detail)
		ref.events = evs[:k+1]
		scratch = hashEvent(h, scratch, ev)
		if got, want := j.Digest(), hex.EncodeToString(h.Sum(nil)); got != want {
			t.Fatalf("after %d events: Digest %s, reference %s", k+1, got, want)
		}
		if got := j.events(); len(got) != k+1 || !isPrefix(got, evs) {
			t.Fatalf("after %d events: Each differs from the reference", k+1)
		}
		if got, want := j.TerminalCounts(), ref.TerminalCounts(); !maps.Equal(got, want) {
			t.Fatalf("after %d events: TerminalCounts %v, reference %v", k+1, got, want)
		}
		for _, id := range ids {
			got, gotOK := j.Trace(id)
			want, wantOK := ref.Trace(id)
			if gotOK != wantOK || !sameSpans(got, want) {
				t.Fatalf("after %d events: Trace(%q) = %+v, %v; reference %+v, %v", k+1, id, got, gotOK, want, wantOK)
			}
		}
	}
	compareWithReference(t, j, evs)
	if rows := j.nameRows(); len(j.names) < 6 || rows < len(evs)*3 {
		t.Fatalf("%d events left %d names rows in %d chunks; the stream should miss the cache and cross several names chunks", len(evs), rows, len(j.names))
	}
}

// TestJournalReadersSeePrefixes records 200 000 events on one goroutine
// while readers fold the journal on others (run it under -race); the
// events' names fill the names table past its doubling chunks, so
// readers resolve refs while Record opens names chunks. Every
// read must see a prefix of the stream: digestAt(Len()) is the
// reference digest after that many events, Each yields the stream cut at
// its length, and Trace and TerminalCounts never show a span, an
// attribute or a terminal that the full journal does not.
func TestJournalReadersSeePrefixes(t *testing.T) {
	const n = 200000
	evs := lifecycleStream(7, n)
	digests := make([][sha256.Size]byte, n+1)
	h := sha256.New()
	var scratch []byte
	for k, ev := range evs {
		h.Sum(digests[k][:0])
		scratch = hashEvent(h, scratch, ev)
	}
	h.Sum(digests[n][:0])
	ref := &refJournal{events: evs}
	const batch = "batch-000003"
	finalTrace, _ := ref.Trace(batch)
	finalCounts := ref.TerminalCounts()

	clock := &settableClock{}
	j := NewJournal(clock)
	done := make(chan struct{})
	var wg sync.WaitGroup
	var midStream atomic.Int64 // reads that saw a partial journal
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for stop := false; !stop; {
				select {
				case <-done:
					stop = true
				default:
				}
				k := j.Len()
				if k < last {
					t.Errorf("Len went back from %d to %d", last, k)
					return
				}
				last = k
				if 0 < k && k < n {
					midStream.Add(1)
				}
				if d, err := j.digestAt(k); err != nil || d != hex.EncodeToString(digests[k][:]) {
					t.Errorf("digestAt(%d) = %s, %v; not the digest of the first %d events", k, d, err, k)
					return
				}
				if got := j.events(); len(got) < k || !isPrefix(got, evs) {
					t.Errorf("Each (%d after Len %d) is not a prefix of the stream", len(got), k)
					return
				}
				if err := tracePrefixOf(j, batch, finalTrace); err != nil {
					t.Error(err)
					return
				}
				for job, c := range j.TerminalCounts() {
					if want, ok := finalCounts[job]; !ok || c > want {
						t.Errorf("TerminalCounts[%s] = %d; the whole journal has %d (present %v)", job, c, want, ok)
						return
					}
				}
			}
		}()
	}
	recordAll(j, clock, evs)
	close(done)
	wg.Wait()
	t.Logf("%d reads landed while the writer was recording", midStream.Load())
	if chunks := len(j.names); chunks < 8 {
		t.Fatalf("the stream filled %d names chunks; the readers never saw one opened past the doubling ones", chunks)
	}
	if d, err := j.digestAt(n); err != nil || d != j.Digest() || d != hex.EncodeToString(digests[n][:]) {
		t.Fatalf("digestAt(%d) = %s, %v; Digest %s", n, d, err, j.Digest())
	}
	if got, _ := j.Trace(batch); !reflect.DeepEqual(got, finalTrace) {
		t.Fatalf("final trace of %s differs from the reference", batch)
	}
	if !reflect.DeepEqual(j.TerminalCounts(), finalCounts) || !isPrefix(evs, j.events()) {
		t.Fatal("final journal differs from the reference")
	}
}

// isPrefix reports whether got is evs cut at its length.
func isPrefix(got, evs []Event) bool {
	if len(got) > len(evs) {
		return false
	}
	for i := range got {
		if got[i] != evs[i] {
			return false
		}
	}
	return true
}

// sameSpans is reflect.DeepEqual for traces, without reflection, so
// tests that compare traces after every event stay quick under -race.
func sameSpans(a, b []SpanView) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.ID != y.ID || x.Parent != y.Parent || x.Job != y.Job || x.Name != y.Name ||
			x.Start != y.Start || x.End != y.End || x.InFlight != y.InFlight || !slices.Equal(x.Attrs, y.Attrs) {
			return false
		}
	}
	return true
}

// tracePrefixOf reports whether j's current trace of batch could be a
// prefix of final: the same spans in the same order, each job's
// placements a prefix of its final ones, each ended job ended when it
// finally does. (The root may close and reopen as jobs arrive.)
func tracePrefixOf(j *Journal, batch string, final []SpanView) error {
	spans, _ := j.Trace(batch)
	if len(spans) > len(final) {
		return fmt.Errorf("trace of %s has %d spans, the whole journal %d", batch, len(spans), len(final))
	}
	for i, s := range spans {
		f := final[i]
		ok := s.ID == f.ID && s.Job == f.Job && s.Start == f.Start && len(s.Attrs) <= len(f.Attrs)
		for k := 0; ok && k < len(s.Attrs); k++ {
			ok = s.Attrs[k] == f.Attrs[k]
		}
		if i > 0 && !s.InFlight {
			ok = ok && !f.InFlight && s.End == f.End
		}
		if !ok {
			return fmt.Errorf("span %d of %s = %+v; the whole journal has %+v", i, batch, s, f)
		}
	}
	return nil
}
