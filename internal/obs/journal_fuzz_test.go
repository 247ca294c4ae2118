package obs

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"maps"
	"math"
	"testing"

	"lattice/internal/sim"
)

// fuzzEvents splits data into events: 0x1e ends an event and 0x1d ends
// a field, in the order At, Batch, Job, Stage, Resource, Detail. An
// empty At field repeats the previous event's time; otherwise its
// first eight bytes are the time's bits (NaN, which the engine never
// yields, reads as 0). Missing fields are empty. At most 256 events.
func fuzzEvents(data []byte) []Event {
	var evs []Event
	var at sim.Time
	for _, rec := range bytes.Split(data, []byte{0x1e}) {
		if len(evs) == 256 {
			break
		}
		var f [6]string
		for i, field := range bytes.SplitN(rec, []byte{0x1d}, 6) {
			f[i] = string(field)
		}
		if f[0] != "" {
			var b [8]byte
			copy(b[:], f[0])
			at = sim.Time(math.Float64frombits(binary.LittleEndian.Uint64(b[:])))
			if math.IsNaN(float64(at)) {
				at = 0
			}
		}
		evs = append(evs, Event{At: at, Batch: f[1], Job: f[2], Stage: Stage(f[3]), Resource: f[4], Detail: f[5]})
	}
	return evs
}

// FuzzJournal records events cut from arbitrary bytes and holds the
// journal to the flat-slice reference after every one: the digest,
// Each, TerminalCounts and the trace of every batch named so far.
func FuzzJournal(f *testing.F) {
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\xf0\x3f\x1db1\x1dj1\x1dsubmit\x1e\x1db1\x1dj1\x1dplace\x1dpbs-07\x1dpolicy=full attempt=1\x1e\x1db1\x1dj1\x1dcomplete"))
	f.Add([]byte("\x1db\x1dj\x1dsubmit\x1e\x00\x00\x00\x00\x00\x00\x00\x80\x1db\x1dj\x1dfail\x1e\x1db\x1dj\x1dcomplete\x1e\x1d\x1d\x1dwf-submit"))
	f.Add([]byte("\x1da\x1fb\x1dc\nd\x1dx\x1f\x1d\n\x1d\x1f\n\x1f"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		evs := fuzzEvents(data)
		clock := &settableClock{}
		j := NewJournal(clock)
		ref := &refJournal{}
		h := sha256.New()
		var scratch []byte
		ids := map[string]bool{"": true}
		for k, ev := range evs {
			clock.now = ev.At
			j.Record(ev.Batch, ev.Job, ev.Stage, ev.Resource, ev.Detail)
			ref.events = evs[:k+1]
			ids[ev.Batch] = true
			scratch = hashEvent(h, scratch, ev)
			if got, want := j.Digest(), hex.EncodeToString(h.Sum(nil)); got != want {
				t.Fatalf("after %d events: Digest %s, reference %s", k+1, got, want)
			}
			if got := j.events(); len(got) != k+1 || !isPrefix(got, evs) {
				t.Fatalf("after %d events: Each %+v, reference %+v", k+1, got, ref.Events())
			}
			if got, want := j.TerminalCounts(), ref.TerminalCounts(); !maps.Equal(got, want) {
				t.Fatalf("after %d events: TerminalCounts %v, reference %v", k+1, got, want)
			}
			for id := range ids {
				got, gotOK := j.Trace(id)
				want, wantOK := ref.Trace(id)
				if gotOK != wantOK || !sameSpans(got, want) {
					t.Fatalf("after %d events: Trace(%q) = %+v, %v; reference %+v, %v", k+1, id, got, gotOK, want, wantOK)
				}
			}
		}
	})
}
