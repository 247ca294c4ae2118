package wal

import (
	"os"
	"reflect"
	"runtime"
	"testing"
)

// FuzzLoad feeds Load arbitrary bytes as a durable directory's log (an
// empty argument leaves the file out). Whatever it holds, Load returns
// an error, no state, or a state recovery can rely on — genesis first,
// every record dense from 1 to LastSeq — and never panics or lets a
// length field size an allocation. A loaded log must also take the
// next record: reopened, appended to and loaded again, it holds the
// same records plus that one, with no torn tail.
func FuzzLoad(f *testing.F) {
	src := f.TempDir()
	appendN(f, src, 15, Options{})
	whole, err := os.ReadFile(LogPath(src))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(whole)
	for _, cut := range []int{0, 4, len(magic), len(magic) + 3, len(whole) / 3, len(whole) / 2, len(whole) - 1} {
		f.Add(whole[:cut])
	}
	for off := len(magic); off < len(whole); { // every frame boundary
		_, next, err := decodeFrame(whole, off, new(arena))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(whole[:next])
		off = next
	}
	for _, at := range []int{0, len(magic) + 1, len(magic) + frameHeaderSize + 2, len(whole) / 3, len(whole) / 2, len(whole) - 1} {
		flipped := append([]byte(nil), whole...)
		flipped[at] ^= 0x40
		f.Add(flipped)
	}
	f.Add(append([]byte("LATWAL05"), whole[len(magic):]...))

	f.Fuzz(func(t *testing.T, log []byte) {
		dir := t.TempDir()
		if len(log) > 0 {
			if err := os.WriteFile(LogPath(dir), log, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err := Load(dir)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > maxFrame {
			t.Fatalf("Load allocated %d bytes over a %d-byte log", grew, len(log))
		}
		if err != nil || st == nil {
			return
		}
		if st.Tail[0].Kind != KindGenesis {
			t.Fatalf("state starts with a %q record", st.Tail[0].Kind)
		}
		for i, r := range st.Tail {
			if r.Seq != uint64(i+1) {
				t.Fatalf("record %d has seq %d", i, r.Seq)
			}
		}
		if st.LastSeq != uint64(len(st.Tail)) {
			t.Fatalf("LastSeq %d over %d records", st.LastSeq, len(st.Tail))
		}
		lg, err := Reopen(dir, st, Options{})
		if err != nil {
			t.Fatal(err)
		}
		last := st.Tail[len(st.Tail)-1]
		next := Record{Seq: st.LastSeq + 1, Step: last.Step, At: last.At, Kind: KindCheckpoint, JournalLen: 64}
		lg.Append(next)
		if err := lg.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := Load(dir)
		if err != nil || got == nil || got.Torn || !reflect.DeepEqual(got.Tail, append(st.Tail, next)) {
			t.Fatalf("reopened and appended to: %+v, %v; want the %d loaded records plus seq %d", got, err, len(st.Tail), next.Seq)
		}
	})
}
