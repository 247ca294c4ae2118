package wal

import (
	"os"
	"runtime"
	"testing"
)

// FuzzLoad feeds Load arbitrary bytes as the three files of a durable
// directory (an empty argument leaves that file out). Whatever they
// hold, Load returns an error or a state recovery can rely on — a tail
// dense from the snapshot to LastSeq, an input history of input
// records in strictly increasing sequence — and never panics or lets
// a length field size an allocation.
func FuzzLoad(f *testing.F) {
	src := f.TempDir()
	appendRotating(f, src, makeRecords(15), 4) // snapshot at 12 over inputs 2, 6, 10; log holds 13-15
	var files [3][]byte
	for i, path := range []string{LogPath(src), SegmentPath(src), SnapshotPath(src)} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		files[i] = data
	}
	f.Add(files[0], files[1], files[2])
	for i := range files {
		damaged := func(data []byte) {
			args := files
			args[i] = data
			f.Add(args[0], args[1], args[2])
		}
		whole := files[i]
		damaged(nil)
		damaged(whole[:len(whole)/2])
		damaged(whole[:len(whole)-1])
		for _, at := range []int{0, len(magic) + 1, len(whole) / 2, len(whole) - 1} {
			flipped := append([]byte(nil), whole...)
			flipped[at] ^= 0x40
			damaged(flipped)
		}
	}
	// A log-only directory (no rotation yet) reaches the genesis path.
	plain := f.TempDir()
	appendN(f, plain, 6, Options{})
	data, err := os.ReadFile(LogPath(plain))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data, []byte(nil), []byte(nil))

	f.Fuzz(func(t *testing.T, log, segment, snapshot []byte) {
		dir := t.TempDir()
		for path, data := range map[string][]byte{LogPath(dir): log, SegmentPath(dir): segment, SnapshotPath(dir): snapshot} {
			if len(data) == 0 {
				continue
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err := Load(dir)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > maxFrame {
			t.Fatalf("Load allocated %d bytes over %d bytes of files", grew, len(log)+len(segment)+len(snapshot))
		}
		if err != nil || st == nil {
			return
		}
		next := uint64(1)
		if st.Snap != nil {
			next = st.Snap.Seq + 1
		} else if st.Tail[0].Kind != KindGenesis {
			t.Fatalf("snapshot-less state starts with a %q record", st.Tail[0].Kind)
		}
		for _, r := range st.Tail {
			if r.Seq != next {
				t.Fatalf("tail holds seq %d where %d belongs", r.Seq, next)
			}
			next++
		}
		if st.LastSeq != next-1 {
			t.Fatalf("LastSeq %d, tail ends at %d", st.LastSeq, next-1)
		}
		last := uint64(0)
		for _, r := range st.Inputs() {
			if !r.IsInput() || r.Seq <= last {
				t.Fatalf("input history holds a %q record with seq %d after seq %d", r.Kind, r.Seq, last)
			}
			last = r.Seq
		}
	})
}
