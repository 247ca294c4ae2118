package admit

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"lattice/internal/sim"
)

// matchReference runs one program cut from prog against the controller
// and refController and returns the first difference — a pop, a victim,
// a rejection or a length — and how many entries were popped and shed
// and charges refused. The first four bytes pick the config; then
// each op is two bytes, an op/user byte and an argument byte:
// TakeQuota (the argument advances the clock), Push (it prices the
// entry, in half-second steps so finish tags tie), Overflow (it is the
// busy door's seconds) or Pop.
func matchReference(prog []byte) (pops, sheds, refused int, err error) {
	var cfgBytes [4]byte
	copy(cfgBytes[:], prog)
	cfg := Config{
		UserRatePerHour:  []float64{0, 600, 3600, 36000}[cfgBytes[0]%4],
		UserBurst:        []float64{0, 10, 50, 600}[cfgBytes[1]%4],
		MaxQueueDepth:    []int{0, 1, 2, 3, 8, 64}[cfgBytes[2]%6],
		MaxQueuedSeconds: []float64{0, 5, 20, 100, 600}[cfgBytes[3]%5],
	}
	got, err := NewController(cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	want, err := newRefController(cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	var pc int
	fail := func(what string, err error) (int, int, int, error) {
		return pops, sheds, refused, fmt.Errorf("op %d (%d, %d) under %+v: %s: %v", (pc-4)/2, prog[pc], prog[pc+1], cfg, what, err)
	}
	users := []string{"a@x", "b@x", "c@x", "d@x"}
	now := sim.Time(0)
	for pc = 4; pc+1 < len(prog); pc += 2 {
		op, arg := prog[pc], prog[pc+1]
		u := users[(op>>2)%4]
		switch op % 4 {
		case 0:
			now = now.Add(sim.Duration(arg%16) * sim.Second)
			rej := got.TakeQuota(u, float64(arg%32), now)
			if err := sameRejection(rej, want.TakeQuota(u, float64(arg%32), now)); err != nil {
				return fail("TakeQuota", err)
			}
			if rej != nil {
				refused++
			}
		case 1:
			cost := float64(arg%8) * 0.5
			got.Push(u, cost, pc)
			want.Push(u, cost, pc)
		case 2:
			busy := float64(arg % 8)
			gv, grej := got.Overflow(busy)
			wv, wrej := want.Overflow(busy)
			if err := sameEntry(gv, wv); err != nil {
				return fail("Overflow victim", err)
			}
			if err := sameRejection(grej, wrej); err != nil {
				return fail("Overflow", err)
			}
			if gv != nil {
				sheds++
			}
		case 3:
			e := got.Pop()
			if err := sameEntry(e, want.Pop()); err != nil {
				return fail("Pop", err)
			}
			if e != nil {
				pops++
			}
		}
		if got.Len() != want.Len() {
			return fail("Len", fmt.Errorf("%d, reference %d", got.Len(), want.Len()))
		}
	}
	return pops, sheds, refused, nil
}

func sameEntry(got *Entry, want *refEntry) error {
	switch {
	case got == nil && want == nil:
		return nil
	case got == nil || want == nil:
		return fmt.Errorf("got %+v, reference %+v", got, want)
	case got.User != want.User || got.Cost != want.Cost || got.Payload != want.Payload:
		return fmt.Errorf("got %s/%v/%v, reference %s/%v/%v", got.User, got.Cost, got.Payload, want.User, want.Cost, want.Payload)
	}
	return nil
}

func sameRejection(got, want *Rejection) error {
	if (got == nil) != (want == nil) || (got != nil && *got != *want) {
		return fmt.Errorf("rejection %+v, reference %+v", got, want)
	}
	return nil
}

// FuzzAdmit holds the value-heap controller to refController over
// arbitrary programs: the same pops, victims, rejections and lengths.
func FuzzAdmit(f *testing.F) {
	for _, seed := range admitPrograms(8) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if _, _, _, err := matchReference(prog); err != nil {
			t.Fatal(err)
		}
	})
}

// admitPrograms is n seeded programs of 600 ops each.
func admitPrograms(n int) [][]byte {
	progs := make([][]byte, n)
	for i := range progs {
		r := rand.New(rand.NewPCG(uint64(i), 1))
		prog := make([]byte, 4+2*600)
		for k := range prog {
			prog[k] = byte(r.UintN(256))
		}
		progs[i] = prog
	}
	return progs
}

// TestMatchesReference runs 300 seeded programs through matchReference,
// so plain go test covers more than the fuzz seeds.
func TestMatchesReference(t *testing.T) {
	var pops, sheds, refused int
	for i, prog := range admitPrograms(300) {
		p, s, r, err := matchReference(prog)
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		pops, sheds, refused = pops+p, sheds+s, refused+r
	}
	if pops == 0 || sheds == 0 || refused == 0 {
		t.Fatalf("programs too tame: %d pops, %d sheds, %d refused charges", pops, sheds, refused)
	}
	t.Logf("%d pops, %d sheds, %d refused charges", pops, sheds, refused)
}

// TestWarmCycleAllocatesNothing: entries are held by value and Pop and
// Overflow hand back the controller's own copy, so once the queue and
// the user table are warm a quota charge, a push, an overflow check
// that sheds nothing and a pop cost no allocation.
func TestWarmCycleAllocatesNothing(t *testing.T) {
	c := newTestController(t, Config{UserRatePerHour: 3600, MaxQueueDepth: 64, MaxQueuedSeconds: 1e6})
	payload := new(int)
	users := []string{"a@x", "b@x", "c@x"}
	for i := 0; i < 32; i++ {
		c.Push(users[i%3], float64(i%5), payload)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		u := users[i%3]
		if rej := c.TakeQuota(u, 1, sim.Time(i)); rej != nil {
			t.Fatal(rej)
		}
		c.Push(u, float64(i%5), payload)
		if v, _ := c.Overflow(0.5); v != nil {
			t.Fatalf("shed %+v", v)
		}
		if e := c.Pop(); e == nil || e.Payload != payload {
			t.Fatalf("popped %+v", e)
		}
	})
	if allocs != 0 || c.Len() != 32 {
		t.Fatalf("a warm cycle costs %v allocations and leaves %d queued, want 0 and 32", allocs, c.Len())
	}
}

// TestWarmShedAllocatesNothing: the rejection Overflow returns is the
// controller's too, so on a full queue a push that overflows it and the
// shed that brings it back under the depth bound cost no allocation.
func TestWarmShedAllocatesNothing(t *testing.T) {
	c := newTestController(t, Config{MaxQueueDepth: 32})
	payload := new(int)
	users := []string{"a@x", "b@x", "c@x"}
	for i := 0; i < 32; i++ {
		c.Push(users[i%3], float64(i%5), payload)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		c.Push(users[i%3], float64(i%5), payload)
		v, rej := c.Overflow(0.5)
		if v == nil || rej.Reason != ReasonOverload || rej.User != v.User {
			t.Fatalf("shed %+v with %+v", v, rej)
		}
		if v, _ := c.Overflow(0.5); v != nil {
			t.Fatalf("shed twice: %+v", v)
		}
	})
	if allocs != 0 || c.Len() != 32 {
		t.Fatalf("a warm shed costs %v allocations and leaves %d queued, want 0 and 32", allocs, c.Len())
	}
}
