// Fixture: exported API the deadexport analyzer must NOT flag — every
// symbol here has a user in non-test code, is reached through an
// interface or by reflection, or says why it stays.
package deadexport

import (
	"fmt"
	"sort"
)

// Open is called by Run below: one reference is enough.
func Open() *Ledger { return &Ledger{Entries: 2} }

// Run is the package's entry point, called by keep.
func Run() int { return Open().Total() }

var keep = Run()

// Sink is what callers program against; Drain reaches Flush through it.
type Sink interface{ Flush() error }

// Buffer implements Sink: Flush is never named on a *Buffer, and is
// live all the same.
type Buffer struct {
	Pending int
}

// Flush implements Sink.
func (b *Buffer) Flush() error { b.Pending = 0; return nil }

// Drain is used by sinks.
func Drain(s Sink) error { return s.Flush() }

var sinks = Drain(&Buffer{Pending: 1})

// Level satisfies fmt.Stringer, an interface of an imported package.
type Level int

// String implements fmt.Stringer.
func (l Level) String() string { return fmt.Sprint(int(l)) }

var level fmt.Stringer = Level(3)

// ByEntries satisfies sort.Interface three methods at a time.
type ByEntries []Ledger

func (b ByEntries) Len() int           { return len(b) }
func (b ByEntries) Less(i, j int) bool { return b[i].Entries < b[j].Entries }
func (b ByEntries) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

var sorted = func() bool { sort.Sort(ByEntries(nil)); return true }()

// Wire is a JSON body: the encoder reads tagged fields by reflection.
type Wire struct {
	ID    string `json:"id"`
	Count int    `json:"count"`
}

var wire = Wire{}

// closer is an interface written inline; Handle.Close is reached
// through it.
func closeAll(cs ...interface{ Close() }) {
	for _, c := range cs {
		c.Close()
	}
}

// Handle is held by handles.
type Handle struct{}

// Close implements the literal interface closeAll takes.
func (Handle) Close() {}

var handles = func() bool { closeAll(Handle{}); return true }()

// Cancel is part of the documented lifecycle even though this program
// never cancels anything: the hatch records why it stays.
//
//lint:allow deadexport -- the documented lifecycle lists cancel; operators call it, the simulation never does
func (l *Ledger) Cancel() { l.Entries = -1 }
