// Fixture: exported API the deadexport analyzer must flag — nothing in
// the package (the whole program, here) refers to it outside its own
// declaration.
package deadexport

// Orphan is an entry point every caller migrated away from.
func Orphan() int { return 1 } // want: exported func Orphan

// Countdown only ever calls itself: recursion is not a caller.
func Countdown(n int) int { // want: exported func Countdown
	if n == 0 {
		return 0
	}
	return Countdown(n - 1)
}

// Ledger is live (good.go builds one), but parts of it are not.
type Ledger struct {
	Entries int
	Audited bool // want: exported field Ledger.Audited
}

// Total is called from good.go.
func (l *Ledger) Total() int { return l.Entries }

// Reset has no caller and implements no interface.
func (l *Ledger) Reset() { l.Entries = 0 } // want: exported method Ledger.Reset

// Relic is only mentioned by its own method's receiver.
type Relic struct{} // want: exported type Relic

// Dust is a method of a type nobody holds.
func (Relic) Dust() {} // want: exported method Relic.Dust

// Chain names itself in its own declaration and nowhere else.
type Chain struct { // want: exported type Chain
	Next *Chain // want: exported field Chain.Next
}
