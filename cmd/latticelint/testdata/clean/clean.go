// Package clean is latticelint's exit-status fixture: no analyzer
// flags anything here, even with the package loaded alone.
package clean

import "sort"

func sorted(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}
