package phylo

import (
	"fmt"
	"sort"

	"lattice/internal/sim"
)

// SimulateAlignment evolves sequences down tree t under the given
// model and rate mixture, producing an alignment of nsites sites
// (codon sites for codon models; the emitted sequences are 3×nsites
// nucleotides long). This provides realistic synthetic data for the
// examples, the workload generator, and the runtime-model training
// pipeline — standing in for the researcher-submitted data sets the
// paper's system received.
func SimulateAlignment(t *Tree, model *Model, rates *SiteRates, nsites int, rng *sim.RNG) (*Alignment, error) {
	if nsites <= 0 {
		return nil, fmt.Errorf("phylo: SimulateAlignment with nsites = %d", nsites)
	}
	leaves := t.Leaves()
	if len(leaves) < 3 {
		return nil, fmt.Errorf("phylo: tree has %d leaves; need at least 3", len(leaves))
	}
	S := model.Type.NumStates()
	// Per-site rate categories.
	cats := make([]int, nsites)
	for i := range cats {
		cats[i] = rng.Choice(rates.Weights)
	}
	// Root states from the stationary distribution.
	states := make(map[*Node][]int)
	rootStates := make([]int, nsites)
	for i := range rootStates {
		rootStates[i] = rng.Choice(model.Freqs)
	}
	states[t.Root] = rootStates
	// Walk down, sampling each child from P(rate · length) rows. Each
	// row is summed once per edge, left to right as Choice sums it, so
	// every draw is the one Choice would make. An edge's draws finish
	// before the walk descends, so one buffer serves every edge.
	ncat := rates.NumCats()
	mats := make([]float64, ncat*S*S)
	sums := make([]float64, ncat*S)
	expl := make([]float64, S)
	var walk func(n *Node) error
	walk = func(n *Node) error {
		for _, c := range n.Children {
			parent := states[n]
			out := make([]int, nsites)
			// Transition matrices and their row sums per category for
			// this edge.
			for k := 0; k < ncat; k++ {
				model.Eigen().TransitionProbsInto(c.Length*rates.Rates[k], mats[k*S*S:(k+1)*S*S], expl)
				for r := 0; r < S; r++ {
					var total float64
					for _, w := range mats[(k*S+r)*S : (k*S+r+1)*S] {
						total += w
					}
					sums[k*S+r] = total
				}
			}
			for i := 0; i < nsites; i++ {
				r := cats[i]*S + parent[i]
				out[i] = rng.ChoiceTotal(mats[r*S:(r+1)*S], sums[r])
			}
			states[c] = out
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.Root); err != nil {
		return nil, err
	}
	a := &Alignment{Type: model.Type}
	// Emit rows in taxon-index order so alignment row i corresponds to
	// tree taxon i — required for comparing inferred trees against the
	// generating tree.
	sort.Slice(leaves, func(i, j int) bool { return leaves[i].Taxon < leaves[j].Taxon })
	for _, leaf := range leaves {
		name := leaf.Name
		if name == "" {
			name = fmt.Sprintf("taxon%d", leaf.Taxon)
		}
		seq := make([]byte, 0, nsites)
		for i := 0; i < nsites; i++ {
			seq = append(seq, model.Type.StateChar(states[leaf][i])...)
		}
		a.Names = append(a.Names, name)
		a.Seqs = append(a.Seqs, string(seq))
	}
	return a, nil
}

// TaxonNames generates n synthetic taxon names.
func TaxonNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("taxon%02d", i)
	}
	return names
}
