package phylo

import "fmt"

// Partition couples one block of sites with its own substitution model
// and rate mixture — GARLI's partitioned models ("the program is being
// adapted … allowing more data types, partitioned models"). Typical
// use: one partition per gene, or per codon position.
type Partition struct {
	Name  string
	Data  *PatternData
	Model *Model
	Rates *SiteRates
}

// PartitionedLikelihood evaluates a tree against several partitions
// that share the topology and branch lengths; the total log-likelihood
// is the sum over partitions.
type PartitionedLikelihood struct {
	names []string
	parts []*Likelihood
}

// NewPartitionedLikelihood builds the joint evaluator. All partitions
// must cover the same taxa (same count, same row indexing).
func NewPartitionedLikelihood(parts []Partition) (*PartitionedLikelihood, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("phylo: no partitions")
	}
	nt := parts[0].Data.NumTaxa
	pl := &PartitionedLikelihood{}
	for i, p := range parts {
		if p.Data.NumTaxa != nt {
			return nil, fmt.Errorf("phylo: partition %d has %d taxa; partition 0 has %d", i, p.Data.NumTaxa, nt)
		}
		lk, err := NewLikelihood(p.Data, p.Model, p.Rates)
		if err != nil {
			return nil, fmt.Errorf("phylo: partition %d (%s): %w", i, p.Name, err)
		}
		pl.parts = append(pl.parts, lk)
		pl.names = append(pl.names, p.Name)
	}
	return pl, nil
}

// LogLikelihood implements Evaluator: the sum of per-partition
// log-likelihoods on the shared tree.
func (pl *PartitionedLikelihood) LogLikelihood(t *Tree) float64 {
	var sum float64
	for _, lk := range pl.parts {
		sum += lk.LogLikelihood(t)
	}
	return sum
}

// TotalWork implements Evaluator.
func (pl *PartitionedLikelihood) TotalWork() float64 {
	var w float64
	for _, lk := range pl.parts {
		w += lk.Work
	}
	return w
}

// NumTaxa implements Evaluator.
func (pl *PartitionedLikelihood) NumTaxa() int { return pl.parts[0].Data.NumTaxa }
