package phylo

import (
	"fmt"
	"strings"
)

// Model is a reversible continuous-time Markov substitution model over
// the state space of one DataType, normalized so branch lengths are
// expected substitutions per site.
type Model struct {
	Name  string
	Type  DataType
	Freqs []float64
	eigen *EigenSystem
}

// Eigen exposes the spectral decomposition used to build transition
// matrices.
func (m *Model) Eigen() *EigenSystem { return m.eigen }

// ModelID names a substitution model. Its value is the model's index
// in the model table, and the runtime estimator's SubstModel code.
type ModelID int

// The substitution models, in table order.
const (
	ModelJC69 ModelID = iota
	ModelK80
	ModelHKY85
	ModelGTR
	ModelPoisson
	ModelEmpirical
	ModelGY94
)

// models is the one table of substitution model names: for each model,
// the data type it runs on and the spellings that select it, the
// canonical name first. Nucleotide names match case-insensitively
// (ASCII letters only), amino acid names exactly, and a codon job runs
// GY94 whatever its name. Every empirical-matrix choice selects the
// one synthetic empirical model (models_aa.go).
var models = [...]struct {
	dt    DataType
	names []string
}{
	ModelJC69:      {Nucleotide, []string{"JC69", "JC"}},
	ModelK80:       {Nucleotide, []string{"K80", "K2P"}},
	ModelHKY85:     {Nucleotide, []string{"HKY85", "HKY"}},
	ModelGTR:       {Nucleotide, []string{"GTR"}},
	ModelPoisson:   {AminoAcid, []string{"poisson", "Poisson", ""}},
	ModelEmpirical: {AminoAcid, []string{"empirical", "Empirical", "dayhoff", "jtt", "wag"}},
	ModelGY94:      {Codon, []string{"GY94"}},
}

// ModelNames returns the canonical model names in table order.
func ModelNames() []string {
	names := make([]string, len(models))
	for id, m := range models {
		names[id] = m.names[0]
	}
	return names
}

// LookupModel returns the model a job of data type dt selects by name.
// It builds no model and allocates only to refuse.
func LookupModel(dt DataType, name string) (ModelID, error) {
	for id, m := range models {
		if m.dt != dt {
			continue
		}
		for _, n := range m.names {
			if dt == Codon || n == name || dt == Nucleotide && upperASCIIEqual(name, n) {
				return ModelID(id), nil
			}
		}
	}
	switch dt {
	case Nucleotide:
		return 0, fmt.Errorf("phylo: unknown nucleotide model %q", name)
	case AminoAcid:
		return 0, fmt.Errorf("phylo: unknown amino acid model %q", name)
	default:
		return 0, fmt.Errorf("phylo: unknown data type %v", dt)
	}
}

// upperASCIIEqual reports whether s upper-cases to upper, itself upper
// case ASCII. For the table's names, which hold no I or S (the only
// letters a non-ASCII rune upper-cases to), it is strings.ToUpper(s) ==
// upper without the copy; strings.EqualFold would also accept the
// Kelvin sign for "K".
func upperASCIIEqual(s, upper string) bool {
	if len(s) != len(upper) {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != upper[i] {
			return false
		}
	}
	return true
}

// newModelFromRates builds a normalized reversible model from
// symmetric exchangeabilities rates (only the upper triangle is read)
// and stationary frequencies.
func newModelFromRates(name string, dt DataType, rates *Matrix, freqs []float64) (*Model, error) {
	n := dt.NumStates()
	if rates.N != n || len(freqs) != n {
		return nil, fmt.Errorf("phylo: model %s: dimension mismatch (rates %d, freqs %d, states %d)", name, rates.N, len(freqs), n)
	}
	var fsum float64
	for _, f := range freqs {
		if f <= 0 {
			return nil, fmt.Errorf("phylo: model %s: non-positive state frequency", name)
		}
		fsum += f
	}
	pi := make([]float64, n)
	for i, f := range freqs {
		pi[i] = f / fsum
	}
	q := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			r := rates.At(i, j)
			if j < i {
				r = rates.At(j, i)
			}
			if r < 0 {
				return nil, fmt.Errorf("phylo: model %s: negative exchangeability at (%d,%d)", name, i, j)
			}
			q.Set(i, j, r*pi[j])
		}
	}
	// Diagonal and normalization to one expected substitution per
	// unit time: sum_i pi_i * (-q_ii) = 1.
	var mu float64
	for i := 0; i < n; i++ {
		var row float64
		for j := 0; j < n; j++ {
			if i != j {
				row += q.At(i, j)
			}
		}
		q.Set(i, i, -row)
		mu += pi[i] * row
	}
	if mu <= 0 {
		return nil, fmt.Errorf("phylo: model %s: degenerate rate matrix", name)
	}
	for i := range q.Data {
		q.Data[i] /= mu
	}
	es, err := NewEigenSystem(q, pi)
	if err != nil {
		return nil, fmt.Errorf("phylo: model %s: %w", name, err)
	}
	return &Model{Name: name, Type: dt, Freqs: pi, eigen: es}, nil
}

// RateHetKind names the among-site rate heterogeneity treatment. It is
// the single most important predictor of GARLI runtime in the paper's
// random forest model (89.7% increase in MSE when permuted).
type RateHetKind int

const (
	// RateHomogeneous: every site evolves at the same rate (one
	// likelihood pass per site pattern).
	RateHomogeneous RateHetKind = iota
	// RateGamma: discrete-gamma distributed rates (NumCats passes).
	RateGamma
	// RateGammaInv: discrete gamma plus a proportion of invariant
	// sites (NumCats + 1 mixture components).
	RateGammaInv
)

func (k RateHetKind) String() string {
	switch k {
	case RateHomogeneous:
		return "none"
	case RateGamma:
		return "gamma"
	case RateGammaInv:
		return "gamma+inv"
	default:
		return fmt.Sprintf("RateHetKind(%d)", int(k))
	}
}

// ParseRateHetKind parses the portal's rate-heterogeneity choice.
func ParseRateHetKind(s string) (RateHetKind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "none", "equal", "norate":
		return RateHomogeneous, nil
	case "gamma", "g":
		return RateGamma, nil
	case "gamma+inv", "gammainv", "invgamma", "g+i", "gamma+invariant":
		return RateGammaInv, nil
	default:
		return 0, fmt.Errorf("phylo: unknown rate heterogeneity model %q", s)
	}
}

// SiteRates is the realized rate mixture: per-category rate
// multipliers and their probabilities.
type SiteRates struct {
	Kind    RateHetKind
	Shape   float64 // gamma shape alpha (ignored for RateHomogeneous)
	PropInv float64 // proportion of invariant sites (RateGammaInv)
	Rates   []float64
	Weights []float64
}

// MaxGammaShape is the largest gamma shape DiscreteGammaRates is
// right for. Up to it the rates follow the α→∞ normal limit to four
// digits; past it the quadrature drifts off that limit, the rates stop
// ascending from 5e4 on, and they go NaN at very large shapes. A shape
// this large is rate homogeneity in all but name.
const MaxGammaShape = 1e4

// NewSiteRates constructs the rate mixture for the given treatment.
// numCats is the number of discrete gamma categories (GARLI default 4)
// and is ignored for the homogeneous model.
func NewSiteRates(kind RateHetKind, shape float64, propInv float64, numCats int) (*SiteRates, error) {
	switch kind {
	case RateHomogeneous:
		return &SiteRates{Kind: kind, Rates: []float64{1}, Weights: []float64{1}}, nil
	case RateGamma, RateGammaInv:
		if !(shape > 0 && shape <= MaxGammaShape) {
			return nil, fmt.Errorf("phylo: gamma shape must be in (0, %g], got %g", MaxGammaShape, shape)
		}
		if numCats < 1 {
			return nil, fmt.Errorf("phylo: need at least 1 rate category, got %d", numCats)
		}
		sr := &SiteRates{Kind: kind, Shape: shape}
		gr := DiscreteGammaRates(shape, numCats)
		if kind == RateGamma {
			sr.Rates = gr
			sr.Weights = make([]float64, numCats)
			for i := range sr.Weights {
				sr.Weights[i] = 1 / float64(numCats)
			}
			return sr, nil
		}
		if !(propInv >= 0 && propInv < 1) {
			return nil, fmt.Errorf("phylo: proportion invariant must be in [0,1), got %g", propInv)
		}
		sr.PropInv = propInv
		// Mixture: invariant class at rate 0, gamma classes scaled
		// so the overall mean rate is 1.
		scale := 1 / (1 - propInv)
		sr.Rates = append([]float64{0}, gr...)
		sr.Weights = append([]float64{propInv}, nil...)
		for i := 1; i < len(sr.Rates); i++ {
			sr.Rates[i] *= scale
			sr.Weights = append(sr.Weights, (1-propInv)/float64(numCats))
		}
		return sr, nil
	default:
		return nil, fmt.Errorf("phylo: unknown rate heterogeneity kind %v", kind)
	}
}

// NumCats returns the number of mixture components (including the
// invariant class if present).
func (sr *SiteRates) NumCats() int { return len(sr.Rates) }
