// Package forest implements random forests for regression from
// scratch (Breiman 2001): an ensemble of CART regression trees, each
// grown on a bootstrap sample of the training data and choosing each
// split from a random subset of the covariates. It provides the three
// facilities the paper's runtime-prediction system relies on:
//
//   - prediction (the mean vote of the ensemble),
//   - out-of-bag error and percent variance explained (the paper
//     reports ~93% for the nine-predictor GARLI model), and
//   - permutation variable importance measured as percent increase in
//     mean squared error (the quantity plotted in the paper's
//     Figure 2).
//
// Both categorical and continuous covariates are supported without
// preprocessing, mirroring the R randomForest package the paper used.
package forest

import (
	"fmt"
	"math"
)

// FeatureKind distinguishes continuous from categorical covariates.
type FeatureKind int

const (
	// Numeric features split on x <= threshold.
	Numeric FeatureKind = iota
	// Categorical features split on subset membership; category
	// values are non-negative integer codes stored in float64 cells.
	Categorical
)

// Schema describes the covariates of a dataset.
type Schema struct {
	Names []string
	Kinds []FeatureKind
}

// NumFeatures returns the number of covariates.
func (s *Schema) NumFeatures() int { return len(s.Names) }

// Validate checks internal consistency.
func (s *Schema) Validate() error {
	if len(s.Names) == 0 {
		return fmt.Errorf("forest: schema has no features")
	}
	if len(s.Names) != len(s.Kinds) {
		return fmt.Errorf("forest: schema has %d names but %d kinds", len(s.Names), len(s.Kinds))
	}
	seen := map[string]bool{}
	for _, n := range s.Names {
		if n == "" {
			return fmt.Errorf("forest: empty feature name")
		}
		if seen[n] {
			return fmt.Errorf("forest: duplicate feature name %q", n)
		}
		seen[n] = true
	}
	return nil
}

// maxCategories bounds categorical cardinality: category subsets are
// encoded in a uint64 bitmask per tree node.
const maxCategories = 64

// Dataset is a design matrix with responses. Rows of X hold one value
// per schema feature; categorical values must be integer codes in
// [0, 64).
type Dataset struct {
	Schema *Schema
	X      [][]float64
	Y      []float64
}

// NumRows returns the number of observations.
func (d *Dataset) NumRows() int { return len(d.Y) }

// Validate checks shape, finiteness and categorical coding.
func (d *Dataset) Validate() error {
	if d.Schema == nil {
		return fmt.Errorf("forest: dataset has no schema")
	}
	if err := d.Schema.Validate(); err != nil {
		return err
	}
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("forest: %d rows of X but %d responses", len(d.X), len(d.Y))
	}
	if len(d.Y) == 0 {
		return fmt.Errorf("forest: empty dataset")
	}
	for i, row := range d.X {
		if err := d.Schema.checkRow(i, row, d.Y[i]); err != nil {
			return err
		}
	}
	return nil
}

// checkRow validates observation i against the schema: one finite
// value per feature, categorical values coded as integers in [0, 64),
// and a finite response. A NaN would make the split comparator
// inconsistent and grow silently wrong trees.
func (s *Schema) checkRow(i int, x []float64, y float64) error {
	if len(x) != s.NumFeatures() {
		return fmt.Errorf("forest: row %d has %d features; schema has %d", i, len(x), s.NumFeatures())
	}
	for j, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("forest: row %d feature %q: value %v is not finite", i, s.Names[j], v)
		}
		if s.Kinds[j] == Categorical {
			//lint:allow floatcmp -- integrality check: a categorical level is valid only if exactly integral
			if v != float64(int(v)) || v < 0 || v >= maxCategories {
				return fmt.Errorf("forest: row %d feature %q: categorical value %v must be an integer in [0,%d)", i, s.Names[j], v, maxCategories)
			}
		}
	}
	if math.IsNaN(y) || math.IsInf(y, 0) {
		return fmt.Errorf("forest: row %d: response %v is not finite", i, y)
	}
	return nil
}

// Append adds an observation, refusing one Validate would reject. It
// is how the continuous-retraining loop grows the training matrix as
// reference-cluster replicates complete.
func (d *Dataset) Append(x []float64, y float64) error {
	if err := d.Schema.checkRow(len(d.Y), x, y); err != nil {
		return err
	}
	d.X = append(d.X, append([]float64(nil), x...))
	d.Y = append(d.Y, y)
	return nil
}

// variance returns the population variance of y.
func variance(y []float64) float64 {
	if len(y) == 0 {
		return 0
	}
	var mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	var ss float64
	for _, v := range y {
		d := v - mean
		ss += d * d
	}
	return ss / float64(len(y))
}
