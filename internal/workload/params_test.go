package workload

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"lattice/internal/phylo"
)

// TestParamChoicesAreTheEngineKinds: each choice of a kind-valued
// parameter parses to its own kind, which prints as the choice, and the
// substitution models offered are the engine's model table.
func TestParamChoicesAreTheEngineKinds(t *testing.T) {
	parsers := map[string]func(string) (fmt.Stringer, error){
		"datatype":     func(s string) (fmt.Stringer, error) { return phylo.ParseDataType(s) },
		"ratehetmodel": func(s string) (fmt.Stringer, error) { return phylo.ParseRateHetKind(s) },
		"streefname":   func(s string) (fmt.Stringer, error) { return phylo.ParseStartingTreeKind(s) },
	}
	seen := 0
	for _, p := range Params {
		if p.Name == "ratematrix" {
			if !slices.Equal(p.Options, phylo.ModelNames()) {
				t.Errorf("ratematrix offers %q, the engine has %q", p.Options, phylo.ModelNames())
			}
			continue
		}
		parse, ok := parsers[p.Name]
		if !ok {
			continue
		}
		seen++
		kinds := map[fmt.Stringer]bool{}
		for _, choice := range p.Options {
			k, err := parse(choice)
			if err != nil {
				t.Errorf("%s choice %q: %v", p.Name, choice, err)
				continue
			}
			if k.String() != choice || kinds[k] {
				t.Errorf("%s choice %q parses to %v, seen before: %v", p.Name, choice, k, kinds[k])
			}
			kinds[k] = true
		}
	}
	if seen != len(parsers) {
		t.Errorf("Params holds %d of the %d kind-valued parameters", seen, len(parsers))
	}
}

// TestParseSpecDefaults: a job given no settings is the one a bare
// portal form built before the parameters were read in one place.
func TestParseSpecDefaults(t *testing.T) {
	got, err := ParseSpec(func(string) string { return "" })
	if err != nil {
		t.Fatal(err)
	}
	want := JobSpec{
		DataType: phylo.Nucleotide, SubstModel: "GTR", RateHet: phylo.RateGamma,
		NumRateCats: 4, GammaShape: 0.5, SearchReps: 1,
		StartingTree: phylo.StartStepwise, AttachmentsPerTaxon: 25, Seed: 1,
	}
	if got != want {
		t.Errorf("ParseSpec of the defaults = %+v, want %+v", got, want)
	}
}

// TestParseSpecSettings: a setting replaces its default, the fixed rate
// parameters follow the rate model, and a bad setting is named.
func TestParseSpecSettings(t *testing.T) {
	settings := func(kv ...string) func(string) string {
		return func(name string) string {
			for i := 0; i < len(kv); i += 2 {
				if kv[i] == name {
					return kv[i+1]
				}
			}
			return ""
		}
	}
	s, err := ParseSpec(settings("ratehetmodel", "none", "datatype", "aminoacid", "ratematrix", "poisson", "searchreps", "3"))
	if err != nil {
		t.Fatal(err)
	}
	if s.RateHet != phylo.RateHomogeneous || s.GammaShape != 0 || s.PropInvariant != 0 ||
		s.DataType != phylo.AminoAcid || s.SubstModel != "poisson" || s.SearchReps != 3 {
		t.Errorf("none/aminoacid/poisson/3 parsed to %+v", s)
	}
	s, err = ParseSpec(settings("ratehetmodel", "gamma+inv", "streefname", "random", "numratecats", "8"))
	if err != nil {
		t.Fatal(err)
	}
	if s.GammaShape != GammaShape || s.PropInvariant != PropInvariant || s.StartingTree != phylo.StartRandom || s.NumRateCats != 8 {
		t.Errorf("gamma+inv/random/8 parsed to %+v", s)
	}
	for _, bad := range [][]string{
		{"datatype", "bogus"},
		{"ratehetmodel", "bogus"},
		{"numratecats", "four"},
		{"searchreps", "1.5"},
		{"attachmentspertaxon", "x"},
		{"streefname", "bogus"},
	} {
		if _, err := ParseSpec(settings(bad...)); err == nil || !strings.Contains(err.Error(), bad[1]) {
			t.Errorf("ParseSpec(%s=%s) = %v, want an error naming the value", bad[0], bad[1], err)
		}
	}
}
