// Command garli is the standalone phylogenetic analysis program: a
// GARLI-style maximum-likelihood tree search over an input alignment,
// with optional bootstrapping, majority-rule consensus, and
// checkpointing — the application binary the grid distributes.
//
// Usage:
//
//	garli -data seqs.fasta -datatype nucleotide -model GTR \
//	      -ratehet gamma -searchreps 2 -bootstrap 100 -out run1
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"lattice/internal/beagle"
	"lattice/internal/phylo"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "garli:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("garli", flag.ContinueOnError)
	var (
		dataPath   = fs.String("data", "", "input alignment (FASTA or PHYLIP)")
		format     = fs.String("format", "fasta", "input format: fasta, phylip, or nexus")
		datatype   = fs.String("datatype", "nucleotide", "nucleotide, aminoacid, or codon")
		model      = fs.String("model", "GTR", "substitution model (JC69, K80, HKY85, GTR, poisson, empirical, GY94)")
		ratehet    = fs.String("ratehet", "gamma", "rate heterogeneity: none, gamma, gamma+inv")
		numCats    = fs.Int("numratecats", 4, "discrete gamma categories")
		alpha      = fs.Float64("alpha", 0.5, "gamma shape")
		pinv       = fs.Float64("pinv", 0.2, "proportion invariant (gamma+inv)")
		searchReps = fs.Int("searchreps", 1, "independent search replicates")
		streef     = fs.String("streefname", "stepwise", "starting tree: random, stepwise, user")
		userTree   = fs.String("usertree", "", "Newick file with the user starting tree (streefname=user)")
		attach     = fs.Int("attachmentspertaxon", 25, "stepwise attachment points per taxon")
		bootstrap  = fs.Int("bootstrap", 0, "bootstrap replicates (0 = best-tree search only)")
		gens       = fs.Int("generations", 500, "maximum GA generations per replicate")
		workers    = fs.Int("workers", 1, "parallel evaluation workers (engines); the result does not depend on the count")
		seed       = fs.Int64("seed", 1, "random seed")
		out        = fs.String("out", "garli", "output file prefix")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataPath == "" {
		fs.Usage()
		return fmt.Errorf("-data is required")
	}

	dt, err := phylo.ParseDataType(*datatype)
	if err != nil {
		return err
	}
	f, err := os.Open(*dataPath)
	if err != nil {
		return err
	}
	defer f.Close()
	var al *phylo.Alignment
	switch strings.ToLower(*format) {
	case "fasta":
		al, err = phylo.ParseFASTA(f, dt)
	case "phylip":
		al, err = phylo.ParsePHYLIP(f, dt)
	case "nexus":
		al, err = phylo.ParseNEXUS(f)
		if err == nil {
			// The NEXUS FORMAT block overrides -datatype.
			dt = al.Type
		}
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		return err
	}
	if err := al.Validate(); err != nil {
		return fmt.Errorf("validation mode: %w", err)
	}
	fmt.Printf("alignment: %d taxa × %d characters (%s)\n", al.NumTaxa(), al.Length(), dt)

	spec := workload.JobSpec{DataType: dt, SubstModel: *model}
	subst, err := spec.BuildModel()
	if err != nil {
		return err
	}
	het, err := phylo.ParseRateHetKind(*ratehet)
	if err != nil {
		return err
	}
	rates, err := phylo.NewSiteRates(het, *alpha, *pinv, *numCats)
	if err != nil {
		return err
	}
	start, err := phylo.ParseStartingTreeKind(*streef)
	if err != nil {
		return err
	}
	pd, err := al.Compile()
	if err != nil {
		return err
	}
	fmt.Printf("compiled: %d unique site patterns\n", pd.NumPatterns())

	cfg := phylo.DefaultSearchConfig()
	cfg.SearchReps = *searchReps
	cfg.StartingTree = start
	cfg.AttachmentsPerTaxon = *attach
	cfg.MaxGenerations = *gens
	if start == phylo.StartUser {
		if *userTree == "" {
			return fmt.Errorf("-streefname user requires -usertree")
		}
		nw, err := os.ReadFile(*userTree)
		if err != nil {
			return err
		}
		idx := map[string]int{}
		for i, n := range al.Names {
			idx[n] = i
		}
		tr, err := phylo.ParseNewick(strings.TrimSpace(string(nw)), idx)
		if err != nil {
			return fmt.Errorf("user starting tree: %w", err)
		}
		cfg.UserTree = tr
	}

	pool, err := phylo.NewEvaluatorPool(*workers, func() (phylo.Evaluator, error) {
		return beagle.New(pd, subst, rates)
	})
	if err != nil {
		return err
	}
	rng := sim.NewRNG(*seed)
	res, err := phylo.SearchParallel(pool, al.Names, cfg, rng.Stream("search"))
	if err != nil {
		return err
	}
	fmt.Printf("best tree: lnL = %.4f (%d generations, %d evaluations, %.3g cell updates, workers=%d)\n",
		res.BestLogL, res.Generations, res.Evaluations, res.Work, *workers)
	if err := writeFile(*out+".best.tre", res.BestTree.Newick()+"\n"); err != nil {
		return err
	}

	if *bootstrap > 0 {
		fmt.Printf("bootstrapping: %d replicates\n", *bootstrap)
		var trees []*phylo.Tree
		for i := 0; i < *bootstrap; i++ {
			bs := pd.Bootstrap(rng.Float64)
			// Each bootstrap replicate resamples the data, so it gets
			// its own engine over the resampled patterns.
			bev, err := beagle.New(bs, subst, rates)
			if err != nil {
				return err
			}
			r, err := phylo.SearchWith(bev, al.Names, cfg, rng.Stream(fmt.Sprintf("bs%d", i)))
			if err != nil {
				return err
			}
			trees = append(trees, r.BestTree)
			if (i+1)%10 == 0 {
				fmt.Printf("  %d/%d done\n", i+1, *bootstrap)
			}
		}
		sup := phylo.NewSplitSupport(trees)
		cons, err := sup.MajorityRuleConsensus(al.Names)
		if err != nil {
			return err
		}
		if err := writeFile(*out+".boot.con", cons.Newick()+"\n"); err != nil {
			return err
		}
		fmt.Printf("majority-rule consensus written to %s.boot.con\n", *out)
	}
	fmt.Printf("results written with prefix %s\n", *out)
	return nil
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
