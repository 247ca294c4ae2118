// Command garli is the standalone phylogenetic analysis program: a
// GARLI-style maximum-likelihood tree search over an input alignment,
// with optional bootstrapping and majority-rule consensus — the
// application binary the grid distributes. The analysis flags are
// GARLI's configuration keys, the portal form's fields
// (workload.Params); the alignment may be NEXUS, FASTA or PHYLIP, told
// apart by the file's first bytes.
//
// Usage:
//
//	garli -data seqs.fasta -datatype nucleotide -ratematrix GTR \
//	      -ratehetmodel gamma -searchreps 2 -bootstrap 100 -out run1
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
	for _, p := range workload.Params {
		fs.String(p.Name, p.Default, p.Label)
	}
	var (
		dataPath  = fs.String("data", "", "input alignment (NEXUS, FASTA or PHYLIP)")
		alpha     = fs.Float64("alpha", workload.GammaShape, "gamma shape")
		pinv      = fs.Float64("pinv", workload.PropInvariant, "proportion invariant (gamma+inv)")
		userTree  = fs.String("usertree", "", "Newick file with the user starting tree (streefname=user)")
		bootstrap = fs.Int("bootstrap", 0, "bootstrap replicates (0 = best-tree search only)")
		gens      = fs.Int("generations", 500, "maximum GA generations per replicate")
		workers   = fs.Int("workers", 1, "parallel evaluation workers (engines); the result does not depend on the count")
		seed      = fs.Int64("seed", 1, "random seed")
		out       = fs.String("out", "garli", "output file prefix")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataPath == "" {
		fs.Usage()
		return fmt.Errorf("-data is required")
	}

	spec, err := workload.ParseSpec(func(name string) string { return fs.Lookup(name).Value.String() })
	if err != nil {
		return err
	}
	f, err := os.Open(*dataPath)
	if err != nil {
		return err
	}
	defer f.Close()
	al, err := phylo.ReadAlignment(f, spec.DataType)
	if err != nil {
		return err
	}
	if err := al.Validate(); err != nil {
		return fmt.Errorf("validation mode: %w", err)
	}
	// A NEXUS FORMAT block overrides -datatype.
	spec.DataType = al.Type
	fmt.Printf("alignment: %d taxa × %d characters (%s)\n", al.NumTaxa(), al.Length(), spec.DataType)

	// Each rate parameter is read only where the rate model has it.
	spec.GammaShape, spec.PropInvariant = *alpha, *pinv
	spec.NumTaxa, spec.SeqLength = al.NumTaxa(), al.Length()
	if err := spec.Validate(); err != nil {
		return err
	}
	subst, err := spec.BuildModel()
	if err != nil {
		return err
	}
	rates, err := spec.BuildRates()
	if err != nil {
		return err
	}
	pd, err := al.Compile()
	if err != nil {
		return err
	}
	fmt.Printf("compiled: %d unique site patterns\n", pd.NumPatterns())

	cfg := spec.SearchConfig()
	cfg.MaxGenerations = *gens
	if spec.StartingTree == phylo.StartUser {
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
