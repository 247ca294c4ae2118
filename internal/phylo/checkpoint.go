package phylo

import (
	"encoding/json"
	"fmt"
	"io"

	"lattice/internal/sim"
)

// Runner is one GARLI search replicate. SearchParallel steps one to
// its end per replicate; stepped by hand it is the resumable search of
// the special BOINC build of GARLI the paper describes, which adds
// checkpointing and client progress-bar updates so volunteer hosts can
// suspend and resume work at will.
type Runner struct {
	// pool scores the replicate's batches; its worker 0 also runs the
	// mutations and the final polish.
	pool      *EvaluatorPool
	cfg       SearchConfig
	rng       *sim.RNG
	pop       []individual
	gen       int
	stagnant  int
	best      float64
	evals     int
	polished  bool // the final polish has run: the replicate is finished
	seed      int64
	highWater float64 // progress never reported lower than this
}

// NewRunner starts a resumable search on any Evaluator — the
// reference Likelihood, a partitioned model, or an optimized backend
// such as internal/beagle's incremental engine. The seed fully
// determines the run (and re-seeds the stream on resume); stepped to
// its end, it is SearchWith on sim.NewRNG(seed). Search decisions
// depend only on the scores the evaluator returns, so any two
// evaluators that agree numerically produce bit-identical searches.
func NewRunner(ev Evaluator, names []string, cfg SearchConfig, seed int64) (*Runner, error) {
	if err := validateRunner(ev, names, cfg); err != nil {
		return nil, err
	}
	r := newRunner(onePool(ev), names, cfg, sim.NewRNG(seed))
	r.seed = seed
	return r, nil
}

// validateRunner checks cfg for one replicate on ev.
func validateRunner(ev Evaluator, names []string, cfg SearchConfig) error {
	if cfg.SearchReps != 1 {
		return fmt.Errorf("phylo: a Runner is one replicate; SearchReps must be 1, got %d", cfg.SearchReps)
	}
	return cfg.validate(ev, names)
}

// Step advances up to n generations, stopping early at termination,
// and reports whether the search has finished. The call that reaches
// termination runs the final polish, so a finished search is polished.
func (r *Runner) Step(n int) bool {
	if r.polished {
		return true
	}
	for i := 0; i < n && !r.terminated(); i++ {
		r.step()
	}
	if r.terminated() {
		r.finalPolish()
	}
	return r.polished
}

// Best returns the current best tree and its log-likelihood.
func (r *Runner) Best() (*Tree, float64) {
	return r.pop[0].tree, r.pop[0].logL
}

// Progress returns a [0, 1] completion fraction for the BOINC client
// progress bar: the larger of generations elapsed over the maximum and
// the stagnation counter's progress toward termination, reported
// monotonically (an improvement resets the stagnation counter but must
// not move the user's progress bar backward).
func (r *Runner) Progress() float64 {
	genFrac := float64(r.gen) / float64(r.cfg.MaxGenerations)
	stagFrac := float64(r.stagnant) / float64(r.cfg.StagnationGenerations)
	p := genFrac
	if stagFrac > p {
		p = stagFrac
	}
	if p > 1 {
		p = 1
	}
	if p > r.highWater {
		r.highWater = p
	}
	return r.highWater
}

// Generation returns the number of GA generations completed.
func (r *Runner) Generation() int { return r.gen }

// checkpointFile is the JSON snapshot written by Save.
type checkpointFile struct {
	Version    int       `json:"version"`
	Seed       int64     `json:"seed"`
	Generation int       `json:"generation"`
	Stagnant   int       `json:"stagnant"`
	Best       float64   `json:"best"`
	Evals      int       `json:"evals"`
	Trees      []string  `json:"trees"`
	LogLs      []float64 `json:"logls"`
	Polished   bool      `json:"polished,omitempty"`
}

// Save writes a checkpoint of the search state. Restoring with
// LoadRunner and stepping to completion yields a valid (deterministic
// per seed) search continuation.
func (r *Runner) Save(w io.Writer) error {
	cp := checkpointFile{
		Version:    1,
		Seed:       r.seed,
		Generation: r.gen,
		Stagnant:   r.stagnant,
		Best:       r.best,
		Evals:      r.evals,
		Polished:   r.polished,
	}
	for _, ind := range r.pop {
		cp.Trees = append(cp.Trees, ind.tree.Newick())
		cp.LogLs = append(cp.LogLs, ind.logL)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(&cp)
}

// LoadRunner restores a search from a checkpoint written by Save onto
// any Evaluator. The caller supplies the same names and config as the
// original run; the RNG stream is re-derived from the stored seed and
// generation count, so a resumed run is deterministic even though it
// is not draw-for-draw identical to an uninterrupted one (GARLI's own
// checkpoints have the same property). A checkpoint written under one
// evaluator restores under another: the population travels as Newick
// strings, each rescored on ev, and evaluators carry no search state of
// their own. A checkpoint at termination without the polish gets it.
func LoadRunner(src io.Reader, ev Evaluator, names []string, cfg SearchConfig) (*Runner, error) {
	var cp checkpointFile
	if err := json.NewDecoder(src).Decode(&cp); err != nil {
		return nil, fmt.Errorf("phylo: reading checkpoint: %w", err)
	}
	if cp.Version != 1 {
		return nil, fmt.Errorf("phylo: unsupported checkpoint version %d", cp.Version)
	}
	if err := validateRunner(ev, names, cfg); err != nil {
		return nil, err
	}
	if len(cp.Trees) != cfg.PopulationSize || len(cp.LogLs) != cfg.PopulationSize {
		return nil, fmt.Errorf("phylo: corrupt checkpoint: %d trees, %d scores for a population of %d",
			len(cp.Trees), len(cp.LogLs), cfg.PopulationSize)
	}
	if cp.Generation < 0 || cp.Stagnant < 0 || cp.Evals < 0 {
		return nil, fmt.Errorf("phylo: corrupt checkpoint: negative counter")
	}
	taxa := make(map[string]int, len(names))
	for i, n := range names {
		taxa[n] = i
	}
	r := &Runner{
		pool:     onePool(ev),
		cfg:      cfg,
		rng:      sim.NewRNG(cp.Seed + int64(cp.Generation)*1000003),
		gen:      cp.Generation,
		stagnant: cp.Stagnant,
		best:     cp.Best,
		evals:    cp.Evals,
		polished: cp.Polished,
		seed:     cp.Seed,
	}
	for i, nw := range cp.Trees {
		t, err := ParseNewick(nw, taxa)
		if err == nil {
			err = placesEveryTaxon(t, len(names))
		}
		if err != nil {
			return nil, fmt.Errorf("phylo: corrupt checkpoint tree %d: %w", i, err)
		}
		// A stored score is not trusted: each tree is scored on ev.
		r.pop = append(r.pop, individual{tree: t, logL: ev.LogLikelihood(t)})
		r.evals++
	}
	sortPop(r.pop)
	// Stagnation counts from the lower of the stored and the rescored
	// best, so a forged high score cannot end the search early.
	r.best = min(r.best, r.pop[0].logL)
	return r, nil
}
