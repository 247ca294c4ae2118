package phylo

import (
	"encoding/json"
	"fmt"
	"io"

	"lattice/internal/sim"
)

// Runner is a resumable single-replicate GARLI search — the engine
// behind the special BOINC build of GARLI the paper describes, which
// adds checkpointing and client progress-bar updates so volunteer
// hosts can suspend and resume work at will.
type Runner struct {
	state     *gaState
	names     []string
	rng       *sim.RNG
	seed      int64
	highWater float64 // progress never reported lower than this
}

// NewRunner starts a resumable search on any Evaluator — the
// reference Likelihood, a partitioned model, or an optimized backend
// such as internal/beagle's incremental engine. The seed fully
// determines the run (and re-seeds the stream on resume). Search
// decisions depend only on the scores the evaluator returns, so any
// two evaluators that agree numerically produce bit-identical searches.
func NewRunner(ev Evaluator, names []string, cfg SearchConfig, seed int64) (*Runner, error) {
	if err := cfg.validate(ev, names); err != nil {
		return nil, err
	}
	rng := sim.NewRNG(seed)
	st, err := newGAState(onePool(ev), names, cfg, rng)
	if err != nil {
		return nil, err
	}
	return &Runner{state: st, names: names, rng: rng, seed: seed}, nil
}

// Step advances up to n generations, stopping early at termination.
// It reports whether the search has finished.
func (r *Runner) Step(n int) bool {
	for i := 0; i < n && !r.state.done(); i++ {
		r.state.step(r.rng)
	}
	return r.state.done()
}

// Best returns the current best tree and its log-likelihood.
func (r *Runner) Best() (*Tree, float64) {
	return r.state.pop[0].tree, r.state.pop[0].logL
}

// Progress returns a [0, 1] completion fraction for the BOINC client
// progress bar: the larger of generations elapsed over the maximum and
// the stagnation counter's progress toward termination, reported
// monotonically (an improvement resets the stagnation counter but must
// not move the user's progress bar backward).
func (r *Runner) Progress() float64 {
	genFrac := float64(r.state.gen) / float64(r.state.cfg.MaxGenerations)
	stagFrac := float64(r.state.stagnant) / float64(r.state.cfg.StagnationGenerations)
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
func (r *Runner) Generation() int { return r.state.gen }

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
}

// Save writes a checkpoint of the search state. Restoring with
// LoadRunner and stepping to completion yields a valid (deterministic
// per seed) search continuation.
func (r *Runner) Save(w io.Writer) error {
	cp := checkpointFile{
		Version:    1,
		Seed:       r.seed,
		Generation: r.state.gen,
		Stagnant:   r.state.stagnant,
		Best:       r.state.best,
		Evals:      r.state.evals,
	}
	for _, ind := range r.state.pop {
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
// strings plus scores, and evaluators carry no search state of their
// own.
func LoadRunner(src io.Reader, ev Evaluator, names []string, cfg SearchConfig) (*Runner, error) {
	var cp checkpointFile
	if err := json.NewDecoder(src).Decode(&cp); err != nil {
		return nil, fmt.Errorf("phylo: reading checkpoint: %w", err)
	}
	if cp.Version != 1 {
		return nil, fmt.Errorf("phylo: unsupported checkpoint version %d", cp.Version)
	}
	if len(cp.Trees) == 0 || len(cp.Trees) != len(cp.LogLs) {
		return nil, fmt.Errorf("phylo: corrupt checkpoint: %d trees, %d scores", len(cp.Trees), len(cp.LogLs))
	}
	if err := cfg.validate(ev, names); err != nil {
		return nil, err
	}
	taxa := make(map[string]int, len(names))
	for i, n := range names {
		taxa[n] = i
	}
	st := &gaState{
		pool:     onePool(ev),
		cfg:      cfg,
		gen:      cp.Generation,
		stagnant: cp.Stagnant,
		best:     cp.Best,
		evals:    cp.Evals,
	}
	for i, nw := range cp.Trees {
		t, err := ParseNewick(nw, taxa)
		if err != nil {
			return nil, fmt.Errorf("phylo: corrupt checkpoint tree %d: %w", i, err)
		}
		st.pop = append(st.pop, individual{tree: t, logL: cp.LogLs[i]})
	}
	sortPop(st.pop)
	rng := sim.NewRNG(cp.Seed + int64(cp.Generation)*1000003)
	return &Runner{state: st, names: names, rng: rng, seed: cp.Seed}, nil
}
