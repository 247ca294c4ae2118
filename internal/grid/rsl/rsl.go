// Package rsl implements a Globus Resource Specification Language
// style job description format: the generic, resource-independent
// description a grid job travels as, which each scheduler adapter
// translates into a Condor/PBS/SGE submit file or a BOINC workunit
// ("a collection of scripts responsible for translating a generic job
// description in Globus RSL … into a resource-specific job
// description").
//
// The concrete syntax follows classic RSL relation lists:
//
//	&(executable=/grid/apps/garli)(count=1)(maxMemory=512)
//	 (arguments=garli.conf run1)(environment=(OMP_NUM_THREADS 1))
package rsl

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"lattice/internal/lrm"
	"lattice/internal/sim"
)

// Spec is a parsed RSL relation list: attribute → values.
type Spec struct {
	attrs map[string][]string
}

// NewSpec returns an empty specification.
func NewSpec() *Spec { return &Spec{attrs: make(map[string][]string)} }

// Set replaces an attribute's values.
func (s *Spec) Set(name string, values ...string) {
	s.attrs[strings.ToLower(name)] = values
}

// Get returns the first value of an attribute and whether it exists.
func (s *Spec) Get(name string) (string, bool) {
	v, ok := s.attrs[strings.ToLower(name)]
	if !ok || len(v) == 0 {
		return "", false
	}
	return v[0], true
}

// GetAll returns all values of an attribute.
func (s *Spec) GetAll(name string) []string {
	return s.attrs[strings.ToLower(name)]
}

// Names returns the attribute names in sorted order.
func (s *Spec) Names() []string {
	names := make([]string, 0, len(s.attrs))
	for n := range s.attrs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// String serializes the spec in canonical form: attributes sorted,
// values quoted when needed.
func (s *Spec) String() string {
	var b strings.Builder
	b.WriteByte('&')
	for _, name := range s.Names() {
		b.WriteByte('(')
		b.WriteString(name)
		b.WriteByte('=')
		for i, v := range s.attrs[name] {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(quote(v))
		}
		b.WriteByte(')')
	}
	return b.String()
}

func quote(v string) string {
	if v == "" || strings.ContainsAny(v, " ()\"=") {
		return `"` + strings.ReplaceAll(v, `"`, `""`) + `"`
	}
	return v
}

// Parse reads an RSL relation list.
//
//lint:allow deadexport -- the text syntax is the paper's wire format between portal and adapters; in-process jobs travel as the typed JobDescription, so only the round-trip tests parse
func Parse(input string) (*Spec, error) {
	s := NewSpec()
	p := &parser{s: input}
	p.skipSpace()
	if p.pos >= len(p.s) || p.s[p.pos] != '&' {
		return nil, fmt.Errorf("rsl: specification must start with '&'")
	}
	p.pos++
	for {
		p.skipSpace()
		if p.pos >= len(p.s) {
			break
		}
		if p.s[p.pos] != '(' {
			return nil, fmt.Errorf("rsl: expected '(' at offset %d", p.pos)
		}
		p.pos++
		name := p.readToken()
		if name == "" {
			return nil, fmt.Errorf("rsl: empty attribute name at offset %d", p.pos)
		}
		p.skipSpace()
		if p.pos >= len(p.s) || p.s[p.pos] != '=' {
			return nil, fmt.Errorf("rsl: expected '=' after %q", name)
		}
		p.pos++
		var values []string
		for {
			p.skipSpace()
			if p.pos >= len(p.s) {
				return nil, fmt.Errorf("rsl: unterminated relation %q", name)
			}
			if p.s[p.pos] == ')' {
				p.pos++
				break
			}
			v, err := p.readValue()
			if err != nil {
				return nil, err
			}
			values = append(values, v)
		}
		s.attrs[strings.ToLower(name)] = values
	}
	return s, nil
}

type parser struct {
	s   string
	pos int
}

func (p *parser) skipSpace() {
	for p.pos < len(p.s) && (p.s[p.pos] == ' ' || p.s[p.pos] == '\t' || p.s[p.pos] == '\n' || p.s[p.pos] == '\r') {
		p.pos++
	}
}

func (p *parser) readToken() string {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.s) && !strings.ContainsRune(" ()=\"\t\n\r", rune(p.s[p.pos])) {
		p.pos++
	}
	return p.s[start:p.pos]
}

func (p *parser) readValue() (string, error) {
	if p.s[p.pos] == '"' {
		p.pos++
		var b strings.Builder
		for p.pos < len(p.s) {
			if p.s[p.pos] == '"' {
				if p.pos+1 < len(p.s) && p.s[p.pos+1] == '"' {
					b.WriteByte('"')
					p.pos += 2
					continue
				}
				p.pos++
				return b.String(), nil
			}
			b.WriteByte(p.s[p.pos])
			p.pos++
		}
		return "", fmt.Errorf("rsl: unterminated quoted value")
	}
	tok := p.readToken()
	if tok == "" {
		return "", fmt.Errorf("rsl: empty value at offset %d", p.pos)
	}
	return tok, nil
}

// JobDescription is the typed view of a grid job the scheduler and
// adapters work with.
type JobDescription struct {
	JobID string
	// BatchID names the portal batch the job belongs to, when it came
	// through one — the trace/journal context (internal/obs) travels
	// with the job description the way the real system's grid job
	// annotations did.
	BatchID             string
	Executable          string
	Arguments           []string
	Count               int // replicate count carried for bundling
	MaxMemoryMB         int
	Platforms           []lrm.Platform
	Software            []string
	NeedsMPI            bool
	WallLimit           sim.Duration
	EstimatedRefSeconds float64
	DelayBound          sim.Duration
	// Work is the computational size in cell updates; carried as an
	// extension attribute (the real system derives it from input
	// files during validation).
	Work float64
	// InputMB and OutputMB size the job's data staging: sequence
	// files in, result files out ("data placement" is a grid-level
	// function in the paper's Section IV).
	InputMB  float64
	OutputMB float64
	// ServiceOnly excludes desktop-grid (BOINC) resources from
	// placement: the job must run on a service-grid resource. Set for
	// short workflow stages where volunteer-pool turnaround latency
	// would dominate.
	ServiceOnly bool
}

// Validate checks required fields.
func (d *JobDescription) Validate() error {
	if d.JobID == "" {
		return fmt.Errorf("rsl: job has no ID")
	}
	if d.Executable == "" {
		return fmt.Errorf("rsl: job %s has no executable", d.JobID)
	}
	if d.Count < 1 {
		return fmt.Errorf("rsl: job %s has count %d", d.JobID, d.Count)
	}
	if d.Work <= 0 {
		return fmt.Errorf("rsl: job %s has non-positive work", d.JobID)
	}
	return nil
}

// ToSpec serializes the description as RSL.
//
//lint:allow deadexport -- writer half of the RSL wire format; see Parse
func (d *JobDescription) ToSpec() *Spec {
	s := NewSpec()
	s.Set("jobid", d.JobID)
	s.Set("executable", d.Executable)
	if len(d.Arguments) > 0 {
		s.Set("arguments", d.Arguments...)
	}
	s.Set("count", strconv.Itoa(d.Count))
	if d.MaxMemoryMB > 0 {
		s.Set("maxmemory", strconv.Itoa(d.MaxMemoryMB))
	}
	if len(d.Platforms) > 0 {
		vals := make([]string, len(d.Platforms))
		for i, p := range d.Platforms {
			vals[i] = string(p)
		}
		s.Set("platforms", vals...)
	}
	if len(d.Software) > 0 {
		s.Set("software", d.Software...)
	}
	if d.NeedsMPI {
		s.Set("jobtype", "mpi")
	}
	if d.WallLimit > 0 {
		s.Set("maxwalltime", strconv.FormatFloat(d.WallLimit.Seconds(), 'g', -1, 64))
	}
	if d.EstimatedRefSeconds > 0 {
		s.Set("x-estimatedruntime", strconv.FormatFloat(d.EstimatedRefSeconds, 'g', -1, 64))
	}
	if d.DelayBound > 0 {
		s.Set("x-delaybound", strconv.FormatFloat(d.DelayBound.Seconds(), 'g', -1, 64))
	}
	if d.ServiceOnly {
		s.Set("x-serviceonly", "true")
	}
	s.Set("x-work", strconv.FormatFloat(d.Work, 'g', -1, 64))
	if d.InputMB > 0 {
		s.Set("x-inputmb", strconv.FormatFloat(d.InputMB, 'g', -1, 64))
	}
	if d.OutputMB > 0 {
		s.Set("x-outputmb", strconv.FormatFloat(d.OutputMB, 'g', -1, 64))
	}
	return s
}

// FromSpec parses a typed description back out of RSL.
//
//lint:allow deadexport -- reader half of the RSL wire format; see Parse
func FromSpec(s *Spec) (*JobDescription, error) {
	d := &JobDescription{Count: 1}
	if v, ok := s.Get("jobid"); ok {
		d.JobID = v
	}
	if v, ok := s.Get("executable"); ok {
		d.Executable = v
	}
	d.Arguments = append([]string(nil), s.GetAll("arguments")...)
	if v, ok := s.Get("count"); ok {
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, fmt.Errorf("rsl: bad count %q: %w", v, err)
		}
		d.Count = n
	}
	if v, ok := s.Get("maxmemory"); ok {
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, fmt.Errorf("rsl: bad maxMemory %q: %w", v, err)
		}
		d.MaxMemoryMB = n
	}
	for _, p := range s.GetAll("platforms") {
		d.Platforms = append(d.Platforms, lrm.Platform(p))
	}
	d.Software = append([]string(nil), s.GetAll("software")...)
	if v, ok := s.Get("jobtype"); ok && v == "mpi" {
		d.NeedsMPI = true
	}
	if v, ok := s.Get("x-serviceonly"); ok && v == "true" {
		d.ServiceOnly = true
	}
	fl := func(name string) (float64, error) {
		v, ok := s.Get(name)
		if !ok {
			return 0, nil
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, fmt.Errorf("rsl: bad %s %q: %w", name, v, err)
		}
		return f, nil
	}
	var err error
	var f float64
	if f, err = fl("maxwalltime"); err != nil {
		return nil, err
	}
	d.WallLimit = sim.Duration(f)
	if d.EstimatedRefSeconds, err = fl("x-estimatedruntime"); err != nil {
		return nil, err
	}
	if f, err = fl("x-delaybound"); err != nil {
		return nil, err
	}
	d.DelayBound = sim.Duration(f)
	if d.Work, err = fl("x-work"); err != nil {
		return nil, err
	}
	if d.InputMB, err = fl("x-inputmb"); err != nil {
		return nil, err
	}
	if d.OutputMB, err = fl("x-outputmb"); err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// ToJob converts the description into the job record a local resource
// executes. Completion callbacks are attached by the caller.
func (d *JobDescription) ToJob() *lrm.Job {
	j := &lrm.Job{
		ID:                  d.JobID,
		Batch:               d.BatchID,
		Work:                d.Work,
		MemoryMB:            d.MaxMemoryMB,
		Platforms:           append([]lrm.Platform(nil), d.Platforms...),
		Software:            append([]string(nil), d.Software...),
		NeedsMPI:            d.NeedsMPI,
		WallLimit:           d.WallLimit,
		EstimatedRefSeconds: d.EstimatedRefSeconds,
		DelayBound:          d.DelayBound,
	}
	if d.NeedsMPI {
		// For MPI jobs the RSL count is the node count, per Globus
		// convention.
		j.Nodes = d.Count
	}
	return j
}
