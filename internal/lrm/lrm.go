// Package lrm defines the local-resource-manager abstraction of the
// grid — "an established computing resource administered in one domain
// and capable of functioning independently from the grid system" — and
// the job machinery its implementations (Condor pools, PBS and SGE
// clusters, and the BOINC project server in internal/boinc) and the
// meta-scheduler share: the Job itself and its runtime on a node of a
// given speed. Job is the resource-specific job description: the
// meta-scheduler translates each grid job into one per dispatch, which
// is what the paper's per-LRM "scheduler adapters" did.
//
// Every LRM is a discrete-event simulator on the shared sim.Engine:
// nodes execute abstract work (likelihood cell updates) at a speed
// relative to the reference computer, availability processes interrupt
// jobs on scavenged resources, and completions/failures are reported
// to the job's Owner so the grid level can track and reschedule.
package lrm

import (
	"errors"
	"fmt"
	"math"

	"lattice/internal/sim"
)

// ReferenceCellsPerSecond is the likelihood-cell throughput of the
// "reference computer" that anchors all resource speed measurements
// (the paper arbitrarily assigns it speed 1.0). Every resource in the
// grid executes work at speed × this rate.
const ReferenceCellsPerSecond = 2.5e8

// Platform identifies the operating system / CPU architecture pair a
// resource's nodes run; a resource publishes its platforms in Info. No
// job asks for one: the one application, GARLI, is built for all three
// below.
type Platform string

// The platforms the paper's system supports ("we support three major
// computing platforms: Linux, Windows, and Mac OS").
const (
	LinuxX86   Platform = "linux/x86_64"
	WindowsX86 Platform = "windows/x86_64"
	DarwinX86  Platform = "darwin/x86_64"
)

// Job is a unit of computational work submitted to a local resource.
type Job struct {
	// ID is unique across the grid.
	ID string
	// Batch names the portal batch the job came through ("" for
	// direct submissions); observability context that travels with
	// the job so local journal events land under the right batch.
	Batch string
	// Work is the job's total computational cost in likelihood cell
	// updates; runtime on a node is Work / (speed × reference rate).
	Work float64
	// MemoryMB is the minimum node memory required.
	MemoryMB int
	// EstimatedRefSeconds is the grid level's a priori runtime
	// estimate on the reference computer (BOINC's rsc_fpops_est
	// analogue). Desktop grids use it to size work requests; 0 means
	// no estimate is available.
	EstimatedRefSeconds float64
	// DelayBound is the deadline granted to a desktop-grid result
	// after issue (BOINC's delay_bound): results not returned within
	// it are reissued to another volunteer. 0 selects the project
	// default.
	DelayBound sim.Duration

	// Owner, when set, is told how the job ended.
	Owner Owner
}

// Owner is whoever submitted a job and is told how it ended — the
// meta-scheduler's per-attempt record, so the report costs no closure.
//
// Every LRM keeps one contract with it, which lets a layer between the
// two (the fault injector's wrapper) stand as the Owner of every job it
// forwards with no record of its own per job: each report names the
// job it is about, the *Job that Submit accepted; an accepted job gets
// at most one report, a refused one none; a report never comes from
// inside Submit; and once Cancel of a job returns, that job gets no
// report. TestReportContract holds the clusters and the BOINC server to
// it under generated submits, cancels, outages, preemptions and churn,
// and TestReportContractThroughFaults holds the fault wrapper to it.
type Owner interface {
	// Complete is called when the job finishes successfully.
	Complete(j *Job, at sim.Time)
	// Fail is called when the resource permanently fails the job
	// (preempted past its requeue limit, too many failed results;
	// cancellation is not a failure).
	Fail(j *Job, at sim.Time, reason string)
}

// Callbacks is an Owner made of two funcs, for a submitter with no
// record of its own to hang the methods on; a nil func ignores its
// outcome.
type Callbacks struct {
	OnComplete func(at sim.Time)
	OnFail     func(at sim.Time, reason string)
}

// Complete calls OnComplete.
func (c *Callbacks) Complete(_ *Job, at sim.Time) {
	if c.OnComplete != nil {
		c.OnComplete(at)
	}
}

// Fail calls OnFail.
func (c *Callbacks) Fail(_ *Job, at sim.Time, reason string) {
	if c.OnFail != nil {
		c.OnFail(at, reason)
	}
}

// ErrInvalidJob is wrapped by every error Validate returns: the job
// itself is malformed, so no resource will ever accept it.
var ErrInvalidJob = errors.New("lrm: invalid job")

// Validate checks the job is well-formed.
func (j *Job) Validate() error {
	if j.ID == "" {
		return fmt.Errorf("%w: no ID", ErrInvalidJob)
	}
	if !(j.Work > 0) || math.IsInf(j.Work, 1) {
		return fmt.Errorf("%w %s: work %g is not finite and positive", ErrInvalidJob, j.ID, j.Work)
	}
	if j.MemoryMB < 0 {
		return fmt.Errorf("%w %s: negative memory requirement", ErrInvalidJob, j.ID)
	}
	return nil
}

// RuntimeOn returns the job's execution time on a node of the given
// speed relative to the reference computer.
func (j *Job) RuntimeOn(speed float64) sim.Duration {
	return sim.Duration(j.Work / (speed * ReferenceCellsPerSecond))
}

// Stats aggregates what a resource did — consumed by the experiment
// harnesses (utilization, waste from preemptions, and so on).
type Stats struct {
	Completed    int
	Failed       int
	Preemptions  int
	CPUSeconds   float64 // useful work delivered, reference-seconds
	WastedCPU    float64 // reference-seconds thrown away by interruptions
	TotalQueued  int
	MaxQueueSeen int
}

// Info is the resource state a scheduler provider publishes to MDS:
// "number of free CPU cores, total RAM, total disk space, and so on".
type Info struct {
	Name      string
	Kind      string // "condor", "pbs", "sge", "boinc"
	TotalCPUs int
	FreeCPUs  int
	// NodeMemoryMB is the memory of the largest node class.
	NodeMemoryMB int
	Platforms    []Platform
	// Stable reports whether jobs run to completion without owner
	// interference (paper Section V-A: stable resources accommodate
	// long-running jobs).
	Stable bool
	// QueuedJobs counts jobs waiting locally.
	QueuedJobs int
	// RunningJobs counts jobs executing.
	RunningJobs int
}

// LRM is the interface every local resource manager implements; the
// grid ties into it through Submit (the meta-scheduler hands over one
// Job per dispatch) and a scheduler provider (Info for MDS).
type LRM interface {
	// Name returns the resource's grid-wide name.
	Name() string
	// Submit enqueues a job; scheduling is local policy.
	Submit(j *Job) error
	// Cancel removes a queued or running job. It reports whether the
	// job was found.
	Cancel(jobID string) bool
	// Info snapshots current state for the scheduler provider.
	Info() Info
	// Stats returns lifetime accounting.
	Stats() Stats
}
