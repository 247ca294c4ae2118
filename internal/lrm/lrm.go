// Package lrm defines the local-resource-manager abstraction of the
// grid — "an established computing resource administered in one domain
// and capable of functioning independently from the grid system" — and
// the job machinery its implementations (Condor pools, PBS and SGE
// clusters, and the BOINC adapter in internal/boinc) and the
// meta-scheduler share: the Job itself, its runtime on a node of a
// given speed, and platform and software matching.
//
// Every LRM is a discrete-event simulator on the shared sim.Engine:
// nodes execute abstract work (likelihood cell updates) at a speed
// relative to the reference computer, availability processes interrupt
// jobs on scavenged resources, and completions/failures are reported
// through callbacks so the grid level can track and reschedule.
package lrm

import (
	"fmt"

	"lattice/internal/sim"
)

// ReferenceCellsPerSecond mirrors workload.ReferenceCellsPerSecond;
// duplicated here to keep the dependency graph acyclic (lrm must not
// import workload).
const ReferenceCellsPerSecond = 2.5e8

// Platform identifies an operating system / CPU architecture pair an
// application binary can run on.
type Platform string

// The platforms the paper's system supports ("we support three major
// computing platforms: Linux, Windows, and Mac OS").
const (
	LinuxX86   Platform = "linux/x86_64"
	WindowsX86 Platform = "windows/x86_64"
	DarwinX86  Platform = "darwin/x86_64"
	DarwinPPC  Platform = "darwin/ppc"
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
	// Platforms lists platforms the application binary supports; a
	// node must match one. Empty = any.
	Platforms []Platform
	// Software lists software dependencies (e.g. "java") a node must
	// provide. Empty = none.
	Software []string
	// NeedsMPI marks tightly coupled jobs that require an
	// MPI-capable resource.
	NeedsMPI bool
	// Nodes is the number of nodes an MPI job spans (0 or 1 for
	// serial jobs). Only MPI-capable clusters accept Nodes > 1.
	Nodes int
	// WallLimit kills the job if it runs longer (0 = none); local
	// policy, enforced by the LRM.
	WallLimit sim.Duration
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

	// OnComplete fires when the job finishes successfully.
	OnComplete func(at sim.Time)
	// OnFail fires when the job is permanently failed by the
	// resource (exceeded wall limit, node crash with no requeue
	// budget left, cancellation is not a failure).
	OnFail func(at sim.Time, reason string)
}

// Validate checks the job is well-formed.
func (j *Job) Validate() error {
	if j.ID == "" {
		return fmt.Errorf("lrm: job has no ID")
	}
	if j.Work <= 0 {
		return fmt.Errorf("lrm: job %s has non-positive work %g", j.ID, j.Work)
	}
	if j.MemoryMB < 0 {
		return fmt.Errorf("lrm: job %s has negative memory requirement", j.ID)
	}
	return nil
}

// RuntimeOn returns the job's execution time on a node (or an MPI
// node set) of the given speed relative to the reference computer.
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
	Software     []string
	MPI          bool
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
// grid ties into it through a scheduler adapter (submission) and a
// scheduler provider (Info for MDS).
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

// HasPlatform reports whether any of the job's acceptable platforms is
// offered by the node/resource platform set; an empty want accepts any.
func HasPlatform(want []Platform, have ...Platform) bool {
	if len(want) == 0 {
		return true
	}
	for _, w := range want {
		for _, h := range have {
			if w == h {
				return true
			}
		}
	}
	return false
}

// HasSoftware reports whether every requested dependency is present.
func HasSoftware(want, have []string) bool {
	for _, w := range want {
		found := false
		for _, h := range have {
			if w == h {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
