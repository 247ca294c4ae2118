// Package gsbl is the Grid Services Base Library layer: the high-level
// procedural API for grid services the paper's group published as
// [32]. It owns what sits between the web portal and the meta-
// scheduler — grid application descriptions (from which the portal
// generates its forms), batch lifecycle management (submit, monitor,
// cancel), result post-processing into a single downloadable zip, and
// email notification of "important status updates (such as job
// completion or job failure)".
package gsbl

import (
	"encoding/xml"
	"fmt"
	"slices"
	"strconv"

	"lattice/internal/obs"
	"lattice/internal/shard"
	"lattice/internal/sim"
	"lattice/internal/workload"
)

// AppDescription is the XML description of a grid application from
// which a web interface is generated ("software that takes an XML
// description of grid application arguments and options and
// automatically generates a … web interface for that application").
type AppDescription struct {
	XMLName xml.Name         `xml:"gridApplication"`
	Name    string           `xml:"name,attr"`
	Version string           `xml:"version,attr"`
	Title   string           `xml:"title"`
	Params  []workload.Param `xml:"parameter"`
}

// MarshalXML renders the description document.
func (a *AppDescription) XML() ([]byte, error) {
	return xml.MarshalIndent(a, "", "  ")
}

// ParseAppDescription reads an XML application description.
//
//lint:allow deadexport -- the reading half of the format XML writes: what a client of /garli/app.xml parses the document with
func ParseAppDescription(data []byte) (*AppDescription, error) {
	var a AppDescription
	if err := xml.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("gsbl: parsing application description: %w", err)
	}
	if a.Name == "" {
		return nil, fmt.Errorf("gsbl: application description has no name")
	}
	return &a, nil
}

// GarliApp returns the GARLI grid service description mirroring the
// portal form in the paper's Figure 1: the data file, GARLI's analysis
// parameters (workload.Params), then the batch's own fields.
func GarliApp() *AppDescription {
	return &AppDescription{
		Name:    "garli",
		Version: "2.0",
		Title:   "GARLI — Genetic Algorithm for Rapid Likelihood Inference",
		Params: slices.Concat([]workload.Param{
			{Name: "datafile", Type: "file", Label: "Sequence data file (NEXUS, FASTA or PHYLIP)", Required: true,
				Help: "Aligned sequence data; all rows must be the same length."},
		}, workload.Params, []workload.Param{
			{Name: "replicates", Type: "int", Label: "Job replicates (1-2000)", Default: "1", Required: true,
				Help: "Each replicate runs in parallel on a separate grid processor."},
			{Name: "bootstrap", Type: "choice", Label: "Bootstrap resampling", Default: "no",
				Options: []string{"no", "yes"}},
			{Name: "email", Type: "text", Label: "Email address for notifications", Required: true},
		}),
	}
}

// Notification is one outbound email.
type Notification struct {
	At      sim.Time
	To      string
	Subject string
	Body    string
}

// Sent returns every notification the service has sent, in order, in a
// slice of the caller's own.
func (s *Service) Sent() []Notification { return s.outbox("") }

// SentTo returns the notifications sent to one recipient.
func (s *Service) SentTo(to string) []Notification { return s.outbox(to) }

// outbox folds the service's journal into its mail, to's alone unless
// to is "" (an accepted submission always names a recipient): a
// submitted mail at each batch's validate event, a job-failure mail at
// each fail event, and a completion mail at the terminal event that
// ends the last of the batch's jobs. The scheduler journals each
// terminal just before it reports it to JobDone, so the order is the
// order in which the service learned each thing. Mail is not stored;
// it is exactly as durable as the journal. What a mail reads besides
// its event — the batch's ID, replicates and job count, its tallies at
// its last terminal — is final before anyone can read the outbox.
func (s *Service) outbox(to string) []Notification {
	out := []Notification{}
	ended := make([]int32, len(s.batches)) // batch n's terminal jobs, at n-1
	s.obs.Journal.Each(func(ev obs.Event) {
		if ev.Stage != obs.StageValidate && !ev.Stage.Terminal() {
			return
		}
		n, ok := shard.IDNumber(ev.Batch, s.idPrefix, "batch")
		if !ok || n > len(ended) {
			return
		}
		b := s.batches[n-1]
		mine := to == "" || b.Submission.UserEmail == to
		m := Notification{At: ev.At, To: b.Submission.UserEmail}
		switch ev.Stage {
		case obs.StageValidate:
			if mine {
				m.Subject = "[Lattice] " + b.ID + " submitted"
				m.Body = "Your submission of " + strconv.Itoa(b.Submission.Replicates) +
					" replicates was accepted as " + b.ID + " (" + strconv.Itoa(len(b.Jobs)) + " grid jobs)."
				out = append(out, m)
			}
			return
		case obs.StageFail:
			if mine {
				m.Subject = "[Lattice] job failure in " + b.ID
				m.Body = "Job " + ev.Job + " failed: " + ev.Detail
				out = append(out, m)
			}
		}
		if ended[n-1]++; int(ended[n-1]) == len(b.Jobs) && mine {
			m.Subject = "[Lattice] " + b.ID + " complete"
			m.Body = "All " + strconv.Itoa(len(b.Jobs)) + " jobs finished (" + strconv.Itoa(int(b.completed)) +
				" completed, " + strconv.Itoa(int(b.failed)) + " failed). Results are ready for download."
			out = append(out, m)
		}
	})
	return out
}
