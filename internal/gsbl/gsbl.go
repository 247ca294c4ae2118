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

	"lattice/internal/metasched"
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
			{Name: "datafile", Type: "file", Label: "Sequence data file (FASTA or PHYLIP)", Required: true,
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

// Mailer collects outbound notifications (the simulation's SMTP). The
// outbox holds what each mail is about, not its text: every field the
// text reads is final by the time the mail is queued, so rendering it
// when someone reads the outbox gives the text sending would have.
//
// Mails live in chunks whose capacity is fixed when they are opened,
// firstMailChunk mails doubling per chunk up to maxMailChunk, so a
// queued mail is never copied (as obs.Journal stores its events).
type Mailer struct {
	chunks [][]mail
	n      int // mails in all chunks
}

// Chunk capacities, in mails: 64 (2 kB) for an outbox that stays small,
// 4 096 (128 kB) once it is long.
const (
	firstMailChunk = 64
	maxMailChunk   = 4096
)

// mailKind selects one of the three notifications the service sends.
type mailKind uint8

const (
	mailSubmitted mailKind = iota // b accepted: b.ID, replicates and len(b.Jobs) are final
	mailJobFailed                 // j failed for good: j.ID and j.FailReason are final
	mailComplete                  // b done: b.completed and b.failed are final
)

// mail is one queued notification.
type mail struct {
	at   sim.Time
	kind mailKind
	b    *Batch
	j    *metasched.GridJob
}

// queue records a notification about b (and, for a job failure, j).
func (m *Mailer) queue(at sim.Time, kind mailKind, b *Batch, j *metasched.GridJob) {
	last := len(m.chunks) - 1
	if last < 0 || len(m.chunks[last]) == cap(m.chunks[last]) {
		size := firstMailChunk
		if last >= 0 {
			size = min(2*cap(m.chunks[last]), maxMailChunk)
		}
		m.chunks = append(m.chunks, make([]mail, 0, size))
		last++
	}
	m.chunks[last] = append(m.chunks[last], mail{at: at, kind: kind, b: b, j: j})
	m.n++
}

// render is the notification's text, addressed to the batch's owner.
func (n *mail) render() Notification {
	b := n.b
	out := Notification{At: n.at, To: b.Submission.UserEmail}
	switch n.kind {
	case mailSubmitted:
		out.Subject = "[Lattice] " + b.ID + " submitted"
		out.Body = "Your submission of " + strconv.Itoa(b.Submission.Replicates) +
			" replicates was accepted as " + b.ID + " (" + strconv.Itoa(len(b.Jobs)) + " grid jobs)."
	case mailJobFailed:
		out.Subject = "[Lattice] job failure in " + b.ID
		out.Body = "Job " + n.j.ID + " failed: " + n.j.FailReason
	case mailComplete:
		out.Subject = "[Lattice] " + b.ID + " complete"
		out.Body = "All " + strconv.Itoa(len(b.Jobs)) + " jobs finished (" + strconv.Itoa(int(b.completed)) +
			" completed, " + strconv.Itoa(int(b.failed)) + " failed). Results are ready for download."
	}
	return out
}

// Sent returns all notifications in order, rendered into a slice of the
// caller's own.
func (m *Mailer) Sent() []Notification {
	out := make([]Notification, 0, m.n)
	for _, c := range m.chunks {
		for i := range c {
			out = append(out, c[i].render())
		}
	}
	return out
}

// SentTo returns notifications for one recipient.
func (m *Mailer) SentTo(to string) []Notification {
	var out []Notification
	for _, c := range m.chunks {
		for i := range c {
			if c[i].b.Submission.UserEmail == to {
				out = append(out, c[i].render())
			}
		}
	}
	return out
}
