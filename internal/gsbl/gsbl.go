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

	"lattice/internal/sim"
)

// Param describes one form parameter of a grid application.
type Param struct {
	Name     string   `xml:"name,attr"`
	Type     string   `xml:"type,attr"` // "int", "float", "choice", "file", "text"
	Label    string   `xml:"label"`
	Default  string   `xml:"default,omitempty"`
	Options  []string `xml:"option,omitempty"`
	Required bool     `xml:"required,attr"`
	Help     string   `xml:"help,omitempty"`
}

// AppDescription is the XML description of a grid application from
// which a web interface is generated ("software that takes an XML
// description of grid application arguments and options and
// automatically generates a … web interface for that application").
type AppDescription struct {
	XMLName xml.Name `xml:"gridApplication"`
	Name    string   `xml:"name,attr"`
	Version string   `xml:"version,attr"`
	Title   string   `xml:"title"`
	Params  []Param  `xml:"parameter"`
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
// portal form in the paper's Figure 1.
func GarliApp() *AppDescription {
	return &AppDescription{
		Name:    "garli",
		Version: "2.0",
		Title:   "GARLI — Genetic Algorithm for Rapid Likelihood Inference",
		Params: []Param{
			{Name: "datafile", Type: "file", Label: "Sequence data file (FASTA or PHYLIP)", Required: true,
				Help: "Aligned sequence data; all rows must be the same length."},
			{Name: "datatype", Type: "choice", Label: "Data type", Default: "nucleotide",
				Options: []string{"nucleotide", "aminoacid", "codon"}, Required: true},
			{Name: "ratematrix", Type: "choice", Label: "Substitution model", Default: "GTR",
				Options: []string{"JC69", "K80", "HKY85", "GTR", "poisson", "empirical", "GY94"}, Required: true},
			{Name: "ratehetmodel", Type: "choice", Label: "Rate heterogeneity", Default: "gamma",
				Options: []string{"none", "gamma", "gamma+inv"}, Required: true},
			{Name: "numratecats", Type: "int", Label: "Number of rate categories", Default: "4"},
			{Name: "searchreps", Type: "int", Label: "Search replicates per job", Default: "1"},
			{Name: "streefname", Type: "choice", Label: "Starting tree", Default: "stepwise",
				Options: []string{"random", "stepwise", "user"}},
			{Name: "attachmentspertaxon", Type: "int", Label: "Attachments per taxon", Default: "25"},
			{Name: "replicates", Type: "int", Label: "Job replicates (1-2000)", Default: "1", Required: true,
				Help: "Each replicate runs in parallel on a separate grid processor."},
			{Name: "bootstrap", Type: "choice", Label: "Bootstrap resampling", Default: "no",
				Options: []string{"no", "yes"}},
			{Name: "email", Type: "text", Label: "Email address for notifications", Required: true},
		},
	}
}

// Notification is one outbound email.
type Notification struct {
	At      sim.Time
	To      string
	Subject string
	Body    string
}

// Mailer collects outbound notifications (the simulation's SMTP).
type Mailer struct {
	sent []Notification
}

// Send records a notification.
func (m *Mailer) Send(at sim.Time, to, subject, body string) {
	m.sent = append(m.sent, Notification{At: at, To: to, Subject: subject, Body: body})
}

// Sent returns all notifications in order.
func (m *Mailer) Sent() []Notification { return m.sent }

// SentTo returns notifications for one recipient.
func (m *Mailer) SentTo(to string) []Notification {
	var out []Notification
	for _, n := range m.sent {
		if n.To == to {
			out = append(out, n)
		}
	}
	return out
}
