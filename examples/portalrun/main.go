// Portalrun: drive the science portal exactly as a researcher's
// browser would — register, generate and inspect the GARLI form,
// upload a FASTA alignment, poll the batch, and download the results
// zip — against a live in-process grid whose virtual time is pumped
// between requests.
package main

import (
	"archive/zip"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"

	"lattice"
	"lattice/internal/phylo"
	"lattice/internal/sim"
)

func main() {
	grid, err := lattice.New(lattice.DefaultConfig(11))
	if err != nil {
		log.Fatal(err)
	}
	srv := httptest.NewServer(grid.Portal.Handler())
	defer srv.Close()
	fmt.Println("portal serving at", srv.URL)

	// Register as a user.
	resp, err := http.Post(srv.URL+"/register", "application/x-www-form-urlencoded",
		strings.NewReader("email=darwin@beagle.org"))
	must(err)
	var reg struct{ Token, Email string }
	must(json.NewDecoder(resp.Body).Decode(&reg))
	must(resp.Body.Close())
	fmt.Printf("registered %s → token %s\n", reg.Email, reg.Token)

	// The job-creation form is generated from the grid application's
	// XML description.
	resp, err = http.Get(srv.URL + "/garli/app.xml")
	must(err)
	xmlDesc := must1(io.ReadAll(resp.Body))
	must(resp.Body.Close())
	fmt.Printf("application description: %d bytes of XML\n", len(xmlDesc))

	// Prepare a real FASTA upload (simulated data, as a stand-in for
	// the researcher's sequences).
	rng := sim.NewRNG(3)
	m := must1(phylo.NewJC69())
	rs := must1(phylo.NewSiteRates(phylo.RateHomogeneous, 0, 0, 1))
	tr := phylo.RandomTree(phylo.TaxonNames(10), 0.1, rng)
	al, err := phylo.SimulateAlignment(tr, m, rs, 600, rng)
	must(err)
	var fasta strings.Builder
	must(al.WriteFASTA(&fasta))

	var body bytes.Buffer
	w := multipart.NewWriter(&body)
	must(w.WriteField("datatype", "nucleotide"))
	must(w.WriteField("ratematrix", "HKY85"))
	must(w.WriteField("ratehetmodel", "gamma"))
	must(w.WriteField("replicates", "20"))
	fw := must1(w.CreateFormFile("datafile", "beagle.fasta"))
	must1(io.WriteString(fw, fasta.String()))
	must(w.Close())

	req := must1(http.NewRequest(http.MethodPost, srv.URL+"/garli/create", &body))
	req.Header.Set("Content-Type", w.FormDataContentType())
	req.Header.Set("X-Lattice-Token", reg.Token)
	resp, err = http.DefaultClient.Do(req)
	must(err)
	raw := must1(io.ReadAll(resp.Body))
	must(resp.Body.Close())
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("submission rejected: %s", raw)
	}
	var created struct {
		Batch string `json:"batch"`
		Jobs  int    `json:"jobs"`
	}
	must(json.Unmarshal(raw, &created))
	fmt.Printf("created %s (%d grid jobs)\n", created.Batch, created.Jobs)

	// Poll while the grid runs.
	for i := 0; i < 40; i++ {
		grid.Portal.Pump(12 * lattice.Hour)
		resp, err = http.Get(srv.URL + "/batch/" + created.Batch + "?format=json")
		must(err)
		var st struct {
			Completed, Failed, Total int
			Done                     bool
		}
		must(json.NewDecoder(resp.Body).Decode(&st))
		must(resp.Body.Close())
		if st.Done {
			fmt.Printf("batch done: %d/%d completed\n", st.Completed, st.Total)
			break
		}
	}

	// Download and list the results zip.
	resp, err = http.Get(srv.URL + "/batch/" + created.Batch + "/download")
	must(err)
	data := must1(io.ReadAll(resp.Body))
	must(resp.Body.Close())
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	must(err)
	fmt.Printf("downloaded %d-byte zip with %d files:\n", len(data), len(zr.File))
	for i, f := range zr.File {
		if i < 5 || f.Name == "batch_summary.txt" {
			fmt.Println("  ", f.Name)
		}
	}

	// Email notifications the researcher received.
	for _, n := range grid.Service.SentTo("darwin@beagle.org") {
		fmt.Printf("mail: %s\n", n.Subject)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// must1 unwraps a (value, error) pair, dying on error — example-grade
// error handling that still refuses to continue past a failure.
func must1[T any](v T, err error) T {
	must(err)
	return v
}
