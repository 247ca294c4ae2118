package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"mime/multipart"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"lattice/internal/admit"
	"lattice/internal/dag"
	"lattice/internal/gsbl"
	"lattice/internal/obs"
	"lattice/internal/sim"
)

// fuzzPost is one POST the fuzz target sent and what came back.
type fuzzPost struct {
	garli    bool // /garli/create, else /workflow/create
	email    string
	reps     int
	code     int
	body     string
	from, to int // the journal events recorded while it was served
}

// fuzzUploads are the data files a form can carry besides garbage: a
// FASTA and a NEXUS alignment of six taxa.
var fuzzUploads = func() [2]string {
	var fasta, nexus strings.Builder
	nexus.WriteString("#NEXUS\nBEGIN DATA;\nDIMENSIONS NTAX=6 NCHAR=120;\nFORMAT DATATYPE=DNA MISSING=? GAP=-;\nMATRIX\n")
	for i := 0; i < 6; i++ {
		row := strings.Repeat("ACGTTGCA"[i:i+3], 40)
		fmt.Fprintf(&fasta, ">taxon%d\n%s\n", i, row)
		fmt.Fprintf(&nexus, "taxon%d %s\n", i, row)
	}
	nexus.WriteString(";\nEND;\n")
	return [2]string{fasta.String(), nexus.String()}
}()

// FuzzPortalSubmissions decodes its input into a sequence of form POSTs
// to /garli/create (a FASTA, NEXUS or garbage data file), JSON POSTs to
// /workflow/create and pumps of the clock, served by a small durable
// deployment with the front door and admission control on. Once the
// grid has drained: no response is a 5xx; every 429 is one shed journal
// event, recorded while it was served and naming its submission; every
// job of every batch has exactly one terminal event; and the form
// submissions the door was offered are the portal's batches plus both
// shed counts.
func FuzzPortalSubmissions(f *testing.F) {
	f.Add([]byte{0, 0, 3, 0, 0, 1, 3, 1})
	f.Add([]byte{0, 1, 7, 0, 0, 1, 7, 0, 0, 1, 7, 1, 0, 2, 15, 0, 0, 2, 15, 0})
	f.Add([]byte{2, 0, 0, 0, 1, 4, 1, 0, 3, 10, 0, 2, 20, 2, 5, 'h', 'e', 'l', 'l', 'o'})
	f.Add([]byte{0, 3, 1, 0, 0, 0, 255, 2, 0, 2, 1, 9, '{', '"', 'n', 'a', 'm', 'e', '"', ':'})
	f.Add([]byte{1, 0, 23, 0, 1, 1, 23, 1, 1, 2, 23, 0, 3, 200, 1, 0, 23, 1, 1, 1, 23, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		l := fuzzDeployment(t)
		defer l.CloseDurable()
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		take := func(n int) []byte {
			n = min(n, len(data))
			b := data[:n]
			data = data[n:]
			return b
		}
		users := []string{"ann@lab.edu", "bob@lab.edu", "cyd@lab.edu", ""}
		var posts []fuzzPost
		for len(data) > 0 && len(posts) < 16 {
			var p fuzzPost
			var ctype string
			var body []byte
			switch op := next(); op % 4 {
			case 0, 1:
				p.garli, p.email = true, users[next()%4]
				p.reps = 1 + int(next()%24)
				var upload []byte
				switch kind := next() % 3; kind {
				case 2:
					upload = take(int(next() % 64))
				default:
					upload = []byte(fuzzUploads[kind])
				}
				ctype, body = fuzzForm(t, p.email, p.reps, upload)
			case 2:
				p.email = users[next()%4]
				if next()%2 == 0 {
					wf := dag.StandardAnalysis("analysis", p.email, 3, doorSubmission(p.email, 3).Spec, 2, 2)
					body, _ = json.Marshal(wf)
				} else {
					body = take(int(next() % 64))
				}
				ctype = "application/json"
			default:
				l.Portal.Pump(sim.Duration(1+next()%60) * sim.Minute)
				continue
			}
			path := "/workflow/create"
			if p.garli {
				path = "/garli/create"
			}
			p.from = l.Obs.Journal.Len()
			rec := serve(l, path, "", ctype, body)
			p.to = l.Obs.Journal.Len()
			p.code, p.body = rec.Code, rec.Body.String()
			if p.code >= 500 {
				t.Fatalf("POST %s answered %d: %s", path, p.code, p.body)
			}
			if p.code == http.StatusTooManyRequests && (!p.garli || rec.Header().Get("Retry-After") == "") {
				t.Fatalf("POST %s answered 429 without a Retry-After: %s", path, p.body)
			}
			posts = append(posts, p)
		}
		drainDeployment(t, l)
		checkPortalLedger(t, l, posts)
	})
}

// fuzzDeployment is a one-cluster durable deployment whose front door
// and admission controller shed readily.
func fuzzDeployment(t *testing.T) *Lattice {
	t.Helper()
	cfg := clusterBase(7)
	cfg.Resources = cfg.Resources[:1]
	cfg.Ingest = gsbl.IngestConfig{PerSubmissionSeconds: 30, PerReplicateSeconds: 5}
	cfg.Admit = admit.Config{UserRatePerHour: 30, UserBurst: 24, MaxQueueDepth: 3, MaxQueuedSeconds: 400}
	cfg.Durable = t.TempDir()
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// fuzzForm builds a /garli/create form: an e-mail unless it is empty,
// the replicate count and the upload as the data file.
func fuzzForm(t *testing.T, email string, reps int, upload []byte) (string, []byte) {
	t.Helper()
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	fields := map[string]string{"ratematrix": "HKY85", "replicates": strconv.Itoa(reps)}
	if email != "" {
		fields["email"] = email
	}
	for k, v := range fields {
		if err := mw.WriteField(k, v); err != nil {
			t.Fatal(err)
		}
	}
	fw, err := mw.CreateFormFile("datafile", "data")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(upload); err != nil {
		t.Fatal(err)
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	return mw.FormDataContentType(), body.Bytes()
}

// drainDeployment runs the grid on hour boundaries until the door is
// empty and every batch is terminal. A stage batch is made inside the
// event that ends the stage before it, so no workflow is left between
// stages then.
func drainDeployment(t *testing.T, l *Lattice) {
	t.Helper()
	for at := l.Engine.Now().Add(sim.Hour); ; at = at.Add(sim.Hour) {
		l.Engine.RunUntil(at)
		if l.Service.IngestDepth() == 0 && allDone(l, len(l.Service.Batches())) {
			return
		}
		if at > sim.Time(30*sim.Day) {
			t.Fatalf("%d requests queued and %d batches after 30 days, not all done", l.Service.IngestDepth(), len(l.Service.Batches()))
		}
	}
}

// checkPortalLedger holds the drained deployment to what its responses
// said: each 429 takes one shed event of its own window naming its
// submission, every job has one terminal, and the door's offers are
// the portal's batches plus the sheds.
func checkPortalLedger(t *testing.T, l *Lattice, posts []fuzzPost) {
	t.Helper()
	events := journalEvents(l.Obs.Journal)
	taken := make(map[int]bool)
	offered := 0
	for _, p := range posts {
		if !p.garli || (p.code != http.StatusAccepted && p.code != http.StatusTooManyRequests) {
			continue
		}
		offered++
		if p.code != http.StatusTooManyRequests {
			continue
		}
		_, reason, _ := strings.Cut(p.body, "(")
		reason, _, _ = strings.Cut(reason, ")")
		want := fmt.Sprintf("%s: %d replicates for %s via portal; retry after", reason, p.reps, p.email)
		i := p.from
		for ; i < p.to; i++ {
			if ev := events[i]; ev.Stage == obs.StageShed && !taken[i] && strings.HasPrefix(ev.Detail, want) {
				break
			}
		}
		if i == p.to {
			t.Fatalf("429 %q matches no shed event among journal events [%d, %d)", strings.TrimSpace(p.body), p.from, p.to)
		}
		taken[i] = true
	}
	quota, overload := l.Service.Sheds()
	sheds := 0
	for _, ev := range events {
		if ev.Stage == obs.StageShed {
			sheds++
		}
	}
	terminals := l.Obs.Journal.TerminalCounts()
	portal := 0
	for _, id := range l.Service.Batches() {
		b, _ := l.Service.Batch(id)
		if b.Origin == "portal" {
			portal++
		}
		for _, j := range b.Jobs {
			if n := terminals[j.ID]; n != 1 {
				t.Fatalf("batch %s job %s has %d terminal events, want 1", id, j.ID, n)
			}
		}
	}
	if sheds != quota+overload || offered != portal+quota+overload {
		t.Fatalf("%d offered to the door, %d portal batches + %d quota + %d overload sheds (%d shed events)",
			offered, portal, quota, overload, sheds)
	}
}
