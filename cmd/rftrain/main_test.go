package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestPredictJobRefusedBeforeTraining: a -predict job the door would
// refuse is refused before Figure 2 is printed or a forest is trained.
func TestPredictJobRefusedBeforeTraining(t *testing.T) {
	for _, c := range []struct {
		args []string
		err  string
	}{
		{[]string{"-fig2", "-predict", "-datatype", "bogus", "-trees", "100"}, `unknown data type "bogus"`},
		{[]string{"-fig2", "-predict", "-taxa", "2", "-trees", "100"}, "NumTaxa = 2"},
	} {
		var out bytes.Buffer
		err := run(c.args, &out)
		if err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("run(%q) = %v, want an error naming %s", c.args, err, c.err)
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) printed before refusing:\n%s", c.args, out.String())
		}
	}
}

// TestPredictLines compares a prediction with testdata cut from the
// program as it was when its job flags were -dt, -model and -ratehet.
func TestPredictLines(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-predict", "-trees", "300", "-datatype", "aminoacid", "-ratematrix", "poisson",
		"-ratehetmodel", "none", "-searchreps", "2", "-taxa", "30", "-seqlen", "900"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/predict.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("run(%q) printed\n%s\nwant\n%s", args, out.Bytes(), want)
	}
}
