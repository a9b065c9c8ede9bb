package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestAllExperimentsRun: every registered experiment completes without
// error and produces output.  The experiments carry their own internal
// assertions (they return errors when a paper claim fails to reproduce), so
// this is a full end-to-end reproduction check.
func TestAllExperimentsRun(t *testing.T) {
	for _, ex := range All() {
		ex := ex
		t.Run(ex.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := ex.Run(&buf); err != nil {
				t.Fatalf("%s (%s): %v\noutput so far:\n%s", ex.ID, ex.Title, err, buf.String())
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", ex.ID)
			}
		})
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("f3"); !ok {
		t.Fatalf("case-insensitive lookup failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatalf("bogus id found")
	}
}

func TestF1MatchesPaperClassification(t *testing.T) {
	var buf bytes.Buffer
	if err := F1(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Z  [free 1-persistent]",
		"W  [link 1-persistent]",
		"Y  [link 1-persistent]",
		"U  [free 2-persistent]",
		"V  [free 2-persistent]",
		"X  [general]",
		"X --q--> Y",
		"W --r--> W",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("F1 missing %q:\n%s", want, out)
		}
	}
}

func TestF2ListsThreeBridges(t *testing.T) {
	var buf bytes.Buffer
	if err := F2(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "3 augmented bridges") {
		t.Fatalf("F2 should find 3 bridges:\n%s", buf.String())
	}
}

func TestF5ReportsTheGap(t *testing.T) {
	var buf bytes.Buffer
	if err := F5(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "definition-based test: commute") {
		t.Fatalf("F5: definition should prove commutativity:\n%s", out)
	}
	if !strings.Contains(out, "not applicable") && !strings.Contains(out, "unknown") {
		t.Fatalf("F5: syntactic test should not certify Example 5.4:\n%s", out)
	}
}

func TestT31RunChain(t *testing.T) {
	r, err := T31Run("chain", 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.DecDups > r.MonoDups {
		t.Fatalf("Theorem 3.1 violated: %+v", r)
	}
	if r.Tuples == 0 {
		t.Fatalf("empty closure")
	}
	if _, err := T31Run("bogus", 8, 1); err == nil {
		t.Fatalf("unknown workload should error")
	}
}

func TestA41RunAgrees(t *testing.T) {
	r, err := A41Run(48, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !r.ResultsAgree {
		t.Fatalf("separable evaluation diverged: %+v", r)
	}
	if !r.UsedMagic {
		t.Fatalf("magic phase should apply to the ancestor shape")
	}
	if r.SepDerivs >= r.BaseDerivs {
		t.Fatalf("separable plan should save derivations: %+v", r)
	}
}

// TestA41TablePinned pins the deterministic columns of the A41 paper table
// (answer, base derivs, sep derivs at the table's sizes and seed), so a
// change to the separable plan or the kernel cannot move them silently.
func TestA41TablePinned(t *testing.T) {
	for _, want := range []A41Result{
		{N: 32, Answer: 32, BaseDerivs: 2448, SepDerivs: 58},
		{N: 64, Answer: 64, BaseDerivs: 10789, SepDerivs: 64},
		{N: 128, Answer: 128, BaseDerivs: 45038, SepDerivs: 228},
		{N: 256, Answer: 256, BaseDerivs: 186468, SepDerivs: 459},
	} {
		r, err := A41Run(want.N, 23)
		if err != nil {
			t.Fatal(err)
		}
		if r.Answer != want.Answer || r.BaseDerivs != want.BaseDerivs || r.SepDerivs != want.SepDerivs || !r.UsedMagic || !r.ResultsAgree {
			t.Errorf("n=%d: answer %d, base derivs %d, sep derivs %d (context iteration %v, agree %v); want %d/%d/%d",
				want.N, r.Answer, r.BaseDerivs, r.SepDerivs, r.UsedMagic, r.ResultsAgree, want.Answer, want.BaseDerivs, want.SepDerivs)
		}
	}
}

func TestT53RunAgrees(t *testing.T) {
	r, err := T53Run(6)
	if err != nil {
		t.Fatal(err)
	}
	if r.Syntactic <= 0 || r.Definition <= 0 {
		t.Fatalf("timings missing: %+v", r)
	}
}

func TestT42RunAgrees(t *testing.T) {
	r, err := T42Run(40, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Agree {
		t.Fatalf("optimized evaluation diverged: %+v", r)
	}
}
