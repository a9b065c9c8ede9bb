package linrec

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"linrec/internal/planner"
)

// loadTestdata reads and loads one shipped sample program.
func loadTestdata(t *testing.T, name string) *System {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	sys, err := Load(string(src), Options{})
	if err != nil {
		t.Fatalf("load %s: %v", name, err)
	}
	return sys
}

// TestTestdataPrograms answers every query of every shipped program and
// checks expected row counts and plan kinds.
func TestTestdataPrograms(t *testing.T) {
	cases := []struct {
		file      string
		pred      string
		wantPlans []planner.Kind // per query, in order
		wantRows  []int
	}{
		{
			file: "tc.dl", pred: "path",
			// path(a,Y): selection col 0 → separable; path(X,e): selection
			// col 1 → separable with flipped roles; the ground query's
			// full adornment binds in context mode → magic frontier.
			wantPlans: []planner.Kind{planner.Separable, planner.Separable, planner.MagicSeeded},
			// chain a..e: from a everything later: b,c,d,e = 4 rows;
			// into e from a,b,c,d plus e itself via down(e,d),up(d,e) = 5;
			// path(b,d) = 1 row.
			wantRows: []int{4, 5, 1},
		},
		{
			file: "marketbasket.dl", pred: "buys",
			// single recursive rule: no pairwise decomposition and no
			// separable partner, but both bound queries magic-seed — the
			// closure is restricted to bindings reachable from the
			// constant instead of closing all of buys and filtering.
			wantPlans: []planner.Kind{planner.MagicSeeded, planner.MagicSeeded},
			// bob buys: trusts nothing directly; via cho: figs (cheap);
			// via dee: salt is not cheap; via ann: tea (cheap) = 2 rows.
			// buys(X,tea): ann (trusts), dee→ann, cho→dee, bob→cho = 4.
			wantRows: []int{2, 4},
		},
		{
			file: "partial.dl", pred: "p",
			wantPlans: []planner.Kind{planner.Decomposed},
			wantRows:  []int{-1}, // count asserted against flat plan below
		},
		{
			file: "samegen.dl", pred: "sg",
			// bound same-generation query: magic-seeded restricted closure.
			wantPlans: []planner.Kind{planner.MagicSeeded},
			// dee's generation: dee, eli (siblings), fay, gus (cousins).
			wantRows: []int{4},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.file, func(t *testing.T) {
			sys := loadTestdata(t, tc.file)
			results, err := sys.Run()
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if len(results) != len(tc.wantPlans) {
				t.Fatalf("results = %d, want %d", len(results), len(tc.wantPlans))
			}
			for i, r := range results {
				if r.Plan.Kind != tc.wantPlans[i] {
					t.Errorf("query %d plan = %v (%s), want %v", i+1, r.Plan.Kind, r.Plan.Why, tc.wantPlans[i])
				}
				if tc.wantRows[i] >= 0 && r.Answer.Len() != tc.wantRows[i] {
					t.Errorf("query %d rows = %d, want %d: %v", i+1, r.Answer.Len(), tc.wantRows[i], r.Rows(sys))
				}
			}
		})
	}
}

// TestPartialProgramPlansAgree: the grouped plan on partial.dl returns the
// same relation as the flat fallback.
func TestPartialProgramPlansAgree(t *testing.T) {
	sys := loadTestdata(t, "partial.dl")
	a, err := sys.Analyze("p")
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	grouped := a.ChooseMulti(nil, planner.Options{})
	if grouped.Kind != planner.Decomposed || len(grouped.Groups) != 2 {
		t.Fatalf("plan = %+v, want 2-group decomposition (%s)", grouped, grouped.Why)
	}
	g, err := executePlan(sys, a, grouped)
	if err != nil {
		t.Fatalf("execute grouped: %v", err)
	}
	f, err := executePlan(sys, a, &planner.Plan{Kind: planner.SemiNaive})
	if err != nil {
		t.Fatalf("execute flat: %v", err)
	}
	if !g.Answer.Equal(f.Answer) {
		t.Fatalf("plans disagree: %d vs %d", g.Answer.Len(), f.Answer.Len())
	}
	if f.Answer.Len() == 0 {
		t.Fatalf("empty answer")
	}
}

// TestMarketbasketRedundancyVisible: the analysis of the shipped program
// reports cheap as recursively redundant.
func TestMarketbasketRedundancyVisible(t *testing.T) {
	sys := loadTestdata(t, "marketbasket.dl")
	rep, err := sys.Report()
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	if !strings.Contains(rep, "recursively redundant: cheap") {
		t.Fatalf("report missing redundancy:\n%s", rep)
	}
}

// TestAnalysisGolden: the analysis report of every shipped program is
// byte-identical to testdata/golden/<name>.analysis — recorded before
// redundancy findings became lazy, so computing them on first use
// changed no report.
func TestAnalysisGolden(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.dl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	for _, f := range files {
		name := strings.TrimSuffix(filepath.Base(f), ".dl")
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "golden", name+".analysis"))
			if err != nil {
				t.Fatal(err)
			}
			got, err := loadTestdata(t, filepath.Base(f)).Report()
			if err != nil {
				t.Fatalf("Report: %v", err)
			}
			if got != string(want) {
				t.Fatalf("analysis report changed:\n--- got\n%s--- want\n%s", got, want)
			}
		})
	}
}

// executePlan runs plan over the seed of sys's database.
func executePlan(sys *System, a *planner.Analysis, plan *planner.Plan) (*planner.Result, error) {
	q, err := a.Seed(sys.Engine, sys.DB())
	if err != nil {
		return nil, err
	}
	return a.ExecuteSeeded(context.Background(), sys.Engine, sys.DB(), plan, nil, planner.Options{}, q)
}
