package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"linrec/internal/ast"
	"linrec/internal/planner"
)

// diskTwin publishes sys-equivalent state to a fresh data directory and
// boots a second system from it, so every relation the twin serves is a
// lazy disk-backed store.
func diskTwin(t *testing.T, src string) (*System, *System) {
	t.Helper()
	mem, err := Load(src)
	if err != nil {
		t.Fatalf("load:\n%s\n%v", src, err)
	}
	dir := t.TempDir()
	if _, err := LoadOptions(src, Options{Persist: openManager(t, dir)}); err != nil {
		t.Fatalf("persistent load:\n%s\n%v", src, err)
	}
	disk, err := LoadOptions(src, Options{Persist: openManager(t, dir)})
	if err != nil {
		t.Fatalf("boot from disk:\n%s\n%v", src, err)
	}
	return mem, disk
}

// comparePlans runs goal against both backends across plan-forcing and
// worker configurations and requires bit-for-bit identical rows
// everywhere; it returns the auto plan kind the disk backend chose.
func comparePlans(t *testing.T, mem, disk *System, goalSrc, src string) planner.Kind {
	t.Helper()
	ctx := context.Background()
	goal := mustAtom(t, goalSrc)
	memSnap, diskSnap := mem.Snapshot(), disk.Snapshot()

	base, err := mem.Evaluate(ctx, QueryRequest{Goal: goal, Snap: memSnap, Opts: Options{Strategy: planner.ForceSemiNaive}})
	if err != nil {
		t.Fatalf("memory baseline %s:\n%s\n%v", goalSrc, src, err)
	}
	wantRows := base.Rows(mem)

	kind := planner.SemiNaive
	configs := []struct {
		name string
		opts Options
	}{
		{"auto/1", Options{}},
		{"auto/4", Options{Workers: 4}},
		{"seminaive/1", Options{Strategy: planner.ForceSemiNaive}},
		{"decomposed/4", Options{Strategy: planner.ForceDecomposed, Workers: 4}},
	}
	for _, cfg := range configs {
		memRes, err := mem.Evaluate(ctx, QueryRequest{Goal: goal, Snap: memSnap, Opts: cfg.opts})
		if err != nil {
			t.Fatalf("memory %s %s:\n%s\n%v", cfg.name, goalSrc, src, err)
		}
		diskRes, err := disk.Evaluate(ctx, QueryRequest{Goal: goal, Snap: diskSnap, Opts: cfg.opts})
		if err != nil {
			t.Fatalf("disk %s %s:\n%s\n%v", cfg.name, goalSrc, src, err)
		}
		if memRes.Plan.Kind != diskRes.Plan.Kind {
			t.Fatalf("%s %s: plan diverges across backends: memory %v, disk %v\nprogram:\n%s",
				cfg.name, goalSrc, memRes.Plan.Kind, diskRes.Plan.Kind, src)
		}
		if got := memRes.Rows(mem); !reflect.DeepEqual(got, wantRows) {
			t.Fatalf("memory %s %s diverges from baseline under plan %v:\nprogram:\n%s\nwant %v\ngot  %v",
				cfg.name, goalSrc, memRes.Plan.Kind, src, wantRows, got)
		}
		if got := diskRes.Rows(disk); !reflect.DeepEqual(got, wantRows) {
			t.Fatalf("disk %s %s diverges from baseline under plan %v:\nprogram:\n%s\nwant %v\ngot  %v",
				cfg.name, goalSrc, diskRes.Plan.Kind, src, wantRows, got)
		}
		if cfg.name == "auto/1" {
			kind = diskRes.Plan.Kind
		}
	}
	return kind
}

// TestPersistDifferential is the tentpole's proof harness: across ≥150
// generated programs, every query — auto-planned and plan-forced, at
// one and at four workers — must return rows bit-for-bit identical
// whether the system computes over in-memory relations or over a
// snapshot booted from disk segments.
func TestPersistDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(161803))
	const wantPrograms = 150
	plans := map[planner.Kind]int{}
	nonEmpty := 0

	for attempt := 0; attempt < wantPrograms; attempt++ {
		src := genMagicProgram(rng)
		mem, disk := diskTwin(t, src)

		goals := []string{
			"p(X, Y)",
			fmt.Sprintf("p(c%d, Y)", rng.Intn(8)),
			fmt.Sprintf("p(X, c%d)", rng.Intn(8)),
			fmt.Sprintf("p(c%d, c%d)", rng.Intn(8), rng.Intn(8)),
		}
		for _, goalSrc := range goals {
			plans[comparePlans(t, mem, disk, goalSrc, src)]++
		}
		if res, err := mem.Query(mustAtom(t, "p(X, Y)")); err == nil && res.Answer.Len() > 0 {
			nonEmpty++
		}
	}
	t.Logf("plan kinds compared: %v (non-empty closures: %d)", plans, nonEmpty)
	if plans[planner.SemiNaive] == 0 || plans[planner.MagicSeeded] == 0 {
		t.Fatalf("generator did not exercise both semi-naive and magic-seeded plans: %v", plans)
	}
	if nonEmpty < wantPrograms/3 {
		t.Fatalf("only %d/%d programs had non-empty closures; the harness is not exercising evaluation", nonEmpty, wantPrograms)
	}
}

// TestPersistDifferentialDirected covers the plan kinds the random
// generator reaches rarely — decomposed, separable, and semi-naive over a
// uniformly bounded rule — with programs whose auto plans are pinned,
// again comparing both backends.
func TestPersistDifferentialDirected(t *testing.T) {
	cases := []struct {
		name string
		src  string
		goal string
		kind planner.Kind
	}{
		{
			name: "decomposed",
			src: `path(X,Y) :- up(X,Y).
path(X,Y) :- path(X,Z), up(Z,Y).
path(X,Y) :- down(X,Z), path(Z,Y).
up(a,b). up(b,c). up(c,d).
down(b,a). down(c,b).
`,
			goal: "path(X, Y)",
			kind: planner.Decomposed,
		},
		{
			name: "separable",
			src: `path(X,Y) :- up(X,Y).
path(X,Y) :- path(X,Z), up(Z,Y).
path(X,Y) :- down(X,Z), path(Z,Y).
up(a,b). up(b,c). up(c,d).
down(b,a). down(c,b).
`,
			goal: "path(a, Y)",
			kind: planner.Separable,
		},
		{
			name: "bounded",
			src: `p(X,Y) :- seed(X,Y).
p(X,Y) :- p(Y,X), e(X,Y).
seed(a,b). seed(b,c). seed(c,a).
e(a,b). e(b,a). e(b,c). e(c,b).
`,
			goal: "p(X, Y)",
			kind: planner.SemiNaive,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mem, disk := diskTwin(t, tc.src)
			if got := comparePlans(t, mem, disk, tc.goal, tc.src); got != tc.kind {
				t.Fatalf("auto plan = %v, want %v — the directed case no longer pins its plan kind", got, tc.kind)
			}
		})
	}
}

// TestPersistDifferentialStreaming repeats the comparison through the
// streaming path: rows drained from a disk-booted system's stream must
// match the in-memory system's materialized answer.
func TestPersistDifferentialStreaming(t *testing.T) {
	rng := rand.New(rand.NewSource(577215))
	ctx := context.Background()
	for attempt := 0; attempt < 30; attempt++ {
		src := genMagicProgram(rng)
		mem, disk := diskTwin(t, src)
		goalSrc := "p(X, Y)"
		if attempt%2 == 1 {
			goalSrc = fmt.Sprintf("p(c%d, Y)", rng.Intn(8))
		}
		goal := mustAtom(t, goalSrc)

		base, err := mem.Evaluate(ctx, QueryRequest{Goal: goal, Snap: mem.Snapshot(), Opts: Options{}})
		if err != nil {
			t.Fatalf("memory %s:\n%s\n%v", goalSrc, src, err)
		}
		st, err := disk.Stream(ctx, QueryRequest{Goal: goal, Snap: disk.Snapshot(), Opts: Options{}})
		if err != nil {
			t.Fatalf("disk stream %s:\n%s\n%v", goalSrc, src, err)
		}
		got := drainStream(t, st)
		if !reflect.DeepEqual(got, base.Rows(mem)) {
			t.Fatalf("streamed disk rows diverge for %s:\nprogram:\n%s\nwant %v\ngot  %v",
				goalSrc, src, base.Rows(mem), got)
		}
	}
}

// TestPersistDifferentialAfterSwaps checks the comparison holds across
// mutation history: both backends apply the same adds and retractions,
// then a restart of the disk side must still agree on every goal.
func TestPersistDifferentialAfterSwaps(t *testing.T) {
	rng := rand.New(rand.NewSource(141421))
	for attempt := 0; attempt < 20; attempt++ {
		src := genMagicProgram(rng)
		mem, err := Load(src)
		if err != nil {
			t.Fatalf("load:\n%s\n%v", src, err)
		}
		dir := t.TempDir()
		disk := func() *System {
			s, err := LoadOptions(src, Options{Persist: openManager(t, dir)})
			if err != nil {
				t.Fatalf("persistent load:\n%s\n%v", src, err)
			}
			return s
		}()

		// Apply the identical batch to both systems.
		batchAdd := []string{
			fmt.Sprintf("e0(c%d,c%d)", rng.Intn(8), rng.Intn(8)),
			fmt.Sprintf("b0(c%d,c%d)", rng.Intn(8), rng.Intn(8)),
		}
		batchDel := []string{fmt.Sprintf("e0(c%d,c%d)", rng.Intn(8), rng.Intn(8))}
		for _, s := range []*System{mem, disk} {
			for _, fs := range batchAdd {
				if _, _, err := s.AddFacts([]ast.Atom{mustAtom(t, fs)}); err != nil {
					t.Fatalf("add %s:\n%s\n%v", fs, src, err)
				}
			}
			for _, fs := range batchDel {
				if _, _, err := s.RemoveFacts([]ast.Atom{mustAtom(t, fs)}); err != nil {
					t.Fatalf("remove %s:\n%s\n%v", fs, src, err)
				}
			}
		}

		// Restart the disk side from the manifest and compare everything.
		rebooted, err := LoadOptions(src, Options{Persist: openManager(t, dir)})
		if err != nil {
			t.Fatalf("reboot:\n%s\n%v", src, err)
		}
		if got, want := rebooted.Snapshot().Version, disk.Snapshot().Version; got != want {
			t.Fatalf("rebooted at version %d, pre-restart served %d", got, want)
		}
		for _, goalSrc := range []string{"p(X, Y)", fmt.Sprintf("p(c%d, Y)", rng.Intn(8))} {
			comparePlans(t, mem, rebooted, goalSrc, src)
		}
	}
}
