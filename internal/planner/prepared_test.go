package planner

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"linrec/internal/parser"
	"linrec/internal/rel"
	"linrec/internal/separable"
)

// genLinearProgram returns a random linear recursive program over p of
// the given arity: one seed exit rule and one to three recursive rules,
// each passing some columns through, stepping others across an e or f
// atom in either direction, and sometimes swapping two columns first —
// the shapes behind every plan kind.
func genLinearProgram(rng *rand.Rand, arity int) string {
	vars := []string{"A", "B", "C"}[:arity]
	head := "p(" + strings.Join(vars, ",") + ")"
	src := fmt.Sprintf("%s :- seed(%s).\n", head, strings.Join(vars, ","))
	for r := 1 + rng.Intn(3); r > 0; r-- {
		rec := slices.Clone(vars)
		if rng.Intn(5) == 0 {
			i, j := rng.Intn(arity), rng.Intn(arity)
			rec[i], rec[j] = rec[j], rec[i]
		}
		var body []string
		for c := range vars {
			if rng.Intn(2) == 0 {
				continue
			}
			u, edb := fmt.Sprintf("U%d", c), []string{"e", "f"}[rng.Intn(2)]
			if rng.Intn(2) == 0 {
				body = append(body, fmt.Sprintf("%s(%s,%s)", edb, rec[c], u))
			} else {
				body = append(body, fmt.Sprintf("%s(%s,%s)", edb, u, rec[c]))
			}
			rec[c] = u
		}
		body = append(body, "p("+strings.Join(rec, ",")+")")
		src += fmt.Sprintf("%s :- %s.\n", head, strings.Join(body, ", "))
	}
	return src
}

// planDiff names the first field on which got differs from want, the
// selections sels' residual included, or returns "".
func planDiff(got, want *Plan, sels []separable.Selection) string {
	for _, f := range []struct {
		name string
		g, w any
	}{
		{"Kind", got.Kind, want.Kind},
		{"Groups", got.Groups, want.Groups},
		{"Sep", got.Sep, want.Sep},
		{"Magic", got.Magic, want.Magic},
		{"Workers", got.Workers, want.Workers},
		{"Why", got.Why, want.Why},
		{"Residual", got.Residual(sels), want.Residual(sels)},
	} {
		if !reflect.DeepEqual(f.g, f.w) {
			return fmt.Sprintf("%s: got %+v, want %+v", f.name, f.g, f.w)
		}
	}
	return ""
}

// TestPreparedPlanMatchesFreshChoice: ChooseMulti's memoized, bound plan
// equals a fresh choice field by field — kind, groups, separable steps
// with their frontiers, magic mode, spec and selections, pool, Why and
// residual — on random programs, for every bound-column subset under
// every strategy and pool, with two different constant bindings of each.
// Every plan returned is checked again after all later requests.
func TestPreparedPlanMatchesFreshChoice(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	type request struct {
		plan, fresh *Plan
		sels        []separable.Selection
		what        string
	}
	var issued []request
	kinds := map[Kind]int{}
	for trial := 0; trial < 60; trial++ {
		src := genLinearProgram(rng, 2+rng.Intn(2))
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		a, err := Analyze(prog, "p")
		if err != nil {
			continue
		}
		arity := a.Ops[0].Arity()
		for mask := 0; mask < 1<<arity; mask++ {
			for _, strategy := range []Strategy{Auto, ForceSemiNaive, ForceDecomposed} {
				for _, workers := range []int{0, 1, 2, 4} {
					for binding := 0; binding < 2; binding++ {
						var sels []separable.Selection
						for c := 0; c < arity; c++ {
							if mask&(1<<c) != 0 {
								sels = append(sels, separable.Selection{Col: c, Value: rel.Value(100*binding + c + 1)})
							}
						}
						opts := Options{Workers: workers, Strategy: strategy}
						plan, fresh := a.ChooseMulti(sels, opts), a.choose(sels, opts)
						what := fmt.Sprintf("%s%v %v", src, sels, opts)
						if d := planDiff(plan, fresh, sels); d != "" {
							t.Fatalf("%s: memoized plan differs from a fresh choice: %s", what, d)
						}
						kinds[plan.Kind]++
						issued = append(issued, request{plan, fresh, sels, what})
					}
				}
			}
		}
	}
	for _, r := range issued {
		if d := planDiff(r.plan, r.fresh, r.sels); d != "" {
			t.Fatalf("%s: plan changed after later requests: %s", r.what, d)
		}
	}
	t.Logf("plan kinds over %d requests: %v", len(issued), kinds)
	for k := SemiNaive; k <= MagicSeeded; k++ {
		if kinds[k] == 0 {
			t.Fatalf("no %v plan generated; the property is not exercised (%v)", k, kinds)
		}
	}
}

// TestPlanMemoConcurrentFirstRequests: concurrent first requests of one
// adornment fill one memo entry, and each request's plan carries its own
// constants.
func TestPlanMemoConcurrentFirstRequests(t *testing.T) {
	a := analyzeSrc(t, `p(X,Y) :- b(X,Y).
		p(X,Y) :- e(X,Z), p(Z,Y).`)
	const n = 8
	plans := make([]*Plan, n)
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			plans[i] = a.ChooseMulti([]separable.Selection{{Col: 0, Value: rel.Value(i)}}, Options{Workers: 2})
		}(i)
	}
	wg.Wait()
	a.plansMu.Lock()
	entries := len(a.plans)
	a.plansMu.Unlock()
	if entries != 1 {
		t.Fatalf("%d memo entries after %d requests of one adornment, want 1", entries, n)
	}
	for i, p := range plans {
		if p.Kind != MagicSeeded || p.Magic.Sels[0].Value != rel.Value(i) || p.Magic.BoundTuple()[0] != rel.Value(i) {
			t.Fatalf("request %d: plan %v binds %v, want its own constant %d", i, p.Kind, p.Magic.Sels, i)
		}
		if p.Magic.Spec.Step[0] != plans[0].Magic.Spec.Step[0] {
			t.Fatalf("request %d: frontier spec not shared with request 0", i)
		}
	}
}
