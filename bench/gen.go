package main

import (
	"hash/fnv"
	"io"
	"math"
	"sort"
	"strconv"

	"linrec/internal/ast"
)

// rng is splitmix64: the benchmark owns its generator so that a seed means
// the same inputs on every Go release.
type rng struct{ s uint64 }

func newRNG(seed int64, stream string) *rng {
	h := fnv.New64a()
	io.WriteString(h, stream)
	return &rng{s: uint64(seed)*0x9E3779B97F4A7C15 ^ h.Sum64()}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf samples ranks 0..n-1 with P(rank k) ∝ 1/(k+1)^s from a cumulative
// table.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{cdf}
}

func (z *zipf) sample(r *rng) int {
	k := sort.SearchFloat64s(z.cdf, r.float())
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

// shapeSeed generates every graph's shape and every goal's place in it.
// The shapes are the same on every run: a random tree's closure size moves
// by ±6% from draw to draw, which would be read as a change in the system.
// What the workload seed changes is everything the system sees that does
// not change the amount of work — node names, the order of the facts, the
// order of the requests — so two seeds give different inputs of equal cost.
const shapeSeed = 1

// perm returns a seeded permutation of 0..n-1: the names of the nodes.
func perm(r *rng, n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// named maps shape-space pairs through the node names and shuffles them.
func named(r *rng, lab []int32, ps []pair) []pair {
	out := make([]pair, len(ps))
	for i, t := range ps {
		out[i] = pair{lab[t[0]], lab[t[1]]}
	}
	for i := len(out) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// pair is one binary tuple over node ids; node i is the constant "n<i>".
type pair [2]int32

func node(i int32) string { return "n" + strconv.Itoa(int(i)) }

func factAtom(pred string, p pair) ast.Atom {
	return ast.NewAtom(pred, ast.C(node(p[0])), ast.C(node(p[1])))
}

func factText(pred string, p pair) string {
	return pred + "(" + node(p[0]) + "," + node(p[1]) + ")."
}

// randomTree draws a uniform random recursive tree: node i's parent is
// uniform in [0, i).  parent[0] is -1.  Expected depth is O(log n), so the
// transitive closure stays near n·ln n tuples.
func randomTree(r *rng, n int) []int32 {
	parent := make([]int32, n)
	parent[0] = -1
	for i := 1; i < n; i++ {
		parent[i] = int32(r.intn(i))
	}
	return parent
}

// treeEdges lists parent→child edges.
func treeEdges(parent []int32) []pair {
	out := make([]pair, 0, len(parent))
	for c, p := range parent {
		if p >= 0 {
			out = append(out, pair{p, int32(c)})
		}
	}
	return out
}

// layeredDAG draws layers×width nodes, each with outDeg random edges into
// the next layer (repeats allowed; the relation is a set).  Most
// derivations of its closure are duplicates.
func layeredDAG(r *rng, layers, width, outDeg int) []pair {
	var out []pair
	for l := 0; l < layers-1; l++ {
		for i := 0; i < width; i++ {
			for d := 0; d < outDeg; d++ {
				out = append(out, pair{int32(l*width + i), int32((l+1)*width + r.intn(width))})
			}
		}
	}
	return out
}

// closureInput is one closure_batch program: rules, extensional facts by
// predicate, the full-closure goal and what the answer must be.
type closureInput struct {
	Name  string
	Rules string
	Goal  string
	EDB   map[string][]pair
	Want  answerSum
}

const (
	tcRules = "path(X,Y) :- edge(X,Y).\npath(X,Y) :- path(X,Z), edge(Z,Y).\n"
	// Same generation with a three-atom body: the join order is the cost.
	sgRules = "sg(X,Y) :- eq(X,Y).\nsg(X,Y) :- par(X,XP), sg(XP,YP), par(Y,YP).\n"
	// One right-appending and one left-prepending rule commute, so the
	// planner decomposes (B+C)* into B*C*.
	gridRules = "p(X,Y) :- cell(X,Y).\np(X,Y) :- p(X,Z), right(Z,Y).\np(X,Y) :- down(X,Z), p(Z,Y).\n"
)

// closureSizes scales the four closure programs.
type closureSizes struct {
	treeNodes                   int
	dagLayers, dagWidth, dagDeg int
	sgNodes                     int
	gridSide                    int
}

var (
	// Full sizes are about half the ISSUE's: a cycle of the eight closures
	// takes ~1.5 s here, so a 20 s run has ~14 samples per closure.
	closureFull  = closureSizes{treeNodes: 40000, dagLayers: 30, dagWidth: 40, dagDeg: 4, sgNodes: 2500, gridSide: 44}
	closureQuick = closureSizes{treeNodes: 3000, dagLayers: 10, dagWidth: 12, dagDeg: 3, sgNodes: 300, gridSide: 12}
	// closureTiny is what the naive evaluator can close in milliseconds.
	closureTiny = closureSizes{treeNodes: 120, dagLayers: 6, dagWidth: 6, dagDeg: 2, sgNodes: 40, gridSide: 5}
)

// genClosure generates the four closure programs for a seed.
func genClosure(seed int64, sz closureSizes) []closureInput {
	tree := randomTree(newRNG(shapeSeed, "tc_tree"), sz.treeNodes)
	dag := layeredDAG(newRNG(shapeSeed, "tc_dag"), sz.dagLayers, sz.dagWidth, sz.dagDeg)
	sgTree := randomTree(newRNG(shapeSeed, "sg_tree"), sz.sgNodes)
	var par, eq []pair
	for c, p := range sgTree {
		eq = append(eq, pair{int32(c), int32(c)})
		if p >= 0 {
			par = append(par, pair{int32(c), p})
		}
	}
	g := sz.gridSide
	var right, down, cell []pair
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			v := int32(i*g + j)
			cell = append(cell, pair{v, v})
			if j+1 < g {
				right = append(right, pair{v, v + 1})
			}
			if i+1 < g {
				down = append(down, pair{v, v + int32(g)})
			}
		}
	}
	build := func(name, rules, goal string, nodes int, want func(lab []int32) answerSum, edb map[string][]pair) closureInput {
		lab := perm(newRNG(seed, name+"_names"), nodes)
		order := newRNG(seed, name+"_order")
		in := closureInput{Name: name, Rules: rules, Goal: goal, EDB: map[string][]pair{}, Want: want(lab)}
		preds := make([]string, 0, len(edb))
		for p := range edb {
			preds = append(preds, p)
		}
		sort.Strings(preds)
		for _, p := range preds {
			in.EDB[p] = named(order, lab, edb[p])
		}
		return in
	}
	return []closureInput{
		build("tc_tree", tcRules, "path(X,Y)", sz.treeNodes, func(lab []int32) answerSum { return treeClosure(tree, lab) },
			map[string][]pair{"edge": treeEdges(tree)}),
		build("tc_dag", tcRules, "path(X,Y)", sz.dagLayers*sz.dagWidth, func(lab []int32) answerSum { return dagClosure(dag, lab) },
			map[string][]pair{"edge": dag}),
		build("sg_tree", sgRules, "sg(X,Y)", sz.sgNodes, func(lab []int32) answerSum { return sameGeneration(sgTree, lab) },
			map[string][]pair{"par": par, "eq": eq}),
		build("comm_grid", gridRules, "p(X,Y)", g*g, func(lab []int32) answerSum { return gridClosure(g, lab) },
			map[string][]pair{"cell": cell, "right": right, "down": down}),
	}
}

// facts flattens an EDB into atoms in a fixed order.
func (c closureInput) facts() []ast.Atom {
	preds := make([]string, 0, len(c.EDB))
	for p := range c.EDB {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	var out []ast.Atom
	for _, p := range preds {
		for _, t := range c.EDB[p] {
			out = append(out, factAtom(p, t))
		}
	}
	return out
}

// serveRules defines path as the commuting three-rule TC (bound goals take
// the separable plan) and reach as the one-rule TC (bound goals take the
// magic-seeded plan) over one edge relation.
const serveRules = "path(X,Y) :- edge(X,Y).\npath(X,Y) :- path(X,U), edge(U,Y).\npath(X,Y) :- edge(X,U), path(U,Y).\n" +
	"reach(X,Y) :- edge(X,Y).\nreach(X,Y) :- reach(X,U), edge(U,Y).\n"

// request kinds of the serve workloads.
const (
	kindSelect = iota // bound selection, buffered JSON
	kindPoint         // reach(a,b)
	kindLimit         // bound selection with "limit":10
	kindStream        // NDJSON stream of a large answer
)

// request is one generated read.  Pred is "path" or "reach"; when Desc the
// goal binds the first argument (descendants of A), else the second
// (ancestors of A); a point goal binds both to A and B.
type request struct {
	Kind int
	Pred string
	Desc bool
	A, B int32
}

func (q request) goal() string {
	switch {
	case q.Kind == kindPoint:
		return q.Pred + "(" + node(q.A) + "," + node(q.B) + ")"
	case q.Desc:
		return q.Pred + "(" + node(q.A) + ",Y)"
	default:
		return q.Pred + "(X," + node(q.A) + ")"
	}
}

// body renders the POST /v1/query body.
func (q request) body() string {
	if q.Kind == kindLimit {
		return `{"query":"` + q.goal() + `","limit":10}`
	}
	return `{"query":"` + q.goal() + `"}`
}

// genGoal draws one request of the given kind over the given nodes.  The
// caller rebinds a stream goal to a node with a large subtree.
func genGoal(r *rng, kind int, nodes []int32) request {
	q := request{Kind: kind, Pred: "path", Desc: true, A: nodes[r.intn(len(nodes))]}
	if r.intn(2) == 0 {
		q.Pred = "reach"
	}
	switch kind {
	case kindPoint:
		// path(a,b) runs the n-ary separable plan over the whole closure
		// (hundreds of ms); points go to reach, which answers from a
		// two-column magic frontier.
		q.Pred, q.B = "reach", nodes[r.intn(len(nodes))]
	case kindStream:
	default:
		q.Desc = r.intn(2) == 0
	}
	return q
}

// kindOf maps a draw in [0,100) to the serve_hot mix: 70% selections, 10%
// points, 10% limits, 10% streams.
func kindOf(draw int, streams bool) int {
	switch {
	case draw < 70:
		return kindSelect
	case draw < 80:
		return kindPoint
	case draw < 90:
		return kindLimit
	case streams:
		return kindStream
	}
	return kindSelect
}

// write is one generated fact update of serve_churn: a batch of edges to
// add (POST) or retract (DELETE).
type write struct {
	Delete bool
	Edges  []pair
}

func (w write) facts() string {
	s := ""
	for _, e := range w.Edges {
		s += factText("edge", e) + " "
	}
	return s
}

func (w write) body() string { return `{"facts":"` + w.facts() + `"}` }

// genWrites generates n updates over a tree whose nodes are named lab:
// four POSTs of 8 fresh leaf edges (new node ids from len(lab) up), then
// one DELETE of 4 edges added earlier and not yet retracted.  The original
// tree is never cut, so read answers only ever grow and shrink at the
// fringe.
func genWrites(r *rng, n int, lab []int32) []write {
	next := int32(len(lab))
	var live []pair
	out := make([]write, 0, n)
	for i := 0; i < n; i++ {
		if i%5 == 4 {
			w := write{Delete: true}
			for k := 0; k < 4; k++ {
				j := r.intn(len(live))
				w.Edges = append(w.Edges, live[j])
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			out = append(out, w)
			continue
		}
		w := write{}
		for k := 0; k < 8; k++ {
			e := pair{lab[r.intn(len(lab))], next}
			next++
			w.Edges = append(w.Edges, e)
			live = append(live, e)
		}
		out = append(out, w)
	}
	return out
}
