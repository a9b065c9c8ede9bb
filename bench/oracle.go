package main

import (
	"linrec/internal/ast"
)

// answerSum identifies a set of binary tuples without holding it: the
// count and an order-independent checksum (the wrapping sum of a hash per
// tuple).  Every answer the benchmark checks — an engine relation, a
// server response body, an oracle's enumeration — is reduced to one.
type answerSum struct {
	N   int
	Sum uint64
}

func pairHash(a, b int32) uint64 {
	z := uint64(uint32(a))<<32 | uint64(uint32(b))
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (s *answerSum) add(a, b int32) {
	s.N++
	s.Sum += pairHash(a, b)
}

// The oracles below compute what each closure_batch answer must be from
// the graph alone; they share nothing with the engine and run at full size.
// Each works on the shape and reports pairs under the node names lab.

// treeClosure: path(a,v) for every proper ancestor a of v.
func treeClosure(parent, lab []int32) answerSum {
	var s answerSum
	for v := range parent {
		for a := parent[v]; a >= 0; a = parent[a] {
			s.add(lab[a], lab[v])
		}
	}
	return s
}

// dagClosure: reachability over a DAG whose edges all go from a lower to
// a higher node id, by bitset union in descending id order.
func dagClosure(edges []pair, lab []int32) answerSum {
	nodes := len(lab)
	words := (nodes + 63) / 64
	reach := make([][]uint64, nodes)
	succ := make([][]int32, nodes)
	for _, e := range edges {
		succ[e[0]] = append(succ[e[0]], e[1])
	}
	var s answerSum
	for v := nodes - 1; v >= 0; v-- {
		set := make([]uint64, words)
		for _, w := range succ[v] {
			set[w/64] |= 1 << (uint(w) % 64)
			for i, x := range reach[w] {
				set[i] |= x
			}
		}
		reach[v] = set
		for w := 0; w < nodes; w++ {
			if set[w/64]&(1<<(uint(w)%64)) != 0 {
				s.add(lab[v], lab[w])
			}
		}
	}
	return s
}

// sameGeneration: in a single-rooted tree two nodes share an ancestor at
// equal distance exactly when they have equal depth.
func sameGeneration(parent, lab []int32) answerSum {
	depth := make([]int, len(parent))
	byDepth := map[int][]int32{}
	for v, p := range parent {
		if p >= 0 {
			depth[v] = depth[p] + 1 // parents precede children
		}
		byDepth[depth[v]] = append(byDepth[depth[v]], int32(v))
	}
	var s answerSum
	for _, level := range byDepth {
		for _, x := range level {
			for _, y := range level {
				s.add(lab[x], lab[y])
			}
		}
	}
	return s
}

// gridClosure: cell b is reached from cell a by down moves then right
// moves exactly when it is weakly below and to the right.
func gridClosure(g int, lab []int32) answerSum {
	var s answerSum
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			for k := i; k < g; k++ {
				for l := j; l < g; l++ {
					s.add(lab[i*g+j], lab[k*g+l])
				}
			}
		}
	}
	return s
}

// forest is the oracle for the serve workloads: the edge relation as
// parent pointers and child lists, updated as writes are acknowledged.
// Both served predicates are the transitive closure of edge.
type forest struct {
	parent   map[int32]int32
	children map[int32][]int32
	// memo holds answers already enumerated for the current edges: a hot
	// pool goal is checked tens of thousands of times per run.
	memo map[request]answerSum
}

func newForest(edges []pair) *forest {
	f := &forest{parent: map[int32]int32{}, children: map[int32][]int32{}}
	for _, e := range edges {
		f.add(e)
	}
	return f
}

func (f *forest) add(e pair) {
	f.memo = nil
	f.parent[e[1]] = e[0]
	f.children[e[0]] = append(f.children[e[0]], e[1])
}

func (f *forest) remove(e pair) {
	f.memo = nil
	delete(f.parent, e[1])
	cs := f.children[e[0]]
	for i, c := range cs {
		if c == e[1] {
			cs[i] = cs[len(cs)-1]
			f.children[e[0]] = cs[:len(cs)-1]
			break
		}
	}
}

// expect returns the full answer of q over the current edges.
func (f *forest) expect(q request) answerSum {
	if q.Kind != kindPoint {
		q.Kind = kindSelect // a limit or a stream has its selection's full answer
	}
	if s, ok := f.memo[q]; ok {
		return s
	}
	var s answerSum
	switch {
	case q.Kind == kindPoint:
		for a, ok := f.parent[q.B]; ok; a, ok = f.parent[a] {
			if a == q.A {
				s.add(q.A, q.B)
			}
		}
	case q.Desc:
		stack := append([]int32(nil), f.children[q.A]...)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = append(stack[:len(stack)-1], f.children[v]...)
			s.add(q.A, v)
		}
	default:
		for a, ok := f.parent[q.A]; ok; a, ok = f.parent[a] {
			s.add(a, q.A)
		}
	}
	if f.memo == nil {
		f.memo = map[request]answerSum{}
	}
	f.memo[q] = s
	return s
}

// contains reports whether (a,b) is in the answer of q: a limited
// response may return any rows of the full answer.
func (f *forest) contains(q request, a, b int32) bool {
	if q.Desc && a != q.A || !q.Desc && q.Kind != kindPoint && b != q.A {
		return false
	}
	for x, ok := f.parent[b]; ok; x, ok = f.parent[x] {
		if x == a {
			return true
		}
	}
	return false
}

// naiveEval is the reference evaluator: naive bottom-up iteration of
// every rule to a fixpoint, nested-loop joins, no indexes, no deltas.  It
// shares no code with internal/eval and only handles what the benchmark's
// programs use (binary predicates, variables only), at sizes where
// quadratic work is milliseconds.
func naiveEval(rules []ast.Rule, edb map[string][]pair) map[string]map[pair]bool {
	db := map[string]map[pair]bool{}
	for p, ts := range edb {
		db[p] = map[pair]bool{}
		for _, t := range ts {
			db[p][t] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, r := range rules {
			var out []pair
			var join func(i int, env map[string]int32)
			join = func(i int, env map[string]int32) {
				if i == len(r.Body) {
					out = append(out, pair{env[r.Head.Args[0].Name], env[r.Head.Args[1].Name]})
					return
				}
				x, y := r.Body[i].Args[0].Name, r.Body[i].Args[1].Name
				for t := range db[r.Body[i].Pred] {
					vx, okx := env[x]
					vy, oky := env[y]
					if okx && vx != t[0] || oky && vy != t[1] || x == y && t[0] != t[1] {
						continue
					}
					next := map[string]int32{x: t[0], y: t[1]}
					for k, v := range env {
						next[k] = v
					}
					join(i+1, next)
				}
			}
			join(0, map[string]int32{})
			if db[r.Head.Pred] == nil {
				db[r.Head.Pred] = map[pair]bool{}
			}
			for _, t := range out {
				if !db[r.Head.Pred][t] {
					db[r.Head.Pred][t], changed = true, true
				}
			}
		}
	}
	return db
}

// sumOf reduces a naive result to an answerSum.
func sumOf(set map[pair]bool) answerSum {
	var s answerSum
	for t := range set {
		s.add(t[0], t[1])
	}
	return s
}
