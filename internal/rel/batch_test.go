package rel

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestInsertBatchMatchesInsert holds InsertBatch, and its slot-ordered
// path at any size, over the batch in one buffer and in three, to a loop
// of Insert over the same rows: the same set, Len and new-row count, Has
// on every row, column lookups (through indexes built before the batch
// in half the cases), and Minus on both its patch and its rebuild path
// afterwards.  Batches carry duplicates of their own and of rows already
// present, start from empty and from loaded relations, and cross one or
// more table growths; arity 3 also runs under a hash that sends every
// row to one of four keys.
func TestInsertBatchMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type tc struct {
		arity, base, batch, domain int
		collide, indexed           bool
	}
	var cases []tc
	for _, arity := range []int{1, 2, 3} {
		for i, sz := range [][3]int{{0, 3000, 60}, {10, 5000, 400}, {2000, 1500, 50}, {6000, 20000, 1 << 20}} {
			cases = append(cases, tc{arity, sz[0], sz[1], sz[2], false, (i+arity)%2 == 0})
		}
	}
	cases = append(cases, tc{3, 300, 900, 12, true, true}, tc{3, 0, 1200, 1 << 20, true, false})
	// Past minBatchSlots, so the exported call sorts too.
	cases = append(cases, tc{2, 120000, 30000, 1 << 20, false, true})
	for _, c := range cases {
		name := fmt.Sprintf("arity=%d/base=%d/batch=%d/domain=%d/collide=%v", c.arity, c.base, c.batch, c.domain, c.collide)
		t.Run(name, func(t *testing.T) {
			if c.collide {
				orig := hashKey
				hashKey = func(t Tuple) uint64 { return uint64(t[0] & 3) }
				defer func() { hashKey = orig }()
			}
			row := func() Tuple {
				t := make(Tuple, c.arity)
				for i := range t {
					t[i] = Value(rng.Intn(c.domain))
				}
				return t
			}
			base := NewRelation(c.arity)
			for i := 0; i < c.base; i++ {
				base.Insert(row())
			}
			var buf []Value
			for i := 0; i < c.batch; i++ {
				if base.Len() > 0 && i%5 == 0 { // a row already present
					buf = append(buf, base.Row(rng.Intn(base.Len()))...)
				} else if i%7 == 0 && len(buf) > 0 { // a duplicate within the batch
					j := rng.Intn(len(buf) / c.arity)
					buf = append(buf, buf[j*c.arity:(j+1)*c.arity]...)
				} else {
					buf = append(buf, row()...)
				}
			}

			want := base.Clone()
			wantAdded := 0
			for off := 0; off < len(buf); off += c.arity {
				if want.Insert(buf[off : off+c.arity]) {
					wantAdded++
				}
			}
			var scratch []uint64
			// The batch as one buffer and as three, as a round's workers
			// leave it.
			third := len(buf) / c.arity / 3 * c.arity
			split := [][]Value{buf[:third], buf[third : 2*third], buf[2*third:]}
			for _, path := range []string{"InsertBatch", "InsertBatch×3", "insertSorted", "insertSorted×3"} {
				got := base.Clone()
				if c.indexed {
					got.BuildIndex(0)
					got.Lookup(c.arity-1, 0)
				}
				bufs := [][]Value{buf}
				if strings.HasSuffix(path, "×3") {
					bufs = split
				}
				var added int
				if strings.HasPrefix(path, "InsertBatch") {
					added = got.InsertBatch(&scratch, nil, bufs...)
				} else {
					added = got.insertSorted(&scratch, len(buf)/c.arity, nil, bufs)
				}
				if added != wantAdded || got.Len() != want.Len() || !got.Equal(want) {
					t.Fatalf("%s: added %d, Len %d; Insert loop added %d, Len %d (sets equal: %v)",
						path, added, got.Len(), wantAdded, want.Len(), got.Equal(want))
				}
				for off := 0; off < len(buf); off += c.arity {
					if !got.Has(buf[off : off+c.arity]) {
						t.Fatalf("%s: batch row %v missing", path, buf[off:off+c.arity])
					}
				}
				for i := 0; i < want.Len(); i++ {
					if !got.Has(want.Row(i)) {
						t.Fatalf("%s: row %v missing", path, want.Row(i))
					}
				}
				if got.Has(make(Tuple, c.arity)) != want.Has(make(Tuple, c.arity)) {
					t.Fatalf("%s: Has(0…) disagrees", path)
				}
				// The indexes were rebuilt over the new rows: each bucket is
				// the scan's, and as large as the Insert loop's.
				for _, col := range []int{0, c.arity - 1} {
					for v := Value(0); v < Value(min(c.domain, 64)); v++ {
						bucket := got.Lookup(col, v)
						if !sameRows(bucket, scanLookup(got.Packed(), c.arity, col, v)) || len(bucket) != len(want.Lookup(col, v)) {
							t.Fatalf("%s: Lookup(%d, %d) after the batch: %v, want the rows of %v", path, col, v, bucket, want.Lookup(col, v))
						}
					}
				}
				// Minus through the batch-built table: a few rows (patch) and
				// over an eighth of them (rebuild).
				for _, frac := range []int{50, 3} {
					remove := NewRelation(c.arity)
					for i := 0; i < want.Len(); i += frac {
						remove.Insert(want.Row(i))
					}
					remove.Insert(row()) // perhaps absent
					gm, gd := got.Minus(remove)
					wm, wd := want.Minus(remove)
					if gd != wd || !gm.Equal(wm) {
						t.Fatalf("%s: Minus 1/%d dropped %d, want %d (equal %v)", path, frac, gd, wd, gm.Equal(wm))
					}
					for i := 0; i < remove.Len(); i++ {
						if gm.Has(remove.Row(i)) {
							t.Fatalf("%s: Minus 1/%d kept %v", path, frac, remove.Row(i))
						}
					}
					for i := 0; i < wm.Len(); i++ {
						if !gm.Has(wm.Row(i)) {
							t.Fatalf("%s: Minus 1/%d lost %v", path, frac, wm.Row(i))
						}
					}
				}
			}
		})
	}
}

// TestInsertBatchPublishes: a publishing batch hands out a view of the
// row storage every publishRows new rows, on both paths; a reader on
// another goroutine reads the rows each view adds while the insert goes
// on and grows the storage under it (run under -race), and every view
// is a prefix of the final rows.
func TestInsertBatchPublishes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, base := range []int{20000, 1 << 17} { // row by row; sorted
		r := NewRelation(2)
		for r.Len() < base {
			r.Insert(Tuple{rng.Int31n(1 << 24), rng.Int31n(1 << 24)})
		}
		batch := make([]Value, 2*base)
		for i := range batch {
			batch[i] = rng.Int31n(1 << 24)
		}
		views := make(chan []Value, 16)
		type seen struct{ n, sum int }
		var read []seen
		done := make(chan struct{})
		go func() {
			defer close(done)
			s := seen{}
			for v := range views { // each view's rows past the last one's
				for _, x := range v[s.n:] {
					s.sum += int(x)
				}
				s.n = len(v)
				read = append(read, s)
			}
		}()
		var scratch []uint64
		added := r.InsertBatch(&scratch, func(v []Value) { views <- v }, batch)
		close(views)
		<-done
		if want := (base+added)/publishRows - base/publishRows; len(read) != want {
			t.Fatalf("base %d: %d publications for %d new rows, want %d", base, len(read), added, want)
		}
		final, sum, prev := r.Packed(), 0, 0
		for i, s := range read {
			for _, x := range final[prev:s.n] {
				sum += int(x)
			}
			prev = s.n
			if s.n != 2*publishRows*(base/publishRows+i+1) || sum != s.sum {
				t.Fatalf("base %d: publication %d covers %d values (sum %d), not the final rows' prefix (sum %d)", base, i, s.n, s.sum, sum)
			}
		}
	}
}
