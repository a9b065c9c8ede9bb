// Package rel is the storage substrate: interned constants, set-semantics
// relations over integer tuples, and per-column hash indexes used by the
// join machinery in package eval.
//
// Tuples are keyed by 64-bit integers rather than strings: for arity ≤ 2
// the key is an exact bit-packing of the columns (injective, so the key
// alone decides membership), and for wider tuples it is an FNV-1a hash
// whose collisions are resolved by comparing columns.  Row storage is a
// single flat []Value per relation — no per-tuple allocation, nothing for
// the garbage collector to trace — with an open-addressing key table for
// membership.  The probe path (Key/Has/duplicate-Insert) performs no
// allocations.
//
// Concurrency: a Relation supports any number of concurrent readers
// (Has/Row/Each/Lookup/Select/…), including lazy index construction, which
// is guarded internally.  Writes (Insert/InsertBatch/UnionInto) must not
// race with readers or each other; the evaluation engine upholds this by
// mutating only at single-threaded merge points, whose readers read only
// the row views InsertBatch publishes.
package rel

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
)

// Value is an interned constant.
type Value = int32

// Tuple is a row of interned constants.
type Tuple []Value

const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// hashKey is the FNV-1a fallback for arity ≥ 3.  It is a variable so the
// collision handling can be tested against a deliberately bad hash.
var hashKey = func(t Tuple) uint64 {
	h := fnvOffset64
	for _, v := range t {
		u := uint32(v)
		h = (h ^ uint64(u&0xff)) * fnvPrime64
		h = (h ^ uint64((u>>8)&0xff)) * fnvPrime64
		h = (h ^ uint64((u>>16)&0xff)) * fnvPrime64
		h = (h ^ uint64(u>>24)) * fnvPrime64
	}
	return h
}

// Key encodes a tuple as a 64-bit map key without allocating.  For arity
// ≤ 2 the encoding is an exact packing (distinct tuples of the same arity
// have distinct keys); for wider tuples it is a hash, and membership
// additionally compares columns (see Relation).
func (t Tuple) Key() uint64 {
	switch len(t) {
	case 0:
		return 0
	case 1:
		return uint64(uint32(t[0]))
	case 2:
		return uint64(uint32(t[0]))<<32 | uint64(uint32(t[1]))
	}
	return hashKey(t)
}

// keyExact reports whether Key is injective at this arity.
func keyExact(arity int) bool { return arity <= 2 }

// Eq reports column-wise equality with a same-length tuple.
func (t Tuple) Eq(o Tuple) bool {
	for i, v := range t {
		if o[i] != v {
			return false
		}
	}
	return true
}

// Clone copies the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// MaxSymbols is the symbol table's ceiling: values are int32, so a name
// interned past it would wrap onto a value another name holds.
const MaxSymbols = math.MaxInt32

// maxSymbols is the ceiling Symtab enforces: MaxSymbols, lowered only by
// tests.
var maxSymbols = MaxSymbols

// Symtab interns constant symbols as dense int32 values.  It is safe for
// concurrent use.
type Symtab struct {
	mu     sync.RWMutex
	byName map[string]Value
	names  []string
}

// NewSymtab returns an empty symbol table.
func NewSymtab() *Symtab {
	return &Symtab{byName: map[string]Value{}}
}

// Intern returns the value for name, assigning a fresh one on first use.
// It panics rather than wrap when the table already holds MaxSymbols
// names: writers admit a batch's new names against the ceiling before
// interning any of them.
func (s *Symtab) Intern(name string) Value {
	s.mu.RLock()
	v, ok := s.byName[name]
	s.mu.RUnlock()
	if ok {
		return v
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.byName[name]; ok {
		return v
	}
	if len(s.names) >= maxSymbols {
		panic(fmt.Sprintf("rel: symbol table full at %d names, interning %q", len(s.names), name))
	}
	v = Value(len(s.names))
	s.byName[name] = v
	s.names = append(s.names, name)
	return v
}

// Restore bulk-interns names in order, requiring each to land at its
// slice index — the replay path when booting from durable storage,
// where persisted column values are only meaningful if the table
// re-interns densely.  The table may already hold a prefix of the same
// names (idempotent re-boot); any divergence is an error, after which
// the table must be discarded.  One lock round-trip total, not one per
// name.
func (s *Symtab) Restore(names []string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cap(s.names) < len(names) {
		grown := make([]string, len(s.names), len(names))
		copy(grown, s.names)
		s.names = grown
	}
	for i, name := range names {
		if i < len(s.names) {
			if s.names[i] != name {
				return fmt.Errorf("rel: symtab mismatch at %d: have %q, restoring %q", i, s.names[i], name)
			}
			continue
		}
		if v, ok := s.byName[name]; ok {
			return fmt.Errorf("rel: symtab mismatch: %q already interned as %d, restoring as %d", name, v, i)
		}
		s.byName[name] = Value(i)
		s.names = append(s.names, name)
	}
	return nil
}

// Lookup returns the value for name without interning.
func (s *Symtab) Lookup(name string) (Value, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.byName[name]
	return v, ok
}

// Name returns the symbol for an interned value.
func (s *Symtab) Name(v Value) string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if int(v) < 0 || int(v) >= len(s.names) {
		return fmt.Sprintf("#%d", v)
	}
	return s.names[v]
}

// Len returns the number of interned symbols.
func (s *Symtab) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.names)
}

// Names returns a point-in-time view of the interned symbols, indexed by
// value.  The returned slice is capacity-clipped and its elements are
// never mutated, so callers may read it lock-free — bulk renderers use
// this instead of paying one lock round-trip per Name call.
func (s *Symtab) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.names[:len(s.names):len(s.names)]
}

// table is an open-addressing hash set over tuple keys: slots hold the key
// and a 1-based row number (0 = empty).  Linear probing with a
// splitmix64-mixed start slot; the packed keys themselves are too regular
// to probe on directly.  For non-exact arities several distinct tuples may
// share a key; each occupies its own slot and lookups compare columns
// through the row storage.
type table struct {
	keys []uint64
	rows []int32
	mask uint64
	n    int
}

// mix64 is the splitmix64 finalizer — a cheap full-avalanche 64→64 mix.
func mix64(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}

const tableMinSlots = 16

func newTable(slots int) table {
	s := tableSlots(slots)
	return table{keys: make([]uint64, s), rows: make([]int32, s), mask: uint64(s - 1)}
}

// tableSlots is the power-of-two slot count newTable allocates for want.
func tableSlots(want int) int {
	s := tableMinSlots
	for s < want {
		s <<= 1
	}
	return s
}

// KeyTableBytes returns the heap bytes of the key table FromPacked builds
// over n rows: 8 key bytes and 4 row-number bytes per slot.
func KeyTableBytes(n int) int64 { return int64(tableSlots(n+n/7+1)) * 12 }

// grow rehashes into a table twice the size.
func (tb *table) grow() { tb.rehash(len(tb.keys) * 2) }

// rehash moves the entries into a fresh table of at least the given
// slots.
func (tb *table) rehash(slots int) {
	nt := newTable(slots)
	for i, row := range tb.rows {
		if row != 0 {
			nt.place(tb.keys[i], row)
		}
	}
	*tb = nt
}

// place inserts without duplicate checking (rehash path).
func (tb *table) place(k uint64, row int32) {
	slot := mix64(k) & tb.mask
	for tb.rows[slot] != 0 {
		slot = (slot + 1) & tb.mask
	}
	tb.keys[slot] = k
	tb.rows[slot] = row
	tb.n++
}

// del removes the entry at slot by backshift deletion: later entries in
// the probe chain shift toward their home slots, so the table stays
// tombstone-free and probe chains never degrade across deletions.
func (tb *table) del(slot uint64) {
	tb.keys[slot] = 0
	tb.rows[slot] = 0
	tb.n--
	i := slot
	j := slot
	for {
		j = (j + 1) & tb.mask
		if tb.rows[j] == 0 {
			return
		}
		home := mix64(tb.keys[j]) & tb.mask
		// The entry at j may fill the hole at i only if its home slot is
		// cyclically outside (i, j] — moving it earlier than home would
		// make it unreachable from a probe starting at home.
		if (i < j && (home <= i || home > j)) || (i > j && home <= i && home > j) {
			tb.keys[i] = tb.keys[j]
			tb.rows[i] = tb.rows[j]
			tb.keys[j] = 0
			tb.rows[j] = 0
			i = j
		}
	}
}

// maxDenseBucket bounds the values a column index may bucket densely:
// values in [0, maxDenseBucket) — the symbol space Symtab produces — get
// array buckets over their [min, max] window, everything else (negatives,
// or un-interned outliers) the sparse map.
const maxDenseBucket = 1 << 20

// Index is a bulk-built column index over flat row-major data: value →
// the rows holding it, each row a view into the data.  Every bucket is a
// sub-slice of one backing array of row views, grouped by value in two
// counting passes; a value v in the dense window [lo, lo+span) finds its
// bucket at rows[starts[v-lo]:starts[v-lo+1]], and the outliers' buckets
// are listed in a map.  The window is the column's [min, max] over the
// symbol space, so a small relation over large symbols indexes densely at
// its own size; when even that window outgrows the row count several
// times over, every value is an outlier.  An Index is immutable.
type Index struct {
	lo     Value
	starts []int32 // span+1 bucket offsets into rows
	rows   []Tuple
	sparse map[Value][]Tuple
}

// NewIndex builds the index on column col of the len(data)/arity rows
// of data.
func NewIndex(data []Value, arity, col int) *Index {
	n := len(data) / max(arity, 1) // arity 0: the empty relation of absent predicates
	lo, hi := Value(maxDenseBucket), Value(-1)
	for i := col; i < len(data); i += arity {
		if v := data[i]; v >= 0 && v < maxDenseBucket {
			lo, hi = min(lo, v), max(hi, v)
		}
	}
	ix := &Index{rows: make([]Tuple, n)}
	span := int(hi) - int(lo) + 1
	if span <= 0 || span > 8*n+1024 {
		lo, span = 0, 0
	}
	ix.lo, ix.starts = lo, make([]int32, span+1)
	base, width := uint32(lo), uint32(span)
	// Pass one counts each dense bucket (at starts[d+1]) and each outlier.
	var outliers map[Value]int32
	for i := col; i < len(data); i += arity {
		if d := uint32(data[i]) - base; d < width {
			ix.starts[d+1]++
		} else {
			if outliers == nil {
				outliers = map[Value]int32{}
			}
			outliers[data[i]]++
		}
	}
	for d := 1; d <= span; d++ {
		ix.starts[d] += ix.starts[d-1]
	}
	// The outliers' buckets follow the dense ones; from here on
	// outliers[v] is bucket v's fill cursor.
	if outliers != nil {
		at := ix.starts[span]
		ix.sparse = make(map[Value][]Tuple, len(outliers))
		for v, c := range outliers {
			ix.sparse[v] = ix.rows[at : at+c : at+c]
			outliers[v] = at
			at += c
		}
	}
	// Pass two places each row view, advancing starts[d] as bucket d's
	// cursor — which leaves it at bucket d's end, bucket d+1's start, so
	// one shift restores the offsets.
	for off, r := 0, 0; r < n; off, r = off+arity, r+1 {
		t := Tuple(data[off : off+arity : off+arity])
		if d := uint32(t[col]) - base; d < width {
			ix.rows[ix.starts[d]] = t
			ix.starts[d]++
		} else {
			ix.rows[outliers[t[col]]] = t
			outliers[t[col]]++
		}
	}
	copy(ix.starts[1:], ix.starts)
	ix.starts[0] = 0
	return ix
}

// Lookup returns the rows with the indexed column == v; the slice must
// not be mutated.
func (ix *Index) Lookup(v Value) []Tuple {
	if d := uint32(v) - uint32(ix.lo); d < uint32(len(ix.starts)-1) {
		return ix.rows[ix.starts[d]:ix.starts[d+1]:ix.starts[d+1]]
	}
	return ix.sparse[v]
}

// Bytes returns the index's heap footprint: the offsets, the row views
// and the outliers' map (entries at Go's swiss-table cost of ~1.2 slots
// of key + slice header + control byte each).
func (ix *Index) Bytes() int64 {
	return int64(4*len(ix.starts)+24*len(ix.rows)+36*len(ix.sparse)) + 64
}

// Relation is a set of same-arity tuples with optional per-column indexes.
// Rows live back to back in one flat value array; the key table maps tuple
// keys to row numbers.
type Relation struct {
	arity int
	exact bool // Key() is injective at this arity

	data []Value // flat row storage, arity values per row
	n    int     // number of rows
	tab  table   // key → 1-based row number

	idxMu   sync.RWMutex
	indexes map[int]*Index // column → index; dropped by Insert
}

// NewRelation returns an empty relation of the given arity.
func NewRelation(arity int) *Relation {
	return &Relation{
		arity: arity,
		exact: keyExact(arity),
		tab:   newTable(0),
	}
}

// Arity returns the number of columns.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of tuples.
func (r *Relation) Len() int { return r.n }

// Row returns the i-th tuple (insertion order) as a view into the row
// storage; it must not be mutated.  Row views stay valid across later
// inserts.
func (r *Relation) Row(i int) Tuple {
	off := i * r.arity
	return Tuple(r.data[off : off+r.arity : off+r.arity])
}

// rowEq compares the 1-based table row against t.
func (r *Relation) rowEq(row int32, t Tuple) bool {
	off := (int(row) - 1) * r.arity
	for k, v := range t {
		if r.data[off+k] != v {
			return false
		}
	}
	return true
}

// find probes the key table for t (whose key is k): it returns the slot
// holding t and its 1-based row number, or the empty slot that ends t's
// probe chain — where an insert would place it — and row 0.  It is the
// open-addressing probe loop Insert, Has, findRow and minusPatch go
// through; InsertBatch's sorted sweep inlines a copy of it.
func (r *Relation) find(k uint64, t Tuple) (slot uint64, row int32) {
	slot = mix64(k) & r.tab.mask
	for {
		row = r.tab.rows[slot]
		if row == 0 || (r.tab.keys[slot] == k && (r.exact || r.rowEq(row, t))) {
			return slot, row
		}
		slot = (slot + 1) & r.tab.mask
	}
}

// minRowCap is the row capacity of the first row-storage allocation.
const minRowCap = 4

// Insert adds the tuple; it reports whether the tuple was new.  The tuple
// is copied into the flat row storage, so callers may reuse the slice.
// Row storage grows by doubling: a closure's total relation is appended to
// millions of times, and append's 1.25x steps for large slices re-copy the
// rows four to five times over where doubling copies them once — at the
// price of up to 2x the live rows held while a grow is in flight (old and
// new array) and up to half the capacity idle afterwards.
func (r *Relation) Insert(t Tuple) bool {
	if len(t) != r.arity {
		panic(fmt.Sprintf("rel: inserting arity-%d tuple into arity-%d relation", len(t), r.arity))
	}
	k := t.Key()
	slot, row := r.find(k, t)
	if row != 0 {
		return false
	}
	end := len(r.data) + r.arity
	if end > cap(r.data) {
		r.growRows(max(2*cap(r.data), minRowCap*r.arity))
	}
	r.data = r.data[:end]
	copy(r.data[end-r.arity:], t)
	r.n++
	// Indexes are bulk-built: a new row drops them, the next probe
	// rebuilds.  Relations are written before they are probed (loads,
	// closures, copy-on-write updates), so this never rebuilds in a loop.
	if r.indexes != nil {
		r.indexes = nil
	}
	// Past ~7/8 load the probe chains degrade: grow and rehash (which
	// moves slots, so place afresh rather than reusing the probe above).
	if 8*(r.tab.n+1) > 7*len(r.tab.keys) {
		r.tab.grow()
		r.tab.place(k, int32(r.n))
		return true
	}
	r.tab.keys[slot] = k
	r.tab.rows[slot] = int32(r.n)
	r.tab.n++
	return true
}

// batchRowsPerBucket is about how many rows of a batched insert share a
// bucket of its sort.  With one row per bucket the offsets array is as
// long as the batch and the scatter's increments miss the cache; eight
// keep it an eighth as long while the sweep still moves forward a few
// cache lines at a time.
const batchRowsPerBucket = 8

// InsertBatch's slot-ordered path pays only for a table past the cache
// (minBatchSlots: 2^18 slots are 3 MB of keys and row numbers) and a
// batch dense enough in it (one row per at most batchSlotsPerRow slots):
// a sparser sweep streams most of the table through the cache for a few
// probes.  BenchmarkInsertBatch places both bounds.
const (
	minBatchSlots    = 1 << 18
	batchSlotsPerRow = 64
)

// publishRows is how many new rows a batched insert appends between two
// calls of its publish function.
const publishRows = 256

// InsertBatch inserts the rows packed back to back in bufs (Arity()
// values each) and returns how many were new: the rows and the count a
// loop of Insert over them would produce, stored in another order.
// Rather than probing the key table in buffer order — once the table
// outgrows the cache, a cache and TLB miss per probe — it
// counting-sorts the batch's keys by the top bits of their home slots
// and probes in that order, so the probes sweep the table once for all
// the buffers.  Duplicates within the batch are caught by the table, as
// Insert catches them.  *scratch is the sort's space, grown by doubling
// and reused across calls.  A batch too sparse in its table, or a table
// that fits in cache, goes row by row.  A nullary row carries no values
// to pack: insert the empty tuple with Insert.
//
// A non-nil publish is handed Packed() every publishRows new rows, on
// the inserting goroutine, so that other goroutines may read the rows
// of each view it is handed while the insert goes on: row storage is
// only appended to, or copied to a new array, and never written under
// an earlier view.  The rows after the last publication are the
// caller's to publish.
//
// Sorted rows fill the table region by region, so the table's load
// check, which counts the whole table, would fire only after the first
// regions had overflowed.  The table is therefore first grown, in one
// rehash, to hold every row of the batch below its 7/8 growth point: a
// batch mostly of duplicates may leave it one doubling larger than
// Insert would have.  The row storage grows as Insert grows it.
func (r *Relation) InsertBatch(scratch *[]uint64, publish func([]Value), bufs ...[]Value) (added int) {
	a, rows := r.arity, 0
	for _, buf := range bufs {
		if a == 0 || len(buf)%a != 0 {
			panic(fmt.Sprintf("rel: batch of %d values into arity-%d relation", len(buf), a))
		}
		rows += len(buf) / a
	}
	// The slots of a table fitted to the batch (see insertSorted).
	if slots := max(len(r.tab.keys), tableSlots(8*(r.tab.n+rows)/7+1)); slots >= minBatchSlots && rows*batchSlotsPerRow >= slots {
		return r.insertSorted(scratch, rows, publish, bufs)
	}
	for _, buf := range bufs {
		for off := 0; off < len(buf); off += a {
			if r.Insert(buf[off : off+a : off+a]) {
				if added++; publish != nil && r.n%publishRows == 0 {
					publish(r.Packed())
				}
			}
		}
	}
	return added
}

// insertSorted is InsertBatch's slot-ordered path, for any batch and
// table size.
func (r *Relation) insertSorted(scratch *[]uint64, rows int, publish func([]Value), bufs [][]Value) (added int) {
	a := r.arity
	// Fit the table to hold every row of the batch below 7/8 load.
	if slots := tableSlots(8*(r.tab.n+rows)/7 + 1); slots > len(r.tab.keys) {
		r.tab.rehash(slots)
	}
	// A row's bucket is the top bucketBits bits of its home slot, so the
	// sweep probes the table in (near) slot order.
	slotBits := bits.Len64(r.tab.mask)
	bucketBits := max(0, bits.Len(uint(rows/batchRowsPerBucket))-1)
	shift, buckets := slotBits-bucketBits, 1<<bucketBits
	// The scratch holds the keys in bucket order, then the bucket
	// offsets, then — where a key does not determine its row — where
	// each sorted key's row is: buffer<<32 | offset.
	need := rows + buckets + 1
	if !r.exact {
		need += rows
	}
	if cap(*scratch) < need {
		*scratch = make([]uint64, max(2*cap(*scratch), need))
	}
	sorted, starts, pos := (*scratch)[:rows], (*scratch)[rows:rows+buckets+1], (*scratch)[rows+buckets+1:need]
	clear(starts)
	for _, buf := range bufs {
		for off := 0; off < len(buf); off += a {
			starts[mix64(Tuple(buf[off:off+a]).Key())&r.tab.mask>>shift+1]++
		}
	}
	for b := 1; b <= buckets; b++ {
		starts[b] += starts[b-1]
	}
	for bi, buf := range bufs {
		for off := 0; off < len(buf); off += a {
			k := Tuple(buf[off : off+a]).Key()
			b := mix64(k) & r.tab.mask >> shift
			sorted[starts[b]] = k
			if !r.exact {
				pos[starts[b]] = uint64(bi)<<32 | uint64(off)
			}
			starts[b]++
		}
	}
	// The sweep is Insert with find's probe loop inlined, less the load
	// check the fitted table no longer needs: at a few ns a row against
	// a probe that now mostly hits cache, the calls were the cost.
	tb := &r.tab
	var t Tuple
	for j, k := range sorted {
		if !r.exact {
			buf, off := bufs[pos[j]>>32], int(uint32(pos[j]))
			t = buf[off : off+a]
		}
		slot := mix64(k) & tb.mask
		for tb.rows[slot] != 0 && (tb.keys[slot] != k || !r.exact && !r.rowEq(tb.rows[slot], t)) {
			slot = (slot + 1) & tb.mask
		}
		if tb.rows[slot] != 0 {
			continue
		}
		end := len(r.data) + a
		if end > cap(r.data) {
			r.growRows(max(2*cap(r.data), minRowCap*a))
		}
		r.data = r.data[:end]
		if r.exact { // unpack the row from its key
			for c, u := end-1, k; c >= end-a; c, u = c-1, u>>32 {
				r.data[c] = Value(u)
			}
		} else {
			copy(r.data[end-a:], t)
		}
		r.n++
		tb.keys[slot], tb.rows[slot] = k, int32(r.n)
		tb.n++
		if added++; publish != nil && r.n%publishRows == 0 {
			publish(r.Packed())
		}
	}
	if added > 0 {
		r.indexes = nil
	}
	return added
}

// Reserve pre-sizes the key table and row storage for n tuples, avoiding
// incremental rehashes during bulk loads.
func (r *Relation) Reserve(n int) {
	if need := n + n/7 + 1; need > len(r.tab.keys)*7/8 {
		r.tab.rehash(need * 8 / 7)
	}
	if cap(r.data) < n*r.arity {
		r.growRows(n * r.arity)
	}
}

// growRows moves the row storage to an array of the given capacity.
func (r *Relation) growRows(capacity int) {
	grown := make([]Value, len(r.data), capacity)
	copy(grown, r.data)
	r.data = grown
}

// Has reports membership.  The probe performs no allocations.
func (r *Relation) Has(t Tuple) bool {
	if r.n == 0 {
		return false
	}
	_, row := r.find(t.Key(), t)
	return row != 0
}

// Each calls f on every tuple; iteration order is unspecified.  The tuple
// passed to f is a storage view: it must not be mutated or retained
// without cloning.
func (r *Relation) Each(f func(Tuple)) {
	for i := 0; i < r.n; i++ {
		f(r.Row(i))
	}
}

// Tuples returns all tuples in deterministic (sorted) order; intended for
// tests and output, not inner loops.
func (r *Relation) Tuples() []Tuple {
	out := make([]Tuple, r.n)
	for i := range out {
		out[i] = r.Row(i)
	}
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}

// index returns (building on first use) the index on column col.
// Concurrent callers are safe: the lazy build is guarded, and Insert,
// which drops built indexes, by contract does not run concurrently with
// readers.
func (r *Relation) index(col int) *Index {
	r.idxMu.RLock()
	ix, ok := r.indexes[col]
	r.idxMu.RUnlock()
	if ok {
		return ix
	}
	r.idxMu.Lock()
	defer r.idxMu.Unlock()
	if ix, ok := r.indexes[col]; ok {
		return ix
	}
	ix = NewIndex(r.Packed(), r.arity, col)
	if r.indexes == nil {
		r.indexes = map[int]*Index{}
	}
	r.indexes[col] = ix
	return ix
}

// Lookup returns the rows with t[col] == v, building the column index on
// first use.  This is the join engine's probe; the returned slice must not
// be mutated.
func (r *Relation) Lookup(col int, v Value) []Tuple {
	return r.index(col).Lookup(v)
}

// BuildIndex forces construction of the index on col (used to pre-build
// before fanning out parallel readers).
func (r *Relation) BuildIndex(col int) {
	r.index(col)
}

// Prober returns a probe function over the column index on col that
// resolves the index once: the first call acquires it (building it if
// needed) and later calls probe lock-free.  Join loops fetch one Prober
// per evaluation instead of paying Lookup's mutex acquisition per row —
// under a sharded scan every worker hammering the same small relation
// turns that read-lock into cross-core cache-line traffic.  The returned
// closure is not safe for concurrent use; take one per goroutine.  A
// later Insert makes it re-resolve the rebuilt index.
func (r *Relation) Prober(col int) func(Value) []Tuple {
	var ix *Index
	return func(v Value) []Tuple {
		if ix == nil || len(ix.rows) != r.n {
			ix = r.index(col)
		}
		return ix.Lookup(v)
	}
}

// Clone returns an independent copy (without indexes): two flat memcpys,
// regardless of row count.
func (r *Relation) Clone() *Relation {
	return &Relation{
		arity: r.arity,
		exact: r.exact,
		data:  append([]Value(nil), r.data...),
		n:     r.n,
		tab: table{
			keys: append([]uint64(nil), r.tab.keys...),
			rows: append([]int32(nil), r.tab.rows...),
			mask: r.tab.mask,
			n:    r.tab.n,
		},
	}
}

// UnionInto inserts every tuple of other into r, returning the number of
// new tuples.
func (r *Relation) UnionInto(other *Relation) int {
	added := 0
	other.Each(func(t Tuple) {
		if r.Insert(t) {
			added++
		}
	})
	return added
}

// Minus returns a relation containing every tuple of r except those in
// remove (a same-arity relation), along with the number of tuples
// actually dropped.  The result is a tombstone-free
// rebuild at the surviving size, and the receiver itself is returned
// (dropped == 0) when the two relations are disjoint — the
// delete-and-rederive maintenance path subtracts its over-deleted cone
// with this.
func (r *Relation) Minus(remove *Relation) (*Relation, int) {
	if r.n == 0 || remove.Len() == 0 {
		return r, 0
	}
	// Locate the rows to drop (1-based, as the key table stores them).
	var del []int32
	remove.Each(func(t Tuple) {
		if row, ok := r.findRow(t); ok {
			del = append(del, row)
		}
	})
	if len(del) == 0 {
		return r, 0
	}
	if len(del) > r.n/8 {
		return r.minusRebuild(remove), len(del)
	}
	return r.minusPatch(del), len(del)
}

// findRow returns the 1-based row number of t, if present.
func (r *Relation) findRow(t Tuple) (int32, bool) {
	if r.n == 0 || len(t) != r.arity {
		return 0, false
	}
	_, row := r.find(t.Key(), t)
	return row, row != 0
}

// minusRebuild is the large-deletion path: one pass over r rebuilding row
// storage and key table at the surviving size.  r's rows are already
// distinct, so survivors need no duplicate probing — copy the row and
// place its key.
func (r *Relation) minusRebuild(remove *Relation) *Relation {
	out := &Relation{
		arity: r.arity,
		exact: r.exact,
		data:  make([]Value, 0, len(r.data)),
		tab:   newTable(r.n + r.n/7 + 1),
	}
	for i := 0; i < r.n; i++ {
		t := r.Row(i)
		if remove.Has(t) {
			continue
		}
		out.data = append(out.data, t...)
		out.n++
		out.tab.place(t.Key(), int32(out.n))
	}
	return out
}

// minusPatch is the small-deletion path: instead of re-hashing every
// surviving row, it copies the key table flat, backshift-deletes the
// dropped keys, splices the surviving row-storage segments around the
// dropped rows, and renumbers the remaining table entries.  Everything
// but the renumbering pass is memcpy-grade, which is what keeps cached
// closures maintainable at interactive latency: retracting a handful of
// tuples from a million-row fixpoint costs two flat copies, not a
// million hash insertions.  del holds the 1-based dropped row numbers.
func (r *Relation) minusPatch(del []int32) *Relation {
	sort.Slice(del, func(i, j int) bool { return del[i] < del[j] })
	out := &Relation{
		arity: r.arity,
		exact: r.exact,
		n:     r.n - len(del),
		// The copied table numbers r's rows until the renumbering pass, so
		// the dropped keys are probed over r's row storage.
		data: r.data,
		tab: table{
			keys: append([]uint64(nil), r.tab.keys...),
			rows: append([]int32(nil), r.tab.rows...),
			mask: r.tab.mask,
			n:    r.tab.n,
		},
	}
	for _, row := range del {
		t := r.Row(int(row) - 1)
		slot, _ := out.find(t.Key(), t)
		out.tab.del(slot)
	}
	out.data = make([]Value, 0, out.n*r.arity)
	prev := 0
	for _, row := range del {
		d := int(row) - 1
		out.data = append(out.data, r.data[prev*r.arity:d*r.arity]...)
		prev = d + 1
	}
	out.data = append(out.data, r.data[prev*r.arity:r.n*r.arity]...)
	// Renumber: every surviving row shifts down by the number of dropped
	// rows before it (binary search over the sorted drop list).  Rows
	// below the smallest dropped number keep their numbers — when a
	// retraction undoes a recent addition the dropped rows sit at the
	// tail of the storage and the whole pass degenerates to one
	// predictable compare per slot.
	minDel := del[0]
	for i, row := range out.tab.rows {
		if row < minDel {
			continue
		}
		lo, hi := 0, len(del)
		for lo < hi {
			mid := (lo + hi) / 2
			if del[mid] < row {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo > 0 {
			out.tab.rows[i] = row - int32(lo)
		}
	}
	return out
}

// SelectInCols returns the tuples of s whose projection onto cols
// (ascending column indexes) appears in the len(cols)-ary relation
// allowed — the seed restriction of a magic-seeded plan.  When allowed is
// much smaller than s it probes s's index on cols[0] per allowed tuple
// and checks the remaining columns inline (output-proportional);
// otherwise it scans s once.  Both paths only read s and allowed (an
// index build is the store's own guarded lazy work), so concurrent calls
// over a shared store are safe.
func SelectInCols(s Store, cols []int, allowed *Relation) *Relation {
	out := NewRelation(s.Arity())
	if allowed.Len()*8 < s.Len() {
		allowed.Each(func(m Tuple) {
		candidates:
			for _, t := range s.Lookup(cols[0], m[0]) {
				for i := 1; i < len(cols); i++ {
					if t[cols[i]] != m[i] {
						continue candidates
					}
				}
				out.Insert(t)
			}
		})
		return out
	}
	key := make(Tuple, len(cols))
	s.Each(func(t Tuple) {
		for i, c := range cols {
			key[i] = t[c]
		}
		if allowed.Has(key) {
			out.Insert(t)
		}
	})
	return out
}

// Filter returns the tuples satisfying pred as a new relation.
func (r *Relation) Filter(pred func(Tuple) bool) *Relation {
	out := NewRelation(r.arity)
	r.Each(func(t Tuple) {
		if pred(t) {
			out.Insert(t)
		}
	})
	return out
}

// Equal reports set equality of two relations.
func (r *Relation) Equal(other *Relation) bool {
	if r.arity != other.arity || r.n != other.n {
		return false
	}
	for i := 0; i < r.n; i++ {
		if !other.Has(r.Row(i)) {
			return false
		}
	}
	return true
}

// Store is the read contract a DB entry must satisfy — the pluggable
// storage seam, and exactly what the evaluators use: scan a relation,
// probe a column, test membership.  The in-memory Relation implements
// it directly; Layered overlays one store on another, and a disk-backed
// implementation may defer touching row data until a method needs it
// (Arity and Len are answerable from metadata alone).  All methods must
// be safe for concurrent readers, matching Relation's contract, and
// never mutate the receiver.  Filters and sorted output are Relation
// methods: callers derive a Relation first (Clone) when they need them
// on another store.  SelectInCols reads any store.
type Store interface {
	// Arity returns the number of columns.
	Arity() int
	// Len returns the number of tuples.
	Len() int
	// Row returns the i-th tuple as a storage view; it must not be
	// mutated.
	Row(i int) Tuple
	// Each calls f on every tuple; iteration order is unspecified.
	Each(f func(Tuple))
	// Has reports membership.
	Has(t Tuple) bool
	// Lookup returns the rows with t[col] == v, building the column
	// index on first use.
	Lookup(col int, v Value) []Tuple
	// Prober returns a per-goroutine probe closure over the index on col.
	Prober(col int) func(Value) []Tuple
	// Clone returns an independent in-memory copy.
	Clone() *Relation
}

// FromPacked wraps flat row-major data (arity values per row) as a
// Relation without copying: the key table is built over the given
// storage, which the relation takes ownership of.  Rows must be
// distinct — this is the contract of segment files, which are written
// from relations that already enforce set semantics.
func FromPacked(arity int, data []Value) *Relation {
	if arity <= 0 {
		panic(fmt.Sprintf("rel: FromPacked arity %d", arity))
	}
	if len(data)%arity != 0 {
		panic(fmt.Sprintf("rel: FromPacked data length %d not a multiple of arity %d", len(data), arity))
	}
	n := len(data) / arity
	r := &Relation{
		arity: arity,
		exact: keyExact(arity),
		data:  data,
		n:     n,
		tab:   newTable(n + n/7 + 1),
	}
	for i := 0; i < n; i++ {
		r.tab.place(r.Row(i).Key(), int32(i+1))
	}
	return r
}

// Packed returns the relation's flat row-major storage (arity values
// per row, insertion order) — the exact byte layout segment writers
// persist.  The slice is a view into live storage: callers must not
// mutate it.  Like Row views, it stays valid across later inserts.
func (r *Relation) Packed() []Value {
	return r.data[: r.n*r.arity : r.n*r.arity]
}

// DB maps predicate names to stores.  Entries are *Relation as loaded,
// lazy disk-backed stores for databases recovered from a segment
// manifest, and Layered chains over either once updates have been
// applied; all satisfy Store, and the evaluation engine only ever reads
// entries through that interface.
type DB map[string]Store

// Rel returns the mutable relation for pred, creating an empty one of
// the given arity on first use.  It is the load-path accessor: entries
// recovered from immutable disk segments cannot be mutated in place, so
// calling Rel on one panics — updates to a recovered database go
// through the copy-on-write fact API instead.
func (db DB) Rel(pred string, arity int) *Relation {
	s, ok := db[pred]
	if !ok {
		r := NewRelation(arity)
		db[pred] = r
		return r
	}
	r, ok := s.(*Relation)
	if !ok {
		panic(fmt.Sprintf("rel: predicate %q is backed by an immutable store; mutate through copy-on-write updates", pred))
	}
	if r.arity != arity {
		panic(fmt.Sprintf("rel: predicate %q used with arity %d and %d", pred, r.arity, arity))
	}
	return r
}

// emptyRel is returned by Probe for absent predicates; it is never
// inserted into, so sharing one instance across DBs is safe.
var emptyRel = NewRelation(0)

// Probe returns the store for pred, or a shared empty relation when the
// predicate has no facts.  Unlike Rel it never mutates db, which makes it
// safe for concurrent readers.
func (db DB) Probe(pred string) Store {
	if s, ok := db[pred]; ok {
		return s
	}
	return emptyRel
}
