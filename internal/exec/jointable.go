package exec

import (
	"math"
	"slices"

	"qpp/internal/plan"
	"qpp/internal/types"
)

// joinTable is the hash join's build-side table: a flat hash+verify
// layout over typed key values. Build appends (hash, key values, row) to
// three parallel slices; finish lays the (hash, entry) pairs out
// bucket-contiguously with a stable counting sort, so a probe scans one
// short range, checks the hash, then checks the entry's key values.
// Entries with equal keys share a bucket and keep their insertion order,
// so a probe's matches come back in build order whatever the hash
// function is.
//
// Key equality is SQL `=` (types.Compare == 0): strings compare by bytes,
// numerics (int, decimal, date, bool) by their float64 value. The hash
// agrees with it because numerics hash their canonical float64 bits
// (±0 share one pattern, as do all NaNs) and strings hash their bytes.
// NaN is the one place the table is stricter than Compare: Compare's
// two-sided < test calls NaN equal to every number, which no hash can
// honour, so a NaN key matches only NaN keys.
type joinTable struct {
	width  int           // key values per entry
	hashes []uint64      // per entry; bucket order after finish
	keys   []types.Value // width values per entry, insertion order
	rows   []plan.Row    // per entry, insertion order
	// After finish, bucket b spans slots [starts[b], starts[b+1]) of
	// hashes and entry, and entry maps a slot to its insertion index.
	starts []int32
	entry  []int32
	mask   uint64
	found  []int32 // lookup's result buffer
}

// reset empties the table for width-value keys, presizing it for hint
// entries.
func (t *joinTable) reset(width, hint int) {
	t.width = width
	t.hashes = make([]uint64, 0, hint)
	t.keys = make([]types.Value, 0, hint*width)
	t.rows = make([]plan.Row, 0, hint)
	t.starts, t.entry = nil, nil
	t.mask = 0
}

// insert appends one build entry; key must hold width non-null values.
func (t *joinTable) insert(h uint64, key []types.Value, row plan.Row) {
	if n := len(t.hashes); n == cap(t.hashes) {
		// Double past an underestimate; append alone grows large
		// slices by 1.25×, copying the table several times over.
		t.hashes = slices.Grow(t.hashes, n)
		t.keys = slices.Grow(t.keys, n*t.width)
		t.rows = slices.Grow(t.rows, n)
	}
	t.hashes = append(t.hashes, h)
	t.keys = append(t.keys, key...)
	t.rows = append(t.rows, row)
}

// finish lays the entries out bucket by bucket. The bucket count is the
// smallest power of two at or above the entry count, so a bucket holds
// one entry on average plus the duplicates of its keys. Keys and rows
// stay where build put them; only hashes move, next to their entry index.
func (t *joinTable) finish() {
	n := len(t.hashes)
	nb := 1
	for nb < n {
		nb <<= 1
	}
	t.mask = uint64(nb - 1)
	// starts[b] first counts bucket b, then becomes its end offset, then
	// — after the reverse scatter pass decrements it once per entry —
	// its start offset. Scattering in reverse keeps each bucket in
	// insertion order.
	starts := make([]int32, nb+1)
	for _, h := range t.hashes {
		starts[h&t.mask]++
	}
	for b := 1; b < nb; b++ {
		starts[b] += starts[b-1]
	}
	starts[nb] = int32(n)
	hashes := make([]uint64, n)
	entry := make([]int32, n)
	for i := n - 1; i >= 0; i-- {
		b := t.hashes[i] & t.mask
		starts[b]--
		hashes[starts[b]] = t.hashes[i]
		entry[starts[b]] = int32(i)
	}
	t.hashes, t.entry, t.starts = hashes, entry, starts
}

// lookup returns the insertion index of every entry whose key equals key
// (h = hashKey(key)), in insertion order, in a buffer the next lookup
// overwrites. The table must be finished.
func (t *joinTable) lookup(h uint64, key []types.Value) []int32 {
	t.found = t.found[:0]
	if len(t.hashes) == 0 {
		return t.found
	}
	b := h & t.mask
	w := t.width
	for i := t.starts[b]; i < t.starts[b+1]; i++ {
		if t.hashes[i] != h {
			continue
		}
		if e := int(t.entry[i]); keysEqual(t.keys[e*w:(e+1)*w], key) {
			t.found = append(t.found, int32(e))
		}
	}
	return t.found
}

// evalJoinKey evaluates the key expressions over row into key (len(fns)
// values). A NULL in any key column yields false — NULLs never join — and
// stops evaluation there.
func evalJoinKey(ctx *execCtx, fns []evalFn, row plan.Row, key []types.Value) bool {
	for i, fn := range fns {
		v := fn(ctx.ectx, row)
		if v.IsNull() {
			return false
		}
		key[i] = v
	}
	return true
}

// canonNaN is the one bit pattern every NaN key hashes and compares as.
var canonNaN = math.Float64bits(math.NaN())

// canonBits maps a numeric key to bits that are equal exactly when the
// values are equal under `=`: ±0 collapse to 0 and every NaN to one
// pattern.
func canonBits(f float64) uint64 {
	switch {
	case f == 0:
		return 0
	case f != f:
		return canonNaN
	}
	return math.Float64bits(f)
}

// keyEqual is SQL `=` over two non-null key values, comparing numerics by
// canonical bits. Values of incomparable kinds (which the planner never
// pairs) are unequal rather than a panic.
func keyEqual(a, b types.Value) bool {
	aStr, bStr := a.Kind == types.KindString, b.Kind == types.KindString
	if aStr || bStr {
		return aStr && bStr && a.S == b.S
	}
	return canonBits(a.AsFloat()) == canonBits(b.AsFloat())
}

// keysEqual compares two composite keys value by value.
func keysEqual(a, b []types.Value) bool {
	for i := range a {
		if !keyEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// FNV-1a parameters for string bytes, and the multiplier that folds one
// key value's hash into a composite key's.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	mixPrime  = 0x9e3779b97f4a7c15
)

// hashKey hashes a composite key consistently with keysEqual. It uses no
// random seed, so a build is reproducible; results never depend on it
// anyway, because matches come back in insertion order.
func hashKey(key []types.Value) uint64 {
	var h uint64
	for _, v := range key {
		var vh uint64
		if v.Kind == types.KindString {
			vh = fnvOffset
			for i := 0; i < len(v.S); i++ {
				vh ^= uint64(v.S[i])
				vh *= fnvPrime
			}
		} else {
			vh = canonBits(v.AsFloat())
		}
		h = (h ^ vh) * mixPrime
		h ^= h >> 29
	}
	// Final avalanche (murmur3 fmix64) so the low bits that pick the
	// bucket depend on every input bit.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
