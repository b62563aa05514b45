package exec

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"qpp/internal/opt"
	"qpp/internal/plan"
	"qpp/internal/storage"
	"qpp/internal/tpch"
	"qpp/internal/types"
)

// oracleKeyEqual is the nested-loop join's key test: SQL `=` through
// types.Equal, except that NaN equals only NaN. (types.Compare's two-sided
// < test calls NaN equal to every number; the hash table gives NaN one
// canonical value instead, as PostgreSQL does.)
func oracleKeyEqual(a, b types.Value) bool {
	if !types.Equal(a, b) {
		return false
	}
	isNaN := func(v types.Value) bool { return v.Kind == types.KindFloat && math.IsNaN(v.F) }
	return isNaN(a) == isNaN(b)
}

// oracleMatches returns, for one probe key, the indices of every build
// key it joins with in build order — the nested-loop answer.
func oracleMatches(build [][]types.Value, probe []types.Value) []int {
	var out []int
outer:
	for i, bk := range build {
		for c := range bk {
			if !oracleKeyEqual(bk[c], probe[c]) {
				continue outer
			}
		}
		out = append(out, i)
	}
	return out
}

// tableMatches builds a joinTable the way hashJoin.build does (NULL keys
// are never inserted, each row carries its build index) and returns the
// build indices one probe key matches, in the table's order.
func tableMatches(build [][]types.Value, probes [][]types.Value) [][]int {
	var jt joinTable
	jt.reset(len(build[0]), 1)
	for i, k := range build {
		if hasNull(k) {
			continue
		}
		jt.insert(hashKey(k), k, plan.Row{types.Int(int64(i))})
	}
	jt.finish()
	out := make([][]int, len(probes))
	for p, k := range probes {
		if hasNull(k) {
			continue
		}
		for _, e := range jt.lookup(hashKey(k), k) {
			out[p] = append(out[p], int(jt.rows[e][0].I))
		}
	}
	return out
}

func hasNull(k []types.Value) bool {
	for _, v := range k {
		if v.IsNull() {
			return true
		}
	}
	return false
}

// checkJoinTable compares the table's matches for every probe key with
// the nested-loop oracle, including their order.
func checkJoinTable(t testing.TB, build, probes [][]types.Value) bool {
	t.Helper()
	got := tableMatches(build, probes)
	for p, k := range probes {
		want := oracleMatches(build, k)
		if !reflect.DeepEqual(got[p], want) {
			t.Errorf("probe %v: table matched builds %v, nested loop %v (build keys %v)", k, got[p], want, build)
			return false
		}
	}
	return true
}

// Key pools: a column draws either numerics or strings (the planner never
// compares the two). The numeric pool puts int, date and decimal spellings
// of one value side by side, plus ±0, NaN and values the old rendered keys
// spelled differently by kind (1e6 vs 1000000). The string pool holds
// embedded NULs, where rendered composite keys joined by a 0 byte
// collided: ("a\x00", "b") and ("a", "\x00b") both rendered a\0\0b.
var (
	numericKeys = []types.Value{
		types.Null, types.Int(0), types.Int(1), types.Int(-1), types.Int(1000000),
		types.Float(0), types.Float(math.Copysign(0, -1)), types.Float(1), types.Float(1e6),
		types.Float(1.5), types.Float(math.NaN()), types.Float(math.Float64frombits(0x7ff8000000000bad)),
		types.Date(0), types.Date(1), types.Date(1000000),
	}
	stringKeys = []types.Value{
		types.Null, types.Str(""), types.Str("a"), types.Str("b"), types.Str("a\x00"),
		types.Str("\x00b"), types.Str("a\x00b"), types.Str("\x00"), types.Str("ab"),
	}
)

// randomKeys draws n composite keys of width len(numeric) from the pools.
func randomKeys(r *rand.Rand, numeric []bool, n int) [][]types.Value {
	keys := make([][]types.Value, n)
	for i := range keys {
		k := make([]types.Value, len(numeric))
		for c, num := range numeric {
			pool := stringKeys
			if num {
				pool = numericKeys
			}
			k[c] = pool[r.Intn(len(pool))]
		}
		keys[i] = k
	}
	return keys
}

// TestQuickJoinTableMatchesNestedLoop checks the hash table against the
// nested-loop oracle on random single and composite keys. Small pools
// make duplicate keys (which must match in build order) the common case.
func TestQuickJoinTableMatchesNestedLoop(t *testing.T) {
	f := func(seed int64, width, kinds uint8, nb, np uint8) bool {
		r := rand.New(rand.NewSource(seed))
		numeric := make([]bool, 1+int(width)%3)
		for c := range numeric {
			numeric[c] = kinds&(1<<c) != 0
		}
		build := randomKeys(r, numeric, 1+int(nb)%60)
		probes := randomKeys(r, numeric, 1+int(np)%30)
		return checkJoinTable(t, build, probes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// decodeKeys turns fuzz bytes into composite keys: the first byte picks
// the width and each column's kind class, then every value takes one tag
// byte (plus, for strings, a length and that many raw bytes).
func decodeKeys(data []byte) [][]types.Value {
	if len(data) == 0 {
		return nil
	}
	width := 1 + int(data[0])%3
	numeric := make([]bool, width)
	for c := range numeric {
		numeric[c] = data[0]&(8<<c) != 0
	}
	data = data[1:]
	var keys [][]types.Value
	for len(data) >= width {
		k := make([]types.Value, width)
		for c := range k {
			if len(data) == 0 {
				return keys
			}
			tag := data[0]
			data = data[1:]
			if numeric[c] {
				k[c] = decodeNumeric(tag)
				continue
			}
			if tag%8 == 0 {
				k[c] = types.Null
				continue
			}
			n := min(int(tag>>3)%5, len(data))
			k[c] = types.Str(string(data[:n]))
			data = data[n:]
		}
		keys = append(keys, k)
	}
	return keys
}

// decodeNumeric maps a tag byte to a numeric key: the low three bits pick
// the kind and sign edge, the high bits a small magnitude, so an int, a
// date and a decimal of equal value are all reachable.
func decodeNumeric(tag byte) types.Value {
	v := int64(tag >> 3)
	switch tag % 8 {
	case 0:
		return types.Null
	case 1:
		return types.Int(v)
	case 2:
		return types.Float(float64(v))
	case 3:
		return types.Date(v)
	case 4:
		return types.Float(-float64(v)) // -0 when v == 0
	case 5:
		return types.Float(math.NaN())
	case 6:
		return types.Float(float64(v) * 1e6)
	default:
		return types.Int(v * 1000000)
	}
}

// FuzzJoinKeys decodes key tuples from the input, builds the hash table
// over all of them, probes it with each one, and compares the matches
// with the nested-loop oracle.
func FuzzJoinKeys(f *testing.F) {
	f.Add([]byte{0x08, 0x09, 0x0a, 0x0c, 0x05, 0x05})
	f.Add([]byte{0x01, 0x11, 'a', 0, 0x09, 'b', 0x09, 'a', 0x11, 0, 'b'})
	f.Add([]byte{0x1a, 0x0e, 0x3f, 0x0b, 0x09, 0x04, 0x0c})
	f.Fuzz(func(t *testing.T, data []byte) {
		keys := decodeKeys(data)
		if len(keys) == 0 {
			return
		}
		checkJoinTable(t, keys, keys)
	})
}

// TestHashJoinMixedNumericKeys joins an int key with a decimal key of the
// same values. The rendered keys of the old table spelled 1e6 and 1000000
// differently, so this join came back empty; SQL `=` matches every order.
func TestHashJoinMixedNumericKeys(t *testing.T) {
	db, err := tpch.Generate(tpch.GenConfig{ScaleFactor: 0.002, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	const q = `select count(*) from
		(select o_orderkey * 1000000 as k from orders) x,
		(select o_orderkey * 1000000.0 as k2 from orders) y
		where x.k = y.k2`
	root, err := opt.PlanSQL(db, q)
	if err != nil {
		t.Fatal(err)
	}
	hasHashJoin := false
	root.Walk(func(n *plan.Node) { hasHashJoin = hasHashJoin || n.Op == plan.OpHashJoin })
	if !hasHashJoin {
		t.Fatalf("plan has no hash join:\n%s", plan.Explain(root))
	}
	res := run(t, db, root)
	if got := res.Rows[0][0]; got.I != 3000 {
		t.Fatalf("count(*) = %v, want 3000 (one match per order)", got)
	}
}

// clobberProbe hands out a private copy of each child row and poisons
// the copy it handed out before, so any operator that keeps a reused
// probe row past the next call sees garbage.
type clobberProbe struct {
	iterator
	buf plan.Row
}

// Next implements iterator.
func (c *clobberProbe) Next(ctx *execCtx) (plan.Row, bool, error) {
	for i := range c.buf {
		c.buf[i] = types.Str("clobbered")
	}
	row, ok, err := c.iterator.Next(ctx)
	if err != nil || !ok {
		return row, ok, err
	}
	c.buf = make(plan.Row, len(row))
	copy(c.buf, row)
	return c.buf, true, nil
}

// clobberProbes wraps the probe child of every hash join under it.
func clobberProbes(it iterator) {
	switch x := it.(type) {
	case *instrumented:
		clobberProbes(x.inner)
	case *hashJoin:
		clobberProbes(x.left)
		clobberProbes(x.right)
		x.left = &clobberProbe{iterator: x.left}
	case *mergeJoin:
		clobberProbes(x.left)
		clobberProbes(x.right)
	case *nestedLoop:
		clobberProbes(x.outer)
		clobberProbes(x.inner)
	case *project:
		clobberProbes(x.child)
	case *limit:
		clobberProbes(x.child)
	case *sortOp:
		clobberProbes(x.child)
	case *materialize:
		clobberProbes(x.child)
	case *passthrough:
		clobberProbes(x.child)
	case *aggregate:
		clobberProbes(x.child)
	}
}

// runClobbered executes a plan without init- or sub-plans like Run, but
// with every hash join's probe rows overwritten by the probe child's
// next call.
func runClobbered(t *testing.T, db *storage.Database, root *plan.Node) []plan.Row {
	t.Helper()
	if len(root.InitPlans) > 0 || len(root.SubPlans) > 0 {
		t.Fatal("runClobbered does not run init- or sub-plans")
	}
	ctx := &execCtx{db: db, clock: noNoiseClock(), ectx: &plan.Ctx{Params: make([]types.Value, root.NumParams)},
		compiled: map[plan.Scalar]evalFn{}}
	it, err := build(ctx, root, false)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	clobberProbes(it)
	if err := it.Open(ctx); err != nil {
		t.Fatal(err)
	}
	var rows []plan.Row
	for {
		row, ok, err := it.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return rows
		}
		rows = append(rows, row)
	}
}

var t18DB struct {
	sync.Once
	db  *storage.Database
	err error
}

// TestSemiJoinProbeRowAliasing runs T18 at a scale where its hash semi
// join feeds a Sort, which retains every row. The semi join forwards its
// probe row, and the probe child reuses that row, so the join must copy
// what it hands the Sort: the result may not change when the probe child
// overwrites each row on its next call.
func TestSemiJoinProbeRowAliasing(t *testing.T) {
	if testing.Short() {
		t.Skip("generates an SF 0.01 database")
	}
	t18DB.Do(func() { t18DB.db, t18DB.err = tpch.Generate(tpch.GenConfig{ScaleFactor: 0.01, Seed: 42}) })
	if t18DB.err != nil {
		t.Fatal(t18DB.err)
	}
	db := t18DB.db
	qs, err := tpch.GenWorkload([]int{18}, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	plan18 := func() *plan.Node {
		root, err := opt.PlanSQL(db, qs[0].SQL)
		if err != nil {
			t.Fatal(err)
		}
		return root
	}
	root := plan18()
	semiUnderSort := false
	root.Walk(func(n *plan.Node) {
		if n.Op == plan.OpSort && n.Children[0].Op == plan.OpHashSemiJoin {
			semiUnderSort = true
		}
	})
	if !semiUnderSort {
		t.Fatalf("T18 plan has no hash semi join under a Sort:\n%s", plan.Explain(root))
	}
	want := run(t, db, root).Rows
	if len(want) == 0 {
		t.Fatal("T18 returned no rows; the comparison would be vacuous")
	}
	got := runClobbered(t, db, plan18())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("T18 with clobbered probe rows returned %d rows %v, want %d rows %v", len(got), got, len(want), want)
	}
}

// TestRowAllocSlab checks the retained-row allocator: kept rows never
// share memory or capacity, a row that is not kept is handed out again,
// and reuse hands out one buffer.
func TestRowAllocSlab(t *testing.T) {
	var a rowAlloc
	var kept []plan.Row
	for i := 0; i < 3*maxSlabValues/7; i++ {
		r := a.next(7)
		if len(r) != 7 || cap(r) != 7 {
			t.Fatalf("row %d: len %d cap %d, want 7/7", i, len(r), cap(r))
		}
		if i%3 == 0 {
			if again := a.next(7); &again[0] != &r[0] {
				t.Fatal("a row that was not kept was not handed out again")
			}
		}
		for j := range r {
			r[j] = types.Int(int64(i))
		}
		a.keep(r)
		kept = append(kept, r)
	}
	for i, r := range kept {
		for _, v := range r {
			if v.I != int64(i) {
				t.Fatalf("kept row %d was overwritten: %v", i, r)
			}
		}
	}
	big := a.next(maxSlabValues + 1)
	if len(big) != maxSlabValues+1 {
		t.Fatalf("oversized row has len %d", len(big))
	}
	reuse := rowAlloc{reuse: true}
	r1 := reuse.next(4)
	reuse.keep(r1)
	if r2 := reuse.next(4); &r2[0] != &r1[0] {
		t.Fatal("reuse handed out a fresh row")
	}
}
