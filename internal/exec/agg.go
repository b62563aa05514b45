package exec

import (
	"bytes"

	"qpp/internal/plan"
	"qpp/internal/types"
)

// aggState accumulates one aggregate function over a group. The argument
// expression is compiled once per execution (arg/argCost live in the
// aggregate's state template and are copied into every group's states).
type aggState struct {
	spec       plan.AggSpec
	arg        evalFn
	argCost    plan.ExprCost
	count      int64
	sum        float64
	sumIsI     bool
	sumI       int64
	minMax     types.Value
	seenAny    bool
	seen       map[string]bool // for DISTINCT aggregates
	keyScratch []byte          // reused DISTINCT key buffer
}

func (a *aggState) update(ctx *execCtx, row plan.Row) {
	if a.arg == nil { // count(*)
		a.count++
		return
	}
	ctx.clock.CPUOps(a.argCost.Ops, a.argCost.NumericOps)
	v := a.arg(ctx.ectx, row)
	if v.IsNull() {
		return
	}
	if a.spec.Distinct {
		if a.seen == nil {
			a.seen = map[string]bool{}
		}
		a.keyScratch = v.AppendKey(a.keyScratch[:0])
		if a.seen[string(a.keyScratch)] {
			return
		}
		a.seen[string(a.keyScratch)] = true
		ctx.clock.HashOps(1)
	}
	a.count++
	switch a.spec.Func {
	case plan.AggCount:
		// count only
	case plan.AggSum, plan.AggAvg:
		if v.Kind == types.KindFloat {
			ctx.clock.CPUOps(0, 1) // software-numeric accumulation
		} else {
			ctx.clock.CPUOps(1, 0)
		}
		if a.sumIsI && v.Kind == types.KindInt {
			a.sumI += v.I
		} else {
			a.sumIsI = false
			a.sum += v.AsFloat()
		}
	case plan.AggMin:
		ctx.clock.CPUOps(1, 0)
		if !a.seenAny || types.Compare(v, a.minMax) < 0 {
			a.minMax = v
		}
	case plan.AggMax:
		ctx.clock.CPUOps(1, 0)
		if !a.seenAny || types.Compare(v, a.minMax) > 0 {
			a.minMax = v
		}
	}
	a.seenAny = true
}

func (a *aggState) result() types.Value {
	switch a.spec.Func {
	case plan.AggCount:
		return types.Int(a.count)
	case plan.AggSum:
		if !a.seenAny {
			return types.Null
		}
		if a.sumIsI {
			return types.Int(a.sumI)
		}
		return types.Float(a.sum + float64(a.sumI))
	case plan.AggAvg:
		if a.count == 0 {
			return types.Null
		}
		return types.Float((a.sum + float64(a.sumI)) / float64(a.count))
	case plan.AggMin, plan.AggMax:
		if !a.seenAny {
			return types.Null
		}
		return a.minMax
	}
	return types.Null
}

// aggregate implements HashAggregate (hashed groups), GroupAggregate
// (input pre-sorted on the group keys), and plain Aggregate (no groups).
// Output rows are the group key values followed by the aggregate results;
// the node filter implements HAVING.
type aggregate struct {
	node  *plan.Node
	child iterator

	results    []plan.Row
	pos        int
	having     compiledFilter
	groupFns   []evalFn
	groupCols  []int // when every GROUP BY expr is a bare column: its ordinals
	groupCosts plan.ExprCost
	stateTmpl  []aggState // per-execution template with compiled arguments
	keyBuf     []byte     // reused rendered group key for the current row
	valBuf     []types.Value
	drained    bool

	// Group-allocation slabs: per-group objects are carved out of fixed-
	// capacity chunks so a large GROUP BY makes dozens of allocations
	// instead of three per group. Chunks are never regrown in place
	// (pointers into them must stay valid); a full chunk is simply
	// replaced and kept alive by the groups referencing it.
	slabGroups []aggGroup
	slabStates []aggState
	slabKeys   []types.Value
}

// Open implements iterator.
func (a *aggregate) Open(ctx *execCtx) error {
	a.having = ctx.compileFilter(a.node.Filter)
	a.groupFns = ctx.compileScalars(a.node.GroupBy)
	a.groupCols = a.groupCols[:0]
	for _, g := range a.node.GroupBy {
		col, ok := g.(*plan.Col)
		if !ok {
			a.groupCols = nil
			break
		}
		a.groupCols = append(a.groupCols, col.Idx)
	}
	a.groupCosts = plan.ExprCost{}
	for _, g := range a.node.GroupBy {
		a.groupCosts = plan.ExprCost{
			Ops:        a.groupCosts.Ops + g.Cost().Ops,
			NumericOps: a.groupCosts.NumericOps + g.Cost().NumericOps,
		}
	}
	a.stateTmpl = make([]aggState, len(a.node.Aggs))
	for i, s := range a.node.Aggs {
		st := aggState{spec: s, sumIsI: s.Arg != nil && s.Arg.Kind() == types.KindInt}
		if s.Arg != nil {
			st.arg = ctx.compileScalar(s.Arg)
			st.argCost = s.Arg.Cost()
		}
		a.stateTmpl[i] = st
	}
	a.results = nil
	a.pos = 0
	a.drained = false
	return a.child.Open(ctx)
}

// slabChunk is the number of groups each slab chunk holds, sized from
// the optimizer's output estimate so a four-group aggregate does not
// reserve a thousand-group chunk.
func (a *aggregate) slabChunk() int {
	hint := a.groupHint()
	if hint < 16 {
		hint = 16
	}
	if hint > 4096 {
		hint = 4096
	}
	return hint
}

// newStates copies the compiled template into a fresh group accumulator
// carved from the state slab.
func (a *aggregate) newStates() []aggState {
	n := len(a.stateTmpl)
	if n == 0 {
		return nil
	}
	if len(a.slabStates)+n > cap(a.slabStates) {
		a.slabStates = make([]aggState, 0, a.slabChunk()*n)
	}
	lo := len(a.slabStates)
	a.slabStates = a.slabStates[:lo+n]
	out := a.slabStates[lo : lo+n : lo+n] // capped: appends can't cross groups
	copy(out, a.stateTmpl)
	return out
}

// copyKeys snapshots the current group-key values out of the reused
// valBuf into the key slab.
func (a *aggregate) copyKeys() []types.Value {
	n := len(a.valBuf)
	if n == 0 {
		return nil
	}
	if len(a.slabKeys)+n > cap(a.slabKeys) {
		a.slabKeys = make([]types.Value, 0, a.slabChunk()*n)
	}
	lo := len(a.slabKeys)
	a.slabKeys = a.slabKeys[:lo+n]
	out := a.slabKeys[lo : lo+n : lo+n] // capped: appends can't cross groups
	copy(out, a.valBuf)
	return out
}

// newGroup carves one group out of the group slab.
func (a *aggregate) newGroup(keys []types.Value) *aggGroup {
	if len(a.slabGroups) == cap(a.slabGroups) {
		a.slabGroups = make([]aggGroup, 0, a.slabChunk())
	}
	a.slabGroups = append(a.slabGroups, aggGroup{keys: keys, states: a.newStates()})
	return &a.slabGroups[len(a.slabGroups)-1]
}

func (a *aggregate) drain(ctx *execCtx) error {
	a.drained = true
	if a.node.Op == plan.OpGroupAgg {
		return a.drainSorted(ctx)
	}
	return a.drainHashed(ctx)
}

// groupKey evaluates the group-by expressions for row into a.valBuf and
// renders their composite key into a.keyBuf. Both buffers are reused
// across rows; callers copy them out only when a new group is created.
func (a *aggregate) groupKey(ctx *execCtx, row plan.Row) {
	ctx.clock.CPUOps(a.groupCosts.Ops, a.groupCosts.NumericOps)
	a.keyBuf = a.keyBuf[:0]
	a.valBuf = a.valBuf[:0]
	if a.groupCols != nil { // all bare columns: skip the closure calls
		for i, idx := range a.groupCols {
			v := row[idx]
			a.valBuf = append(a.valBuf, v)
			if i > 0 {
				a.keyBuf = append(a.keyBuf, 0)
			}
			a.keyBuf = v.AppendKey(a.keyBuf)
		}
		return
	}
	for i, g := range a.groupFns {
		v := g(ctx.ectx, row)
		a.valBuf = append(a.valBuf, v)
		if i > 0 {
			a.keyBuf = append(a.keyBuf, 0)
		}
		a.keyBuf = v.AppendKey(a.keyBuf)
	}
}

// groupHint sizes the group hash table from the optimizer's output
// cardinality estimate, clamped to keep a wild estimate from reserving
// unbounded memory.
func (a *aggregate) groupHint() int {
	est := int(a.node.Est.Rows)
	if est < 1 {
		est = 1
	}
	if est > 1<<16 {
		est = 1 << 16
	}
	return est
}

// aggGroup is one hashed group's key values and accumulator states.
type aggGroup struct {
	keys   []types.Value
	states []aggState
}

func (a *aggregate) drainHashed(ctx *execCtx) error {
	groups := make(map[string]*aggGroup, a.groupHint())
	// Deterministic output order: first appearance. Sized like the hash
	// table so per-group appends don't regrow it row by row.
	order := make([]string, 0, a.groupHint())
	for {
		row, ok, err := a.child.Next(ctx)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		ctx.clock.CPUTuples(1)
		var g *aggGroup
		if len(a.node.GroupBy) == 0 {
			if len(groups) == 0 {
				g = a.newGroup(nil)
				groups[""] = g
				order = append(order, "")
			} else {
				g = groups[""]
			}
		} else {
			a.groupKey(ctx, row)
			ctx.clock.HashOps(1)
			var ok bool
			g, ok = groups[string(a.keyBuf)] // no-alloc probe with reused buffer
			if !ok {
				key := string(a.keyBuf)
				g = a.newGroup(a.copyKeys())
				groups[key] = g
				order = append(order, key)
			}
		}
		for i := range g.states {
			g.states[i].update(ctx, row)
		}
	}
	// A query with no GROUP BY emits exactly one row even on empty input.
	if len(a.node.GroupBy) == 0 && len(groups) == 0 {
		groups[""] = a.newGroup(nil)
		order = append(order, "")
	}
	// Spill accounting when the group table exceeds work_mem. Cells are
	// counted in integers so the total is exact regardless of the map's
	// iteration order.
	var cells int
	for _, g := range groups {
		cells += len(g.keys) + len(g.states)
	}
	bytes := float64(cells) * 16
	if workBytes := float64(ctx.clock.WorkMemPages()) * 8192; bytes > workBytes {
		pages := (bytes - workBytes) / 8192
		ctx.clock.SpillPages(pages)
		a.node.Act.Pages += pages
	}
	ctx.clock.Barrier()
	// Emit in first-appearance order into a buffer presized to the group
	// count.
	if a.results == nil {
		a.results = make([]plan.Row, 0, len(order))
	}
	for _, key := range order {
		g := groups[key]
		a.emit(ctx, g.keys, g.states)
	}
	return nil
}

func (a *aggregate) drainSorted(ctx *execCtx) error {
	var curKey []byte
	var curKeys []types.Value
	var states []aggState
	started := false
	for {
		row, ok, err := a.child.Next(ctx)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		ctx.clock.CPUTuples(1)
		a.groupKey(ctx, row)
		if !started || !bytes.Equal(a.keyBuf, curKey) {
			if started {
				a.emit(ctx, curKeys, states)
			}
			curKey = append(curKey[:0], a.keyBuf...)
			curKeys = append([]types.Value(nil), a.valBuf...)
			states = a.newStates()
			started = true
		}
		for i := range states {
			states[i].update(ctx, row)
		}
	}
	if started {
		a.emit(ctx, curKeys, states)
	} else if len(a.node.GroupBy) == 0 {
		a.emit(ctx, nil, a.newStates())
	}
	ctx.clock.Barrier()
	return nil
}

func (a *aggregate) emit(ctx *execCtx, keys []types.Value, states []aggState) {
	out := make(plan.Row, 0, len(keys)+len(states))
	out = append(out, keys...)
	for i := range states {
		out = append(out, states[i].result())
	}
	if a.having.eval(ctx, out) {
		a.results = append(a.results, out)
	}
}

// Next implements iterator.
func (a *aggregate) Next(ctx *execCtx) (plan.Row, bool, error) {
	if !a.drained {
		if err := a.drain(ctx); err != nil {
			return nil, false, err
		}
	}
	if a.pos >= len(a.results) {
		return nil, false, nil
	}
	row := a.results[a.pos]
	a.pos++
	ctx.clock.CPUTuples(1)
	return row, true, nil
}

// ReScan implements iterator.
func (a *aggregate) ReScan(ctx *execCtx, outer plan.Row) error {
	// Aggregates over parameterized children must recompute; otherwise the
	// buffered results can simply replay.
	if len(a.node.LookupExprs) > 0 || outer != nil {
		a.results = nil
		a.drained = false
		a.pos = 0
		return a.child.ReScan(ctx, outer)
	}
	a.pos = 0
	return nil
}

// Close implements iterator.
func (a *aggregate) Close() { a.child.Close() }
