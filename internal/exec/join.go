package exec

import (
	"qpp/internal/plan"
	"qpp/internal/types"
)

// hashJoin implements inner, left-outer, semi, and anti hash joins. The
// right child (wrapped in a Hash node by the planner) is the build side.
type hashJoin struct {
	node  *plan.Node
	left  iterator
	right iterator

	table      joinTable
	nullRight  plan.Row
	cur        plan.Row // current left row with pending matches
	matches    []int32  // cur's entries that passed the join filter (table-owned)
	matchIdx   int
	key        []types.Value // reused probe/build key
	keysL      []evalFn
	keysR      []evalFn
	filter     compiledFilter
	joinF      compiledFilter
	out        rowAlloc
	buildBytes float64
}

// Open implements iterator.
func (h *hashJoin) Open(ctx *execCtx) error {
	h.filter = ctx.compileFilter(h.node.Filter)
	h.joinF = ctx.compileFilter(h.node.JoinFilter)
	h.keysL = ctx.compileScalars(h.node.HashKeysL)
	h.keysR = ctx.compileScalars(h.node.HashKeysR)
	h.key = make([]types.Value, len(h.keysR))
	h.nullRight = make(plan.Row, len(h.node.Children[1].Cols))
	for i := range h.nullRight {
		h.nullRight[i] = types.Null
	}
	if err := h.left.Open(ctx); err != nil {
		return err
	}
	return h.build(ctx)
}

// buildHint sizes the hash table from the build side's cardinality
// estimate, clamped against wild estimates.
func (h *hashJoin) buildHint() int {
	est := int(h.node.Children[1].Est.Rows)
	if est < 1 {
		est = 1
	}
	if est > 1<<16 {
		est = 1 << 16
	}
	return est
}

func (h *hashJoin) build(ctx *execCtx) error {
	h.table.reset(len(h.keysR), h.buildHint())
	h.buildBytes = 0
	if err := h.right.Open(ctx); err != nil {
		return err
	}
	for {
		row, ok, err := h.right.Next(ctx)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if !evalJoinKey(ctx, h.keysR, row, h.key) {
			continue
		}
		ctx.clock.HashOps(1)
		h.table.insert(hashKey(h.key), h.key, row)
		for _, v := range row {
			h.buildBytes += float64(v.Width())
		}
	}
	h.table.finish()
	// Spill batches when the build side exceeds work_mem, as a real hash
	// join would (charged as write+read of the overflow).
	workBytes := float64(ctx.clock.WorkMemPages()) * 8192
	if h.buildBytes > workBytes {
		overflowPages := (h.buildBytes - workBytes) / 8192
		ctx.clock.SpillPages(overflowPages)
		h.node.Act.Pages += overflowPages
	}
	ctx.clock.Barrier()
	return nil
}

// probe collects the table entries matching left's key that pass the
// join filter into h.matches, in build order.
func (h *hashJoin) probe(ctx *execCtx, left plan.Row) {
	h.matches = nil
	if !evalJoinKey(ctx, h.keysL, left, h.key) {
		return
	}
	h.matches = h.table.lookup(hashKey(h.key), h.key)
	if h.node.JoinFilter == nil || len(h.matches) == 0 {
		return
	}
	// Evaluate the join filter over every match before any is emitted, so
	// semi/anti/left joins decide match existence on the filtered set.
	// The candidate row is never kept, so its slot is free again after.
	kept := h.matches[:0]
	for _, e := range h.matches {
		right := h.table.rows[e]
		if h.joinF.eval(ctx, h.out.concat(left, right)) {
			kept = append(kept, e)
		}
	}
	h.matches = kept
}

// emit concatenates left and right into an output row and returns it if
// the node filter passes; a rejected row's slot is reused.
func (h *hashJoin) emit(ctx *execCtx, left, right plan.Row) (plan.Row, bool) {
	out := h.out.concat(left, right)
	ctx.clock.CPUTuples(1)
	if !h.filter.eval(ctx, out) {
		return nil, false
	}
	h.out.keep(out)
	return out, true
}

// forward returns the probe row itself (semi/anti joins). The probe child
// may overwrite it on its next call, so a retaining parent gets a copy.
func (h *hashJoin) forward(left plan.Row) plan.Row {
	if h.out.reuse {
		return left
	}
	out := h.out.next(len(left))
	copy(out, left)
	h.out.keep(out)
	return out
}

// Next implements iterator.
func (h *hashJoin) Next(ctx *execCtx) (plan.Row, bool, error) {
	for {
		// Emit pending matches of the current left row. They have already
		// passed the join filter.
		for h.cur != nil && h.matchIdx < len(h.matches) {
			right := h.table.rows[h.matches[h.matchIdx]]
			h.matchIdx++
			if out, ok := h.emit(ctx, h.cur, right); ok {
				return out, true, nil
			}
		}
		h.cur = nil

		left, ok, err := h.left.Next(ctx)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			return nil, false, nil
		}
		ctx.clock.HashOps(1)
		h.probe(ctx, left)
		switch h.node.JoinType {
		case plan.JoinSemi:
			if len(h.matches) > 0 {
				ctx.clock.CPUTuples(1)
				if h.filter.eval(ctx, left) {
					return h.forward(left), true, nil
				}
			}
		case plan.JoinAnti:
			if len(h.matches) == 0 {
				ctx.clock.CPUTuples(1)
				if h.filter.eval(ctx, left) {
					return h.forward(left), true, nil
				}
			}
		case plan.JoinLeft:
			if len(h.matches) == 0 {
				if out, ok := h.emit(ctx, left, h.nullRight); ok {
					return out, true, nil
				}
				continue
			}
			h.cur = left
			h.matchIdx = 0
		default: // inner
			if len(h.matches) > 0 {
				h.cur = left
				h.matchIdx = 0
			}
		}
	}
}

// ReScan implements iterator.
func (h *hashJoin) ReScan(ctx *execCtx, outer plan.Row) error {
	h.cur = nil
	h.matches = nil
	// The hash table survives a rescan; only the probe side restarts.
	return h.left.ReScan(ctx, outer)
}

// Close implements iterator.
func (h *hashJoin) Close() {
	h.left.Close()
	h.right.Close()
	h.table = joinTable{}
}

// nestedLoop joins by rescanning the inner side per outer row; the inner
// is typically a Materialize node or a parameterized index scan.
type nestedLoop struct {
	node       *plan.Node
	outer      iterator
	inner      iterator
	curOuter   plan.Row
	innerValid bool
	matched    bool
	nullInner  plan.Row
	joinF      compiledFilter
	filter     compiledFilter
	out        rowAlloc
}

// Open implements iterator.
func (n *nestedLoop) Open(ctx *execCtx) error {
	n.joinF = ctx.compileFilter(n.node.JoinFilter)
	n.filter = ctx.compileFilter(n.node.Filter)
	n.nullInner = make(plan.Row, len(n.node.Children[1].Cols))
	for i := range n.nullInner {
		n.nullInner[i] = types.Null
	}
	n.curOuter = nil
	n.innerValid = false
	if err := n.outer.Open(ctx); err != nil {
		return err
	}
	return n.inner.Open(ctx)
}

// Next implements iterator.
func (n *nestedLoop) Next(ctx *execCtx) (plan.Row, bool, error) {
	for {
		if n.curOuter == nil {
			row, ok, err := n.outer.Next(ctx)
			if err != nil {
				return nil, false, err
			}
			if !ok {
				return nil, false, nil
			}
			n.curOuter = row
			n.matched = false
			if err := n.inner.ReScan(ctx, row); err != nil {
				return nil, false, err
			}
			n.innerValid = true
		}
		inner, ok, err := n.inner.Next(ctx)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			outerRow := n.curOuter
			wasMatched := n.matched
			n.curOuter = nil
			switch n.node.JoinType {
			case plan.JoinAnti:
				if !wasMatched {
					ctx.clock.CPUTuples(1)
					if n.filter.eval(ctx, outerRow) {
						return outerRow, true, nil
					}
				}
			case plan.JoinLeft:
				if !wasMatched {
					out := n.out.concat(outerRow, n.nullInner)
					ctx.clock.CPUTuples(1)
					if n.filter.eval(ctx, out) {
						n.out.keep(out)
						return out, true, nil
					}
				}
			}
			continue
		}
		out := n.out.concat(n.curOuter, inner)
		ctx.clock.CPUTuples(1)
		if n.node.JoinFilter != nil && !n.joinF.eval(ctx, out) {
			continue
		}
		n.matched = true
		switch n.node.JoinType {
		case plan.JoinSemi:
			outerRow := n.curOuter
			n.curOuter = nil // advance after first match
			if n.filter.eval(ctx, outerRow) {
				return outerRow, true, nil
			}
		case plan.JoinAnti:
			n.curOuter = nil // disqualified; next outer row
		default:
			if n.filter.eval(ctx, out) {
				n.out.keep(out)
				return out, true, nil
			}
		}
	}
}

// ReScan implements iterator.
func (n *nestedLoop) ReScan(ctx *execCtx, outer plan.Row) error {
	n.curOuter = nil
	return n.outer.ReScan(ctx, outer)
}

// Close implements iterator.
func (n *nestedLoop) Close() {
	n.outer.Close()
	n.inner.Close()
}

// mergeJoin joins two inputs sorted on their merge keys (inner join only;
// the planner only selects it for inner equi-joins over ordered inputs).
type mergeJoin struct {
	node  *plan.Node
	left  iterator
	right iterator

	leftRow   plan.Row
	leftOK    bool
	rightRows []plan.Row // buffered right group with equal key
	rightNext plan.Row
	rightOK   bool
	groupIdx  int
	filter    compiledFilter
	joinF     compiledFilter
	out       rowAlloc
}

// Open implements iterator.
func (m *mergeJoin) Open(ctx *execCtx) error {
	m.filter = ctx.compileFilter(m.node.Filter)
	m.joinF = ctx.compileFilter(m.node.JoinFilter)
	if err := m.left.Open(ctx); err != nil {
		return err
	}
	if err := m.right.Open(ctx); err != nil {
		return err
	}
	m.leftRow, m.leftOK = nil, false
	m.rightRows = nil
	m.rightNext, m.rightOK = nil, false
	var err error
	m.leftRow, m.leftOK, err = m.left.Next(ctx)
	if err != nil {
		return err
	}
	m.rightNext, m.rightOK, err = m.right.Next(ctx)
	return err
}

func (m *mergeJoin) cmpKeys(a, b plan.Row) int {
	for i := range m.node.MergeKeysL {
		va := a[m.node.MergeKeysL[i]]
		vb := b[m.node.MergeKeysR[i]]
		if va.IsNull() || vb.IsNull() {
			if va.IsNull() && vb.IsNull() {
				continue
			}
			if va.IsNull() {
				return 1
			}
			return -1
		}
		if c := types.Compare(va, vb); c != 0 {
			return c
		}
	}
	return 0
}

// Next implements iterator.
func (m *mergeJoin) Next(ctx *execCtx) (plan.Row, bool, error) {
	for {
		// Emit pending pairs from the buffered right group.
		if m.groupIdx < len(m.rightRows) {
			right := m.rightRows[m.groupIdx]
			m.groupIdx++
			out := m.out.concat(m.leftRow, right)
			ctx.clock.CPUTuples(1)
			if m.node.JoinFilter != nil && !m.joinF.eval(ctx, out) {
				continue
			}
			if !m.filter.eval(ctx, out) {
				continue
			}
			m.out.keep(out)
			return out, true, nil
		}
		if !m.leftOK {
			return nil, false, nil
		}
		if len(m.rightRows) > 0 {
			// Advance left; if the key is unchanged, replay the group.
			prev := m.leftRow
			var err error
			m.leftRow, m.leftOK, err = m.left.Next(ctx)
			if err != nil {
				return nil, false, err
			}
			if m.leftOK && m.sameLeftKey(prev, m.leftRow) {
				m.groupIdx = 0
				continue
			}
			m.rightRows = nil
			continue
		}
		// Align the two sides.
		if !m.rightOK {
			return nil, false, nil
		}
		ctx.clock.CPUTuples(1)
		c := m.cmpKeys(m.leftRow, m.rightNext)
		switch {
		case c < 0:
			var err error
			m.leftRow, m.leftOK, err = m.left.Next(ctx)
			if err != nil {
				return nil, false, err
			}
			if !m.leftOK {
				return nil, false, nil
			}
		case c > 0:
			var err error
			m.rightNext, m.rightOK, err = m.right.Next(ctx)
			if err != nil {
				return nil, false, err
			}
			if !m.rightOK {
				return nil, false, nil
			}
		default:
			// Buffer the full right group with this key.
			m.rightRows = m.rightRows[:0]
			first := m.rightNext
			m.rightRows = append(m.rightRows, first)
			for {
				var err error
				m.rightNext, m.rightOK, err = m.right.Next(ctx)
				if err != nil {
					return nil, false, err
				}
				if !m.rightOK || m.cmpKeys(m.leftRow, m.rightNext) != 0 {
					break
				}
				m.rightRows = append(m.rightRows, m.rightNext)
			}
			m.groupIdx = 0
		}
	}
}

func (m *mergeJoin) sameLeftKey(a, b plan.Row) bool {
	for _, k := range m.node.MergeKeysL {
		va, vb := a[k], b[k]
		if va.IsNull() || vb.IsNull() {
			return false
		}
		if types.Compare(va, vb) != 0 {
			return false
		}
	}
	return true
}

// ReScan implements iterator.
func (m *mergeJoin) ReScan(ctx *execCtx, outer plan.Row) error {
	if err := m.left.ReScan(ctx, outer); err != nil {
		return err
	}
	if err := m.right.ReScan(ctx, outer); err != nil {
		return err
	}
	m.rightRows = nil
	m.groupIdx = 0
	var err error
	m.leftRow, m.leftOK, err = m.left.Next(ctx)
	if err != nil {
		return err
	}
	m.rightNext, m.rightOK, err = m.right.Next(ctx)
	return err
}

// Close implements iterator.
func (m *mergeJoin) Close() {
	m.left.Close()
	m.right.Close()
}
