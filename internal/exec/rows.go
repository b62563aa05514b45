package exec

import (
	"qpp/internal/plan"
	"qpp/internal/types"
)

// maxSlabValues caps one slab block (320 KiB of types.Value). Blocks
// start at one row and double up to the cap, so an operator that emits a
// single row (a correlated sub-plan's root) allocates no more than it
// would for one row of its own.
const maxSlabValues = 1 << 13

// rowAlloc hands out an operator's output rows under build's retention
// contract. When the parent never retains a row past the next call
// (reuse), every row is the same scratch buffer. Otherwise rows are
// carved from a per-operator []types.Value slab, capped with a full slice
// expression so a parent's append cannot run into the next row; one heap
// allocation then serves many rows instead of one each.
//
// next (or concat) returns the row to fill and keep commits it. A row the
// operator drops (its filter rejects it) is never kept, so the next call
// hands out the same slot again.
type rowAlloc struct {
	reuse   bool
	scratch plan.Row
	slab    []types.Value // uncarved tail of the current block
	block   int           // size of the current block, in values
}

// next returns a row of n values for the operator to overwrite.
func (a *rowAlloc) next(n int) plan.Row {
	if a.reuse {
		if cap(a.scratch) < n {
			a.scratch = make(plan.Row, n)
		}
		return a.scratch[:n]
	}
	if len(a.slab) < n {
		a.block = min(max(2*a.block, n), max(maxSlabValues, n))
		a.slab = make([]types.Value, a.block)
	}
	return a.slab[:n:n]
}

// concat returns the next row filled with x followed by y.
func (a *rowAlloc) concat(x, y plan.Row) plan.Row {
	out := a.next(len(x) + len(y))
	copy(out, x)
	copy(out[len(x):], y)
	return out
}

// keep commits row, the row the last next or concat call returned.
func (a *rowAlloc) keep(row plan.Row) {
	if !a.reuse {
		a.slab = a.slab[len(row):]
	}
}
