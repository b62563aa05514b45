package plancache

import (
	"fmt"
	"sort"

	"qpp/internal/opt"
	"qpp/internal/plan"
	"qpp/internal/sql"
	"qpp/internal/storage"
)

// Outcome classifies how Plan served a request.
type Outcome uint8

const (
	// OutcomeMiss means the query was planned cold (unknown signature, or
	// the hit path failed and fell back to the full optimizer).
	OutcomeMiss Outcome = iota
	// OutcomeHit means a cached candidate was rebound and served: the
	// only one, or the lowest-cost one when the template has several.
	OutcomeHit
)

// maxCandidates caps the per-template candidate set.
const maxCandidates = 4

// Config is accepted by Build for source compatibility; it tunes
// nothing.
type Config struct {
	// LabelSeed is ignored. Building the cache executes no queries, so
	// there is nothing to seed.
	LabelSeed int64
}

// Candidate is one parameter-free plan skeleton: a recorded join-order
// merge trace plus bookkeeping from the training workload.
type Candidate struct {
	// Trace replays through the ordinary planner to rebuild the full
	// physical plan for any binding.
	Trace *opt.JoinTrace
	// Freq counts how many training draws cold-planned to this skeleton.
	Freq int
}

// Template is the cached state for one canonical signature.
type Template struct {
	// Signature is the canonical template key.
	Signature string
	// Candidates holds the plan skeletons in descending training
	// frequency (ties broken by first appearance). Candidate 0 is the
	// most common optimizer choice and wins cost ties.
	Candidates []Candidate

	stmt *sql.SelectStmt
}

// Cache is an immutable parametric plan cache. Build constructs it off
// the hot path; Plan is safe for concurrent use because serving only
// reads template state and every hit works on a private AST clone. Both
// cache layers — the exact-match memo and the template map — are frozen
// at Build, so the read path takes no locks.
type Cache struct {
	db        *storage.Database
	templates map[string]*Template
	sigs      []string
	// exact memoizes the fully-bound plan for every training-draw query
	// text: the classic shared-plan-cache layer in front of the
	// parametric one. Entries are what planHit produced for that binding
	// at Build time, so an exact hit returns the same plan the rebind
	// path would, minus all of its work.
	exact map[string]*plan.Node
}

// ExactLen returns the number of memoized exact-match entries.
func (c *Cache) ExactLen() int { return len(c.exact) }

// Len returns the number of cached templates.
func (c *Cache) Len() int { return len(c.templates) }

// Signatures returns the cached signatures in first-seen order.
func (c *Cache) Signatures() []string {
	return append([]string(nil), c.sigs...)
}

// Template returns the cached template for a signature, or nil.
func (c *Cache) Template(sig string) *Template { return c.templates[sig] }

// Build cold-plans the training queries, groups them by canonical
// signature, and dedups the recorded join-order traces into per-template
// candidate sets. Queries that fail to lex, parse, or plan are skipped:
// they would fail identically at serving time, so caching them buys
// nothing. Build plans but never executes; cfg is ignored.
func Build(db *storage.Database, queries []string, cfg Config) (*Cache, error) {
	if db == nil {
		return nil, fmt.Errorf("plancache: nil database")
	}
	groups := make(map[string][]string, 32)
	order := make([]string, 0, 32)
	for _, q := range queries {
		sig, _, err := Canonicalize(q)
		if err != nil {
			continue
		}
		if _, ok := groups[sig]; !ok {
			order = append(order, sig)
		}
		groups[sig] = append(groups[sig], q)
	}
	c := &Cache{
		db:        db,
		templates: make(map[string]*Template, len(order)),
		sigs:      make([]string, 0, len(order)),
	}
	for _, sig := range order {
		t, err := buildTemplate(db, sig, groups[sig])
		if err != nil {
			continue
		}
		c.templates[sig] = t
		c.sigs = append(c.sigs, sig)
	}
	// Pre-bind every training draw through the parametric path and
	// memoize the result, so repeats of known query texts at serving
	// time are pure map lookups. Built here, never mutated after.
	c.exact = make(map[string]*plan.Node, len(queries))
	for _, q := range queries {
		if _, ok := c.exact[q]; ok {
			continue
		}
		sig, lits, err := Canonicalize(q)
		if err != nil {
			continue
		}
		t, ok := c.templates[sig]
		if !ok {
			continue
		}
		if node, err := c.planHit(t, lits); err == nil {
			c.exact[q] = node
		}
	}
	return c, nil
}

// candAcc accumulates one deduped candidate during Build.
type candAcc struct {
	trace *opt.JoinTrace
	freq  int
}

func buildTemplate(db *storage.Database, sig string, qs []string) (*Template, error) {
	var cands []*candAcc
	byKey := make(map[string]int, 4)
	keyBuf := make([]byte, 0, 128)
	var tmplStmt *sql.SelectStmt
	for _, q := range qs {
		stmt, err := sql.Parse(q)
		if err != nil {
			return nil, err
		}
		_, trace, err := opt.PlanTraced(db, stmt)
		if err != nil {
			return nil, err
		}
		if tmplStmt == nil {
			tmplStmt = stmt
		}
		keyBuf = trace.AppendKey(keyBuf[:0])
		k := string(keyBuf)
		i, ok := byKey[k]
		if !ok {
			i = len(cands)
			byKey[k] = i
			cands = append(cands, &candAcc{trace: trace})
		}
		cands[i].freq++
	}
	if tmplStmt == nil {
		return nil, fmt.Errorf("plancache: no plannable draws for signature")
	}
	// Fig. 8 frequency-based ordering: the optimizer's most common choice
	// becomes the default candidate; ties keep first-seen order.
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].freq > cands[j].freq })
	if len(cands) > maxCandidates {
		cands = cands[:maxCandidates]
	}
	t := &Template{
		Signature:  sig,
		Candidates: make([]Candidate, len(cands)),
		stmt:       tmplStmt,
	}
	for i, ca := range cands {
		t.Candidates[i] = Candidate{Trace: ca.trace, Freq: ca.freq}
	}
	return t, nil
}

// Plan serves one query. A query text seen during training returns its
// memoized fully-bound plan — a pure map lookup. Otherwise, on a
// signature hit, Plan clones the template AST, stamps in the request's
// literals, and replays every candidate's recorded join order through
// the ordinary planner — skipping parse and the exponential DP search —
// and serves the lowest-cost result. Any hit-path failure falls back to
// cold planning, so Plan never does worse than the optimizer alone.
//
// Exact-match hits return a plan shared by every caller asking for the
// same query text; the prediction path only reads plans, so sharing is
// safe there. Callers that execute plans (execution mutates runtime
// node state) must use bindings outside the training set.
func (c *Cache) Plan(query string) (*plan.Node, Outcome, error) {
	if node, ok := c.exact[query]; ok {
		return node, OutcomeHit, nil
	}
	sig, lits, err := Canonicalize(query)
	if err == nil {
		if t, ok := c.templates[sig]; ok {
			if node, hitErr := c.planHit(t, lits); hitErr == nil {
				return node, OutcomeHit, nil
			}
		}
	}
	node, err := opt.PlanSQL(c.db, query)
	if err != nil {
		return nil, OutcomeMiss, err
	}
	return node, OutcomeMiss, nil
}

// planHit binds lits into the template and returns the candidate replay
// with the lowest estimated total cost; the earliest candidate wins ties.
func (c *Cache) planHit(t *Template, lits []Lit) (*plan.Node, error) {
	stmt := sql.CloneSelect(t.stmt)
	if err := applyLiterals(stmt, lits); err != nil {
		return nil, err
	}
	// The planner never mutates its input AST, so one clone serves every
	// sequential candidate replay.
	var best *plan.Node
	for i := range t.Candidates {
		p, err := opt.PlanReplay(c.db, stmt, t.Candidates[i].Trace)
		if err != nil {
			return nil, err
		}
		if best == nil || p.Est.TotalCost < best.Est.TotalCost {
			best = p
		}
	}
	return best, nil
}
