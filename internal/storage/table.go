// Package storage provides the in-memory row store behind the engine:
// heap tables with page accounting, primary-key indexes, and the database
// container tying tables to catalog metadata and statistics. Pages are a
// bookkeeping notion — rows live in memory, but every operator that touches
// a table reports the pages it would have read so the virtual device model
// can charge I/O the way a disk-resident system would experience it.
package storage

import (
	"fmt"
	"sort"

	"qpp/internal/catalog"
	"qpp/internal/types"
)

// Row is one tuple.
type Row = []types.Value

// Table is an in-memory heap of rows plus page-layout accounting.
type Table struct {
	Meta *catalog.Table
	Rows []Row

	// RowsPerPage is how many tuples share one 8 KiB page given the table's
	// average row width; it maps a row offset to a page number.
	RowsPerPage int
	// Pages is the heap size in pages.
	Pages int64
}

// NewTable builds a table and computes its page layout.
func NewTable(meta *catalog.Table, rows []Row) *Table {
	t := &Table{Meta: meta, Rows: rows}
	var width float64
	sample := len(rows)
	if sample > 1000 {
		sample = 1000
	}
	for i := 0; i < sample; i++ {
		for _, v := range rows[i] {
			width += float64(v.Width())
		}
	}
	if sample > 0 {
		width /= float64(sample)
	}
	rpp := int(float64(catalog.PageSize) / (width + 24))
	if rpp < 1 {
		rpp = 1
	}
	t.RowsPerPage = rpp
	t.Pages = int64(len(rows)/rpp) + 1
	return t
}

// PageOf returns the page number holding the row at offset i.
func (t *Table) PageOf(i int) int64 { return int64(i / t.RowsPerPage) }

// Index is an ordered secondary structure over one or more columns: row
// offsets sorted by key, with an equality hash on the full key for O(1)
// point lookups. It stands in for the B-tree primary-key indexes the TPC-H
// spec mandates.
type Index struct {
	Name    string
	Table   *Table
	Cols    []int // column ordinals, in key order
	ordered []int // row offsets sorted by key
	hash    map[string][]int
	// LeafPages approximates the index size for the cost model.
	LeafPages int64
}

// BuildIndex constructs an index over the given column ordinals.
func BuildIndex(name string, t *Table, cols []int) *Index {
	idx := &Index{Name: name, Table: t, Cols: cols, hash: make(map[string][]int, len(t.Rows))}
	idx.ordered = make([]int, len(t.Rows))
	for i := range t.Rows {
		idx.ordered[i] = i
	}
	sort.SliceStable(idx.ordered, func(a, b int) bool {
		return idx.compareRows(idx.ordered[a], idx.ordered[b]) < 0
	})
	for i := range t.Rows {
		k := idx.keyOf(i)
		idx.hash[k] = append(idx.hash[k], i)
	}
	// ~200 key entries per 8 KiB leaf page, a B-tree-like density.
	idx.LeafPages = int64(len(t.Rows)/200) + 1
	return idx
}

func (idx *Index) compareRows(a, b int) int {
	ra, rb := idx.Table.Rows[a], idx.Table.Rows[b]
	for _, c := range idx.Cols {
		va, vb := ra[c], rb[c]
		if va.IsNull() || vb.IsNull() {
			if va.IsNull() && !vb.IsNull() {
				return 1
			}
			if !va.IsNull() && vb.IsNull() {
				return -1
			}
			continue
		}
		if cmp := types.Compare(va, vb); cmp != 0 {
			return cmp
		}
	}
	return 0
}

func (idx *Index) keyOf(row int) string {
	r := idx.Table.Rows[row]
	k := ""
	for i, c := range idx.Cols {
		if i > 0 {
			k += "\x00"
		}
		k += r[c].Key()
	}
	return k
}

// KeyFor renders lookup values into the index's key encoding. The number
// of values must equal the number of key columns.
func (idx *Index) KeyFor(vals []types.Value) string {
	k := ""
	for i, v := range vals {
		if i > 0 {
			k += "\x00"
		}
		k += v.Key()
	}
	return k
}

// Lookup returns the row offsets whose full key equals vals.
func (idx *Index) Lookup(vals []types.Value) []int {
	return idx.hash[idx.KeyFor(vals)]
}

// LookupKey returns the row offsets whose rendered key (the KeyFor
// encoding: Value.Key pieces joined by NUL) equals key. Taking the key as
// bytes lets the executor probe with a reused buffer — the string(key)
// conversion in a map index expression does not allocate.
func (idx *Index) LookupKey(key []byte) []int {
	return idx.hash[string(key)]
}

// LookupPrefix returns row offsets whose leading key column equals v,
// in key order. Used for single-column equality on composite keys.
func (idx *Index) LookupPrefix(v types.Value) []int {
	c := idx.Cols[0]
	lo := sort.Search(len(idx.ordered), func(i int) bool {
		rv := idx.Table.Rows[idx.ordered[i]][c]
		return rv.IsNull() || types.Compare(rv, v) >= 0
	})
	var out []int
	for i := lo; i < len(idx.ordered); i++ {
		rv := idx.Table.Rows[idx.ordered[i]][c]
		if rv.IsNull() || !types.Equal(rv, v) {
			break
		}
		out = append(out, idx.ordered[i])
	}
	return out
}

// Ordered returns all row offsets in key order (an index full scan).
func (idx *Index) Ordered() []int { return idx.ordered }

// Database bundles schema, heap tables, indexes and statistics.
type Database struct {
	Schema  *catalog.Schema
	Tables  map[string]*Table
	Indexes map[string]*Index // keyed by table name (primary key index)
	Stats   map[string]*catalog.TableStats
}

// NewDatabase returns an empty database over the given schema.
func NewDatabase(schema *catalog.Schema) *Database {
	return &Database{
		Schema:  schema,
		Tables:  map[string]*Table{},
		Indexes: map[string]*Index{},
		Stats:   map[string]*catalog.TableStats{},
	}
}

// Load installs rows for a schema table, builds its primary-key index and
// analyzes it with the streaming-sketch ANALYZE (catalog.AnalyzeRowsSketch,
// one bounded-memory pass).
func (db *Database) Load(name string, rows []Row) error {
	meta, ok := db.Schema.Table(name)
	if !ok {
		return fmt.Errorf("storage: unknown table %q", name)
	}
	for i, r := range rows {
		if len(r) != len(meta.Columns) {
			return fmt.Errorf("storage: table %q row %d has %d columns, want %d", name, i, len(r), len(meta.Columns))
		}
	}
	t := NewTable(meta, rows)
	db.Tables[name] = t
	if len(meta.PrimaryKey) > 0 {
		db.Indexes[name] = BuildIndex(name+"_pkey", t, meta.PrimaryKey)
	}
	db.Stats[name] = catalog.AnalyzeRowsSketch(meta, rows)
	return nil
}

// Table returns the named heap table.
func (db *Database) Table(name string) (*Table, bool) {
	t, ok := db.Tables[name]
	return t, ok
}

// PrimaryIndex returns the primary-key index of the named table, if any.
func (db *Database) PrimaryIndex(name string) (*Index, bool) {
	i, ok := db.Indexes[name]
	return i, ok
}

// TableStats returns the analyzed statistics of the named table.
func (db *Database) TableStats(name string) (*catalog.TableStats, bool) {
	s, ok := db.Stats[name]
	return s, ok
}
