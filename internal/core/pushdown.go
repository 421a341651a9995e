package core

import (
	"fmt"

	"decibel/internal/record"
)

// ScanSpec is the part of a logical query plan an engine can execute
// inside its own scan loops: a predicate evaluated on the raw encoded
// record before it is materialized, and a column projection applied to
// the records that survive it. The planner in internal/query compiles
// name-based typed predicates down to the raw form; every engine's
// scan units evaluate it per heap slot and skip the
// record-materialization (and, for multi-branch scans, whole pages)
// for rows that cannot match.
//
// A ScanSpec is single-use per scan: the projection reuses one scratch
// record, so it must not be shared between concurrent scans. Records
// produced by Apply alias either the engine's buffer or that scratch
// record and must be Cloned to be retained, like every scan output.
type ScanSpec struct {
	schema *record.Schema
	// Pred evaluates the predicate against one encoded record buffer
	// (header byte included). nil matches every record.
	Pred func(buf []byte) bool

	// hist/epoch make the spec version-aware: schema is the table
	// schema visible at epoch, and Prep converts buffers stored under
	// older physical layouts into it before Pred or Apply see them. A
	// nil hist spec only handles buffers already in schema's layout.
	hist  *record.History
	epoch int

	cols    []int          // source column index per output column
	out     *record.Schema // projected schema (nil = no projection)
	scratch *record.Record

	// bounds are the planner's per-column interval constraints and
	// visPhys the visible-to-physical column mapping they are resolved
	// through; see SetBounds/SkipSegment in bounds.go. Both are
	// immutable once set and shared by Clone.
	bounds  []Bound
	visPhys []int
}

// NewScanSpec builds a spec over the table schema. pred may be nil
// (match all). cols lists the projected column indices; nil keeps every
// column. The primary key (column 0) is always part of the projection —
// it is prepended when absent — because Decibel addresses records by
// key across versions.
func NewScanSpec(schema *record.Schema, pred func([]byte) bool, cols []int) (*ScanSpec, error) {
	sp := &ScanSpec{schema: schema, Pred: pred}
	return sp.project0(cols)
}

// NewScanSpecAt builds a version-aware spec: the scan's target schema
// is the one visible at the given schema epoch of the table's history,
// and Prep supplies the per-segment conversions that decode buffers
// stored under older layouts (defaults filled, columns projected to
// the epoch's view) without touching the stored pages.
func NewScanSpecAt(hist *record.History, epoch int, pred func([]byte) bool, cols []int) (*ScanSpec, error) {
	sp := &ScanSpec{schema: hist.VisibleAt(epoch), Pred: pred, hist: hist, epoch: epoch}
	return sp.project0(cols)
}

// Epoch returns the schema epoch the spec's target schema is resolved
// at (0 for version-unaware specs).
func (sp *ScanSpec) Epoch() int { return sp.epoch }

// Prep returns the conversion for buffers stored under the physical
// layout with physCols columns, or nil when they are already in the
// spec's target layout (the common case — engines then skip the call
// per record). Each returned function owns a fresh scratch buffer, so
// Prep itself does not make the spec stateful; the converted buffer it
// returns is only valid until the next call of that same function.
func (sp *ScanSpec) Prep(physCols int) (func(buf []byte) []byte, error) {
	if sp.hist == nil {
		return nil, nil
	}
	cv, err := sp.hist.Conv(physCols, sp.epoch)
	if err != nil {
		return nil, err
	}
	if cv.Identity() {
		return nil, nil
	}
	scratch := cv.NewScratch()
	return func(buf []byte) []byte { return cv.Convert(buf, scratch) }, nil
}

// Clone returns a spec sharing the compiled predicate, schema history
// and resolved projection, but with its own projection scratch record
// — the only stateful piece of a spec. Cloning per execution is what
// lets a compiled plan be reused instead of re-planned.
func (sp *ScanSpec) Clone() *ScanSpec {
	c := *sp
	if sp.out != nil {
		c.scratch = record.New(sp.out)
	}
	return &c
}

// project0 resolves the projection column indices.
func (sp *ScanSpec) project0(cols []int) (*ScanSpec, error) {
	schema := sp.schema
	if cols == nil {
		return sp, nil
	}
	need0 := true
	for _, c := range cols {
		if c == 0 {
			need0 = false
		}
	}
	if need0 {
		cols = append([]int{0}, cols...)
	}
	outCols := make([]record.Column, len(cols))
	for i, c := range cols {
		if c < 0 || c >= schema.NumColumns() {
			return nil, fmt.Errorf("%w: column index %d", ErrNoSuchColumn, c)
		}
		outCols[i] = schema.Column(c)
	}
	out, err := record.NewSchema(outCols...)
	if err != nil {
		return nil, err
	}
	sp.cols = cols
	sp.out = out
	sp.scratch = record.New(out)
	return sp, nil
}

// Out returns the schema of the records the spec emits: the projected
// schema when a projection is set, the table schema otherwise.
func (sp *ScanSpec) Out() *record.Schema {
	if sp.out != nil {
		return sp.out
	}
	return sp.schema
}

// Apply evaluates the spec against one encoded record buffer. It
// returns nil when the predicate filters the record out; otherwise the
// (possibly projected) record, which aliases buf or the spec's scratch
// record and must not be retained across calls.
func (sp *ScanSpec) Apply(buf []byte) (*record.Record, error) {
	if sp.Pred != nil && !sp.Pred(buf) {
		return nil, nil
	}
	src, err := record.FromBytes(sp.schema, buf)
	if err != nil {
		return nil, err
	}
	if sp.out == nil {
		return src, nil
	}
	return sp.project(src), nil
}

// project copies the projected columns of src into the scratch record.
func (sp *ScanSpec) project(src *record.Record) *record.Record {
	dst := sp.scratch
	dst.Bytes()[0] = src.Bytes()[0] // header flags (tombstone)
	for i, c := range sp.cols {
		copy(dst.ColumnBytes(i), src.ColumnBytes(c))
	}
	return dst
}
