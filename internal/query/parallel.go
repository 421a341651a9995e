package query

// The sinks every plan terminal hands to the core executor
// (core.Table.RunScan). The executor partitions each scan once and
// either runs its units inline, in order, or fans the frozen ones out
// to the database's worker pool; a sink is asked for each unit's
// consumer knowing which.
//
// Row shapes stream straight to the caller when inline. Fanned out,
// each unit buffers its output (records cloned on the worker) and the
// buffers flush in unit order, reproducing the inline stream exactly.
// When the plan carries Limit/OrderBy the buffers pre-trim: a bare
// Limit stops each unit after `limit` kept rows, and OrderBy+Limit
// keeps a per-unit top-k heap — sound because a row of the global
// top-k is necessarily in its unit's top-k, and exact because both the
// unit trim and EmitOrdered break ordering ties by arrival order. Only
// the facade terminals set Limit/OrderBy, and they always run
// EmitOrdered above these shapes; plans without them emit the exact
// full stream.
//
// Folds (aggregates, group-by) never buffer rows: inline, every unit
// folds straight into the running total; fanned out, each unit folds
// its own partial and the partials merge in unit order. Count, Sum over
// integers, Min, Max and group first-arrival order merge exactly; a
// float Sum associates additions differently than the inline fold, so
// it can differ in the last ulps on data where addition order matters
// (exact on the binary fractions the tests use).

import (
	"container/heap"
	"context"
	"sort"

	"decibel/internal/bitmap"
	"decibel/internal/core"
	"decibel/internal/record"
)

// bufRow is one record a scan unit retained: cloned, with whichever
// annotation its shape needs, tagged with the unit-local arrival
// sequence so trimmed output replays in scan order.
type bufRow struct {
	rec    *record.Record
	member *bitmap.Bitmap
	seq    int
}

// unitBuf buffers one unit's kept rows, pre-trimmed per the plan.
type unitBuf struct {
	rows   []bufRow
	limit  int
	cmp    func(a, b *record.Record) int // nil = storage order
	next   int
	heaped bool
}

// cmpRows is the plan comparator with arrival-order tie-breaking —
// the same total order EmitOrdered ranks by.
func (b *unitBuf) cmpRows(x, y bufRow) int {
	if d := b.cmp(x.rec, y.rec); d != 0 {
		return d
	}
	return x.seq - y.seq
}

// heap.Interface (only used with cmp set): max-heap, the root is the
// worst retained row.
func (b *unitBuf) Len() int           { return len(b.rows) }
func (b *unitBuf) Less(i, j int) bool { return b.cmpRows(b.rows[i], b.rows[j]) > 0 }
func (b *unitBuf) Swap(i, j int)      { b.rows[i], b.rows[j] = b.rows[j], b.rows[i] }
func (b *unitBuf) Push(x any)         { b.rows = append(b.rows, x.(bufRow)) }
func (b *unitBuf) Pop() any {
	n := len(b.rows)
	r := b.rows[n-1]
	b.rows = b.rows[:n-1]
	return r
}

// add retains one kept row; the false return stops the unit early
// (bare Limit satisfied).
func (b *unitBuf) add(row bufRow) bool {
	row.seq = b.next
	b.next++
	if b.cmp != nil && b.limit > 0 {
		b.heaped = true
		if len(b.rows) < b.limit {
			heap.Push(b, row)
		} else if b.cmpRows(row, b.rows[0]) < 0 {
			b.rows[0] = row
			heap.Fix(b, 0)
		}
		return true
	}
	b.rows = append(b.rows, row)
	return b.limit <= 0 || len(b.rows) < b.limit
}

// flush replays the kept rows in scan order.
func (b *unitBuf) flush(emit func(bufRow) bool) bool {
	if b.heaped {
		sort.Slice(b.rows, func(i, j int) bool { return b.rows[i].seq < b.rows[j].seq })
	}
	for _, row := range b.rows {
		if !emit(row) {
			return false
		}
	}
	return true
}

// rowSink is the sink of a row-emitting shape. keep filters on the
// unit annotation (the diff terminal's side selection — trims must
// count only kept rows); fn receives the kept rows with their
// membership (multi-branch scans).
func (c *Compiled) rowSink(ctx context.Context, keep func(core.UnitAux) bool, fn core.UnitFunc) core.Sink {
	limit := c.plan.Limit
	var cmp func(a, b *record.Record) int
	if c.Ordered() {
		cmp = c.orderCmp()
	}
	return core.Sink{Inline: c.plan.NoParallel, Unit: func(_ int, parallel bool) core.UnitSink {
		if !parallel {
			if keep == nil {
				return core.UnitSink{Fn: fn}
			}
			return core.UnitSink{Fn: func(rec *record.Record, aux core.UnitAux) bool {
				return !keep(aux) || fn(rec, aux)
			}}
		}
		b := &unitBuf{limit: limit, cmp: cmp}
		return core.UnitSink{
			Fn: func(rec *record.Record, aux core.UnitAux) bool {
				if keep != nil && !keep(aux) {
					return true
				}
				row := bufRow{rec: rec.Clone()}
				if aux.Member != nil {
					row.member = aux.Member.Clone()
				}
				return b.add(row)
			},
			// The ctx guard keeps the flush phase (the only part that
			// outlives the workers) stopping within one record of
			// cancellation, like the inline path.
			Flush: func() bool {
				return b.flush(func(row bufRow) bool {
					return ctx.Err() == nil && fn(row.rec, core.UnitAux{Member: row.member})
				})
			},
		}
	}}
}

// fold is a streaming aggregation state the fold sink drives: add folds
// one row, fresh returns an empty fold of the same configuration, and
// mergeFrom folds a later unit's partial into the receiver.
type fold[F any] interface {
	add(rec *record.Record)
	fresh() F
	mergeFrom(p F)
}

// foldSink is the sink of a fold: inline, every unit folds straight
// into total; fanned out, each unit folds a fresh partial that merges
// into total in unit order.
func foldSink[F fold[F]](inline bool, total F) core.Sink {
	return core.Sink{Inline: inline, Unit: func(_ int, parallel bool) core.UnitSink {
		if !parallel {
			return core.UnitSink{Fn: func(rec *record.Record, _ core.UnitAux) bool { total.add(rec); return true }}
		}
		p := total.fresh()
		return core.UnitSink{
			Fn:    func(rec *record.Record, _ core.UnitAux) bool { p.add(rec); return true },
			Flush: func() bool { total.mergeFrom(p); return true },
		}
	}}
}

// aggPart is one scalar aggregate's running state.
type aggPart struct {
	n          int
	isum       int64
	fsum       float64
	fmin, fmax float64
}

// observe folds one value (ignored by Count).
func (t *aggPart) observe(kind AggKind, rec *record.Record, ci int, isFloat bool) {
	t.n++
	if kind == AggCount {
		return
	}
	var v float64
	if isFloat {
		v = rec.GetFloat64(ci)
		t.fsum += v
	} else {
		i := rec.Get(ci)
		t.isum += i
		v = float64(i)
	}
	if t.n == 1 || v < t.fmin {
		t.fmin = v
	}
	if t.n == 1 || v > t.fmax {
		t.fmax = v
	}
}

// merge folds a later unit's partial into the running total.
func (t *aggPart) merge(p *aggPart) {
	if p.n == 0 {
		return
	}
	if t.n == 0 {
		*t = *p
		return
	}
	t.n += p.n
	t.isum += p.isum
	t.fsum += p.fsum
	if p.fmin < t.fmin {
		t.fmin = p.fmin
	}
	if p.fmax > t.fmax {
		t.fmax = p.fmax
	}
}

// aggFold is a scalar aggregate over one column: the fold the
// Aggregate terminal drives.
type aggFold struct {
	kind    AggKind
	ci      int
	isFloat bool
	aggPart
}

func (a *aggFold) add(rec *record.Record) { a.observe(a.kind, rec, a.ci, a.isFloat) }
func (a *aggFold) fresh() *aggFold        { return &aggFold{kind: a.kind, ci: a.ci, isFloat: a.isFloat} }
func (a *aggFold) mergeFrom(p *aggFold)   { a.merge(&p.aggPart) }
