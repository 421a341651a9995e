package main

import (
	"fmt"
	"time"

	"decibel"
)

// queryTimer splits one facade query into the spans the query layer
// owns: compile (the terminal call, which compiles the plan and
// returns the iterator), first row (resolution, partitioning, first
// unit) and drain (the rest of the iteration).
type queryTimer struct {
	b           *bench
	cl          string
	root        int64
	t0, t1, frs time.Time
}

func (b *bench) startQuery(o *op) *queryTimer {
	return &queryTimer{b: b, cl: o.cl, root: o.root, t0: time.Now()}
}

func (q *queryTimer) compiled() { q.t1 = time.Now() }

func (q *queryTimer) row() {
	if q.frs.IsZero() {
		q.frs = time.Now()
	}
}

func (q *queryTimer) done(rows int) {
	end := time.Now()
	if q.frs.IsZero() {
		q.frs = end
	}
	b := q.b
	b.addRows(q.cl, rows)
	if !b.traced {
		return
	}
	b.span(0, q.root, "query.compile", q.t0, q.t1, nil)
	b.span(0, q.root, "query.first_row", q.t1, q.frs, nil)
	b.span(0, q.root, "query.drain", q.frs, end, nil)
	b.sample("query.compile_us."+q.cl, float64(q.t1.Sub(q.t0).Nanoseconds())/1e3)
	b.sample("query.first_row_ms."+q.cl, ms(q.frs.Sub(q.t1)))
	b.sample("query.drain_ms."+q.cl, ms(end.Sub(q.frs)))
	b.sample("query.rows_per_op."+q.cl, float64(rows))
}

func (b *bench) scanRows(o *op, q *decibel.Query, buf []row) ([]row, error) {
	t := b.startQuery(o)
	seq, errf := q.RowsContext(ctx)
	t.compiled()
	for rec := range seq {
		t.row()
		buf = append(buf, readRow(rec))
	}
	t.done(len(buf))
	return buf, errf()
}

func (b *bench) diff(o *op, q *decibel.Query, a, bb string, buf []row) ([]row, error) {
	t := b.startQuery(o)
	seq, errf := q.DiffContext(ctx, a, bb)
	t.compiled()
	for rec := range seq {
		t.row()
		buf = append(buf, readRow(rec))
	}
	t.done(len(buf))
	return buf, errf()
}

// annotatedRow is a heads-scan row with the hash of its branch set.
type annotatedRow struct {
	row
	set uint64
}

func (b *bench) annotated(o *op, q *decibel.Query, index map[string]int, buf []annotatedRow) ([]annotatedRow, error) {
	t := b.startQuery(o)
	seq, errf := q.AnnotatedContext(ctx)
	t.compiled()
	for rec, names := range seq {
		t.row()
		var set uint64
		for _, n := range names {
			i, ok := index[n]
			if !ok {
				i = -1000
			}
			set ^= mix64(uint64(i) + 1)
		}
		buf = append(buf, annotatedRow{readRow(rec), set})
	}
	t.done(len(buf))
	return buf, errf()
}

func (b *bench) tuples(o *op, q *decibel.Query, buf [][2]row) ([][2]row, error) {
	t := b.startQuery(o)
	seq, errf := q.TuplesContext(ctx)
	t.compiled()
	for tup := range seq {
		t.row()
		if len(tup) != 2 {
			return buf, fmt.Errorf("join tuple has %d relations, want 2", len(tup))
		}
		buf = append(buf, [2]row{readRow(tup[0]), readRow(tup[1])})
	}
	t.done(len(buf))
	return buf, errf()
}

func (b *bench) groups(o *op, q *decibel.Query) (map[int64]groupAgg, error) {
	t := b.startQuery(o)
	seq, errf := q.GroupsContext(ctx, decibel.Count(), decibel.Sum("val"))
	t.compiled()
	out := make(map[int64]groupAgg)
	for g := range seq {
		t.row()
		k, ok := g.Key[0].(int64)
		if !ok || len(g.Aggs) != 2 {
			return out, fmt.Errorf("group row %v has an unexpected shape", g)
		}
		out[k] = groupAgg{count: g.Aggs[0], sum: g.Aggs[1]}
	}
	t.done(len(out))
	return out, errf()
}

// checkDigest verifies rows against the oracle: each row carries the
// values its version generates and matches p, and together they have
// the expected count and fingerprint.
func checkDigest(rows []row, p pred, want digest) error {
	var got digest
	for _, r := range rows {
		if !checkRow(r) {
			return fmt.Errorf("row pk=%d ver=%d carries wrong values", r.pk, r.ver)
		}
		if !p.match(r) {
			return fmt.Errorf("row pk=%d does not satisfy the predicate", r.pk)
		}
		got.addRow(r.pk, r.ver)
	}
	if got != want {
		return fmt.Errorf("got %d rows (sum %x), want %d (sum %x)", got.N, got.Sum, want.N, want.Sum)
	}
	return nil
}

func checkGroups(got, want map[int64]groupAgg) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d groups, want %d", len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok || g.count != w.count || !floatEq(g.sum, w.sum) {
			return fmt.Errorf("group %d: got %+v, want %+v", k, g, w)
		}
	}
	return nil
}

func checkOrdered(got, want []row) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d ordered rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("ordered row %d: got pk=%d ver=%d, want pk=%d ver=%d", i, got[i].pk, got[i].ver, want[i].pk, want[i].ver)
		}
	}
	return nil
}
