package main

import (
	"testing"

	"decibel"
)

// TestOracleCatchesWrongResults runs real facade queries against a
// small dataset, checks that the oracle accepts their answers, then
// corrupts each answer in one way and checks that the oracle rejects
// it.
func TestOracleCatchesWrongResults(t *testing.T) {
	b := newBench("test", 1, 1, false)
	d, err := openDataset(t.TempDir(), 2, decibel.WithEngine("hybrid"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.db.Close()
	ws := make([]write, 500)
	for k := range ws {
		ws[k] = write{pk: d.newPK(), ver: d.newVer()}
	}
	if _, err := d.commit(b, 0, ws, false); err != nil {
		t.Fatal(err)
	}
	f, err := d.branch(b, 0, "f", false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.commit(b, f, []write{{pk: 3, ver: d.newVer()}, {pk: 7}, {pk: d.newPK(), ver: d.newVer()}}, false); err != nil {
		t.Fatal(err)
	}

	scan := func(q *decibel.Query) []row {
		seq, errf := q.Rows()
		var out []row
		for rec := range seq {
			out = append(out, readRow(rec))
		}
		if err := errf(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	pr := pred{kind: pValLt, a: 700_000}
	rows := scan(d.db.Query(tableName).On("f").Where(pr.expr()))
	want := expectRows(d.states[f], pr)
	if err := checkDigest(rows, pr, want); err != nil {
		t.Fatalf("oracle rejects a correct scan: %v", err)
	}
	diff := func() []row {
		seq, errf := d.db.Query(tableName).Diff("f", decibel.Master)
		var out []row
		for rec := range seq {
			out = append(out, readRow(rec))
		}
		if err := errf(); err != nil {
			t.Fatal(err)
		}
		return out
	}()
	if err := checkDigest(diff, pred{}, expectDiff(d.states[f], d.states[0], pred{})); err != nil {
		t.Fatalf("oracle rejects a correct diff: %v", err)
	}

	corrupt := map[string]func([]row) []row{
		"dropped row":   func(r []row) []row { return r[1:] },
		"duplicate row": func(r []row) []row { return append(r, r[0]) },
		"stale version": func(r []row) []row { r[0] = gen(r[0].pk, r[0].ver-1); return r },
		"wrong value":   func(r []row) []row { r[0].val++; return r },
		"unfiltered row": func(r []row) []row {
			for pk := int64(1); ; pk++ {
				if v := gen(pk, int64(d.states[f].get(pk))); d.states[f].get(pk) != 0 && !pr.match(v) {
					return append(r, v)
				}
			}
		},
	}
	for name, mutate := range corrupt {
		bad := mutate(append([]row(nil), rows...))
		if err := checkDigest(bad, pr, want); err == nil {
			t.Errorf("oracle accepted a scan with a %s", name)
		}
	}
	if err := checkOrdered([]row{rows[1], rows[0]}, []row{rows[0], rows[1]}); err == nil {
		t.Error("oracle accepted a top-k in the wrong order")
	}
	got := expectGroups(d.states[f], pr)
	for k, g := range got {
		g.sum++
		got[k] = g
		break
	}
	if err := checkGroups(got, expectGroups(d.states[f], pr)); err == nil {
		t.Error("oracle accepted a wrong group aggregate")
	}
}

// TestTailQuantile pins the tail rule: the highest of p99, p95 and p90
// with at least ten samples above it.
func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{100, 0.90}, {199, 0.90}, {200, 0.95}, {990, 0.95}, {1000, 0.99}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}
