package query

import (
	"context"
	"errors"
	"sort"
	"testing"

	"decibel/internal/bitmap"
	"decibel/internal/core"
	"decibel/internal/hy"
	"decibel/internal/record"
	"decibel/internal/tf"
	"decibel/internal/vf"
	"decibel/internal/vgraph"
)

func schema() *record.Schema {
	return record.MustSchema(
		record.Column{Name: "id", Type: record.Int64},
		record.Column{Name: "v", Type: record.Int64},
	)
}

func rec(s *record.Schema, pk, v int64) *record.Record {
	r := record.New(s)
	r.SetPK(pk)
	r.Set(1, v)
	return r
}

// fixture builds: master with pks 1..10 (v = pk), committed; branch dev
// with pk 3 updated (v=33), pk 10 deleted, pk 11 added.
func fixture(t *testing.T, factory core.Factory) (*core.Database, *core.Table, *vgraph.Branch, *vgraph.Branch) {
	t.Helper()
	db, err := core.Open(t.TempDir(), factory, core.Options{PageSize: 4096, PoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	s := schema()
	if _, err := db.CreateTable("r", s); err != nil {
		t.Fatal(err)
	}
	master, _, err := db.Init("init")
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("r")
	for pk := int64(1); pk <= 10; pk++ {
		tbl.Insert(master.ID, rec(s, pk, pk))
	}
	db.Commit(master.ID, "base")
	dev, err := db.BranchFromHead("dev", "master")
	if err != nil {
		t.Fatal(err)
	}
	tbl.Insert(dev.ID, rec(s, 3, 33))
	tbl.Delete(dev.ID, 10)
	tbl.Insert(dev.ID, rec(s, 11, 11))
	return db, tbl, master, dev
}

func factories() map[string]core.Factory {
	return map[string]core.Factory{
		"tuple-first":   tf.Factory,
		"version-first": vf.Factory,
		"hybrid":        hy.Factory,
	}
}

// planFixture builds the fixture dataset and returns the database.
func planFixture(t *testing.T, factory core.Factory) *core.Database {
	t.Helper()
	db, _, _, _ := fixture(t, factory)
	return db
}

// compile compiles a plan over the fixture's table "r" or fails the
// test.
func compile(t *testing.T, db *core.Database, p Plan) *Compiled {
	t.Helper()
	p.Table = "r"
	c, err := p.Compile(db)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// count runs the Count aggregate of a single-branch head plan.
func count(t *testing.T, db *core.Database, branch string, where Expr) int {
	t.Helper()
	n, err := compile(t, db, Plan{Branches: []string{branch}, AtSeq: -1, Where: where}).
		Aggregate(context.Background(), AggCount, "")
	if err != nil {
		t.Fatal(err)
	}
	return int(n)
}

// TestQ1SingleVersionScan is Query 1: a single-version scan under a
// predicate, counted per branch head.
func TestQ1SingleVersionScan(t *testing.T) {
	for name, f := range factories() {
		t.Run(name, func(t *testing.T) {
			db := planFixture(t, f)
			if n := count(t, db, "master", Expr{}); n != 10 {
				t.Fatalf("master count = %d", n)
			}
			if n := count(t, db, "dev", Expr{}); n != 10 { // 10 - deleted + added
				t.Fatalf("dev count = %d", n)
			}
			if n := count(t, db, "dev", Col("v").Eq(33)); n != 1 {
				t.Fatalf("pred count = %d", n)
			}
			if n := count(t, db, "master", Col("v").Lt(6)); n != 5 {
				t.Fatalf("less count = %d", n)
			}
		})
	}
}

// TestQ2PositiveDiff is Query 2: the records of one branch head that
// are not live in the other, in both directions.
func TestQ2PositiveDiff(t *testing.T) {
	for name, f := range factories() {
		t.Run(name, func(t *testing.T) {
			db := planFixture(t, f)
			diff := func(a, b string) []int64 {
				var pks []int64
				err := compile(t, db, Plan{Branches: []string{a, b}, AtSeq: -1}).
					Diff(context.Background(), func(r *record.Record) bool {
						pks = append(pks, r.PK())
						return true
					})
				if err != nil {
					t.Fatal(err)
				}
				sort.Slice(pks, func(i, j int) bool { return pks[i] < pks[j] })
				return pks
			}
			// dev-not-master: updated 3 (new copy), added 11.
			if pks := diff("dev", "master"); len(pks) != 2 || pks[0] != 3 || pks[1] != 11 {
				t.Fatalf("dev-not-master = %v", pks)
			}
			// master-not-dev: old copy of 3, deleted 10.
			if pks := diff("master", "dev"); len(pks) != 2 || pks[0] != 3 || pks[1] != 10 {
				t.Fatalf("master-not-dev = %v", pks)
			}
		})
	}
}

// TestQ3VersionJoin is Query 3: a primary-key join of two branch heads
// of one table, with the predicate on the left leg only, emitted in
// ascending key order.
func TestQ3VersionJoin(t *testing.T) {
	for name, f := range factories() {
		t.Run(name, func(t *testing.T) {
			db := planFixture(t, f)
			join := func(where Expr) []JoinTuple {
				c := compile(t, db, Plan{Branches: []string{"master"}, AtSeq: -1, Where: where,
					Joins: []JoinLeg{{Plan: Plan{Table: "r", Branches: []string{"dev"}, AtSeq: -1}, LeftCol: "id", RightCol: "id"}}})
				var out []JoinTuple
				if err := c.JoinTuples(context.Background(), func(tup JoinTuple) bool {
					out = append(out, tup)
					return true
				}); err != nil {
					t.Fatal(err)
				}
				return out
			}
			// Join all shared keys: 1..9 (10 deleted in dev, 11 absent in master).
			pairs := join(Expr{})
			if len(pairs) != 9 {
				t.Fatalf("join rows = %d, want 9", len(pairs))
			}
			for i, p := range pairs {
				if p[0].PK() != int64(i+1) || p[1].PK() != p[0].PK() {
					t.Fatalf("pair %d joins %d with %d", i, p[0].PK(), p[1].PK())
				}
				if p[0].PK() == 3 && (p[0].Get(1) != 3 || p[1].Get(1) != 33) {
					t.Fatalf("versions swapped: %v %v", p[0], p[1])
				}
			}
			// Selective predicate on the left side.
			if pairs := join(Col("v").Eq(5)); len(pairs) != 1 {
				t.Fatalf("selective join rows = %d", len(pairs))
			}
			// The predicate does not reach the right leg: dev's copy of 3
			// (v=33) still joins master's v=3.
			if pairs := join(Col("v").Eq(3)); len(pairs) != 1 || pairs[0][1].Get(1) != 33 {
				t.Fatalf("left-only predicate join = %v", pairs)
			}
		})
	}
}

// TestQ4HeadScan is Query 4: every record live in any branch head,
// emitted once with the branches it is active in.
func TestQ4HeadScan(t *testing.T) {
	for name, f := range factories() {
		t.Run(name, func(t *testing.T) {
			db := planFixture(t, f)
			c := compile(t, db, Plan{AllHeads: true, AtSeq: -1})
			perBranch := map[vgraph.BranchID]int{}
			rows := 0
			err := c.ScanMulti(context.Background(), func(_ *record.Record, m *bitmap.Bitmap) bool {
				rows++
				if !m.Any() {
					t.Fatal("record with no active branches")
				}
				m.ForEach(func(i int) bool {
					perBranch[c.Branches()[i].ID]++
					return true
				})
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			master, dev := c.Branches()[0].ID, c.Branches()[1].ID
			if perBranch[master] != 10 || perBranch[dev] != 10 {
				t.Fatalf("per-branch counts = %v", perBranch)
			}
			// Shared records are emitted once with multiple branches, so the
			// number of distinct rows is below the sum of branch counts.
			if rows >= 20 {
				t.Fatalf("rows = %d, expected sharing", rows)
			}
		})
	}
}

// TestPredicateCombinators checks And/Or/Not over typed predicates
// against one record.
func TestPredicateCombinators(t *testing.T) {
	s := schema()
	r5 := rec(s, 5, 50)
	match := func(e Expr) bool {
		t.Helper()
		raw, err := CompileExpr(e, s)
		if err != nil {
			t.Fatal(err)
		}
		return raw == nil || raw(r5.Bytes())
	}
	if !match(Col("v").Eq(50).And(Col("id").Lt(6))) {
		t.Fatal("and failed")
	}
	if match(Col("v").Eq(1).Or(Col("v").Eq(2))) {
		t.Fatal("or matched wrongly")
	}
	if match(All().Not()) {
		t.Fatal("not true matched")
	}
	if !match(Col("id").Ge(5).And(Col("id").Lt(6))) {
		t.Fatal("range failed")
	}
}

// TestSum folds one column over a single-version scan.
func TestSum(t *testing.T) {
	for name, f := range factories() {
		t.Run(name, func(t *testing.T) {
			db := planFixture(t, f)
			s, err := compile(t, db, Plan{Branches: []string{"master"}, AtSeq: -1}).
				Aggregate(context.Background(), AggSum, "v")
			if err != nil || s != 55 {
				t.Fatalf("sum = %v (%v)", s, err)
			}
		})
	}
}

func TestCompileExprRawBuffer(t *testing.T) {
	s := record.MustSchema(
		record.Column{Name: "id", Type: record.Int64},
		record.Column{Name: "n32", Type: record.Int32},
		record.Column{Name: "f", Type: record.Float64},
		record.Column{Name: "b", Type: record.Bytes, Size: 6},
	)
	r := record.New(s)
	r.SetPK(7)
	r.Set(1, -5) // negative Int32: sign extension must survive raw reads
	r.SetFloat64(2, 2.25)
	if err := r.SetBytes(3, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		e    Expr
		want bool
	}{
		{"int64 eq", Col("id").Eq(7), true},
		{"int32 neg lt", Col("n32").Lt(0), true},
		{"int32 neg ge", Col("n32").Ge(-5), true},
		{"int32 gt", Col("n32").Gt(-5), false},
		{"float le", Col("f").Le(2.25), true},
		{"float int promote", Col("f").Lt(3), true},
		{"bytes eq", Col("b").Eq("abc"), true},
		{"bytes lt", Col("b").Lt("abd"), true},
		{"bytes prefix", Col("b").HasPrefix("ab"), true},
		{"bytes prefix miss", Col("b").HasPrefix("bc"), false},
		{"and", Col("id").Eq(7).And(Col("f").Gt(2.0)), true},
		{"or", Col("id").Eq(8).Or(Col("b").Eq([]byte("abc"))), true},
		{"not", Col("id").Eq(7).Not(), false},
	}
	for _, tc := range cases {
		raw, err := CompileExpr(tc.e, s)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := raw(r.Bytes()); got != tc.want {
			t.Fatalf("%s = %v, want %v", tc.name, got, tc.want)
		}
	}

	// Validation failures carry sentinels.
	if _, err := CompileExpr(Col("ghost").Eq(1), s); !errors.Is(err, core.ErrNoSuchColumn) {
		t.Fatalf("unknown column err = %v", err)
	}
	if _, err := CompileExpr(Col("n32").HasPrefix("x"), s); !errors.Is(err, core.ErrTypeMismatch) {
		t.Fatalf("prefix on int err = %v", err)
	}
	if _, err := CompileExpr(Col("b").Eq(3.5), s); !errors.Is(err, core.ErrTypeMismatch) {
		t.Fatalf("float on bytes err = %v", err)
	}
	// The zero Expr (and All) compile to nil = scan everything.
	if raw, err := CompileExpr(Expr{}, s); err != nil || raw != nil {
		t.Fatalf("zero expr = %v, %v", raw, err)
	}
	if raw, err := CompileExpr(All(), s); err != nil || raw != nil {
		t.Fatalf("All() = %v, %v", raw, err)
	}
	// A zero Expr inside a combinator matches everything too — the
	// build-a-filter-incrementally pattern starting from var e Expr.
	var zero Expr
	raw, err := CompileExpr(zero.And(Col("id").Eq(7)), s)
	if err != nil {
		t.Fatalf("zero-And compile: %v", err)
	}
	if !raw(r.Bytes()) {
		t.Fatal("zero-And should reduce to the leaf")
	}
	raw, err = CompileExpr(All().Not(), s)
	if err != nil {
		t.Fatalf("Not(All) compile: %v", err)
	}
	if raw(r.Bytes()) {
		t.Fatal("Not(All) matched")
	}
}

// TestScanMultiPushdownMatchesRescan checks the single-pass pushdown
// execution and the per-branch rescan baseline agree record-for-record
// on every engine, with and without a predicate.
func TestScanMultiPushdownMatchesRescan(t *testing.T) {
	for name, f := range factories() {
		t.Run(name, func(t *testing.T) {
			db := planFixture(t, f)
			for _, where := range []Expr{{}, Col("v").Lt(8)} {
				plan := Plan{Table: "r", AllHeads: true, AtSeq: -1, Where: where}
				collect := func(scan func(context.Context, core.MultiScanFunc) error) map[int64]string {
					t.Helper()
					out := map[int64]string{}
					err := scan(context.Background(), func(rec *record.Record, m *bitmap.Bitmap) bool {
						out[rec.Get(1)*1000+rec.PK()] = m.String()
						return true
					})
					if err != nil {
						t.Fatal(err)
					}
					return out
				}
				c1, err := plan.Compile(db)
				if err != nil {
					t.Fatal(err)
				}
				push := collect(c1.ScanMulti)
				c2, err := plan.Compile(db)
				if err != nil {
					t.Fatal(err)
				}
				rescan := collect(c2.ScanMultiRescan)
				if len(push) == 0 || len(push) != len(rescan) {
					t.Fatalf("pushdown %d records, rescan %d", len(push), len(rescan))
				}
				for k, m := range push {
					if rescan[k] != m {
						t.Fatalf("membership diverged for %d: pushdown %s, rescan %s", k, m, rescan[k])
					}
				}
			}
		})
	}
}

// TestPlanProjection checks Select narrows the emitted schema on every
// engine through the pushdown path.
func TestPlanProjection(t *testing.T) {
	for name, f := range factories() {
		t.Run(name, func(t *testing.T) {
			db := planFixture(t, f)
			plan := Plan{Table: "r", Branches: []string{"dev"}, AtSeq: -1,
				Where: Col("v").Eq(33), Cols: []string{"v"}}
			c, err := plan.Compile(db)
			if err != nil {
				t.Fatal(err)
			}
			if nc := c.OutSchema().NumColumns(); nc != 2 {
				t.Fatalf("projected schema has %d columns", nc)
			}
			var got []int64
			if err := c.Scan(context.Background(), func(rec *record.Record) bool {
				got = append(got, rec.PK(), rec.Get(1))
				return true
			}); err != nil {
				t.Fatal(err)
			}
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			if len(got) != 2 || got[0] != 3 || got[1] != 33 {
				t.Fatalf("projected scan = %v", got)
			}
		})
	}
}

// TestCompiledReuse guards the planner-reuse contract: one Compiled
// executes repeatedly — including with a projection, whose scratch
// record used to make plans single-use — and later executions see
// writes that happened after compilation (the plan re-reads the
// engine; only names, schema and predicate are bound at compile time).
func TestCompiledReuse(t *testing.T) {
	for name, factory := range factories() {
		t.Run(name, func(t *testing.T) {
			db, tbl, master, _ := fixture(t, factory)
			c, err := Plan{
				Table:    "r",
				Branches: []string{"master"},
				AtSeq:    -1,
				Where:    Col("v").Ge(1),
				Cols:     []string{"v"},
			}.Compile(db)
			if err != nil {
				t.Fatal(err)
			}
			count := func() int {
				n := 0
				if err := c.Scan(context.Background(), func(r *record.Record) bool {
					if r.Schema().NumColumns() != 2 { // pk + projected v
						t.Fatalf("projection lost on reuse: %d columns", r.Schema().NumColumns())
					}
					n++
					return true
				}); err != nil {
					t.Fatal(err)
				}
				return n
			}
			if got := count(); got != 10 {
				t.Fatalf("first execution scanned %d, want 10", got)
			}
			if got := count(); got != 10 {
				t.Fatalf("second execution scanned %d, want 10", got)
			}
			// New data lands in later executions of the same Compiled.
			if err := tbl.Insert(master.ID, rec(tbl.Schema(), 12, 12)); err != nil {
				t.Fatal(err)
			}
			if got := count(); got != 11 {
				t.Fatalf("execution after insert scanned %d, want 11", got)
			}
			// Aggregates reuse the same compiled predicate too.
			for i := 0; i < 2; i++ {
				n, err := c.Aggregate(context.Background(), AggCount, "")
				if err != nil {
					t.Fatal(err)
				}
				if int(n) != 11 {
					t.Fatalf("aggregate run %d = %v, want 11", i, n)
				}
			}
		})
	}
}
