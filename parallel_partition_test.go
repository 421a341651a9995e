package decibel_test

// One partition per scan: every query shape reaches its engine through
// exactly one PartitionScan per scanned relation — whether the executor
// runs the units inline or fans them out to the worker pool — and a
// head read pinned to one primary key takes none. The engine here is a
// wrapper embedding core.Engine around each built-in engine, which is
// also what proves the engine contract is the whole contract: a wrapper
// that only forwards core.Engine must produce exactly the rows the
// unwrapped engine does.

import (
	"fmt"
	"sync/atomic"
	"testing"

	"decibel"
	"decibel/internal/core"
)

// partitionCounter forwards every engine hook and counts PartitionScan
// calls.
type partitionCounter struct {
	core.Engine
	n *atomic.Int64
}

func (e partitionCounter) PartitionScan(req core.ScanRequest) ([]core.ScanUnit, func(), error) {
	e.n.Add(1)
	return e.Engine.PartitionScan(req)
}

// countingFactory wraps a registered engine's factory in a
// partitionCounter sharing n.
func countingFactory(t *testing.T, engine string, n *atomic.Int64) core.Factory {
	t.Helper()
	base, err := core.LookupEngine(engine)
	if err != nil {
		t.Fatal(err)
	}
	return func(env *core.Env) (core.Engine, error) {
		eng, err := base(env)
		if err != nil {
			return nil, err
		}
		return partitionCounter{Engine: eng, n: n}, nil
	}
}

// partitionShape is one query shape: run drains it into lines, want is
// the PartitionScan calls it must make, lookup whether it must be
// served by the point-lookup fast path.
type partitionShape struct {
	name   string
	want   int64
	lookup bool
	run    func(db *decibel.DB) ([]string, error)
}

func partitionShapes() []partitionShape {
	rows := func(q func(db *decibel.DB) *decibel.Query) func(*decibel.DB) ([]string, error) {
		return func(db *decibel.DB) ([]string, error) { return collectRows(q(db).Rows()) }
	}
	return []partitionShape{
		{"head scan", 1, false, rows(func(db *decibel.DB) *decibel.Query {
			return db.Query("r").On("master").Where(decibel.Col("v").Ge(5))
		})},
		{"At scan", 1, false, rows(func(db *decibel.DB) *decibel.Query {
			return db.Query("r").On("master").At(2)
		})},
		{"At pk lookup", 1, false, rows(func(db *decibel.DB) *decibel.Query {
			return db.Query("r").On("master").At(2).Where(decibel.Col("id").Eq(int64(60)))
		})},
		{"head pk lookup", 0, true, rows(func(db *decibel.DB) *decibel.Query {
			return db.Query("r").On("master").Where(decibel.Col("id").Eq(int64(60)))
		})},
		{"heads annotated", 1, false, func(db *decibel.DB) ([]string, error) {
			var out []string
			annotated, qErr := db.Query("r").Heads().Annotated()
			for rec, branches := range annotated {
				out = append(out, fmt.Sprintf("%s %v", rec, branches))
			}
			return out, qErr()
		}},
		{"diff", 1, false, func(db *decibel.DB) ([]string, error) {
			return collectRows(db.Query("r").Diff("master", "b1"))
		}},
		{"count", 1, false, func(db *decibel.DB) ([]string, error) {
			n, err := db.Query("r").On("master").Where(decibel.Col("v").Lt(120)).Count()
			return []string{fmt.Sprint(n)}, err
		}},
		{"group by", 1, false, func(db *decibel.DB) ([]string, error) {
			var out []string
			groups, qErr := db.Query("r").On("master").GroupBy("price").Groups(decibel.Count(), decibel.Sum("v"))
			for g := range groups {
				out = append(out, fmt.Sprint(g.Key, g.Aggs))
			}
			return out, qErr()
		}},
		{"order by limit", 1, false, rows(func(db *decibel.DB) *decibel.Query {
			return db.Query("r").On("master").OrderBy("v", true).Limit(7)
		})},
		{"join", 2, false, func(db *decibel.DB) ([]string, error) {
			return collectTuples(db.Query("r").On("master").Where(decibel.Col("v").Lt(40)).
				JoinOn(db.Query("r").On("b1"), decibel.On("id", "id")).Tuples())
		}},
	}
}

func TestParallelOnePartitionPerScan(t *testing.T) {
	scans0, _ := core.ParallelScanCounters()
	for _, engine := range facadeEngines {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", engine, workers), func(t *testing.T) {
				dir := t.TempDir()
				// The reference rows come from the unwrapped engine.
				plain := buildPruningDBIn(t, dir, engine, decibel.WithScanWorkers(workers))
				shapes := partitionShapes()
				want := make([][]string, len(shapes))
				for i, sh := range shapes {
					var err error
					if want[i], err = sh.run(plain); err != nil {
						t.Fatalf("%s (unwrapped): %v", sh.name, err)
					}
				}
				if err := plain.Close(); err != nil {
					t.Fatal(err)
				}

				var n atomic.Int64
				cdb, err := core.Open(dir, countingFactory(t, engine, &n), core.Options{ScanWorkers: workers})
				if err != nil {
					t.Fatal(err)
				}
				db := &decibel.DB{Database: cdb}
				defer db.Close()
				for i, sh := range shapes {
					before, lookups := n.Load(), core.CountPointLookups()
					got, err := sh.run(db)
					compareStreams(t, sh.name, got, want[i], err, nil)
					if calls := n.Load() - before; calls != sh.want {
						t.Errorf("%s: %d PartitionScan calls, want %d", sh.name, calls, sh.want)
					}
					if served := core.CountPointLookups() > lookups; served != sh.lookup {
						t.Errorf("%s: point lookup served = %v, want %v", sh.name, served, sh.lookup)
					}
				}
			})
		}
	}
	// With a pool the partition counted is the one the executor fans
	// out: some shape must have run in parallel.
	if scans, _ := core.ParallelScanCounters(); scans == scans0 {
		t.Fatal("no shape engaged the parallel executor")
	}
}
