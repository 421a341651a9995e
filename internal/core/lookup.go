package core

import (
	"context"
	"expvar"
	"sync/atomic"

	"decibel/internal/vgraph"
)

// pointLookups counts branch-head reads served from a primary-key
// index instead of a segment scan, alongside the segment counters in
// internal/store.
var pointLookups atomic.Int64

func init() {
	expvar.Publish("decibel.point_lookups", expvar.Func(func() any {
		return pointLookups.Load()
	}))
}

// CountPointLookups returns the number of scans served via a
// primary-key point lookup (benchmarks read this; the expvar
// decibel.point_lookups exposes the same number).
func CountPointLookups() int64 { return pointLookups.Load() }

// LookupPK serves a branch-head read whose predicate pins the primary
// key to a single value from the engine's key resolution (Engine.LookupPK)
// instead of a partitioned scan. It reports ok=false — the caller falls
// back to RunScan — when the engine cannot answer from its index.
func (t *Table) LookupPK(ctx context.Context, branch vgraph.BranchID, pk int64, spec *ScanSpec, fn ScanFunc) (bool, error) {
	if err := t.db.beginOp(); err != nil {
		return false, err
	}
	defer t.db.endOp()
	if err := ctx.Err(); err != nil {
		return false, err
	}
	served, err := t.engine.LookupPK(branch, pk, spec, fn)
	if err != nil || !served {
		return served, err
	}
	pointLookups.Add(1)
	return true, ctx.Err()
}
