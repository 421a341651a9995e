package core

import (
	"context"
	"expvar"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"decibel/internal/bitmap"
	"decibel/internal/record"
	"decibel/internal/store"
	"decibel/internal/vgraph"
)

// Scan execution. Every read an engine serves — head, commit,
// multi-branch and diff scans alike — is one call to the engine's
// PartitionScan, which splits the scan into per-segment units in
// sequential visit order, and one executor here that runs those units.
// When the database's worker pool has more than one slot and the
// partition holds at least two frozen units, the frozen units fan out
// to the pool (units over mutable branch heads stay on the caller's
// goroutine, under the exact snapshot rules the engine captured), each
// unit's output is buffered by its caller-provided sink, and the sinks
// flush in unit index order after the join — so a parallel scan's
// record stream is identical, rows and order, to the inline one.
// Otherwise the same units run inline, in order, streaming straight to
// the caller.

// ScanKind selects the scan shape a ScanRequest partitions.
type ScanKind uint8

const (
	// ScanKindBranch is a branch-head scan (Query 1).
	ScanKindBranch ScanKind = iota
	// ScanKindCommit is a historical commit scan.
	ScanKindCommit
	// ScanKindMulti is a multi-branch scan with membership (Query 4).
	ScanKindMulti
	// ScanKindDiff is a symmetric branch diff (Query 2).
	ScanKindDiff
)

// ScanRequest names one scan for partitioning: the shape plus the
// shape's addressing fields (only the fields of the request's Kind are
// consulted).
type ScanRequest struct {
	Kind     ScanKind
	Branch   vgraph.BranchID   // ScanKindBranch
	Commit   *vgraph.Commit    // ScanKindCommit
	Branches []vgraph.BranchID // ScanKindMulti
	A, B     vgraph.BranchID   // ScanKindDiff
}

// UnitAux carries the per-record annotations of the non-plain callback
// shapes: InA for diff scans, Member for multi-branch scans. Member is
// per-unit scratch — like the record, it must be Cloned to be retained
// across calls.
type UnitAux struct {
	InA    bool
	Member *bitmap.Bitmap
}

// UnitFunc receives each record one scan unit emits. The record (and
// aux.Member) may alias engine buffers or per-unit scratch and must be
// Cloned to be retained. Returning false stops that unit.
type UnitFunc func(rec *record.Record, aux UnitAux) bool

// ScanUnit is one independently runnable slice of a partitioned scan —
// in practice one segment's portion. Run may be called at most once.
// Frozen units touch only immutable storage and may run on any
// goroutine, each with its own ScanSpec clone; non-frozen units (the
// mutable branch heads) must run on the goroutine that called
// PartitionScan, preserving the engine's snapshot rules.
type ScanUnit struct {
	Frozen bool
	// Zone and PhysCols describe the unit's segment for order-aware
	// visiting and estimates: the segment's zone map (nil when the
	// engine has none for this unit) and the physical column count its
	// records are laid out under. Executors may use them to reorder or
	// skip unit visits only when they can prove the output is unchanged.
	Zone     *store.ZoneMap
	PhysCols int
	Run      func(spec *ScanSpec, fn UnitFunc) error
}

// UnitSink consumes one unit's records. Fn receives them — on a pool
// goroutine when the scan fans out — and a nil Fn skips the unit
// without running it. Flush (optional) runs on the caller's goroutine
// once the unit's output is complete: right after the unit when the
// scan runs inline, in unit index order after the join when it fans
// out; returning false ends the scan.
//
// Inline, Fn returning false ends the whole scan (the consumer
// stopped). Fanned out, it ends only that unit — a per-unit trim — and
// the consumer stops the scan from Flush.
type UnitSink struct {
	Fn    UnitFunc
	Flush func() bool
}

// Sink is how the executor hands a partition's units to the consumer.
type Sink struct {
	// Unit returns the sink of unit i. It is always called on the
	// caller's goroutine: inline, right before unit i runs — so it may
	// decide from what earlier units left, or skip the unit — and when
	// the scan fans out, once per unit before any runs. parallel reports
	// which, and with it whether Fn must buffer what it keeps (records
	// cloned).
	Unit func(i int, parallel bool) UnitSink

	// Order, when non-nil, returns the inline visit order as unit
	// indices (units left out never run) and pins the scan inline.
	Order func(units []ScanUnit) []int

	// Inline pins the scan to the caller's goroutine even when the pool
	// would accept it: the sequential baseline plans and streaming
	// reads that must not buffer.
	Inline bool
}

// Parallel-scan counters: how many scans ran through the parallel
// executor and how many frozen units its pool goroutines executed
// (expvar "decibel.parallel_scans"/"decibel.scan_workers"). The
// equivalence harness asserts these move, so a silently bypassed pool
// cannot pass.
var (
	parallelScans   atomic.Int64
	parallelWorkers atomic.Int64
)

func init() {
	expvar.Publish("decibel.parallel_scans", expvar.Func(func() any { return parallelScans.Load() }))
	expvar.Publish("decibel.scan_workers", expvar.Func(func() any { return parallelWorkers.Load() }))
}

// ParallelScanCounters returns the cumulative parallel-executor
// counters: scans driven through it and frozen units run on pool
// goroutines.
func ParallelScanCounters() (scans, workers int64) {
	return parallelScans.Load(), parallelWorkers.Load()
}

// resolveScanWorkers picks the scan pool size: the explicit
// Options.ScanWorkers, else the DECIBEL_SCAN_WORKERS environment
// override, else GOMAXPROCS. A size of 1 disables the parallel
// executor.
func resolveScanWorkers(opt Options) int {
	n := opt.ScanWorkers
	if n == 0 {
		if s := os.Getenv("DECIBEL_SCAN_WORKERS"); s != "" {
			if v, err := strconv.Atoi(s); err == nil {
				n = v
			}
		}
	}
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	return n
}

// ScanWorkers returns the database's scan pool size (1 = parallel
// scans disabled).
func (db *Database) ScanWorkers() int { return db.scanWorkers }

// Partition is one engine partition of a scan, held between
// partitioning and execution. Run it at most once, on the goroutine
// that partitioned it (mutable units keep the engine's snapshot rules
// only there). Its units reference pinned segments, so Release must be
// called exactly once after the Run: it unpins them, which is what lets
// a concurrent compaction retire replaced segment files only after
// every in-flight reader drains.
type Partition struct {
	Units   []ScanUnit
	t       *Table
	release func()
}

// Partition asks the engine to partition req, snapshotting under the
// engine lock whatever the scan reads (bitmaps, segment tables,
// resolved live sets). Most callers want RunScan; the join executor
// partitions each relation up front so its zone-map estimates and its
// scan share one partition.
func (t *Table) Partition(req ScanRequest) (*Partition, error) {
	if err := t.db.beginOp(); err != nil {
		return nil, err
	}
	defer t.db.endOp()
	units, release, err := t.engine.PartitionScan(req)
	if err != nil {
		return nil, err
	}
	return &Partition{Units: units, t: t, release: release}, nil
}

// Release unpins the partition's segments.
func (p *Partition) Release() { p.release() }

// RunScan is the one scan entry point: it partitions req exactly once
// and runs the units with spec (see Partition.Run).
func (t *Table) RunScan(ctx context.Context, req ScanRequest, spec *ScanSpec, sink Sink) error {
	p, err := t.Partition(req)
	if err != nil {
		return err
	}
	defer p.Release()
	return p.Run(ctx, spec, sink)
}

// Run executes the partition's units with spec. Frozen units fan out
// to the database's pool — one goroutine per unit, bounded by the pool
// size, each with its own spec clone — when the pool has more than one
// slot, at least two units are frozen and the sink allows it; every
// other scan runs its units inline, in order (or in sink.Order), on
// the calling goroutine. The scan stops within one record of ctx
// expiring and then returns ctx.Err(); the first unit error cancels the
// sibling units the same way.
func (p *Partition) Run(ctx context.Context, spec *ScanSpec, sink Sink) error {
	db := p.t.db
	if err := db.beginOp(); err != nil {
		return err
	}
	defer db.endOp()
	var err error
	if sink.Order == nil && !sink.Inline && db.scanWorkers > 1 && countFrozen(p.Units) >= 2 {
		err = db.runParallel(ctx, spec, p.Units, sink)
	} else {
		err = runInline(ctx, spec, p.Units, sink)
	}
	if err != nil {
		return err
	}
	return ctx.Err()
}

func countFrozen(units []ScanUnit) int {
	n := 0
	for _, u := range units {
		if u.Frozen {
			n++
		}
	}
	return n
}

// runInline drives the units on the calling goroutine, sharing one
// spec: in unit order, or in sink.Order when set.
func runInline(ctx context.Context, spec *ScanSpec, units []ScanUnit, sink Sink) error {
	var order []int
	n := len(units)
	if sink.Order != nil {
		order = sink.Order(units)
		n = len(order)
	}
	for k := 0; k < n; k++ {
		i := k
		if order != nil {
			i = order[k]
		}
		s := sink.Unit(i, false)
		if s.Fn == nil {
			continue
		}
		stopped := false
		err := runUnit(ctx, units[i], spec, func(rec *record.Record, aux UnitAux) bool {
			stopped = !s.Fn(rec, aux)
			return !stopped
		})
		if err != nil {
			return err
		}
		if (s.Flush != nil && !s.Flush()) || stopped || ctx.Err() != nil {
			return nil
		}
	}
	return nil
}

// runParallel executes a partition on the pool: frozen units on pool
// goroutines, mutable ones inline, per-unit sinks flushed in order
// after the join.
func (db *Database) runParallel(ctx context.Context, spec *ScanSpec, units []ScanUnit, sink Sink) error {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	n := len(units)
	sinks := make([]UnitSink, n)
	for i := range units {
		sinks[i] = sink.Unit(i, true)
	}
	parallelScans.Add(1)

	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range units {
		if !units[i].Frozen || sinks[i].Fn == nil {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			db.scanSem <- struct{}{}
			defer func() { <-db.scanSem }()
			if cctx.Err() != nil {
				return
			}
			parallelWorkers.Add(1)
			if errs[i] = runUnit(cctx, units[i], spec.Clone(), sinks[i].Fn); errs[i] != nil {
				cancel()
			}
		}(i)
	}
	for i := range units {
		if units[i].Frozen || sinks[i].Fn == nil {
			continue
		}
		if cctx.Err() != nil {
			break
		}
		if errs[i] = runUnit(cctx, units[i], spec.Clone(), sinks[i].Fn); errs[i] != nil {
			cancel()
		}
	}
	wg.Wait()

	// Surface the error of the earliest failing unit — the one the
	// inline scan would have hit first.
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for i := range sinks {
		if sinks[i].Flush != nil && !sinks[i].Flush() {
			return nil
		}
	}
	return nil
}

// runUnit runs one unit with cancellation checked per record; contexts
// that can never be canceled pass fn through untouched.
func runUnit(ctx context.Context, u ScanUnit, spec *ScanSpec, fn UnitFunc) error {
	if ctx.Done() == nil {
		return u.Run(spec, fn)
	}
	return u.Run(spec, func(rec *record.Record, aux UnitAux) bool {
		return ctx.Err() == nil && fn(rec, aux)
	})
}
