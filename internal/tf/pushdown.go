package tf

import (
	"decibel/internal/bitmap"
	"decibel/internal/core"
	"decibel/internal/record"
	"decibel/internal/vgraph"
)

// Pushdown scans (core.Engine.PartitionScan). Tuple-first's liveness
// is one bitmap per branch over the shared heap, so a pushed-down
// predicate is evaluated on the raw page buffer before any record is
// materialized, and a multi-branch scan is driven by the OR of the
// branch columns — one pass over the heap touching only pages with at
// least one live tuple in at least one requested branch, instead of
// one rescan per branch. The heap is walked extent by extent: an
// extent whose zone map proves no record can satisfy the spec's
// bounds is skipped without touching a page, and buffers from extents
// older than the spec's schema epoch are widened (defaults filled)
// before the predicate sees them, so old pages are never rewritten.
//
// Because extents rotate only on schema change, one extent typically
// spans every branch's rows and its segment-level zone rarely prunes;
// each extent therefore also carries an in-memory page-zone index
// (store.PageZones) and bounded scans skip page-sized chunks inside
// the surviving extents.
//
// Each scan shape partitions into one core.ScanUnit per extent
// (PartitionScan) — sealed extents are frozen units the parallel
// executor may fan out; the open tail stays on the caller's goroutine.

var _ core.Engine = (*Engine)(nil)

// LookupPK implements core.Engine: a branch-head read of one primary
// key answered from the per-branch pk index (Section 3.2's
// update/delete index) instead of a heap walk. The index maps the key
// to its live slot in the shared heap; the spec's full predicate and
// projection run on that one record, so the result is identical to
// the scan it replaces.
func (e *Engine) LookupPK(branch vgraph.BranchID, pk int64, spec *core.ScanSpec, fn core.ScanFunc) (bool, error) {
	e.mu.Lock()
	idx, ok := e.pk[branch]
	if !ok {
		e.mu.Unlock()
		return false, nil
	}
	slot := idx.live(pk)
	if slot < 0 {
		e.mu.Unlock()
		return true, nil // served: the key is not live in this branch
	}
	buf, ext, err := e.reader().read(slot)
	if err != nil {
		e.mu.Unlock()
		return false, err
	}
	prep, err := spec.Prep(ext.Cols)
	if err != nil {
		e.mu.Unlock()
		return false, err
	}
	if prep != nil {
		buf = prep(buf)
	}
	rec, err := spec.Apply(buf)
	e.mu.Unlock()
	if err != nil {
		return false, err
	}
	if rec != nil {
		fn(rec)
	}
	return true, nil
}

// scanExtentSpec is the one extent scan body every pushdown shape
// shares: segment-level zone pruning, then — when the spec carries
// bounds and the extent has a page-zone index — a chunk walk skipping
// the page-sized ranges whose zones exclude the bounds, else a plain
// live-page walk. fn receives the global slot with the materialized
// record.
func scanExtentSpec(ext *extent, bm *bitmap.Bitmap, spec *core.ScanSpec, fn func(slot int64, rec *record.Record) bool) error {
	if spec.SkipSegment(ext.Zone(), ext.Cols) {
		return nil
	}
	prep, err := spec.Prep(ext.Cols)
	if err != nil {
		return err
	}
	var ferr error
	stop := false
	visit := func(local int64, buf []byte) bool {
		if !bm.Get(int(ext.base + local)) {
			return true
		}
		if prep != nil {
			buf = prep(buf)
		}
		rec, err := spec.Apply(buf)
		if err != nil {
			ferr = err
			return false
		}
		if rec == nil {
			return true
		}
		if !fn(ext.base+local, rec) {
			stop = true
			return false
		}
		return true
	}
	live := offsetBitmap{bm: bm, base: ext.base}
	if pz := ext.Pages(); pz != nil && spec.HasBounds() {
		// Any slot the liveness snapshot can mark live was appended —
		// and folded into its page zone — before the snapshot was taken,
		// so [0, NumChunks) covers every visitable slot.
		chunk := pz.Chunk()
		for p, n := 0, pz.NumChunks(); p < n; p++ {
			if z := pz.Zone(p); z != nil && spec.SkipPage(z, ext.Cols) {
				continue
			}
			err := ext.File.ScanLiveRange(live, int64(p)*chunk, int64(p+1)*chunk, visit)
			if err == nil {
				err = ferr
			}
			if err != nil {
				return err
			}
			if stop {
				return nil
			}
		}
		return nil
	}
	err = ext.File.ScanLive(live, visit)
	if err == nil {
		err = ferr
	}
	return err
}

// extUnit builds the scan unit of one extent over a global-slot
// liveness bitmap; aux derives the per-record annotation from the
// global slot. Sealed extents are frozen (immutable pages, immutable
// bitmapped prefix) and safe on any goroutine.
func extUnit(ext *extent, bm *bitmap.Bitmap, aux func(slot int64) core.UnitAux) core.ScanUnit {
	return core.ScanUnit{
		Frozen:   ext.Frozen,
		Zone:     ext.Zone(),
		PhysCols: ext.Cols,
		Run: func(spec *core.ScanSpec, fn core.UnitFunc) error {
			return scanExtentSpec(ext, bm, spec, func(slot int64, rec *record.Record) bool {
				return fn(rec, aux(slot))
			})
		},
	}
}

func noAux(int64) core.UnitAux { return core.UnitAux{} }

// bitmapUnits partitions one global liveness bitmap into per-extent
// units. exts was snapshotted under e.mu (published extents are
// immutable; only the tail, which is never Frozen, still grows).
func bitmapUnits(exts []*extent, bm *bitmap.Bitmap, aux func(slot int64) core.UnitAux) []core.ScanUnit {
	units := make([]core.ScanUnit, 0, len(exts))
	for _, x := range exts {
		units = append(units, extUnit(x, bm, aux))
	}
	return units
}

// PartitionScan implements core.Engine: one unit per extent in global
// slot order, with the branch/checkout bitmaps resolved under the
// engine lock at partition time. The tuple-oriented multi-branch
// layout has no cheap branch columns — its per-row membership lookups
// need the engine lock — so its units all stay non-frozen (caller's
// goroutine), preserving the in-order walk.
func (e *Engine) PartitionScan(req core.ScanRequest) ([]core.ScanUnit, func(), error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	exts := e.exts
	// Pin every extent the partition can touch until release: a
	// concurrent compaction swapping an extent's file retires the old
	// one only after the pins drain.
	release := func() {
		for _, x := range exts {
			x.Segment.Unpin()
		}
	}
	pin := func() {
		for _, x := range exts {
			x.Segment.Pin()
		}
	}
	switch req.Kind {
	case core.ScanKindBranch:
		pin()
		return bitmapUnits(exts, e.idx.column(req.Branch), noAux), release, nil

	case core.ScanKindCommit:
		log, err := e.openLog(req.Commit.Branch)
		if err != nil {
			return nil, nil, err
		}
		bm, err := log.Checkout(req.Commit.Seq)
		if err != nil {
			return nil, nil, err
		}
		pin()
		return bitmapUnits(exts, bm, noAux), release, nil

	case core.ScanKindDiff:
		colA := e.idx.column(req.A)
		colB := e.idx.column(req.B)
		x := bitmap.Xor(colA, colB)
		pin()
		return bitmapUnits(exts, x, func(slot int64) core.UnitAux {
			return core.UnitAux{InA: colA.Get(int(slot))}
		}), release, nil

	case core.ScanKindMulti:
		if _, tupleOriented := e.idx.(*tupleIndex); tupleOriented {
			units := make([]core.ScanUnit, 0, len(exts))
			for _, x := range exts {
				units = append(units, e.tupleMultiUnit(x, req.Branches))
			}
			pin()
			return units, release, nil
		}
		cols := make([]*bitmap.Bitmap, len(req.Branches))
		union := bitmap.New(0)
		for i, b := range req.Branches {
			cols[i] = e.idx.column(b)
			union.Or(cols[i])
		}
		units := make([]core.ScanUnit, 0, len(exts))
		for _, x := range exts {
			// member is per-unit scratch so parallel workers never share.
			member := bitmap.New(len(req.Branches))
			units = append(units, extUnit(x, union, func(slot int64) core.UnitAux {
				for i := range cols {
					member.SetTo(i, cols[i].Get(int(slot)))
				}
				return core.UnitAux{Member: member}
			}))
		}
		pin()
		return units, release, nil
	}
	return nil, func() {}, nil
}

// tupleMultiUnit is the tuple-oriented multi-branch walk of one
// extent: a full-extent scan with the predicate evaluated before the
// per-row membership lookup under the engine lock. Never frozen — the
// lock round-trip per row serializes it anyway.
func (e *Engine) tupleMultiUnit(ext *extent, branches []vgraph.BranchID) core.ScanUnit {
	return core.ScanUnit{
		Run: func(spec *core.ScanSpec, fn core.UnitFunc) error {
			if spec.SkipSegment(ext.Zone(), ext.Cols) {
				return nil
			}
			prep, err := spec.Prep(ext.Cols)
			if err != nil {
				return err
			}
			member := bitmap.New(len(branches))
			var ferr error
			err = ext.File.Scan(0, ext.File.Count(), func(local int64, buf []byte) bool {
				slot := ext.base + local
				if prep != nil {
					buf = prep(buf)
				}
				rec, err := spec.Apply(buf)
				if err != nil {
					ferr = err
					return false
				}
				if rec == nil {
					return true
				}
				e.mu.Lock()
				e.idx.membership(slot, branches, member)
				e.mu.Unlock()
				if !member.Any() {
					return true
				}
				return fn(rec, core.UnitAux{Member: member})
			})
			if err == nil {
				err = ferr
			}
			return err
		},
	}
}
