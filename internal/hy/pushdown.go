package hy

import (
	"decibel/internal/bitmap"
	"decibel/internal/core"
	"decibel/internal/store"
	"decibel/internal/vgraph"
)

// Pushdown scans (core.Engine.PartitionScan). Hybrid keeps
// per-(segment, branch) bitmaps, so pushed-down predicates are
// evaluated on the raw segment page buffer before records are
// materialized, and a multi-branch scan ORs each segment's local
// branch bitmaps into one union per segment — each qualifying segment
// is read once for all requested branches instead of once per branch.
// Segments are skipped entirely two ways: via the global
// branch-segment relation (no live record in any requested branch)
// and via their zone maps (no stored value can satisfy the spec's
// bounds).
//
// Every scan shape is partitioned into one core.ScanUnit per segment
// (PartitionScan), with the liveness bitmaps snapshotted under the
// engine lock; the core executor runs the units inline or fans the
// frozen ones out, so both modes share one loop body.

var _ core.Engine = (*Engine)(nil)

// LookupPK implements core.Engine: a branch-head read of one primary
// key answered from the per-branch pk index instead of the segment
// walk. The index maps the key to its live (segment, slot)
// position; the spec's full predicate and projection run on that one
// record, so the result is identical to the scan it replaces.
func (e *Engine) LookupPK(branch vgraph.BranchID, pk int64, spec *core.ScanSpec, fn core.ScanFunc) (bool, error) {
	e.mu.Lock()
	idx, ok := e.pk[branch]
	if !ok {
		e.mu.Unlock()
		return false, nil
	}
	p := idx.live(pk)
	if p == deletedPos {
		e.mu.Unlock()
		return true, nil // served: the key is not live in this branch
	}
	s := e.byID[p.Seg]
	buf := make([]byte, s.Schema.RecordSize())
	if err := s.File.Read(p.Slot, buf); err != nil {
		e.mu.Unlock()
		return false, err
	}
	prep, err := spec.Prep(s.Cols)
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

// segUnit builds the scan unit of one segment: zone-map pruning, spec
// prep for the segment's layout, then a live-page walk with the spec
// evaluated on the raw buffer before materialization. bm was
// snapshotted under the engine lock; aux derives the per-record
// annotation from the slot.
func segUnit(s *hseg, bm *bitmap.Bitmap, aux func(slot int64) core.UnitAux) core.ScanUnit {
	return core.ScanUnit{
		Frozen:   s.Frozen,
		Zone:     s.Zone(),
		PhysCols: s.Cols,
		Run: func(spec *core.ScanSpec, fn core.UnitFunc) error {
			if bm == nil || !bm.Any() {
				return nil
			}
			if spec.SkipSegment(s.Zone(), s.Cols) {
				return nil
			}
			prep, err := spec.Prep(s.Cols)
			if err != nil {
				return err
			}
			var ferr error
			err = s.File.ScanLive(bm, func(slot int64, buf []byte) bool {
				if !bm.Get(int(slot)) {
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
				return fn(rec, aux(slot))
			})
			if err == nil {
				err = ferr
			}
			return err
		},
	}
}

func noAux(int64) core.UnitAux { return core.UnitAux{} }

// pinGroup tracks the segments a partition references: each is pinned
// under the engine lock at partition time, and the release func hands
// the pins back once the scan's units have all finished, letting a
// concurrent compaction retire replaced files only after every
// in-flight reader drains.
type pinGroup struct {
	pinned []*store.Segment
}

func (g *pinGroup) pin(s *hseg) {
	if s == nil {
		return
	}
	s.Segment.Pin()
	g.pinned = append(g.pinned, s.Segment)
}

func (g *pinGroup) release() {
	for _, sg := range g.pinned {
		sg.Unpin()
	}
}

// PartitionScan implements core.Engine: one unit per segment holding
// live records of the request, in segment visit order, with all shared
// state (bitmaps, checkout snapshots) captured under the engine lock at
// partition time. Every segment a unit references is pinned until
// release is called.
func (e *Engine) PartitionScan(req core.ScanRequest) ([]core.ScanUnit, func(), error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	g := &pinGroup{}
	switch req.Kind {
	case core.ScanKindBranch:
		segs := e.branchSegmentsLocked(req.Branch)
		units := make([]core.ScanUnit, 0, len(segs))
		for _, s := range segs {
			g.pin(s)
			units = append(units, segUnit(s, s.local[req.Branch].Clone(), noAux))
		}
		return units, g.release, nil

	case core.ScanKindCommit:
		snap, err := e.checkoutLocked(req.Commit.Branch, req.Commit.Seq)
		if err != nil {
			return nil, nil, err
		}
		// Visit in segment-table order, the scan order every other shape
		// uses (ids alone no longer encode it after a compaction merge).
		units := make([]core.ScanUnit, 0, len(snap))
		for _, s := range e.segs {
			bm, ok := snap[s.id]
			if !ok {
				continue
			}
			g.pin(s)
			units = append(units, segUnit(s, bm, noAux))
		}
		return units, g.release, nil

	case core.ScanKindDiff:
		var units []core.ScanUnit
		for _, s := range e.segs {
			if s == nil {
				continue
			}
			colA, okA := s.local[req.A]
			colB, okB := s.local[req.B]
			if !okA && !okB {
				continue
			}
			if colA == nil {
				colA = bitmap.New(0)
			}
			if colB == nil {
				colB = bitmap.New(0)
			}
			x := bitmap.Xor(colA, colB)
			if !x.Any() {
				continue
			}
			inA := colA.Clone()
			g.pin(s)
			units = append(units, segUnit(s, x, func(slot int64) core.UnitAux {
				return core.UnitAux{InA: inA.Get(int(slot))}
			}))
		}
		return units, g.release, nil

	case core.ScanKindMulti:
		var units []core.ScanUnit
		for _, s := range e.segs {
			if s == nil {
				continue
			}
			cols := make([]*bitmap.Bitmap, len(req.Branches))
			union := bitmap.New(0)
			any := false
			for i, b := range req.Branches {
				if bm, ok := s.local[b]; ok && bm.Any() {
					cols[i] = bm.Clone()
					union.Or(cols[i])
					any = true
				}
			}
			if !any {
				continue
			}
			// member is per-unit scratch: each parallel worker owns its
			// unit's bitmap, and consumers clone what they retain.
			member := bitmap.New(len(req.Branches))
			g.pin(s)
			units = append(units, segUnit(s, union, func(slot int64) core.UnitAux {
				for i, col := range cols {
					member.SetTo(i, col != nil && col.Get(int(slot)))
				}
				return core.UnitAux{Member: member}
			}))
		}
		return units, g.release, nil
	}
	return nil, g.release, nil
}
