package vf

import (
	"fmt"
	"sort"

	"decibel/internal/bitmap"
	"decibel/internal/core"
	"decibel/internal/record"
	"decibel/internal/store"
	"decibel/internal/vgraph"
)

// Pushdown scans (core.Engine.PartitionScan). Version-first has no
// branch bitmaps — liveness comes from resolving segment lineages —
// so its pushdown is predicate + projection evaluation on the raw
// record buffer during the emit pass, before the callback layer sees
// a materialized record; segments whose zone maps exclude the spec's
// bounds are dropped from the emit pass whole. Multi-branch scans
// keep the paper's two-pass shape (shared ancestry resolved once
// through the interval cache) with the spec applied in the second
// pass.
//
// The emit pass is partitioned per segment (core.ScanUnit): the live
// set is resolved under the engine lock, grouped by segment in id
// order with slots ascending, and each segment's group becomes one
// unit reading its slots page-run by page-run (one pin per touched
// page instead of one locked File.Read per record). Segments that are
// no branch's head never take another append and are frozen units the
// parallel executor may fan out; branch heads stay on the caller's
// goroutine.

var _ core.Engine = (*Engine)(nil)

// segUnit builds the scan unit of one segment's live slots (ascending).
// Slots are read in page runs: one heap.File.Scan per contiguous group
// of listed slots on the same page, skipping the unlisted slots in
// between, so each touched page is pinned once.
func segUnit(s *segment, slots []int64, frozen bool, aux func(at pos) core.UnitAux) core.ScanUnit {
	return core.ScanUnit{
		Frozen:   frozen,
		Zone:     s.Zone(),
		PhysCols: s.Cols,
		Run: func(spec *core.ScanSpec, fn core.UnitFunc) error {
			if spec.SkipSegment(s.Zone(), s.Cols) {
				return nil
			}
			prep, err := spec.Prep(s.Cols)
			if err != nil {
				return err
			}
			per := int64(s.File.PerPage())
			var ferr error
			stop := false
			for i := 0; i < len(slots) && !stop; {
				page := slots[i] / per
				j := i + 1
				for j < len(slots) && slots[j]/per == page {
					j++
				}
				k := i
				err := s.File.Scan(slots[i], slots[j-1]+1, func(slot int64, buf []byte) bool {
					if slot != slots[k] {
						return true
					}
					k++
					if prep != nil {
						buf = prep(buf)
					}
					out, err := spec.Apply(buf)
					if err != nil {
						ferr = err
						return false
					}
					if out == nil {
						return true
					}
					if !fn(out, aux(pos{Seg: s.id, Slot: slot})) {
						stop = true
						return false
					}
					return true
				})
				if err == nil {
					err = ferr
				}
				if err != nil {
					return err
				}
				i = j
			}
			return nil
		},
	}
}

func noAux(pos) core.UnitAux { return core.UnitAux{} }

// headsLocked returns the set of segments currently serving as a
// branch head — the only segments still taking appends. Caller holds
// e.mu.
func (e *Engine) headsLocked() map[segID]bool {
	heads := make(map[segID]bool, len(e.byBranch))
	for _, id := range e.byBranch {
		heads[id] = true
	}
	return heads
}

// sortedGroups turns a per-segment slot bucketing into the canonical
// scan-plan form: one group per segment, ids ascending, slots
// ascending, mirroring the sequential emit order. This is the shape
// the plan cache retains, so the grouping and sorting cost is paid
// once per distinct position vector instead of once per scan.
func sortedGroups(bySeg map[segID][]int64) []planGroup {
	groups := make([]planGroup, 0, len(bySeg))
	for id, slots := range bySeg {
		sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
		groups = append(groups, planGroup{id: id, slots: slots})
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].id < groups[j].id })
	return groups
}

// unitsFor builds one scan unit per plan group. segs and heads were
// snapshotted under e.mu; head status is never cached with the plan —
// it is re-read per scan so a segment that froze since the plan was
// built becomes eligible for parallel fan-out (and never the reverse).
func unitsFor(groups []planGroup, segs []*segment, heads map[segID]bool, aux func(at pos) core.UnitAux) []core.ScanUnit {
	units := make([]core.ScanUnit, 0, len(groups))
	for _, g := range groups {
		units = append(units, segUnit(segs[g.id], g.slots, !heads[g.id], aux))
	}
	return units
}

// groupLive buckets a resolved live set by segment.
func groupLive(live map[int64]pos) map[segID][]int64 {
	bySeg := make(map[segID][]int64)
	for _, p := range live {
		bySeg[p.Seg] = append(bySeg[p.Seg], p.Slot)
	}
	return bySeg
}

// pinAll pins (under the engine lock, which the caller holds) every
// segment a partition's units reference and returns the release func
// handing the pins back; a concurrent compaction retires replaced
// files only after the pins drain.
func pinAll(segs []*segment, groupLists ...[]planGroup) func() {
	var pinned []*store.Segment
	seen := make(map[segID]bool)
	for _, gs := range groupLists {
		for _, g := range gs {
			if seen[g.id] {
				continue
			}
			seen[g.id] = true
			segs[g.id].Segment.Pin()
			pinned = append(pinned, segs[g.id].Segment)
		}
	}
	return func() {
		for _, sg := range pinned {
			sg.Unpin()
		}
	}
}

// planFor looks up the scan-plan cache (counting a hit as a lineage
// cache hit: the plan embeds the resolutions) and falls back to build,
// caching the result. build runs under e.mu, like the caller.
func (e *Engine) planFor(key string, build func() (*planEntry, error)) (*planEntry, error) {
	if e.pcache != nil {
		if en := e.pcache.get(key); en != nil {
			vfCacheHits.Add(1)
			return en, nil
		}
	}
	en, err := build()
	if err != nil {
		return nil, err
	}
	en.key = key
	if e.pcache != nil {
		e.pcache.put(en)
	}
	return en, nil
}

// singlePlanLocked returns the scan plan of one resolved position
// (branch-head and commit scans share it: same position, same plan).
// Caller holds e.mu.
func (e *Engine) singlePlanLocked(p pos) (*planEntry, error) {
	return e.planFor(planKey('s', p), func() (*planEntry, error) {
		live, err := e.resolveLive(p)
		if err != nil {
			return nil, err
		}
		return &planEntry{groups: sortedGroups(groupLive(live))}, nil
	})
}

// PartitionScan implements core.Engine: live sets are resolved under
// the engine lock (through the lineage cache), then partitioned into
// per-segment units. Every segment a unit references is pinned until
// release is called.
func (e *Engine) PartitionScan(req core.ScanRequest) ([]core.ScanUnit, func(), error) {
	switch req.Kind {
	case core.ScanKindBranch:
		e.mu.Lock()
		s, cut, err := e.headLocked(req.Branch)
		if err != nil {
			e.mu.Unlock()
			return nil, nil, err
		}
		en, err := e.singlePlanLocked(pos{Seg: s.id, Slot: cut})
		if err != nil {
			e.mu.Unlock()
			return nil, nil, err
		}
		segs, heads := e.segs, e.headsLocked()
		release := pinAll(segs, en.groups)
		e.mu.Unlock()
		return unitsFor(en.groups, segs, heads, noAux), release, nil

	case core.ScanKindCommit:
		e.mu.Lock()
		p, ok := e.commits[req.Commit.ID]
		if !ok {
			e.mu.Unlock()
			return nil, nil, fmt.Errorf("vf: commit %d has no recorded offset", req.Commit.ID)
		}
		en, err := e.singlePlanLocked(p)
		if err != nil {
			e.mu.Unlock()
			return nil, nil, err
		}
		segs, heads := e.segs, e.headsLocked()
		release := pinAll(segs, en.groups)
		e.mu.Unlock()
		return unitsFor(en.groups, segs, heads, noAux), release, nil

	case core.ScanKindMulti:
		e.mu.Lock()
		positions := make([]pos, len(req.Branches))
		for i, b := range req.Branches {
			s, cut, err := e.headLocked(b)
			if err != nil {
				e.mu.Unlock()
				return nil, nil, err
			}
			positions[i] = pos{Seg: s.id, Slot: cut}
		}
		en, err := e.planFor(planKey('m', positions...), func() (*planEntry, error) {
			union := make(map[pos]*bitmap.Bitmap)
			for i, p := range positions {
				live, err := e.resolveLive(p)
				if err != nil {
					return nil, err
				}
				for _, q := range live {
					m := union[q]
					if m == nil {
						m = bitmap.New(len(positions))
						union[q] = m
					}
					m.Set(i)
				}
			}
			bySeg := make(map[segID][]int64)
			for q := range union {
				bySeg[q.Seg] = append(bySeg[q.Seg], q.Slot)
			}
			return &planEntry{groups: sortedGroups(bySeg), member: union}, nil
		})
		if err != nil {
			e.mu.Unlock()
			return nil, nil, err
		}
		segs, heads := e.segs, e.headsLocked()
		release := pinAll(segs, en.groups)
		e.mu.Unlock()
		// en.member is read-only from here on: per-pos bitmaps are safe
		// to hand out across units.
		member := en.member
		return unitsFor(en.groups, segs, heads, func(at pos) core.UnitAux {
			return core.UnitAux{Member: member[at]}
		}), release, nil

	case core.ScanKindDiff:
		e.mu.Lock()
		sa, cuta, err := e.headLocked(req.A)
		if err != nil {
			e.mu.Unlock()
			return nil, nil, err
		}
		sb, cutb, err := e.headLocked(req.B)
		if err != nil {
			e.mu.Unlock()
			return nil, nil, err
		}
		pa, pb := pos{Seg: sa.id, Slot: cuta}, pos{Seg: sb.id, Slot: cutb}
		en, err := e.planFor(planKey('d', pa, pb), func() (*planEntry, error) {
			// The exclusive sides come from the lineage delta: only keys
			// claimed by the non-shared steps of either branch are
			// compared, so a diff's cost scales with what actually changed
			// since the fork instead of the full live-set size.
			onlyA, onlyB, err := e.diffLiveLocked(pa, pb)
			if err != nil {
				return nil, err
			}
			return &planEntry{
				groups:  sortedGroups(groupLive(onlyA)),
				groupsB: sortedGroups(groupLive(onlyB)),
			}, nil
		})
		if err != nil {
			e.mu.Unlock()
			return nil, nil, err
		}
		segs, heads := e.segs, e.headsLocked()
		release := pinAll(segs, en.groups, en.groupsB)
		e.mu.Unlock()
		inA := func(pos) core.UnitAux { return core.UnitAux{InA: true} }
		inB := func(pos) core.UnitAux { return core.UnitAux{InA: false} }
		units := unitsFor(en.groups, segs, heads, inA)
		return append(units, unitsFor(en.groupsB, segs, heads, inB)...), release, nil
	}
	return nil, func() {}, nil
}

// InsertBatch implements core.Engine: one lock acquisition and
// one head lookup for the whole batch.
func (e *Engine) InsertBatch(branch vgraph.BranchID, recs []*record.Record) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, err := e.writeHeadLocked(branch)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		if err := e.appendLocked(s, rec); err != nil {
			return err
		}
	}
	return nil
}
