package vf

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"decibel/internal/compact"
	"decibel/internal/core"
	"decibel/internal/store"
	"decibel/internal/vgraph"
)

// segFilePath returns the data file of a segment under the given
// encoding: seg<id>.dat for heap files (the legacy name, so existing
// datasets open unchanged), seg<id>.dcz for compressed ones. The
// encoding travels in the catalog (store.SegMeta.Encoding), so recover
// derives the path the same way.
func (e *Engine) segFilePath(id segID, enc string) string {
	if enc == store.EncDCZ {
		return filepath.Join(e.env.Dir, fmt.Sprintf("seg%d.dcz", id))
	}
	return e.segPath(id)
}

// safeCountsLocked computes each segment's safe count — the highest
// slot any commit, branch/merge link or override references. Appends
// beyond it are uncommitted and roll back on reopen; compaction may
// only touch segments whose whole file is safe. Caller holds e.mu.
func (e *Engine) safeCountsLocked() map[segID]int64 {
	safe := make(map[segID]int64, len(e.segs))
	for _, p := range e.commits {
		if p.Slot > safe[p.Seg] {
			safe[p.Seg] = p.Slot
		}
	}
	for _, s := range e.segs {
		if !s.hasLink {
			continue
		}
		if s.link.ParentSlot > safe[s.link.ParentSeg] {
			safe[s.link.ParentSeg] = s.link.ParentSlot
		}
		if s.link.IsMerge && s.link.OtherSlot > safe[s.link.OtherSeg] {
			safe[s.link.OtherSeg] = s.link.OtherSlot
		}
		for _, ov := range s.overrides {
			if !ov.Deleted && ov.Slot+1 > safe[ov.Seg] {
				safe[ov.Seg] = ov.Slot + 1
			}
		}
	}
	return safe
}

// CompactSegments implements core.Engine for the version-first
// scheme. Segment files ARE the version history here — a parent
// segment's byte ranges are addressed by child branch points and
// commit offsets — so slots can never be renumbered and physical
// merging is off the table; the pass is compression-only. A segment
// qualifies when it is no branch's head (it will never take another
// append), every row in it is committed (count == safe count) and it
// is not already compressed.
//
// Crash safety: the replacement .dcz files are written and fsynced
// first (a crash here leaves orphans the next open sweeps), then the
// catalog is rewritten with the new encoding tags — the tmp+rename in
// persistLocked is the commit point — and only then are the old .dat
// files unlinked, each deferred until its last pinned reader drains.
func (e *Engine) CompactSegments(opt compact.Options) (compact.Stats, error) {
	opt = opt.Defaults()
	var st compact.Stats
	if opt.Mode == compact.ModeOff || !opt.Compress {
		return st, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()

	heads := e.headsLocked()
	safe := e.safeCountsLocked()
	type repl struct {
		old     *segment
		ns      *store.Segment
		pages   int
		oldDisk int64
	}
	var repls []repl
	abort := func() {
		for _, r := range repls {
			r.ns.File.Close()
			os.Remove(r.ns.File.Path())
		}
	}
	for _, s := range e.segs {
		n := s.File.Count()
		if heads[s.id] || s.Encoding == store.EncDCZ || n == 0 || n != safe[s.id] {
			continue
		}
		ns, pages, err := e.st.CompressSegment(s.Segment, e.segFilePath(s.id, store.EncDCZ), n)
		if err != nil {
			abort()
			return st, err
		}
		repls = append(repls, repl{old: s, ns: ns, pages: pages, oldDisk: s.File.DiskBytes()})
	}
	if len(repls) == 0 {
		return st, nil
	}
	if opt.FailPoint == compact.FailAfterTemp {
		// Simulate a crash after the new files hit disk but before the
		// catalog swap: the .dcz files stay behind as orphans.
		for _, r := range repls {
			r.ns.File.Close()
		}
		return st, compact.FailPointErr(opt.FailPoint)
	}

	// Swap copy-on-write: in-flight scans snapshotted the old slice
	// header (and pinned the segments they read), so the table itself
	// must not be mutated in place.
	segs := append([]*segment(nil), e.segs...)
	for _, r := range repls {
		old := r.old
		segs[old.id] = &segment{
			Segment: r.ns, id: old.id, branch: old.branch,
			hasLink: old.hasLink, link: old.link, overrides: old.overrides,
		}
	}
	prev := e.segs
	e.segs = segs
	if err := e.persistLocked(); err != nil {
		e.segs = prev
		abort()
		return st, err
	}
	// Compression preserves slot numbering, so cached resolutions
	// pointing into replaced segments would stay readable; drop the
	// entries rooted at them anyway so the cache's validity never
	// depends on the re-encoder's internals. Interval tables keyed on
	// the replaced segments are dropped for the same reason.
	for _, r := range repls {
		e.invalidateResolvedLocked(r.old.id)
		e.invalidateSeg(r.old.id)
	}
	for _, r := range repls {
		st.SegmentsCompressed++
		st.PagesCompressed += int64(r.pages)
		st.BytesReclaimed += r.oldDisk - r.ns.File.DiskBytes()
	}
	if opt.FailPoint == compact.FailBeforeUnlink {
		// Simulate a crash after the catalog swap but before the old
		// files are unlinked; the next open sweeps them.
		return st, compact.FailPointErr(opt.FailPoint)
	}
	for _, r := range repls {
		r.old.Segment.RetireAndRemove(e.segFilePath(r.old.id, r.old.Encoding))
	}
	return st, nil
}

// sweepOrphans removes segment data files the catalog does not
// reference — the debris of a compaction (or crash) that wrote
// replacement files without committing, or committed without
// unlinking — plus stale catalog temp files. Called at the end of
// recover, when the referenced set is known.
func (e *Engine) sweepOrphans() {
	keep := make(map[string]bool, len(e.segs))
	for _, s := range e.segs {
		keep[filepath.Base(s.File.Path())] = true
	}
	ents, err := os.ReadDir(e.env.Dir)
	if err != nil {
		return
	}
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || keep[name] {
			continue
		}
		dataFile := strings.HasPrefix(name, "seg") &&
			(strings.HasSuffix(name, ".dat") || strings.HasSuffix(name, ".dcz"))
		if dataFile || strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(e.env.Dir, name))
		}
	}
}

// LookupPK implements core.Engine: a branch-head read
// of one primary key. Version-first has no per-branch key index — the
// paper's scheme resolves liveness from the segment lineage — so the
// lookup resolves the branch's live set (cached per frozen interval)
// and reads the single record copy the key maps to; the spec's full
// predicate and projection run on it, so the result is identical to
// the scan it replaces.
func (e *Engine) LookupPK(branch vgraph.BranchID, pk int64, spec *core.ScanSpec, fn core.ScanFunc) (bool, error) {
	e.mu.Lock()
	s, cut, err := e.headLocked(branch)
	if err != nil {
		e.mu.Unlock()
		return false, nil // unknown branch: let the scan path report it
	}
	live, err := e.resolveLive(pos{Seg: s.id, Slot: cut})
	if err != nil {
		e.mu.Unlock()
		return false, err
	}
	p, ok := live[pk]
	if !ok {
		e.mu.Unlock()
		return true, nil // served: the key is not live in this branch
	}
	seg := e.segs[p.Seg]
	buf := make([]byte, seg.Schema.RecordSize())
	if err := seg.File.Read(p.Slot, buf); err != nil {
		e.mu.Unlock()
		return false, err
	}
	prep, err := spec.Prep(seg.Cols)
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
