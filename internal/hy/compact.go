package hy

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"decibel/internal/bitmap"
	"decibel/internal/compact"
	"decibel/internal/store"
	"decibel/internal/vgraph"
)

// segFilePath returns the data file of a segment under the given
// encoding: seg<id>.dat for heap files (the legacy name, so existing
// datasets open unchanged), seg<id>.dcz for compressed ones.
func (e *Engine) segFilePath(id segID, enc string) string {
	if enc == store.EncDCZ {
		return filepath.Join(e.env.Dir, fmt.Sprintf("seg%d.dcz", id))
	}
	return e.segPath(id)
}

// CompactSegments implements core.Engine for the hybrid scheme, the
// only engine whose layout permits physical merging: liveness lives in
// per-(segment, branch) bitmaps and per-(branch, segment) commit logs,
// both of which can be remapped to new slots, so runs of small frozen
// segments collapse into one larger compressed segment, dropping rows
// no bitmap or recorded commit can reach. Remaining frozen heap
// segments are then re-encoded to compressed pages in place (slot
// numbering preserved, so no index or log changes).
func (e *Engine) CompactSegments(opt compact.Options) (compact.Stats, error) {
	opt = opt.Defaults()
	var st compact.Stats
	if opt.Mode == compact.ModeOff {
		return st, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		run := e.findRunLocked(opt)
		if run == nil {
			break
		}
		if err := e.mergeRunLocked(run, opt, &st); err != nil {
			return st, err
		}
	}
	if opt.Compress {
		if err := e.compressLocked(opt, &st); err != nil {
			return st, err
		}
	}
	return st, nil
}

// findRunLocked returns the first run of at least MinRun consecutive
// (in scan order) frozen, heap-encoded, small, non-head segments with
// the same physical layout — the unit one merge collapses. Merged
// output is compressed (EncDCZ), so a produced segment never qualifies
// again and the caller's loop terminates.
func (e *Engine) findRunLocked(opt compact.Options) []*hseg {
	heads := make(map[segID]bool, len(e.headSeg))
	for _, id := range e.headSeg {
		heads[id] = true
	}
	var run []*hseg
	for _, s := range e.segs {
		ok := s.Frozen && !heads[s.id] && s.Encoding != store.EncDCZ &&
			s.File.Count() < opt.SmallRows &&
			(len(run) == 0 || run[0].Cols == s.Cols)
		if ok {
			run = append(run, s)
			continue
		}
		if len(run) >= opt.MinRun {
			return run
		}
		run = run[:0]
		// s itself may start the next run.
		if s.Frozen && !heads[s.id] && s.Encoding != store.EncDCZ && s.File.Count() < opt.SmallRows {
			run = append(run, s)
		}
	}
	if len(run) >= opt.MinRun {
		return run
	}
	return nil
}

// mergeRunLocked folds one run into a single compressed segment under
// a fresh id placed at the run's position in the segment table, so
// every scan shape visits the surviving rows in exactly the order it
// did before.
//
// A row survives if any branch's local bitmap has its bit set or any
// recorded commit's snapshot (any entry of any (branch, segment) log
// on a run member) includes it; everything else is tombstone debris no
// read can reach. Per-branch logs of the run members are rewritten
// into one log against the merged segment — entry seq s holds the
// union of the members' seq-s snapshots with slots remapped — which
// preserves every historical checkout bit-for-bit.
//
// Crash safety: the merged data file and the rewritten logs are
// written and fsynced first (FailAfterTemp aborts here, leaving them
// as orphans the next open sweeps), the catalog rename commits the
// swap, and only then are the replaced files unlinked (FailBeforeUnlink
// returns first, leaving old-file orphans) — data files deferred until
// their pinned readers drain.
func (e *Engine) mergeRunLocked(run []*hseg, opt compact.Options, st *compact.Stats) error {
	inRun := make(map[segID]bool, len(run))
	for _, s := range run {
		inRun[s.id] = true
	}

	// Keep-set per member: bits reachable from any branch head or any
	// recorded commit.
	keep := make(map[segID]*bitmap.Bitmap, len(run))
	for _, s := range run {
		u := bitmap.New(0)
		for _, bm := range s.local {
			u.Or(bm)
		}
		keep[s.id] = u
	}
	for k := range e.startSeq {
		if !inRun[k.Seg] {
			continue
		}
		l, err := e.openLog(k)
		if err != nil {
			return err
		}
		for i := 0; i < l.NumCommits(); i++ {
			bm, err := l.Checkout(i)
			if err != nil {
				return err
			}
			keep[k.Seg].Or(bm)
		}
	}

	// Write the merged segment: surviving rows in scan order (member
	// order, slot order), slots remapped densely.
	newID := e.nextID
	cols := run[0].Cols
	schema := run[0].Schema
	w := store.NewCompressedWriter(schema, run[0].File.PerPage())
	zone := store.NewZoneMap(schema.NumColumns())
	remap := make(map[pos]pos)
	var next int64
	var dropped int64
	for _, s := range run {
		count := s.File.Count()
		k := keep[s.id]
		buf := make([]byte, schema.RecordSize())
		for slot := int64(0); slot < count; slot++ {
			if !k.Get(int(slot)) {
				dropped++
				continue
			}
			if err := s.File.Read(slot, buf); err != nil {
				return err
			}
			if err := w.Append(buf); err != nil {
				return err
			}
			zone.Update(schema, buf)
			remap[pos{Seg: s.id, Slot: slot}] = pos{Seg: newID, Slot: next}
			next++
		}
	}
	newPath := e.segFilePath(newID, store.EncDCZ)
	if err := w.WriteFile(newPath); err != nil {
		return err
	}
	ns, err := e.st.Open(newPath, store.SegMeta{Cols: cols, Frozen: true, Encoding: store.EncDCZ, Zone: zone}, -1)
	if err != nil {
		os.Remove(newPath)
		return err
	}
	abortSeg := func() {
		ns.File.Close()
		os.Remove(newPath)
	}

	// Rewrite each branch's member logs into one log against the merged
	// segment. Member logs for one branch all end at the branch's last
	// commit (commitLocked appends to every local's log on every
	// commit), so the union over [min start, last] has no gaps and the
	// per-commit density invariant carries over.
	type logRange struct {
		start, end int // commit seqs [start, end)
	}
	ranges := make(map[vgraph.BranchID]logRange)
	for k, start := range e.startSeq {
		if !inRun[k.Seg] {
			continue
		}
		l, err := e.openLog(k)
		if err != nil {
			return err
		}
		r, ok := ranges[k.Branch]
		if !ok {
			r = logRange{start: start, end: start + l.NumCommits()}
		} else {
			if start < r.start {
				r.start = start
			}
			if end := start + l.NumCommits(); end > r.end {
				r.end = end
			}
		}
		ranges[k.Branch] = r
	}
	newLogs := make(map[vgraph.BranchID]*bitmap.CommitLog, len(ranges))
	abortLogs := func() {
		for b, l := range newLogs {
			l.Close()
			os.Remove(e.logPath(logKey{Branch: b, Seg: newID}))
		}
	}
	for b, r := range ranges {
		path := e.logPath(logKey{Branch: b, Seg: newID})
		os.Remove(path) // debris from an earlier crashed merge
		nl, err := bitmap.OpenCommitLog(path, e.env.Opt.CommitFanout)
		if err != nil {
			abortLogs()
			abortSeg()
			return err
		}
		newLogs[b] = nl
		for seq := r.start; seq < r.end; seq++ {
			union := bitmap.New(0)
			for _, s := range run {
				k := logKey{Branch: b, Seg: s.id}
				start, ok := e.startSeq[k]
				if !ok || seq < start {
					continue
				}
				l, err := e.openLog(k)
				if err != nil {
					abortLogs()
					abortSeg()
					return err
				}
				if seq-start >= l.NumCommits() {
					continue
				}
				bm, err := l.Checkout(seq - start)
				if err != nil {
					abortLogs()
					abortSeg()
					return err
				}
				var ferr error
				bm.ForEach(func(slot int) bool {
					np, ok := remap[pos{Seg: s.id, Slot: int64(slot)}]
					if !ok {
						ferr = fmt.Errorf("hy: merge: committed slot %d of segment %d outside keep set", slot, s.id)
						return false
					}
					union.Set(int(np.Slot))
					return true
				})
				if ferr != nil {
					abortLogs()
					abortSeg()
					return ferr
				}
			}
			if _, err := nl.Append(union); err != nil {
				abortLogs()
				abortSeg()
				return err
			}
		}
		if err := nl.Sync(); err != nil {
			abortLogs()
			abortSeg()
			return err
		}
	}
	if opt.FailPoint == compact.FailAfterTemp {
		// Simulate a crash after the new files hit disk but before the
		// catalog swap: merged file and rewritten logs stay as orphans.
		for _, l := range newLogs {
			l.Close()
		}
		ns.File.Close()
		return compact.FailPointErr(opt.FailPoint)
	}

	// Build the merged in-memory segment: local bitmaps remapped, one
	// entry for every branch any member tracked (even if now empty) so
	// the commit path keeps appending to the rewritten log.
	nhs := &hseg{Segment: ns, id: newID, owner: run[0].owner, local: make(map[vgraph.BranchID]*bitmap.Bitmap)}
	for _, s := range run {
		for b, bm := range s.local {
			u := nhs.local[b]
			if u == nil {
				u = bitmap.New(0)
				nhs.local[b] = u
			}
			bm.ForEach(func(slot int) bool {
				if np, ok := remap[pos{Seg: s.id, Slot: int64(slot)}]; ok {
					u.Set(int(np.Slot))
				}
				return true
			})
		}
	}

	// Swap copy-on-write — in-flight scans hold the old slice — with the
	// merged segment at the run's first position, then persist: the
	// catalog rename is the commit point. On persist failure everything
	// reverts and the new files are removed.
	prevSegs := e.segs
	segs := make([]*hseg, 0, len(e.segs)-len(run)+1)
	for _, s := range e.segs {
		if inRun[s.id] {
			if s == run[0] {
				segs = append(segs, nhs)
			}
			continue
		}
		segs = append(segs, s)
	}
	e.segs = segs
	e.byID[newID] = nhs
	for _, s := range run {
		delete(e.byID, s.id)
	}
	prevNext := e.nextID
	e.nextID = newID + 1
	removedSeq := make(map[logKey]int)
	for k, start := range e.startSeq {
		if inRun[k.Seg] {
			removedSeq[k] = start
			delete(e.startSeq, k)
		}
	}
	for b, r := range ranges {
		e.startSeq[logKey{Branch: b, Seg: newID}] = r.start
	}
	if err := e.persistLocked(); err != nil {
		e.segs = prevSegs
		delete(e.byID, newID)
		for _, s := range run {
			e.byID[s.id] = s
		}
		e.nextID = prevNext
		for b := range ranges {
			delete(e.startSeq, logKey{Branch: b, Seg: newID})
		}
		for k, start := range removedSeq {
			e.startSeq[k] = start
		}
		abortLogs()
		abortSeg()
		return err
	}

	// Committed. Point the open-log cache at the rewritten logs, remap
	// the pk indexes (deduping shared overlay-chain nodes), count the
	// pass, and retire the replaced files.
	var oldLogs []logKey
	for k := range removedSeq {
		if l, ok := e.logs[k]; ok {
			l.Close()
			delete(e.logs, k)
		}
		oldLogs = append(oldLogs, k)
	}
	for b, l := range newLogs {
		e.logs[logKey{Branch: b, Seg: newID}] = l
	}
	seen := make(map[*pkIndex]bool)
	for _, idx := range e.pk {
		for q := idx; q != nil && !seen[q]; q = q.parent {
			seen[q] = true
			for pk, p := range q.m {
				if !inRun[p.Seg] {
					continue
				}
				if np, ok := remap[p]; ok {
					q.m[pk] = np
				} else {
					// The row was dropped: every branch has shadowed or
					// deleted this entry, so it can only resolve dead.
					q.m[pk] = deletedPos
				}
			}
		}
	}
	var oldBytes int64
	for _, s := range run {
		oldBytes += s.File.DiskBytes()
	}
	st.SegmentsMerged += int64(len(run))
	st.TombstonesDropped += dropped
	st.PagesCompressed += int64(w.Pages())
	st.BytesReclaimed += oldBytes - ns.File.DiskBytes()
	if opt.FailPoint == compact.FailBeforeUnlink {
		// Simulate a crash after the catalog swap but before the old
		// files are unlinked; the next open sweeps them.
		return compact.FailPointErr(opt.FailPoint)
	}
	for _, s := range run {
		s.Segment.RetireAndRemove(e.segFilePath(s.id, s.Encoding))
	}
	for _, k := range oldLogs {
		os.Remove(e.logPath(k))
	}
	return nil
}

// compressLocked re-encodes every remaining frozen heap segment (heads
// excluded) into compressed pages. Slot numbering is preserved — the
// whole file re-encodes — so bitmaps, logs and pk indexes need no
// changes; only the catalog entry's encoding tag and path move.
func (e *Engine) compressLocked(opt compact.Options, st *compact.Stats) error {
	heads := make(map[segID]bool, len(e.headSeg))
	for _, id := range e.headSeg {
		heads[id] = true
	}
	type repl struct {
		old     *hseg
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
		if !s.Frozen || heads[s.id] || s.Encoding == store.EncDCZ || n == 0 {
			continue
		}
		ns, pages, err := e.st.CompressSegment(s.Segment, e.segFilePath(s.id, store.EncDCZ), n)
		if err != nil {
			abort()
			return err
		}
		repls = append(repls, repl{old: s, ns: ns, pages: pages, oldDisk: s.File.DiskBytes()})
	}
	if len(repls) == 0 {
		return nil
	}
	if opt.FailPoint == compact.FailAfterTemp {
		for _, r := range repls {
			r.ns.File.Close()
		}
		return compact.FailPointErr(opt.FailPoint)
	}
	prev := e.segs
	segs := append([]*hseg(nil), e.segs...)
	for _, r := range repls {
		nh := &hseg{Segment: r.ns, id: r.old.id, owner: r.old.owner, local: r.old.local}
		for i, s := range segs {
			if s == r.old {
				segs[i] = nh
				break
			}
		}
		e.byID[r.old.id] = nh
	}
	e.segs = segs
	if err := e.persistLocked(); err != nil {
		e.segs = prev
		for _, r := range repls {
			e.byID[r.old.id] = r.old
		}
		abort()
		return err
	}
	for _, r := range repls {
		st.SegmentsCompressed++
		st.PagesCompressed += int64(r.pages)
		st.BytesReclaimed += r.oldDisk - r.ns.File.DiskBytes()
	}
	if opt.FailPoint == compact.FailBeforeUnlink {
		return compact.FailPointErr(opt.FailPoint)
	}
	for _, r := range repls {
		r.old.Segment.RetireAndRemove(e.segFilePath(r.old.id, r.old.Encoding))
	}
	return nil
}

// sweepOrphans removes files the catalog does not reference — the
// debris of a compaction (or crash) that wrote replacement files
// without committing, or committed without unlinking: segment data
// files not named by any catalog entry, commit logs of segment ids the
// catalog no longer knows, and stale catalog temp files. Called at the
// end of recover, when the referenced set is known.
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
	logDir := filepath.Join(e.env.Dir, "commits")
	ents, err = os.ReadDir(logDir)
	if err != nil {
		return
	}
	for _, ent := range ents {
		name := ent.Name()
		var b vgraph.BranchID
		var s segID
		if n, err := fmt.Sscanf(name, "b%d_s%d.hist", &b, &s); err != nil || n != 2 {
			continue
		}
		if _, ok := e.byID[s]; !ok {
			os.Remove(filepath.Join(logDir, name))
		}
	}
}
