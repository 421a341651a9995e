package tf

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"decibel/internal/compact"
	"decibel/internal/store"
)

// extFilePath returns extent i's data file: the positional default or
// its recorded rewrite name.
func (e *Engine) extFilePath(i int, name string) string {
	if name != "" {
		return filepath.Join(e.env.Dir, name)
	}
	return e.extPath(i)
}

// CompactSegments implements core.Engine for the tuple-first
// scheme. The shared heap's slot numbers are global — every bitmap,
// commit delta and pk index addresses them — so extents can never be
// merged or have rows dropped; the pass re-encodes sealed extents into
// compressed pages, preserving slot numbering exactly. Rows past an
// extent's sealed count (torn appends no global slot maps into) are
// not carried over.
//
// Crash safety: the .dcz replacements are written and fsynced first
// (FailAfterTemp aborts here, leaving orphans the next open sweeps),
// the extent-table rename is the commit point, and the old files are
// unlinked last (FailBeforeUnlink returns first), each deferred until
// its pinned readers drain.
func (e *Engine) CompactSegments(opt compact.Options) (compact.Stats, error) {
	opt = opt.Defaults()
	var st compact.Stats
	if opt.Mode == compact.ModeOff || !opt.Compress {
		return st, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	type repl struct {
		i       int
		ns      *store.Segment
		name    string
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
	for i := 0; i < len(e.exts)-1; i++ {
		x := e.exts[i]
		count := e.exts[i+1].base - x.base
		if x.Encoding == store.EncDCZ || count == 0 {
			continue
		}
		name := fmt.Sprintf("data.e%d.dcz", i)
		ns, pages, err := e.st.CompressSegment(x.Segment, filepath.Join(e.env.Dir, name), count)
		if err != nil {
			abort()
			return st, err
		}
		if err := ns.EnablePageZones(); err != nil {
			ns.File.Close()
			os.Remove(ns.File.Path())
			abort()
			return st, err
		}
		repls = append(repls, repl{i: i, ns: ns, name: name, pages: pages, oldDisk: x.File.DiskBytes()})
	}
	if len(repls) == 0 {
		return st, nil
	}
	if opt.FailPoint == compact.FailAfterTemp {
		// Simulate a crash after the new files hit disk but before the
		// extent-table swap: the .dcz files stay behind as orphans.
		for _, r := range repls {
			r.ns.File.Close()
		}
		return st, compact.FailPointErr(opt.FailPoint)
	}

	// Swap copy-on-write: in-flight scans snapshotted the old slice and
	// pinned the extents they read.
	prev := e.exts
	exts := append([]*extent(nil), e.exts...)
	for _, r := range repls {
		exts[r.i] = &extent{Segment: r.ns, base: prev[r.i].base, name: r.name}
	}
	e.exts = exts
	if err := e.persistExtentsLocked(); err != nil {
		e.exts = prev
		abort()
		return st, err
	}
	for _, r := range repls {
		st.SegmentsCompressed++
		st.PagesCompressed += int64(r.pages)
		st.BytesReclaimed += r.oldDisk - r.ns.File.DiskBytes()
	}
	if opt.FailPoint == compact.FailBeforeUnlink {
		// Simulate a crash after the swap but before the old files are
		// unlinked; the next open sweeps them.
		return st, compact.FailPointErr(opt.FailPoint)
	}
	for _, r := range repls {
		prev[r.i].Segment.RetireAndRemove(e.extFilePath(r.i, prev[r.i].name))
	}
	return st, nil
}

// sweepOrphans removes heap data files the extent table does not
// reference — debris of a compaction (or crash) that wrote replacement
// files without committing, or committed without unlinking — plus
// stale catalog temp files. Called once the extent table is loaded.
func (e *Engine) sweepOrphans() {
	keep := make(map[string]bool, len(e.exts))
	for _, x := range e.exts {
		keep[filepath.Base(x.File.Path())] = true
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
		dataFile := strings.HasPrefix(name, "data") &&
			(strings.HasSuffix(name, ".heap") || strings.HasSuffix(name, ".dcz"))
		if dataFile || strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(e.env.Dir, name))
		}
	}
}
