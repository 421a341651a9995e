package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"decibel"
)

// write is one row change a commit applies: ver 0 deletes pk.
type write struct {
	pk  int64
	ver uint32
}

// snap is a historical commit with the oracle state it holds.
type snap struct {
	branch string
	id     decibel.CommitID
	st     state
}

// dataset is a facade-driven database plus the oracle model of every
// branch: its current state and, for merges, the changes made on it
// since it forked.
type dataset struct {
	db      *decibel.DB
	dir     string
	schema  *decibel.Schema
	rowSize int

	names  []string
	index  map[string]int
	states []state
	deltas []map[int64]uint32

	nextPK  int64
	nextVer uint32
	snaps   []snap

	// sut accumulates time spent inside the system under test during
	// set-up, which excludes the oracle's own bookkeeping.
	sut time.Duration
}

func openDataset(dir string, fillers int, opts ...decibel.Option) (*dataset, error) {
	d := &dataset{dir: dir, schema: newSchema(fillers), index: map[string]int{}, nextPK: 1, nextVer: 1}
	d.rowSize = d.schema.RecordSize()
	t0 := time.Now()
	db, err := decibel.Open(dir, opts...)
	if err != nil {
		return nil, err
	}
	d.db = db
	if _, err := db.CreateTable(tableName, d.schema); err != nil {
		db.Close()
		return nil, err
	}
	if _, _, err := db.Init("initial"); err != nil {
		db.Close()
		return nil, err
	}
	d.sut += time.Since(t0)
	d.addBranch(decibel.Master, nil)
	return d, nil
}

func (d *dataset) addBranch(name string, st state) int {
	d.index[name] = len(d.names)
	d.names = append(d.names, name)
	d.states = append(d.states, st)
	d.deltas = append(d.deltas, map[int64]uint32{})
	return len(d.names) - 1
}

func (d *dataset) newVer() uint32 {
	v := d.nextVer
	d.nextVer++
	return v
}

// pickKey returns a key live in branch i, or an absent one after a few
// misses (a lookup that finds nothing is still checked).
func (d *dataset) pickKey(rng *rand.Rand, i int) int64 {
	var pk int64
	for try := 0; try < 16; try++ {
		pk = 1 + rng.Int64N(d.nextPK)
		if d.states[i].get(pk) != 0 {
			break
		}
	}
	return pk
}

func (d *dataset) newPK() int64 {
	pk := d.nextPK
	d.nextPK++
	return pk
}

// smallCommit is the most rows a set-up commit may write to count in
// the commit-point growth series.
const smallCommit = 50

// commit applies ws to branch i as one transaction. An operation
// (op=true) is recorded in the commit class; set-up commits are not.
func (d *dataset) commit(b *bench, i int, ws []write, op bool) (*decibel.Commit, error) {
	var recs []*decibel.Record
	var dels []int64
	for _, w := range ws {
		if w.ver == 0 {
			dels = append(dels, w.pk)
			continue
		}
		rec := decibel.NewRecord(d.schema)
		fill(rec, w.pk, int64(w.ver))
		recs = append(recs, rec)
	}
	root := b.newSpanID()
	var io0 procIO
	if b.traced {
		io0 = readProcIO()
	}
	var s0, s1 time.Time
	t0 := time.Now()
	cm, err := d.db.CommitContext(ctx, d.names[i], func(tx *decibel.Tx) error {
		s0 = time.Now()
		defer func() { s1 = time.Now() }()
		if len(recs) > 0 {
			if err := tx.InsertBatch(tableName, recs); err != nil {
				return err
			}
		}
		for _, pk := range dels {
			if err := tx.Delete(tableName, pk); err != nil {
				return err
			}
		}
		return nil
	})
	end := time.Now()
	total := end.Sub(t0)
	if !op {
		d.sut += total
	}
	if err != nil {
		if op {
			b.record(clCommit, total, err)
		}
		return nil, fmt.Errorf("commit on %s: %w", d.names[i], err)
	}
	stage := s1.Sub(s0)
	if b.traced {
		b.span(0, root, "core.commit_stage", s0, s1, nil)
		b.span(0, root, "core.commit_point", s1, end, nil)
		name := "op.commit"
		if !op {
			name = "setup.commit"
		}
		b.span(root, 0, name, t0, end, map[string]int64{"rows": int64(len(ws))})
		switch {
		case op:
			b.sample("core.commit_point_ms", ms(total-stage))
		case len(ws) <= smallCommit:
			b.sample("setup.commit_point_ms", ms(total-stage))
		}
		if op {
			b.sample("core.commit_stage_ms", ms(stage))
		}
		if op {
			b.sample("core.write_bytes_per_commit", float64(readProcIO().wchar-io0.wchar))
		}
	}
	if op {
		b.record(clCommit, total, nil)
		b.mu.Lock()
		b.userBytes += int64(len(ws) * d.rowSize)
		b.mu.Unlock()
	}
	for _, w := range ws {
		d.states[i].set(w.pk, w.ver)
		d.deltas[i][w.pk] = w.ver
	}
	return cm, nil
}

// branch forks name from the head of branch from.
func (d *dataset) branch(b *bench, from int, name string, op bool) (int, error) {
	t0 := time.Now()
	_, err := d.db.Branch(d.names[from], name)
	end := time.Now()
	if op {
		b.record("branch", end.Sub(t0), err)
	} else {
		d.sut += end.Sub(t0)
	}
	if err != nil {
		return -1, fmt.Errorf("branch %s from %s: %w", name, d.names[from], err)
	}
	if b.traced {
		root := b.span(0, 0, "op.branch", t0, end, nil)
		b.span(0, root, "core.branch", t0, end, nil)
		b.sample("core.branch_ms", ms(end.Sub(t0)))
	}
	return d.addBranch(name, d.states[from].clone()), nil
}

// merge merges branch from into branch into (three-way, into wins).
// The generator never lets two branches change the same key, so the
// expected result is into's state with from's changes applied.
func (d *dataset) merge(b *bench, into, from int, op bool) error {
	root := b.newSpanID()
	t0 := time.Now()
	_, st, err := d.db.MergeContext(ctx, d.names[into], d.names[from])
	end := time.Now()
	if !op {
		d.sut += end.Sub(t0)
	}
	if op {
		b.record(clMerge, end.Sub(t0), err)
	}
	if err != nil {
		return fmt.Errorf("merge %s into %s: %w", d.names[from], d.names[into], err)
	}
	if b.traced {
		b.span(root, 0, "op.merge", t0, end, map[string]int64{"diff_bytes": st.DiffBytes, "tuples_scanned": st.TuplesScanned})
		b.span(0, root, "core.merge", t0, end, nil)
		b.sample("core.merge_mb_per_s", float64(st.DiffBytes)/1e6/end.Sub(t0).Seconds())
		b.sample("core.merge_tuples_scanned", float64(st.TuplesScanned))
	}
	for pk, ver := range d.deltas[from] {
		d.states[into].set(pk, ver)
		if into != 0 {
			d.deltas[into][pk] = ver
		}
	}
	return nil
}

// compact runs one manual compaction pass.
func (d *dataset) compact(b *bench, op bool) error {
	t0 := time.Now()
	st, err := d.db.Compact()
	end := time.Now()
	if op {
		b.record("compact", end.Sub(t0), err)
	} else {
		d.sut += end.Sub(t0)
	}
	if err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	b.mu.Lock()
	b.compactions++
	b.mu.Unlock()
	if b.traced {
		root := b.span(0, 0, "op.compact", t0, end, nil)
		b.span(0, root, "compact.pass", t0, end, map[string]int64{"segments_merged": st.SegmentsMerged, "bytes_reclaimed": st.BytesReclaimed})
		b.sample("compact.pass_ms", ms(end.Sub(t0)))
		b.sample("compact.segments_merged", float64(st.SegmentsMerged))
		b.sample("compact.bytes_reclaimed", float64(st.BytesReclaimed))
	}
	return nil
}

// spaceAmp is the dataset directory's bytes, once the buffer pool is
// flushed, over the encoded bytes of the rows live in any head.
func (d *dataset) spaceAmp() (float64, error) {
	if err := d.db.Flush(); err != nil {
		return 0, err
	}
	n, err := dirBytes(d.dir)
	if err != nil {
		return 0, err
	}
	live := liveBytes(d.states, d.rowSize)
	if live == 0 {
		return 0, fmt.Errorf("no live rows")
	}
	return float64(n) / float64(live), nil
}

func (d *dataset) segmentCount() (int, error) {
	st, err := d.db.Stats()
	return st.SegmentCount, err
}
