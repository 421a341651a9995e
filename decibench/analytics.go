package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"decibel"
)

// analytics: the paper's evaluation queries (Q1-Q4 plus top-k,
// group-by and pinned checkouts) over a compacted science-strategy
// dataset that fits the buffer pool. The read mix exercises the
// planner, executor, segment store and heap; the commit path works
// only in the commit/merge probe slices, which the read throughput
// excludes.
const (
	anBranches     = 24      // mainline plus 23 science branches
	anWrites       = 144_000 // row writes, ~18 MB of 125-byte rows
	anFillers      = 22      // 125-byte rows
	anCommitEvery  = 1_000   // writes per branch between commits
	anLifetime     = 8_000   // writes a science branch receives before it retires
	anSkew         = 2       // mainline receives anSkew times a branch's writes
	anUpdateFrac   = 0.2
	anPageBytes    = 64 << 10
	anPoolPages    = 512 // 32 MB: the whole dataset fits
	anSnaps        = 16  // historical commits kept for AtCommit checkouts
	anOpsPerSec    = 450 // operations per requested second
	anFeatures     = 3   // commit/merge probe: feature branches
	anProbeCommits = 600 // probe commits of 1-4 rows
	anMergeEvery   = 10  // a feature merges back after every anMergeEvery of its commits
)

// anMix is one block of the seeded operation sequence: the count of
// each operation kind per block; the order inside a block is shuffled.
var anMix = opMix{
	{"q1", 2}, {"pkrange", 3}, {"topk", 2}, {"group", 2},
	{"diff", 3}, {"join", 1}, {"heads", 1}, {"atcommit", 1}, {"lookup", 8},
}

type analytics struct {
	seed    int64
	seconds int
	d       *dataset
	feats   []int
}

func newAnalytics(seed int64, seconds int) workload { return &analytics{seed: seed, seconds: seconds} }

func (a *analytics) close() error {
	if a.d == nil {
		return nil
	}
	return a.d.db.Close()
}

func (a *analytics) setup(b *bench, dir string) (time.Duration, error) {
	d, err := openDataset(dir, anFillers, decibel.WithEngine("hybrid"), decibel.WithPageSize(anPageBytes),
		decibel.WithPoolPages(anPoolPages), decibel.WithFsync(false), decibel.WithCompaction("manual"))
	if err != nil {
		return 0, err
	}
	a.d = d
	// The branching shape is the same for every seed, so runs of
	// different seeds do comparable work; the seed picks the keys the
	// updates touch and, through rowSalt, every row's values.
	shape := rand.New(rand.NewPCG(1, 0x5c1e))
	rng := rand.New(rand.NewPCG(uint64(a.seed), 0x5c1e))
	pending := map[int][]write{}
	written := map[int]int{}
	var active []int
	flush := func(i int) error {
		if len(pending[i]) == 0 {
			return nil
		}
		cm, err := d.commit(b, i, pending[i], false)
		if err != nil {
			return err
		}
		pending[i] = pending[i][:0]
		if len(d.snaps) < anSnaps && shape.IntN(8) == 0 {
			d.snaps = append(d.snaps, snap{branch: d.names[i], id: cm.ID, st: d.states[i].clone()})
		}
		return nil
	}
	spawnEvery := anWrites / anBranches
	for n := 0; n < anWrites; n++ {
		if n%spawnEvery == 0 && len(d.names) < anBranches {
			from := 0
			if len(active) > 0 && shape.IntN(4) == 0 {
				from = active[shape.IntN(len(active))]
			}
			if err := flush(from); err != nil {
				return 0, err
			}
			i, err := d.branch(b, from, fmt.Sprintf("sci%02d", len(d.names)), false)
			if err != nil {
				return 0, err
			}
			active = append(active, i)
		}
		target := 0
		if t := shape.IntN(len(active) + anSkew); t >= anSkew {
			target = active[t-anSkew]
		}
		w := write{ver: d.newVer()}
		if shape.Float64() < anUpdateFrac && d.nextPK > 1 {
			for try := 0; try < 8; try++ {
				pk := 1 + rng.Int64N(d.nextPK-1)
				if d.states[target].get(pk) != 0 {
					w.pk = pk
					break
				}
			}
		}
		if w.pk == 0 {
			w.pk = d.newPK()
		}
		// Writes reach the oracle when their commit succeeds; a fork
		// flushes its parent first.
		pending[target] = append(pending[target], w)
		if len(pending[target]) >= anCommitEvery {
			if err := flush(target); err != nil {
				return 0, err
			}
		}
		if target != 0 {
			written[target]++
			if written[target] >= anLifetime {
				if err := flush(target); err != nil {
					return 0, err
				}
				for k, x := range active {
					if x == target {
						active = append(active[:k], active[k+1:]...)
						break
					}
				}
			}
		}
	}
	for i := range d.names {
		if err := flush(i); err != nil {
			return 0, err
		}
	}
	if err := d.compact(b, false); err != nil {
		return 0, err
	}
	return d.sut, nil
}

func (a *analytics) run(b *bench) error {
	d := a.d
	rng := rand.New(rand.NewPCG(uint64(a.seed), 0xa7a1))
	ops := opSequence(rng, anMix, anOpsPerSec*a.seconds)
	var buf []row
	var abuf []annotatedRow
	var tbuf [][2]row
	st := newStrata(rng)
	branchOf := func(name string) int { return st.index(name, len(d.names)) }
	rowsOp := func(cl string, q *decibel.Query, pr pred, want func() digest) {
		o := b.begin(cl, "op."+cl)
		var err error
		buf, err = b.scanRows(o, q, buf[:0])
		b.end(o, err, func() error { return checkDigest(buf, pr, want()) })
	}
	p := startPhase()
	b.startRate(len(ops), anMix.blockSize())
	per := len(ops) / segments
	for k, kind := range ops {
		switch kind {
		case "q1":
			i, pr := branchOf("q1"), pred{kind: pValLt, a: st.span("q1", 400_000, 400_000)}
			rowsOp(clScan, d.db.Query(tableName).On(d.names[i]).Where(pr.expr()), pr, func() digest { return expectRows(d.states[i], pr) })
		case "pkrange":
			i, lo := branchOf("pkrange"), st.span("pkrange", 1, d.nextPK)
			pr := pred{kind: pPKRange, a: lo, b: lo + 1_500}
			rowsOp(clScan, d.db.Query(tableName).On(d.names[i]).Where(pr.expr()), pr, func() digest { return expectRows(d.states[i], pr) })
		case "lookup":
			i := branchOf("lookup")
			pr := pred{kind: pPKEq, a: d.pickKey(rng, i)}
			rowsOp(clLookup, d.db.Query(tableName).On(d.names[i]).Where(pr.expr()), pr, func() digest { return expectRows(d.states[i], pr) })
			b.lookups++
		case "atcommit":
			s, pr := d.snaps[st.index("atcommit", len(d.snaps))], pred{kind: pValLt, a: st.span("atcommit", 200_000, 600_000)}
			rowsOp(clVersion, d.db.Query(tableName).On(s.branch).AtCommit(s.id).Where(pr.expr()), pr, func() digest { return expectRows(s.st, pr) })
		case "topk":
			i, pr := branchOf("topk"), pred{kind: pValGe, a: st.span("topk", 0, 500_000)}
			o := b.begin(clScan, "op.topk")
			var err error
			buf, err = b.scanRows(o, d.db.Query(tableName).On(d.names[i]).Where(pr.expr()).OrderBy("score", true).Limit(25), buf[:0])
			b.end(o, err, func() error { return checkOrdered(buf, expectTopK(d.states[i], pr, 25)) })
			b.topk++
		case "group":
			i, pr := branchOf("group"), pred{kind: pValLt, a: st.span("group", 300_000, 600_000)}
			o := b.begin(clScan, "op.group")
			got, err := b.groups(o, d.db.Query(tableName).On(d.names[i]).Where(pr.expr()).GroupBy("grp"))
			b.end(o, err, func() error { return checkGroups(got, expectGroups(d.states[i], pr)) })
		case "diff":
			i, j := branchOf("diff.a"), branchOf("diff.b")
			pr := pred{kind: pValLt, a: st.span("diff", 500_000, 500_000)}
			o := b.begin(clVersion, "op.diff")
			var err error
			buf, err = b.diff(o, d.db.Query(tableName).Where(pr.expr()), d.names[i], d.names[j], buf[:0])
			b.end(o, err, func() error { return checkDigest(buf, pr, expectDiff(d.states[i], d.states[j], pr)) })
		case "join":
			i, j, lo := branchOf("join.a"), branchOf("join.b"), st.span("join", 1, d.nextPK)
			pr := pred{kind: pPKRange, a: lo, b: lo + 4_000}
			o := b.begin(clVersion, "op.join")
			q := d.db.Query(tableName).On(d.names[i]).Where(pr.expr()).
				JoinOn(d.db.Query(tableName).On(d.names[j]).Where(pr.expr()), decibel.On("id", "id"))
			var err error
			tbuf, err = b.tuples(o, q, tbuf[:0])
			b.end(o, err, func() error { return checkJoin(tbuf, pr, expectJoin(d.states[i], d.states[j], pr)) })
		case "heads":
			pr := pred{kind: pValLt, a: st.span("heads", 10_000, 20_000)}
			o := b.begin(clVersion, "op.heads")
			var err error
			abuf, err = b.annotated(o, d.db.Query(tableName).Heads().Where(pr.expr()), d.index, abuf[:0])
			b.end(o, err, func() error { return checkHeads(abuf, pr, expectHeads(d.states, pr)) })
		default:
			return fmt.Errorf("unknown operation %q", kind)
		}
		b.opDone()
		if (k+1)%per == 0 {
			// A slice of the commit/merge probe after each part of
			// the reads, outside the read throughput.
			t := time.Now()
			if err := a.commitSlice(b, rng, (k+1)/per-1); err != nil {
				return err
			}
			b.excluded += time.Since(t)
		}
	}
	b.endPhase(p, len(ops))

	// Engagement: the read mix must reach zone-map pruning, compressed
	// pages and the parallel executor.
	for _, c := range []string{"decibel.segments_skipped", "decibel.compressed_page_decodes", "decibel.parallel_scans"} {
		if v, ok := b.delta[c]; ok && v <= 0 {
			b.engagement("%s did not move during the read mix", c)
		}
	}
	if err := checkBranch(b, d, 0); err != nil {
		return err
	}
	amp, err := d.spaceAmp()
	if err != nil {
		return err
	}
	b.spaceAmp = amp
	b.segmentCount(d)
	return b.failure()
}

// commitSlice runs one of the segments slices of the commit and merge
// probe: small commits round-robin on anFeatures feature branches
// forked from mainline, each merged back after every anMergeEvery of
// its commits. It gives analytics its commit and merge latencies while
// the read throughput excludes it. Few branches keep the first-commit
// cost of a new branch out of the commit tail.
func (a *analytics) commitSlice(b *bench, rng *rand.Rand, slice int) error {
	d := a.d
	if slice == 0 {
		for f := 0; f < anFeatures; f++ {
			i, err := d.branch(b, 0, fmt.Sprintf("feat%d", f), true)
			if err != nil {
				return err
			}
			a.feats = append(a.feats, i)
		}
	}
	for c := 0; c < anProbeCommits/segments; c++ {
		f := a.feats[c%anFeatures]
		ws := make([]write, 1+rng.IntN(4))
		for k := range ws {
			ws[k] = write{pk: d.newPK(), ver: d.newVer()}
		}
		if _, err := d.commit(b, f, ws, true); err != nil {
			return err
		}
		if (c/anFeatures+1)%anMergeEvery == 0 {
			if err := d.merge(b, 0, f, true); err != nil {
				return err
			}
		}
	}
	return nil
}
