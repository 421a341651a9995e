package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"decibel"
)

// history: the paper's curation strategy on the version-first engine
// with a buffer pool smaller than the data and live sets larger than
// vf's lineage cache. Reads of random branches, historical commits,
// diffs and heads scans interleave with small commits, branch
// creation, merges back and periodic compaction, so lineage
// resolution, merge and the version graph do most of the work and
// writes keep invalidating the lineage cache.
const (
	hiInitial     = 30_000 // rows loaded on mainline before branching
	hiWrites      = 90_000 // curation writes after the initial load
	hiBranches    = 30     // dev and feature branches created in set-up
	hiFillers     = 22     // 125-byte rows
	hiCommitEvery = 250    // writes per branch between set-up commits
	hiDevQuota    = 6_000  // writes a dev branch receives before merging back
	hiFeatQuota   = 1_500  // writes a feature branch receives before merging back
	hiPageBytes   = 64 << 10
	hiPoolPages   = 32 // 2 MB, smaller than the data
	hiSnaps       = 24 // historical commits kept for AtCommit reads
	hiOpsPerSec   = 45 // operations per requested second
	hiRunQuota    = 12 // commits a branch created during the run receives before it may merge
)

var hiMix = opMix{
	{"scan", 36}, {"pkrange", 18}, {"historic", 30}, {"diff", 10}, {"heads", 1},
	{"lookup", 60}, {"commit", 140}, {"branch", 4}, {"merge", 4}, {"compact", 1},
}

// liveBranch is a branch still receiving writes.
type liveBranch struct {
	i      int
	parent int
	quota  int
	dev    bool
}

type history struct {
	seed    int64
	seconds int
	d       *dataset
	shape   *rand.Rand // branching, write targets and write kinds: the same for every seed
	rng     *rand.Rand // keys written and read, query parameters
	own     [][]int64  // keys each branch may update or delete
	live    []*liveBranch
	retired map[int]bool
	commits int
}

func newHistory(seed int64, seconds int) workload { return &history{seed: seed, seconds: seconds} }

func (h *history) close() error {
	if h.d == nil {
		return nil
	}
	return h.d.db.Close()
}

// writes generates n writes to branch i: inserts of new keys and
// updates and deletes of keys the branch owns. Only the owner of a key
// changes it, so merges never conflict and their result is the
// parent's state with the child's changes applied.
func (h *history) writes(i, n int) []write {
	d := h.d
	ws := make([]write, 0, n)
	for k := 0; k < n; k++ {
		own := h.own[i]
		switch r := h.shape.IntN(100); {
		case r < 25 && len(own) > 0:
			ws = append(ws, write{pk: own[h.rng.IntN(len(own))], ver: d.newVer()})
		case r < 30 && len(own) > 0:
			j := h.rng.IntN(len(own))
			ws = append(ws, write{pk: own[j]})
			own[j] = own[len(own)-1]
			h.own[i] = own[:len(own)-1]
		default:
			pk := d.newPK()
			ws = append(ws, write{pk: pk, ver: d.newVer()})
			h.own[i] = append(h.own[i], pk)
		}
	}
	return ws
}

func (h *history) commit(b *bench, i int, ws []write, op bool) error {
	cm, err := h.d.commit(b, i, ws, op)
	if err != nil {
		return err
	}
	h.commits++
	if h.commits%4 == 0 {
		s := snap{branch: h.d.names[i], id: cm.ID, st: h.d.states[i].clone()}
		if len(h.d.snaps) < hiSnaps {
			h.d.snaps = append(h.d.snaps, s)
		} else {
			h.d.snaps[h.shape.IntN(hiSnaps)] = s
		}
	}
	return nil
}

// spawn creates a dev branch from mainline or a feature branch from
// mainline or a live dev branch.
func (h *history) spawn(b *bench, quota int, op bool) error {
	d := h.d
	dev := h.shape.IntN(3) != 0
	parent := 0
	if !dev {
		var devs []int
		for _, lb := range h.live {
			if lb.dev {
				devs = append(devs, lb.i)
			}
		}
		if len(devs) > 0 && h.shape.IntN(2) == 0 {
			parent = devs[h.shape.IntN(len(devs))]
		}
	}
	kind := "feat"
	if dev {
		kind = "dev"
	}
	i, err := d.branch(b, parent, fmt.Sprintf("%s%03d", kind, len(d.names)), op)
	if err != nil {
		return err
	}
	h.own = append(h.own, nil)
	if quota == 0 {
		quota = hiFeatQuota
		if dev {
			quota = hiDevQuota
		}
	}
	h.live = append(h.live, &liveBranch{i: i, parent: parent, quota: quota, dev: dev})
	return nil
}

// mergeBack merges live branch k into its parent, or into mainline
// when the parent has already merged back, and retires it.
func (h *history) mergeBack(b *bench, k int, op bool) error {
	lb := h.live[k]
	into := lb.parent
	if h.retired[into] {
		into = 0
	}
	if err := h.d.merge(b, into, lb.i, op); err != nil {
		return err
	}
	h.own[into] = append(h.own[into], h.own[lb.i]...)
	h.own[lb.i] = nil
	h.retired[lb.i] = true
	h.live = append(h.live[:k], h.live[k+1:]...)
	return nil
}

func (h *history) setup(b *bench, dir string) (time.Duration, error) {
	d, err := openDataset(dir, hiFillers, decibel.WithEngine("version-first"), decibel.WithPageSize(hiPageBytes),
		decibel.WithPoolPages(hiPoolPages), decibel.WithFsync(false), decibel.WithCompaction("manual"))
	if err != nil {
		return 0, err
	}
	h.d = d
	h.shape = rand.New(rand.NewPCG(1, 0xc07a))
	h.rng = rand.New(rand.NewPCG(uint64(h.seed), 0xc07a))
	h.own = [][]int64{nil}
	h.retired = map[int]bool{}
	for n := 0; n < hiInitial; n += 1_000 {
		ws := make([]write, 1_000)
		for k := range ws {
			pk := d.newPK()
			ws[k] = write{pk: pk, ver: d.newVer()}
			h.own[0] = append(h.own[0], pk)
		}
		if err := h.commit(b, 0, ws, false); err != nil {
			return 0, err
		}
	}
	pending := map[int]int{}
	flush := func(i int) error {
		if pending[i] == 0 {
			return nil
		}
		n := pending[i]
		pending[i] = 0
		return h.commit(b, i, h.writes(i, n), false)
	}
	spawnEvery := hiWrites / hiBranches
	for n := 0; n < hiWrites; n++ {
		if n%spawnEvery == 0 {
			// A feature may fork from a dev branch: flush it first so
			// the fork sees its writes.
			for _, lb := range h.live {
				if err := flush(lb.i); err != nil {
					return 0, err
				}
			}
			if err := flush(0); err != nil {
				return 0, err
			}
			if err := h.spawn(b, 0, false); err != nil {
				return 0, err
			}
		}
		k := h.shape.IntN(len(h.live) + 1)
		if k == len(h.live) {
			pending[0]++
			if pending[0] >= hiCommitEvery {
				if err := flush(0); err != nil {
					return 0, err
				}
			}
			continue
		}
		lb := h.live[k]
		pending[lb.i]++
		lb.quota--
		if pending[lb.i] >= hiCommitEvery || lb.quota <= 0 {
			if err := flush(lb.i); err != nil {
				return 0, err
			}
		}
		if lb.quota <= 0 {
			if err := flush(h.live[k].parent); err != nil {
				return 0, err
			}
			if err := h.mergeBack(b, k, false); err != nil {
				return 0, err
			}
		}
	}
	for _, lb := range h.live {
		if err := flush(lb.i); err != nil {
			return 0, err
		}
	}
	if err := flush(0); err != nil {
		return 0, err
	}
	if err := d.compact(b, false); err != nil {
		return 0, err
	}
	return d.sut, nil
}

func (h *history) run(b *bench) error {
	d := h.d
	rng := rand.New(rand.NewPCG(uint64(h.seed), 0x415))
	h.rng = rng
	h.shape = rand.New(rand.NewPCG(1, 0x415))
	ops := opSequence(rng, hiMix, hiOpsPerSec*h.seconds)
	var buf []row
	var abuf []annotatedRow
	st := newStrata(rng)
	anyBranch := func(name string) int { return st.index(name, len(d.names)) }
	rowsOp := func(cl string, q *decibel.Query, pr pred, want func() digest) {
		o := b.begin(cl, "op."+cl)
		var err error
		buf, err = b.scanRows(o, q, buf[:0])
		b.end(o, err, func() error { return checkDigest(buf, pr, want()) })
	}
	p := startPhase()
	b.startRate(len(ops), hiMix.blockSize())
	for _, kind := range ops {
		switch kind {
		case "scan":
			i, pr := anyBranch("scan"), pred{kind: pValLt, a: st.span("scan", 100_000, 800_000)}
			rowsOp(clScan, d.db.Query(tableName).On(d.names[i]).Where(pr.expr()), pr, func() digest { return expectRows(d.states[i], pr) })
		case "pkrange":
			i, lo := anyBranch("pkrange"), st.span("pkrange", 1, d.nextPK)
			pr := pred{kind: pPKRange, a: lo, b: lo + 2_000}
			rowsOp(clScan, d.db.Query(tableName).On(d.names[i]).Where(pr.expr()), pr, func() digest { return expectRows(d.states[i], pr) })
		case "lookup":
			i := anyBranch("lookup")
			pr := pred{kind: pPKEq, a: d.pickKey(rng, i)}
			rowsOp(clLookup, d.db.Query(tableName).On(d.names[i]).Where(pr.expr()), pr, func() digest { return expectRows(d.states[i], pr) })
			b.lookups++
		case "historic":
			s, pr := d.snaps[st.index("historic", len(d.snaps))], pred{kind: pValLt, a: st.span("historic", 100_000, 800_000)}
			rowsOp(clVersion, d.db.Query(tableName).On(s.branch).AtCommit(s.id).Where(pr.expr()), pr, func() digest { return expectRows(s.st, pr) })
		case "diff":
			i, j := anyBranch("diff.a"), anyBranch("diff.b")
			pr := pred{kind: pValLt, a: st.span("diff", 200_000, 800_000)}
			o := b.begin(clVersion, "op.diff")
			var err error
			buf, err = b.diff(o, d.db.Query(tableName).Where(pr.expr()), d.names[i], d.names[j], buf[:0])
			b.end(o, err, func() error { return checkDigest(buf, pr, expectDiff(d.states[i], d.states[j], pr)) })
		case "heads":
			pr := pred{kind: pValLt, a: st.span("heads", 5_000, 10_000)}
			o := b.begin(clVersion, "op.heads")
			var err error
			abuf, err = b.annotated(o, d.db.Query(tableName).Heads().Where(pr.expr()), d.index, abuf[:0])
			b.end(o, err, func() error { return checkHeads(abuf, pr, expectHeads(d.states, pr)) })
		case "commit":
			i := 0
			if k := h.shape.IntN(len(h.live) + 1); k < len(h.live) {
				i = h.live[k].i
				h.live[k].quota--
			}
			if err := h.commit(b, i, h.writes(i, int(st.span("commit", 1, 50))), true); err != nil {
				return err
			}
		case "branch":
			// A new branch starts with one commit, so the first write
			// to a fresh head, which costs several regular commits,
			// stays out of the commit class.
			if err := h.spawn(b, hiRunQuota, true); err != nil {
				return err
			}
			i := len(d.names) - 1
			if err := h.commit(b, i, h.writes(i, 1), false); err != nil {
				return err
			}
		case "merge":
			if len(h.live) == 0 {
				return fmt.Errorf("no live branch to merge")
			}
			k := 0
			for j, lb := range h.live {
				if lb.quota < h.live[k].quota {
					k = j
				}
			}
			if err := h.mergeBack(b, k, true); err != nil {
				return err
			}
		case "compact":
			if err := d.compact(b, true); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown operation %q", kind)
		}
		b.opDone()
	}
	b.endPhase(p, len(ops))

	// Engagement: the lineage cache must serve hits, and the run must
	// have merged and compacted.
	if v, ok := b.delta["decibel.vf.lineage_cache_hits"]; ok && v <= 0 {
		b.engagement("decibel.vf.lineage_cache_hits did not move")
	}
	if len(b.lat[clMerge]) == 0 || b.compactions < 2 {
		b.engagement("history ran %d merges and %d compaction passes", len(b.lat[clMerge]), b.compactions)
	}
	for _, i := range []int{0, len(d.names) - 1} {
		if err := checkBranch(b, d, i); err != nil {
			return err
		}
	}
	amp, err := d.spaceAmp()
	if err != nil {
		return err
	}
	b.spaceAmp = amp
	b.segmentCount(d)
	return b.failure()
}
