package main

import (
	"fmt"
	"math/rand/v2"
	"time"
)

// op is one timed benchmark operation: the root span of its trace.
type op struct {
	cl     string
	name   string
	root   int64
	t      time.Time
	before counters
}

func (b *bench) begin(cl, name string) *op {
	o := &op{cl: cl, name: name, root: b.newSpanID(), before: b.opCounters()}
	o.t = time.Now()
	return o
}

// end records o. When it succeeded, check verifies its result against
// the oracle outside the timed interval.
func (b *bench) end(o *op, err error, check func() error) {
	end := time.Now()
	b.record(o.cl, end.Sub(o.t), err)

	if b.traced {
		b.span(o.root, 0, o.name, o.t, end, b.opAttrs(o.before))
	}
	if err == nil && check != nil {
		if cerr := check(); cerr != nil {
			b.mismatch(o.cl, "%s: %v", o.name, cerr)
		}
		b.excluded += time.Since(end)
	}
}

// opMix is one block of a seeded operation sequence: how many of each
// operation kind it holds.
type opMix []struct {
	kind string
	n    int
}

func (mix opMix) blockSize() int {
	n := 0
	for _, m := range mix {
		n += m.n
	}
	return n
}

// opSequence returns the seeded operation sequence: whole blocks of
// mix, each shuffled, covering at least total operations. Every seed
// runs the same number of each kind.
func opSequence(rng *rand.Rand, mix opMix, total int) []string {
	var block []string
	for _, m := range mix {
		for i := 0; i < m.n; i++ {
			block = append(block, m.kind)
		}
	}
	var out []string
	for len(out) < total {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out
}

func checkJoin(got [][2]row, p pred, want digest) error {
	var d digest
	for _, t := range got {
		for _, r := range t {
			if !checkRow(r) || !p.match(r) {
				return fmt.Errorf("joined row pk=%d ver=%d is wrong or unfiltered", r.pk, r.ver)
			}
		}
		if t[0].pk != t[1].pk {
			return fmt.Errorf("joined keys differ: %d vs %d", t[0].pk, t[1].pk)
		}
		d.add(rowHash(t[0].pk, t[0].ver)*31 + rowHash(t[1].pk, t[1].ver))
	}
	if d != want {
		return fmt.Errorf("got %d tuples (sum %x), want %d (sum %x)", d.N, d.Sum, want.N, want.Sum)
	}
	return nil
}

func checkHeads(got []annotatedRow, p pred, want digest) error {
	var d digest
	for _, r := range got {
		if !checkRow(r.row) || !p.match(r.row) {
			return fmt.Errorf("heads row pk=%d ver=%d is wrong or unfiltered", r.pk, r.ver)
		}
		d.add(rowHash(r.pk, r.ver) ^ r.set)
	}
	if d != want {
		return fmt.Errorf("got %d annotated rows (sum %x), want %d (sum %x)", d.N, d.Sum, want.N, want.Sum)
	}
	return nil
}

// checkBranch verifies a whole branch head against the oracle, outside
// any measured phase.
func checkBranch(b *bench, d *dataset, i int) error {
	var buf []row
	seq, errf := d.db.Query(tableName).On(d.names[i]).RowsContext(ctx)
	for rec := range seq {
		buf = append(buf, readRow(rec))
	}
	b.mu.Lock()
	b.attempted++
	b.mu.Unlock()
	if err := errf(); err != nil {
		return err
	}
	if err := checkDigest(buf, pred{}, expectRows(d.states[i], pred{})); err != nil {
		b.mismatch("verify", "branch %s: %v", d.names[i], err)
	}
	return nil
}

// engagement fails the run when a workload stopped exercising the
// layer it exists to measure.
func (b *bench) engagement(format string, args ...any) {
	b.mu.Lock()
	b.attempted++
	b.mu.Unlock()
	b.mismatch("engagement", format, args...)
}

func (b *bench) segmentCount(d *dataset) {
	if n, err := d.segmentCount(); err == nil {
		b.values["store.segment_count"] = float64(n)
	}
}

// strata draws stratified random values. Every cycle of calls on a
// named stream visits each of its n strata once, in a seeded order, so
// each run has the same mix of large and small branches and of
// selectivities and only the concrete inputs vary with the seed.
type strata struct {
	rng     *rand.Rand
	streams map[string]*stratum
}

type stratum struct {
	perm []int
	k    int
}

func newStrata(rng *rand.Rand) *strata { return &strata{rng: rng, streams: map[string]*stratum{}} }

// index returns a value in [0, n).
func (s *strata) index(name string, n int) int {
	st := s.streams[name]
	if st == nil {
		st = &stratum{}
		s.streams[name] = st
	}
	if st.k == len(st.perm) {
		st.perm, st.k = s.rng.Perm(n), 0
	}
	v := st.perm[st.k]
	st.k++
	if v >= n {
		v = s.rng.IntN(n)
	}
	return v
}

// span returns a value in [lo, lo+width) from one of 16 strata.
func (s *strata) span(name string, lo, width int64) int64 {
	const n = 16
	u := (float64(s.index(name, n)) + s.rng.Float64()) / n
	return lo + int64(u*float64(width))
}
