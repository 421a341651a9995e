package main

import (
	"fmt"
	"math"
	"slices"

	"decibel"
	"decibel/client"
)

// Every row is a pure function of its primary key and a version
// number the generator assigns per write: the oracle stores only the
// version each branch holds per key, and any returned row can be
// checked field by field.
const (
	colID = iota
	colVer
	colGrp
	colVal
	colScore
	firstFiller

	numGroups = 64
	valSpan   = 1_000_000
	tableName = "t"
)

func newSchema(fillers int) *decibel.Schema {
	b := decibel.NewSchema().Int64("id").Int64("ver").Int32("grp").Int64("val").Float64("score")
	for i := 1; i <= fillers; i++ {
		b.Int32(fmt.Sprintf("f%d", i))
	}
	return b.MustBuild()
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// rowSalt makes row contents a function of the run's seed: the same
// keys and versions carry different values under different seeds.
var rowSalt uint64

func rowHash(pk, ver int64) uint64 {
	return mix64(uint64(pk)*0x9e3779b97f4a7c15 ^ uint64(ver) ^ rowSalt)
}

// row is the checked part of a record: everything but the fillers.
type row struct {
	pk, ver int64
	grp     int64
	val     int64
	score   float64
}

func gen(pk, ver int64) row {
	h := rowHash(pk, ver)
	return row{pk: pk, ver: ver, grp: int64(h % numGroups), val: int64((h >> 8) % valSpan), score: float64(h>>11) / (1 << 53)}
}

// fill writes the record for (pk, ver). A quarter of the fillers are
// constant and a quarter take 16 values, so compacted pages mix
// constant, dictionary and raw planes.
func fill(rec *decibel.Record, pk, ver int64) {
	r := gen(pk, ver)
	rec.SetPK(pk)
	rec.Set(colVer, ver)
	rec.Set(colGrp, r.grp)
	rec.Set(colVal, r.val)
	rec.SetFloat64(colScore, r.score)
	h := rowHash(pk, ver)
	for i := firstFiller; i < rec.Schema().NumColumns(); i++ {
		switch i % 4 {
		case 0:
			rec.Set(i, 7)
		case 1:
			rec.Set(i, int64(mix64(h+uint64(i))&0x0f))
		default:
			rec.Set(i, int64(int32(mix64(h+uint64(i)))))
		}
	}
}

func readRow(rec *decibel.Record) row {
	return row{pk: rec.PK(), ver: rec.Get(colVer), grp: rec.Get(colGrp), val: rec.Get(colVal), score: rec.GetFloat64(colScore)}
}

// state is one version of the table in the oracle: state[pk] is the
// version live at pk, 0 when the key is absent.
type state []uint32

func (s state) get(pk int64) uint32 {
	if pk < 0 || pk >= int64(len(s)) {
		return 0
	}
	return s[pk]
}

func (s *state) set(pk int64, ver uint32) {
	for int64(len(*s)) <= pk {
		*s = append(*s, 0)
	}
	(*s)[pk] = ver
}

func (s state) clone() state { return slices.Clone(s) }

// each calls fn for every live key in pk order.
func (s state) each(fn func(pk int64, ver uint32)) { s.eachIn(0, int64(len(s)), fn) }

// eachIn calls fn for every live key in [lo, hi) in pk order.
func (s state) eachIn(lo, hi int64, fn func(pk int64, ver uint32)) {
	lo, hi = max(lo, 0), min(hi, int64(len(s)))
	for pk := lo; pk < hi; pk++ {
		if v := s[pk]; v != 0 {
			fn(pk, v)
		}
	}
}

// scan calls fn for every live row of s that p matches, in pk order,
// visiting only the keys a pk predicate can match.
func (s state) scan(p pred, fn func(r row)) {
	lo, hi := int64(0), int64(len(s))
	switch p.kind {
	case pPKRange:
		lo, hi = p.a, p.b
	case pPKEq:
		lo, hi = p.a, p.a+1
	}
	s.eachIn(lo, hi, func(pk int64, ver uint32) {
		if r := gen(pk, int64(ver)); p.match(r) {
			fn(r)
		}
	})
}

// digest is an order-independent fingerprint of a result: a count and
// a sum of per-item hashes.
type digest struct {
	N   int
	Sum uint64
}

func (d *digest) add(h uint64) {
	d.N++
	d.Sum += mix64(h)
}

func (d *digest) addRow(pk, ver int64) { d.add(rowHash(pk, ver)) }

// predicate kinds. Every kind has an oracle form (match) and both
// query forms (facade Expr and wire Expr).
const (
	pAll     = iota
	pValLt   // val < a
	pPKRange // a <= id < b
	pPKEq    // id == a
	pValGe   // val >= a
)

type pred struct {
	kind int
	a, b int64
}

func (p pred) match(r row) bool {
	switch p.kind {
	case pValLt:
		return r.val < p.a
	case pPKRange:
		return r.pk >= p.a && r.pk < p.b
	case pPKEq:
		return r.pk == p.a
	case pValGe:
		return r.val >= p.a
	}
	return true
}

func (p pred) expr() decibel.Expr {
	switch p.kind {
	case pValLt:
		return decibel.Col("val").Lt(p.a)
	case pPKRange:
		return decibel.Col("id").Ge(p.a).And(decibel.Col("id").Lt(p.b))
	case pPKEq:
		return decibel.Col("id").Eq(p.a)
	case pValGe:
		return decibel.Col("val").Ge(p.a)
	}
	return decibel.MatchAll()
}

func (p pred) wire() *client.Expr {
	switch p.kind {
	case pValLt:
		return &client.Expr{Col: "val", Op: "lt", Val: p.a}
	case pPKRange:
		return &client.Expr{And: []client.Expr{{Col: "id", Op: "ge", Val: p.a}, {Col: "id", Op: "lt", Val: p.b}}}
	case pPKEq:
		return &client.Expr{Col: "id", Op: "eq", Val: p.a}
	case pValGe:
		return &client.Expr{Col: "val", Op: "ge", Val: p.a}
	}
	return nil
}

// expectRows is the oracle answer of a single-version filtered scan.
func expectRows(s state, p pred) digest {
	var d digest
	s.scan(p, func(r row) { d.addRow(r.pk, r.ver) })
	return d
}

// expectTopK is the ordered answer of OrderBy(score, desc).Limit(k).
func expectTopK(s state, p pred, k int) []row {
	var out []row
	s.scan(p, func(r row) { out = append(out, r) })
	slices.SortFunc(out, func(a, b row) int {
		switch {
		case a.score > b.score:
			return -1
		case a.score < b.score:
			return 1
		}
		return 0
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// groupAgg is one group of GroupBy(grp) with Count and Sum(val).
type groupAgg struct {
	count float64
	sum   float64
}

func expectGroups(s state, p pred) map[int64]groupAgg {
	out := make(map[int64]groupAgg)
	s.scan(p, func(r row) {
		g := out[r.grp]
		g.count++
		g.sum += float64(r.val)
		out[r.grp] = g
	})
	return out
}

// expectDiff is the positive diff: rows live in a whose version b
// does not hold.
func expectDiff(a, b state, p pred) digest {
	var d digest
	a.scan(p, func(r row) {
		if int64(b.get(r.pk)) != r.ver {
			d.addRow(r.pk, r.ver)
		}
	})
	return d
}

// expectJoin is the pk self-join of two versions, each leg filtered by
// p: one tuple per key live and matching in both.
func expectJoin(a, b state, p pred) digest {
	var d digest
	a.scan(p, func(r row) {
		vb := int64(b.get(r.pk))
		if vb != 0 && p.match(gen(r.pk, vb)) {
			d.add(rowHash(r.pk, r.ver)*31 + rowHash(r.pk, vb))
		}
	})
	return d
}

// expectHeads is the annotated heads scan: each distinct (pk, version)
// live in any head once, with the set of heads holding it.
func expectHeads(heads []state, p pred) digest {
	type key struct {
		pk  int64
		ver uint32
	}
	members := make(map[key]uint64)
	for i, s := range heads {
		bit := mix64(uint64(i) + 1)
		s.scan(p, func(r row) { members[key{r.pk, uint32(r.ver)}] ^= bit })
	}
	var d digest
	for k, set := range members {
		d.add(rowHash(k.pk, int64(k.ver)) ^ set)
	}
	return d
}

// liveBytes counts the encoded bytes of the distinct rows live in any
// of the states: the denominator of space_amp.
func liveBytes(heads []state, rowSize int) int64 {
	seen := make(map[uint64]struct{})
	for _, s := range heads {
		s.each(func(pk int64, ver uint32) { seen[uint64(pk)<<32|uint64(ver)] = struct{}{} })
	}
	return int64(len(seen)) * int64(rowSize)
}

// checkRow reports whether a returned row carries exactly the values
// its (pk, ver) generates.
func checkRow(r row) bool {
	return r == gen(r.pk, r.ver)
}

func floatEq(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}
