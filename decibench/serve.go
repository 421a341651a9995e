package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"decibel"
	"decibel/client"
)

// serve: `decibel serve`'s handler in-process on a loopback listener,
// over a tuple-first dataset with fsync on (a server acknowledges
// durable commits) and a deep commit history. Requests are tiny, so
// per-request fixed costs dominate: HTTP/JSON, plan compilation, the
// tf pk path and the commit point.
const (
	svRows        = 100_000 // rows on mainline before branching
	svBranches    = 4       // mainline plus three branches
	svFillers     = 1       // 41-byte rows
	svHistory     = 1_000   // 1-4-row commits made through the facade in set-up
	svRate        = 150     // offered requests per second in the open loop
	svOpenShare   = 0.6     // share of the requested seconds spent in the open loop
	svSatPerSec   = 400     // saturation-phase requests per requested second
	svConns       = 2       // connections (open loop) and clients (saturation)
	svRange       = 64      // keys per range read
	svVersionOps  = 240     // wire version queries, in slices between saturation parts
	svMergeRounds = 80      // wire branch/commit/merge rounds, in the same slices
)

// svMix is one block of the load phases: 70% lookups, 10% range reads,
// 20% commits of 1-4 rows.
var svMix = opMix{{"lookup", 7}, {"range", 1}, {"commit", 2}}

type svOp struct {
	kind   string
	branch int
	pk     int64
	ws     []write
}

// svRead is a snapshot read awaiting its check: the branch sequence
// number the server pinned and the rows it returned.
type svRead struct {
	branch int
	seq    int
	op     svOp
	rows   []row
}

// svCommit is an acknowledged wire commit.
type svCommit struct {
	branch int
	seq    int
	ws     []write
}

type serve struct {
	seed    int64
	seconds int
	d       *dataset
	srv     *http.Server
	done    chan error
	cl      *client.Client

	baseSeq []int // per-branch head sequence number when the oracle epoch starts
	base    []state

	mu      sync.Mutex
	reads   []svRead
	commits []svCommit
}

func newServe(seed int64, seconds int) workload { return &serve{seed: seed, seconds: seconds} }

func (s *serve) close() error {
	var err error
	if s.srv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = s.srv.Shutdown(sctx)
		cancel()
		if serr := <-s.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		s.srv = nil
	}
	if s.d != nil {
		err = errors.Join(err, s.d.db.Close())
		s.d = nil
	}
	return err
}

func (s *serve) setup(b *bench, dir string) (time.Duration, error) {
	d, err := openDataset(dir, svFillers, decibel.WithEngine("tuple-first"), decibel.WithFsync(true))
	if err != nil {
		return 0, err
	}
	s.d = d
	rng := rand.New(rand.NewPCG(uint64(s.seed), 0x5e7e))
	for n := 0; n < svRows; n += 10_000 {
		ws := make([]write, 10_000)
		for k := range ws {
			ws[k] = write{pk: d.newPK(), ver: d.newVer()}
		}
		if _, err := d.commit(b, 0, ws, false); err != nil {
			return 0, err
		}
	}
	for i := 1; i < svBranches; i++ {
		if _, err := d.branch(b, 0, fmt.Sprintf("b%d", i), false); err != nil {
			return 0, err
		}
	}
	s.baseSeq = make([]int, svBranches)
	for n := 0; n < svHistory; n++ {
		i := n % svBranches
		cm, err := d.commit(b, i, s.updates(rng), false)
		if err != nil {
			return 0, err
		}
		s.baseSeq[i] = cm.Seq
	}
	return d.sut, nil
}

// updates draws 1-4 row updates of existing keys.
func (s *serve) updates(rng *rand.Rand) []write {
	ws := make([]write, 1+rng.IntN(4))
	for k := range ws {
		ws[k] = write{pk: 1 + rng.Int64N(svRows), ver: s.d.newVer()}
	}
	return ws
}

func (s *serve) ops(rng *rand.Rand, n int) []svOp {
	kinds := opSequence(rng, svMix, n)
	out := make([]svOp, len(kinds))
	for k, kind := range kinds {
		o := svOp{kind: kind, branch: rng.IntN(svBranches)}
		switch kind {
		case "lookup":
			o.pk = 1 + rng.Int64N(svRows)
		case "range":
			o.pk = 1 + rng.Int64N(svRows-svRange)
		case "commit":
			o.ws = s.updates(rng)
		}
		out[k] = o
	}
	return out
}

// spanKey carries a request's trace context to the transport.
type spanKey struct{}

type reqTrace struct {
	id int64
	cl string
}

// tracingTransport tags each request with its client span id and
// class so the server-side middleware can link its span.
type tracingTransport struct{ base http.RoundTripper }

func (t tracingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if rt, ok := r.Context().Value(spanKey{}).(reqTrace); ok {
		r = r.Clone(r.Context())
		r.Header.Set("X-Decibench-Span", strconv.FormatInt(rt.id, 10))
		r.Header.Set("X-Decibench-Class", rt.cl)
	}
	return t.base.RoundTrip(r)
}

// reqContext returns the context for one wire request and, when
// tracing, the id of its client.request span, which the transport
// sends along so the handler's span can name it as parent.
func reqContext(b *bench, cl string) (context.Context, int64) {
	if !b.traced {
		return ctx, 0
	}
	id := b.newSpanID()
	return context.WithValue(ctx, spanKey{}, reqTrace{id: id, cl: cl}), id
}

// start serves the dataset on a loopback listener behind a middleware
// that times the handler.
func (s *serve) start(b *bench) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	h := decibel.NewServer(s.d.db).Handler()
	mw := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		if !b.traced {
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get("X-Decibench-Span"), 10, 64)
		if parent == 0 {
			return
		}
		b.span(0, parent, "server.handler", t0, end, nil)
		switch r.Header.Get("X-Decibench-Class") {
		case clLookup:
			b.sample("server.lookup_handler_ms", ms(end.Sub(t0)))
		case clCommit:
			b.sample("server.commit_handler_ms", ms(end.Sub(t0)))
		}
	})
	s.srv = &http.Server{Handler: mw, ReadHeaderTimeout: 10 * time.Second}
	s.done = make(chan error, 1)
	go func() { s.done <- s.srv.Serve(ln) }()
	url := "http://" + ln.Addr().String()
	var tr http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: svConns, MaxConnsPerHost: svConns, DisableCompression: true}
	if b.traced {
		tr = tracingTransport{tr}
	}
	s.cl = client.New(url, client.WithHTTPClient(&http.Client{Transport: tr, Timeout: 60 * time.Second}))
	return nil
}

// do sends one request. The latency is measured from due, the time
// the request was scheduled. Saturation-phase requests count in their
// own classes: the latency metrics come from the open loop.
func (s *serve) do(b *bench, o svOp, due time.Time, saturation bool) {
	opCl := o.kind
	if opCl == "range" {
		opCl = clScan
	}
	cl := opCl
	if saturation {
		cl = "sat." + opCl
	}
	root := b.newSpanID()
	rctx, reqID := reqContext(b, opCl)
	t0 := time.Now()
	var err error
	var rd *svRead
	switch o.kind {
	case "commit":
		var resp *client.CommitResponse
		resp, err = s.cl.Commit(rctx, client.CommitRequest{Branch: s.d.names[o.branch], Ops: s.wireOps(o.ws)})
		if err == nil {
			s.mu.Lock()
			s.commits = append(s.commits, svCommit{branch: o.branch, seq: resp.Seq, ws: o.ws})
			s.mu.Unlock()
		}
	default:
		pr := pred{kind: pPKEq, a: o.pk}
		if o.kind == "range" {
			pr = pred{kind: pPKRange, a: o.pk, b: o.pk + svRange}
		}
		var resp *client.QueryResponse
		resp, err = s.cl.Query(rctx, client.QueryRequest{Table: tableName, Branches: []string{s.d.names[o.branch]}, Where: pr.wire()})
		if err == nil {
			rd = &svRead{branch: o.branch, seq: resp.Seq, op: o}
			rd.rows, err = wireRows(resp.Rows)
		}
		if err == nil {
			b.addRows(cl, len(rd.rows))
			s.mu.Lock()
			s.reads = append(s.reads, *rd)
			s.mu.Unlock()
		}
	}
	end := time.Now()
	b.record(cl, end.Sub(due), err)
	if b.traced {
		b.span(reqID, root, "client.request", t0, end, nil)
		b.span(root, 0, "op."+opCl, due, end, nil)
	}
}

func (s *serve) wireOps(ws []write) []client.Op {
	ops := make([]client.Op, len(ws))
	for k, w := range ws {
		r := gen(w.pk, int64(w.ver))
		rec := decibel.NewRecord(s.d.schema)
		fill(rec, w.pk, int64(w.ver))
		vals := map[string]any{"id": r.pk, "ver": r.ver, "grp": r.grp, "val": r.val, "score": r.score}
		for c := firstFiller; c < s.d.schema.NumColumns(); c++ {
			vals[s.d.schema.Column(c).Name] = rec.Get(c)
		}
		ops[k] = client.Op{Op: "insert", Table: tableName, Values: vals}
	}
	return ops
}

func wireRows(rows []client.Row) ([]row, error) {
	out := make([]row, 0, len(rows))
	for _, r := range rows {
		var x row
		var err error
		num := func(col string) json.Number {
			n, _ := r[col].(json.Number)
			return n
		}
		if x.pk, err = num("id").Int64(); err != nil {
			return nil, fmt.Errorf("row id: %w", err)
		}
		if x.ver, err = num("ver").Int64(); err != nil {
			return nil, fmt.Errorf("row ver: %w", err)
		}
		if x.grp, err = num("grp").Int64(); err != nil {
			return nil, fmt.Errorf("row grp: %w", err)
		}
		if x.val, err = num("val").Int64(); err != nil {
			return nil, fmt.Errorf("row val: %w", err)
		}
		if x.score, err = num("score").Float64(); err != nil {
			return nil, fmt.Errorf("row score: %w", err)
		}
		out = append(out, x)
	}
	return out, nil
}

func (s *serve) run(b *bench) error {
	d := s.d
	if n := d.db.Graph().NumCommits(); n < svHistory {
		b.engagement("history depth %d is below %d commits", n, svHistory)
	}
	s.base = make([]state, svBranches)
	for i := range s.base {
		s.base[i] = d.states[i].clone()
	}
	if err := s.start(b); err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(uint64(s.seed), 0x0be))
	open := s.ops(rng, int(float64(svRate*s.seconds)*svOpenShare))
	sat := s.ops(rng, svSatPerSec*s.seconds)

	p := startPhase()
	// Phase one: open loop. One generator dispatches each request at
	// its scheduled time to svConns connection workers.
	queue := make(chan int, len(open)) // holds every request: the generator never blocks
	due := make([]time.Time, len(open))
	var wg sync.WaitGroup
	for c := 0; c < svConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range queue {
				s.do(b, open[k], due[k], false)
			}
		}()
	}
	start := time.Now().Add(10 * time.Millisecond)
	for k := range open {
		due[k] = start.Add(time.Duration(k) * time.Second / svRate)
		time.Sleep(time.Until(due[k]))
		b.sample("server.gen_late_ms", ms(time.Since(due[k])))
		queue <- k
	}
	close(queue)
	wg.Wait()

	// Phase two: closed-loop saturation with svConns clients, one part
	// of the rate meter at a time. After each part, outside the
	// measured throughput, the oracle checks the reads so far and a
	// slice of the version phase runs, so the version and merge
	// latencies are sampled across the run, not in one burst at its
	// end.
	b.startRate(len(sat), svMix.blockSize())
	parts := len(sat) / b.rate.per
	acked := 0
	for part := 0; part < parts; part++ {
		lo, hi := part*b.rate.per, (part+1)*b.rate.per
		if part == parts-1 {
			hi = len(sat)
		}
		for c := 0; c < svConns; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := lo + c; k < hi; k += svConns {
					s.do(b, sat[k], time.Now(), true)
					b.opDone()
				}
			}()
		}
		wg.Wait()
		t := time.Now()
		acked += len(s.commits)
		if err := s.checkLoad(b); err != nil {
			return err
		}
		if err := s.versionPhase(b, rng, part, parts); err != nil {
			return err
		}
		if err := s.rebase(); err != nil {
			return err
		}
		b.excluded += time.Since(t)
	}
	b.endPhase(p, len(open)+len(sat))
	for _, o := range open {
		if o.kind == "lookup" {
			b.lookups++
		}
	}
	for _, o := range sat {
		if o.kind == "lookup" {
			b.lookups++
		}
	}
	if acked == 0 {
		b.engagement("no wire commit was acknowledged")
	}
	if err := checkBranch(b, d, rng.IntN(svBranches)); err != nil {
		return err
	}
	s.wireSpans(b)
	amp, err := d.spaceAmp()
	if err != nil {
		return err
	}
	b.spaceAmp = amp
	b.segmentCount(d)
	return b.failure()
}

// history returns, per branch, the acknowledged commits in sequence
// order.
func (s *serve) history() [][]svCommit {
	out := make([][]svCommit, svBranches)
	for _, c := range s.commits {
		out[c.branch] = append(out[c.branch], c)
	}
	for _, h := range out {
		slices.SortFunc(h, func(a, b svCommit) int { return a.seq - b.seq })
	}
	return out
}

// stateAt is branch i's state at sequence number seq.
func (s *serve) stateAt(hist [][]svCommit, i, seq int) state {
	st := s.base[i].clone()
	for _, c := range hist[i] {
		if c.seq > seq {
			break
		}
		for _, w := range c.ws {
			st.set(w.pk, w.ver)
		}
	}
	return st
}

// checkLoad verifies every snapshot read of the oracle epoch against
// the state at the sequence number the server pinned, then advances
// the oracle to the heads the epoch's commits made.
func (s *serve) checkLoad(b *bench) error {
	hist := s.history()
	// Reads sorted by (branch, seq) replay each branch's commits once.
	slices.SortFunc(s.reads, func(x, y svRead) int {
		if x.branch != y.branch {
			return x.branch - y.branch
		}
		return x.seq - y.seq
	})
	var cur state
	curBranch, next := -1, 0
	for _, rd := range s.reads {
		if rd.branch != curBranch {
			curBranch, next = rd.branch, 0
			cur = s.base[rd.branch].clone()
		}
		if rd.seq < s.baseSeq[rd.branch] {
			b.mismatch("read", "branch %s pinned seq %d before its epoch began (%d)", s.d.names[rd.branch], rd.seq, s.baseSeq[rd.branch])
			continue
		}
		for ; next < len(hist[rd.branch]) && hist[rd.branch][next].seq <= rd.seq; next++ {
			for _, w := range hist[rd.branch][next].ws {
				cur.set(w.pk, w.ver)
			}
		}
		pr := pred{kind: pPKEq, a: rd.op.pk}
		if rd.op.kind == "range" {
			pr = pred{kind: pPKRange, a: rd.op.pk, b: rd.op.pk + svRange}
		}
		if err := checkDigest(rd.rows, pr, expectRows(cur, pr)); err != nil {
			b.mismatch("read", "%s on %s at seq %d: %v", rd.op.kind, s.d.names[rd.branch], rd.seq, err)
		}
	}
	for i := range s.base {
		s.d.states[i] = s.stateAt(hist, i, int(^uint(0)>>1))
	}
	return nil
}

// versionPhase runs slice part of parts of the multi-version queries
// and merges over the wire, one request at a time: diffs, heads scans
// and historical reads, then branch/commit/merge rounds.
func (s *serve) versionPhase(b *bench, rng *rand.Rand, part, parts int) error {
	d := s.d
	hist := s.history()
	for k := part * svVersionOps / parts; k < (part+1)*svVersionOps/parts; k++ {
		o := b.begin(clVersion, "op.version")
		rctx, reqID := reqContext(b, clVersion)
		var resp *client.QueryResponse
		var err error
		var check func() error
		pinned := false
		switch k % 6 {
		case 0, 1, 2:
			i, j := rng.IntN(svBranches), rng.IntN(svBranches)
			pr := pred{kind: pValLt, a: 200_000 + rng.Int64N(800_000)}
			resp, err = s.cl.Query(rctx, client.QueryRequest{Table: tableName, Diff: []string{d.names[i], d.names[j]}, Where: pr.wire()})
			check = func() error {
				rows, err := wireRows(resp.Rows)
				if err != nil {
					return err
				}
				return checkDigest(rows, pr, expectDiff(d.states[i], d.states[j], pr))
			}
		case 3:
			pr := pred{kind: pValLt, a: 1_000 + rng.Int64N(2_000)}
			resp, err = s.cl.Query(rctx, client.QueryRequest{Table: tableName, Heads: true, Where: pr.wire()})
			check = func() error {
				rows, err := s.annotatedRows(resp.Rows)
				if err != nil {
					return err
				}
				return checkHeads(rows, pr, expectHeads(d.states, pr))
			}
		default:
			i := rng.IntN(svBranches)
			at := s.baseSeq[i] + rng.IntN(len(hist[i])+1)
			pinned = true
			pr := pred{kind: pValLt, a: 1_000 + rng.Int64N(4_000)}
			resp, err = s.cl.Query(rctx, client.QueryRequest{Table: tableName, Branches: []string{d.names[i]}, At: &at, Where: pr.wire()})
			check = func() error {
				rows, err := wireRows(resp.Rows)
				if err != nil {
					return err
				}
				return checkDigest(rows, pr, expectRows(s.stateAt(hist, i, at), pr))
			}
		}
		if err == nil {
			b.addRows(clVersion, len(resp.Rows))
			if pinned {
				b.pinnedRows += int64(len(resp.Rows))
			}
		}
		b.span(reqID, o.root, "client.request", o.t, time.Now(), nil)
		b.end(o, err, check)
	}
	for r := part * svMergeRounds / parts; r < (part+1)*svMergeRounds/parts; r++ {
		into := rng.IntN(svBranches)
		name := fmt.Sprintf("f%02d", r)
		t := time.Now()
		_, err := s.cl.Branch(ctx, d.names[into], name)
		b.record("branch", time.Since(t), err)
		if err != nil {
			return err
		}
		f := d.addBranch(name, d.states[into].clone())
		for c := 0; c < 2; c++ {
			ws := make([]write, 1+rng.IntN(4))
			for k := range ws {
				ws[k] = write{pk: d.newPK(), ver: d.newVer()}
			}
			o := b.begin(clCommit, "op.commit")
			rctx, reqID := reqContext(b, clCommit)
			_, err := s.cl.Commit(rctx, client.CommitRequest{Branch: name, Ops: s.wireOps(ws)})
			b.span(reqID, o.root, "client.request", o.t, time.Now(), nil)
			b.end(o, err, nil)
			if err != nil {
				return err
			}
			for _, w := range ws {
				d.states[f].set(w.pk, w.ver)
				d.deltas[f][w.pk] = w.ver
			}
		}
		o := b.begin(clMerge, "op.merge")
		rctx, reqID := reqContext(b, clMerge)
		_, err = s.cl.Merge(rctx, client.MergeRequest{Into: d.names[into], From: name})
		b.span(reqID, o.root, "client.request", o.t, time.Now(), nil)
		b.end(o, err, nil)
		if err != nil {
			return err
		}
		for pk, ver := range d.deltas[f] {
			d.states[into].set(pk, ver)
		}
	}
	return nil
}

// rebase starts a new oracle epoch at the current heads: the base
// states and sequence numbers that the next part's reads and
// historical reads are checked against.
func (s *serve) rebase() error {
	for i := range s.base {
		s.base[i] = s.d.states[i].clone()
		// A read reports the sequence number it pinned: the head's.
		resp, err := s.cl.Query(ctx, client.QueryRequest{Table: tableName, Branches: []string{s.d.names[i]}, Where: pred{kind: pPKEq, a: 0}.wire()})
		if err != nil {
			return err
		}
		s.baseSeq[i] = resp.Seq
	}
	s.reads, s.commits = s.reads[:0], s.commits[:0]
	return nil
}

// annotatedRows decodes heads-scan rows with their "_branches" sets.
func (s *serve) annotatedRows(rows []client.Row) ([]annotatedRow, error) {
	plain, err := wireRows(rows)
	if err != nil {
		return nil, err
	}
	out := make([]annotatedRow, len(rows))
	for k, r := range rows {
		names, _ := r["_branches"].([]any)
		var set uint64
		for _, n := range names {
			name, _ := n.(string)
			i, ok := s.d.index[name]
			if !ok {
				i = -1000
			}
			set ^= mix64(uint64(i) + 1)
		}
		out[k] = annotatedRow{plain[k], set}
	}
	return out, nil
}

// wireSpans derives server.wire_ms: each client request's duration
// minus the handler span it caused.
func (s *serve) wireSpans(b *bench) {
	if !b.traced {
		return
	}
	byID := make(map[int64]span, len(b.spans))
	for _, sp := range b.spans {
		if sp.Name == "client.request" {
			byID[sp.ID] = sp
		}
	}
	for _, sp := range b.spans {
		if sp.Name != "server.handler" {
			continue
		}
		if req, ok := byID[sp.Parent]; ok {
			b.sample("server.wire_ms", float64((req.End-req.Start)-(sp.End-sp.Start))/1e6)
		}
	}
}
