package main

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Operation classes: each end-to-end latency metric is one class.
const (
	clLookup  = "lookup"
	clScan    = "scan"
	clVersion = "version"
	clCommit  = "commit"
	clMerge   = "merge"
)

// Counters the program publishes, read by expvar name. A counter the
// program no longer publishes reads as absent instead of failing.
var counterNames = []string{
	"decibel.point_lookups",
	"decibel.parallel_scans",
	"decibel.scan_workers",
	"decibel.ordered_skips",
	"decibel.segments_scanned",
	"decibel.segments_skipped",
	"decibel.pages_scanned",
	"decibel.pages_skipped",
	"decibel.compressed_page_decodes",
	"decibel.vf.lineage_cache_hits",
	"decibel.vf.lineage_cache_misses",
	"decibel.vf.lineage_cache_evictions",
	"decibel.vf.delta_resolves",
}

type counters map[string]int64

func readCounters() counters {
	c := make(counters, len(counterNames))
	for _, name := range counterNames {
		switch v := expvar.Get(name).(type) {
		case expvar.Func:
			if n, ok := v().(int64); ok {
				c[name] = n
			}
		case *expvar.Int:
			c[name] = v.Value()
		}
	}
	return c
}

func (c counters) sub(o counters) counters {
	d := make(counters, len(c))
	for k, v := range c {
		if ov, ok := o[k]; ok {
			d[k] = v - ov
		}
	}
	return d
}

// procIO is the part of /proc/self/io the benchmark reads.
type procIO struct{ rchar, wchar, syscr int64 }

func readProcIO() procIO {
	var p procIO
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return p
	}
	for _, line := range strings.Split(string(data), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		switch k {
		case "rchar":
			p.rchar = n
		case "wchar":
			p.wchar = n
		case "syscr":
			p.syscr = n
		}
	}
	return p
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtSample is the runtime/metrics state at one point.
type rtSample struct {
	allocBytes, allocObjs uint64
	pauses                *metrics.Float64Histogram
}

const pauseMetric = "/sched/pauses/total/gc:seconds"

func readRuntime() rtSample {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}, {Name: pauseMetric}}
	metrics.Read(s)
	var r rtSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		r.allocObjs = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[2].Value.Float64Histogram()
		r.pauses = &metrics.Float64Histogram{Counts: append([]uint64(nil), h.Counts...), Buckets: h.Buckets}
	}
	return r
}

// pauseQuantile is the q-quantile of the GC pauses between a and b, in
// seconds (upper bucket bound), or -1 when there were none.
func pauseQuantile(a, b rtSample, q float64) float64 {
	if a.pauses == nil || b.pauses == nil || len(a.pauses.Counts) != len(b.pauses.Counts) {
		return -1
	}
	var total uint64
	d := make([]uint64, len(b.pauses.Counts))
	for i := range d {
		d[i] = b.pauses.Counts[i] - a.pauses.Counts[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	need := uint64(q * float64(total))
	var seen uint64
	for i, n := range d {
		seen += n
		if seen > need || seen == total {
			return b.pauses.Buckets[i+1]
		}
	}
	return b.pauses.Buckets[len(b.pauses.Buckets)-1]
}

// span is one traced interval. Root spans (Parent 0) are operations.
type span struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

// phase is the counter and resource state at the start of a measured
// phase.
type phase struct {
	c   counters
	io  procIO
	cpu time.Duration
	rt  rtSample
}

func startPhase() phase {
	return phase{c: readCounters(), io: readProcIO(), cpu: cpuTime(), rt: readRuntime()}
}

// bench collects one pass over a workload: latencies by class, work
// counts, failures and, when traced, spans and per-layer samples.
type bench struct {
	name    string
	seed    int64
	seconds int
	traced  bool
	t0      time.Time

	setupS   float64
	opsPerS  float64
	spaceAmp float64

	topk            int
	lookups         int
	compactions     int
	userBytes       int64
	rate            *rateMeter
	excluded        time.Duration // time inside the measured phase not spent on its operations: oracle checks, interleaved commit and version slices
	overhead        float64
	countMismatches int
	absent          []string // "metric: reason" for per-layer metrics this workload does not exercise
	pinnedRows      int64    // serve: version rows of pinned At reads, whose count depends on how the clients' commits interleaved

	mu         sync.Mutex
	lat        map[string][]float64
	attempted  int
	failed     int
	mismatches []string
	rows       map[string]int64

	// main-phase totals
	ops      int
	rowsOut  int64
	delta    counters
	ioDelta  procIO
	cpuDelta time.Duration
	rtA, rtB rtSample

	// per-layer samples and values (traced pass)
	layer  map[string][]float64
	values map[string]float64

	nextID atomic.Int64
	spanMu sync.Mutex
	spans  []span
}

func newBench(name string, seed int64, seconds int, traced bool) *bench {
	return &bench{
		name: name, seed: seed, seconds: seconds, traced: traced, t0: time.Now(),
		lat: map[string][]float64{}, rows: map[string]int64{},
		layer: map[string][]float64{}, values: map[string]float64{},
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// newSpanID returns a fresh span id, or 0 when not tracing.
func (b *bench) newSpanID() int64 {
	if !b.traced {
		return 0
	}
	return b.nextID.Add(1)
}

// span records a span with id (0 allocates one) when tracing.
func (b *bench) span(id, parent int64, name string, start, end time.Time, attrs map[string]int64) int64 {
	if !b.traced {
		return 0
	}
	if id == 0 {
		id = b.nextID.Add(1)
	}
	s := span{ID: id, Parent: parent, Name: name, Start: start.Sub(b.t0).Nanoseconds(), End: end.Sub(b.t0).Nanoseconds(), Attrs: attrs}
	b.spanMu.Lock()
	b.spans = append(b.spans, s)
	b.spanMu.Unlock()
	return id
}

// sample adds a per-layer sample (traced pass only).
func (b *bench) sample(name string, v float64) {
	if !b.traced {
		return
	}
	b.mu.Lock()
	b.layer[name] = append(b.layer[name], v)
	b.mu.Unlock()
}

// record adds one finished operation of class cl.
func (b *bench) record(cl string, d time.Duration, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		b.mismatches = append(b.mismatches, fmt.Sprintf("%s: %v", cl, err))
		return
	}
	b.lat[cl] = append(b.lat[cl], ms(d))
}

// mismatch records a result the oracle rejected for an operation
// already recorded as attempted.
func (b *bench) mismatch(cl string, format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failed++
	b.mismatches = append(b.mismatches, cl+": "+fmt.Sprintf(format, args...))
}

func (b *bench) addRows(cl string, n int) {
	b.mu.Lock()
	b.rows[cl] += int64(n)
	b.mu.Unlock()
}

// opCounters returns the counter snapshot for a traced operation
// (nil untraced).
func (b *bench) opCounters() counters {
	if !b.traced {
		return nil
	}
	return readCounters()
}

// opAttrs turns a traced operation's counter deltas into span attrs.
func (b *bench) opAttrs(before counters) map[string]int64 {
	if before == nil {
		return nil
	}
	d := readCounters().sub(before)
	attrs := make(map[string]int64)
	for k, v := range d {
		if v != 0 {
			attrs[strings.TrimPrefix(k, "decibel.")] = v
		}
	}
	return attrs
}

// endPhase closes the measured phase opened by p over ops operations
// that took elapsed.
// segments is the number of equal parts a measured phase is cut into.
// Throughput and tail latency are reported as the median over the
// parts, so a stall of the host moves one part rather than the run.
const segments = 5

// rateMeter records the throughput of each part of a measured phase,
// excluding the time spent in oracle checks.
type rateMeter struct {
	mu        sync.Mutex
	per, n    int
	last      time.Time
	lastCheck time.Duration
	rates     []float64
}

// startRate opens a measured phase of total operations, made of
// shuffled blocks of block operations. A part holds whole blocks, so
// every part runs the same mix; a phase too short for that is one part.
func (b *bench) startRate(total, block int) {
	per := total / segments / block * block
	if per == 0 {
		per = total
	}
	b.rate = &rateMeter{per: per, last: time.Now(), lastCheck: b.excluded}
}

// opDone counts one completed operation of the measured phase.
func (b *bench) opDone() {
	m := b.rate
	m.mu.Lock()
	defer m.mu.Unlock()
	m.n++
	if m.n%m.per != 0 {
		return
	}
	now, chk := time.Now(), b.excluded
	m.rates = append(m.rates, float64(m.per)/(now.Sub(m.last)-(chk-m.lastCheck)).Seconds())
	m.last, m.lastCheck = now, chk
}

// tail is the class's tail latency: the highest of p99, p95 and p90
// with ten samples beyond it within each part of the run, as the
// median over the parts (parts hold at least 100 samples).
func tail(v []float64) (value float64, q float64, parts int) {
	parts = max(1, min(segments, len(v)/100))
	per := len(v) / parts
	var vals []float64
	for k := 0; k < parts; k++ {
		part := v[k*per : (k+1)*per]
		q = tailQuantile(len(part))
		vals = append(vals, quantile(part, q))
	}
	return median(vals), q, parts
}

func (b *bench) endPhase(p phase, ops int) {
	b.ops = ops
	b.opsPerS = median(b.rate.rates)
	b.delta = readCounters().sub(p.c)
	io := readProcIO()
	b.ioDelta = procIO{io.rchar - p.io.rchar, io.wchar - p.io.wchar, io.syscr - p.io.syscr}
	b.cpuDelta = cpuTime() - p.cpu
	b.rtA, b.rtB = p.rt, readRuntime()
	for _, n := range b.rows {
		b.rowsOut += n
	}
}

func (b *bench) failure() error {
	if b.failed == 0 {
		return nil
	}
	shown := b.mismatches
	if len(shown) > 5 {
		shown = shown[:5]
	}
	return fmt.Errorf("%d of %d operations failed or answered wrongly; first: %s", b.failed, b.attempted, strings.Join(shown, "; "))
}

// endToEndUnits lists the end-to-end metrics in report order.
var endToEndUnits = []struct{ name, unit, class string }{
	{"setup_s", "s", ""},
	{"ops_per_s", "ops/s", ""},
	{"lookup_p50_ms", "ms", clLookup},
	{"lookup_tail_ms", "ms", clLookup},
	{"scan_p50_ms", "ms", clScan},
	{"scan_tail_ms", "ms", clScan},
	{"version_p50_ms", "ms", clVersion},
	{"version_tail_ms", "ms", clVersion},
	{"commit_p50_ms", "ms", clCommit},
	{"commit_tail_ms", "ms", clCommit},
	{"merge_p50_ms", "ms", clMerge},
	{"space_amp", "ratio", ""},
	{"peak_rss_mb", "MB", ""},
}

func (b *bench) endToEnd() *result {
	m := make(map[string]metric)
	for _, e := range endToEndUnits {
		var v float64
		switch {
		case e.name == "setup_s":
			v = b.setupS
		case e.name == "ops_per_s":
			v = b.opsPerS
		case e.name == "space_amp":
			v = b.spaceAmp
		case e.name == "peak_rss_mb":
			v = peakRSSMB()
		case strings.HasSuffix(e.name, "_p50_ms"):
			v = quantile(b.lat[e.class], 0.5)
		case strings.HasSuffix(e.name, "_tail_ms"):
			v, _, _ = tail(b.lat[e.class])
		}
		m[e.name] = metric{Value: v, Unit: e.unit}
	}
	return &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}
}

// report prints a human-readable summary to w.
func (b *bench) report(w io.Writer) {
	fmt.Fprintf(w, "decibench %s seed=%d seconds=%d traced=%v\n", b.name, b.seed, b.seconds, b.traced)
	fmt.Fprintf(w, "  attempted=%d failed=%d error_frac=%.6f ops=%d ops_per_s=%.2f setup_s=%.3f space_amp=%.3f oracle_s=%.2f\n",
		b.attempted, b.failed, float64(b.failed)/float64(max(1, b.attempted)), b.ops, b.opsPerS, b.setupS, b.spaceAmp, b.excluded.Seconds())
	if b.rate != nil {
		fmt.Fprintf(w, "  ops_per_s by part: %.1f\n", b.rate.rates)
	}
	classes := make([]string, 0, len(b.lat))
	for cl := range b.lat {
		classes = append(classes, cl)
	}
	sort.Strings(classes)
	for _, cl := range classes {
		v := b.lat[cl]
		t, q, parts := tail(v)
		fmt.Fprintf(w, "  %-10s n=%-6d p50=%.3fms tail(p%d over %d parts)=%.3fms rows=%d\n", cl, len(v), quantile(v, 0.5), int(q*100), parts, t, b.rows[cl])
	}
	if b.traced {
		b.selfTimes(w)
	}
	for i, s := range b.mismatches {
		if i == 10 {
			break
		}
		fmt.Fprintf(w, "  failure: %s\n", s)
	}
}

func (b *bench) writeSpans(path string) error {
	data, err := json.Marshal(struct {
		Workload string   `json:"workload"`
		Seed     int64    `json:"seed"`
		Absent   []string `json:"absent"`
		Spans    []span   `json:"spans"`
	}{b.name, b.seed, b.absent, b.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ctx is the context every benchmark operation runs under.
var ctx = context.Background()
