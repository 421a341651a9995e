package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// layerMetric is one per-layer metric: how it is computed from a
// traced pass and, when it cannot be, why it is absent.
type layerMetric struct {
	name, unit string
	value      func(b *bench) (float64, string)
}

var queryClasses = []string{clLookup, clScan, clVersion}

func p50(name string) func(b *bench) (float64, string) {
	return func(b *bench) (float64, string) {
		if len(b.layer[name]) == 0 {
			return 0, "no samples in this workload"
		}
		return quantile(b.layer[name], 0.5), ""
	}
}

func sum(name string) func(b *bench) (float64, string) {
	return func(b *bench) (float64, string) {
		if len(b.layer[name]) == 0 {
			return 0, "no samples in this workload"
		}
		var s float64
		for _, v := range b.layer[name] {
			s += v
		}
		return s, ""
	}
}

// ratio divides two counter deltas of the measured phase.
func ratio(num string, den func(b *bench) (float64, string)) func(b *bench) (float64, string) {
	return func(b *bench) (float64, string) {
		n, ok := b.delta[num]
		if !ok {
			return 0, "expvar " + num + " is not published"
		}
		d, why := den(b)
		if why != "" {
			return 0, why
		}
		if d == 0 {
			return 0, "zero denominator in this workload"
		}
		return float64(n) / d, ""
	}
}

func constant(v func(b *bench) float64) func(b *bench) (float64, string) {
	return func(b *bench) (float64, string) { return v(b), "" }
}

func libraryOnly(v func(b *bench) float64) func(b *bench) (float64, string) {
	return func(b *bench) (float64, string) {
		if b.name == "serve" {
			return 0, "the in-process server's socket I/O would be counted; library workloads only"
		}
		return v(b), ""
	}
}

func opsOf(b *bench) (float64, string)    { return float64(b.ops), "" }
func topkOf(b *bench) (float64, string)   { return float64(b.topk), "" }
func lookupOf(b *bench) (float64, string) { return float64(b.lookups), "" }

// growth is the commit point's p50 over the last tenth of a commit
// series over its p50 over the first tenth: the set-up's small commits
// when it makes at least 100 (serve builds its history that way), else
// the measured commits.
func growth(b *bench) (float64, string) {
	series := b.layer["setup.commit_point_ms"]
	if len(series) < 100 {
		series = b.layer["core.commit_point_ms"]
	}
	if len(series) < 20 {
		return 0, "fewer than 20 commits in this workload"
	}
	k := len(series) / 10
	first := quantile(series[:k], 0.5)
	if first == 0 {
		return 0, "zero first-tenth commit point"
	}
	return quantile(series[len(series)-k:], 0.5) / first, ""
}

func layerMetrics() []layerMetric {
	var out []layerMetric
	add := func(name, unit string, v func(b *bench) (float64, string)) {
		out = append(out, layerMetric{name, unit, v})
	}
	add("server.lookup_handler_ms", "ms", p50("server.lookup_handler_ms"))
	add("server.commit_handler_ms", "ms", p50("server.commit_handler_ms"))
	add("server.wire_ms", "ms", p50("server.wire_ms"))
	add("server.gen_late_ms", "ms", func(b *bench) (float64, string) {
		if len(b.layer["server.gen_late_ms"]) == 0 {
			return 0, "no open-loop generator in this workload"
		}
		return quantile(b.layer["server.gen_late_ms"], 0.99), ""
	})
	for _, cl := range queryClasses {
		add("query.compile_us."+cl, "us", p50("query.compile_us."+cl))
		add("query.first_row_ms."+cl, "ms", p50("query.first_row_ms."+cl))
		add("query.drain_ms."+cl, "ms", p50("query.drain_ms."+cl))
		add("query.rows_per_op."+cl, "rows", func(b *bench) (float64, string) {
			n := len(b.lat[cl])
			if n == 0 {
				return 0, "no " + cl + " operations in this workload"
			}
			return float64(b.rows[cl]) / float64(n), ""
		})
	}
	add("query.ordered_skips_per_topk", "count", ratio("decibel.ordered_skips", topkOf))
	add("core.parallel_scans_per_op", "count", ratio("decibel.parallel_scans", opsOf))
	add("core.scan_workers_per_scan", "count", ratio("decibel.scan_workers", func(b *bench) (float64, string) {
		return float64(b.delta["decibel.parallel_scans"]), ""
	}))
	add("core.point_lookups_per_lookup", "count", ratio("decibel.point_lookups", lookupOf))
	add("core.commit_stage_ms", "ms", p50("core.commit_stage_ms"))
	add("core.commit_point_ms", "ms", func(b *bench) (float64, string) {
		if v, why := p50("core.commit_point_ms")(b); why == "" {
			return v, ""
		}
		return p50("setup.commit_point_ms")(b)
	})
	add("core.commit_point_growth", "ratio", growth)
	add("core.write_bytes_per_commit", "B", p50("core.write_bytes_per_commit"))
	add("core.write_amp", "ratio", func(b *bench) (float64, string) {
		w, why := sum("core.write_bytes_per_commit")(b)
		if why != "" || b.userBytes == 0 {
			return 0, "no measured commits in this workload"
		}
		return w / float64(b.userBytes), ""
	})
	add("core.branch_ms", "ms", p50("core.branch_ms"))
	add("core.merge_mb_per_s", "MB/s", p50("core.merge_mb_per_s"))
	add("core.merge_tuples_scanned", "count", p50("core.merge_tuples_scanned"))
	add("vf.cache_hit_ratio", "ratio", ratio("decibel.vf.lineage_cache_hits", func(b *bench) (float64, string) {
		return float64(b.delta["decibel.vf.lineage_cache_hits"] + b.delta["decibel.vf.lineage_cache_misses"]), ""
	}))
	add("vf.cache_evictions_per_op", "count", ratio("decibel.vf.lineage_cache_evictions", opsOf))
	add("vf.delta_resolves_per_op", "count", ratio("decibel.vf.delta_resolves", opsOf))
	add("store.segments_scanned_per_op", "count", ratio("decibel.segments_scanned", opsOf))
	add("store.segment_skip_ratio", "ratio", ratio("decibel.segments_skipped", func(b *bench) (float64, string) {
		return float64(b.delta["decibel.segments_skipped"] + b.delta["decibel.segments_scanned"]), ""
	}))
	add("store.pages_scanned_per_op", "count", ratio("decibel.pages_scanned", opsOf))
	add("store.page_skip_ratio", "ratio", ratio("decibel.pages_skipped", func(b *bench) (float64, string) {
		return float64(b.delta["decibel.pages_skipped"] + b.delta["decibel.pages_scanned"]), ""
	}))
	add("store.dcz_decodes_per_op", "count", ratio("decibel.compressed_page_decodes", opsOf))
	add("store.segment_count", "count", func(b *bench) (float64, string) {
		v, ok := b.values["store.segment_count"]
		if !ok {
			return 0, "DB.Stats failed"
		}
		return v, ""
	})
	add("compact.pass_ms", "ms", p50("compact.pass_ms"))
	add("compact.segments_merged", "count", sum("compact.segments_merged"))
	add("compact.bytes_reclaimed", "B", sum("compact.bytes_reclaimed"))
	add("heap.read_bytes_per_op", "B", libraryOnly(func(b *bench) float64 { return float64(b.ioDelta.rchar) / float64(b.ops) }))
	add("heap.read_calls_per_op", "count", libraryOnly(func(b *bench) float64 { return float64(b.ioDelta.syscr) / float64(b.ops) }))
	add("runtime.cpu_ms_per_op", "ms", constant(func(b *bench) float64 { return ms(b.cpuDelta) / float64(b.ops) }))
	add("runtime.alloc_bytes_per_op", "B", constant(func(b *bench) float64 {
		return float64(b.rtB.allocBytes-b.rtA.allocBytes) / float64(b.ops)
	}))
	add("runtime.allocs_per_row", "count", func(b *bench) (float64, string) {
		if b.rowsOut == 0 {
			return 0, "no rows returned"
		}
		return float64(b.rtB.allocObjs-b.rtA.allocObjs) / float64(b.rowsOut), ""
	})
	add("runtime.gc_pause_p99_ms", "ms", func(b *bench) (float64, string) {
		v := pauseQuantile(b.rtA, b.rtB, 0.99)
		if v < 0 {
			return 0, "runtime/metrics " + pauseMetric + " is not available"
		}
		return v * 1e3, ""
	})
	add("trace.overhead", "fraction", func(b *bench) (float64, string) { return b.overhead, "" })
	add("trace.count_mismatches", "count", func(b *bench) (float64, string) { return float64(b.countMismatches), "" })
	return out
}

// compareCounts checks that the work counts of the untraced pass equal
// the traced pass's. Serve interleaves two connections, so only its
// per-request counts (rows, point lookups, vf hits) are deterministic,
// and its version rows are compared without those of pinned `At`
// reads: which of the two clients' commits precede the pinned sequence
// number depends on how they interleaved.
func compareCounts(plain, traced *bench) []string {
	var diffs []string
	for _, cl := range []string{clLookup, clScan, clVersion} {
		p, t := plain.rows[cl], traced.rows[cl]
		if cl == clVersion {
			p, t = p-plain.pinnedRows, t-traced.pinnedRows
		}
		if p != t {
			diffs = append(diffs, fmt.Sprintf("rows.%s %d vs %d", cl, p, t))
		}
	}
	names := []string{"decibel.point_lookups", "decibel.vf.lineage_cache_hits"}
	if traced.name != "serve" {
		names = append(names, "decibel.segments_scanned", "decibel.pages_scanned")
	}
	for _, n := range names {
		if plain.delta[n] != traced.delta[n] {
			diffs = append(diffs, fmt.Sprintf("%s %d vs %d", n, plain.delta[n], traced.delta[n]))
		}
	}
	return diffs
}

func (b *bench) perLayer(plain *bench) *result {
	if plain.opsPerS > 0 {
		b.overhead = (plain.opsPerS - b.opsPerS) / plain.opsPerS
	}
	diffs := compareCounts(plain, b)
	b.countMismatches = len(diffs)
	if len(diffs) > 0 {
		b.engagement("traced and untraced work counts differ: %s", strings.Join(diffs, ", "))
	}
	m := make(map[string]metric)
	for _, lm := range layerMetrics() {
		v, why := lm.value(b)
		m[lm.name] = metric{Value: v, Unit: lm.unit}
		if why != "" {
			b.absent = append(b.absent, lm.name+": "+why)
		}
	}
	return &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}
}

// selfTimes reports, per operation, the mean self time of every span
// under it: the span's duration minus the part of it its children
// cover. The operation's own self time is the harness's share.
func (b *bench) selfTimes(w io.Writer) {
	byID := make(map[int64]span, len(b.spans))
	children := make(map[int64][]span)
	for _, s := range b.spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := func(s span) float64 {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		return float64(s.End-s.Start-covered) / 1e6
	}
	type key struct{ op, name string }
	total := make(map[key]float64)
	ops := make(map[string]int)
	for _, s := range b.spans {
		r := s
		for r.Parent != 0 {
			p, ok := byID[r.Parent]
			if !ok {
				break
			}
			r = p
		}
		name := s.Name
		if s.Parent == 0 {
			ops[s.Name]++
			name = "(bench)"
		}
		total[key{r.Name, name}] += self(s)
	}
	names := make([]string, 0, len(ops))
	for n := range ops {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "  self times, mean ms per operation:")
	for _, n := range names {
		var parts []string
		for k, v := range total {
			if k.op == n {
				parts = append(parts, fmt.Sprintf("%s=%.3f", k.name, v/float64(ops[n])))
			}
		}
		sort.Strings(parts)
		fmt.Fprintf(w, "    %-12s n=%-6d %s\n", n, ops[n], strings.Join(parts, " "))
	}
	fmt.Fprintf(w, "  tracing overhead: %.2f%% of untraced ops_per_s; count mismatches: %d\n", 100*b.overhead, b.countMismatches)
	for _, a := range b.absent {
		fmt.Fprintf(w, "  absent (reported as 0): %s\n", a)
	}
}
