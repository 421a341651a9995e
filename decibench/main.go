// Command decibench is the repository benchmark: it builds one of three
// seeded workloads (analytics, history, serve) through the public
// decibel facade or a loopback `decibel serve` handler, drives a fixed
// operation sequence against it, checks every result against its own
// model of each branch, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as one JSON object on the last
// line of standard output. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupRounds is how many times a run builds its dataset; setup_s is
// the median.
const setupRounds = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one benchmark workload. setup builds the dataset in dir
// and returns the time spent in the system under test; run drives the
// operation sequence and fills b.
type workload interface {
	setup(b *bench, dir string) (time.Duration, error)
	run(b *bench) error
	close() error
}

var workloads = map[string]func(seed int64, seconds int) workload{
	"analytics": newAnalytics,
	"history":   newHistory,
	"serve":     newServe,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: analytics, history or serve")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Int("seconds", 15, "measured seconds; sets the fixed operation count")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
		root    = flag.String("root", ".", "checkout root; artefacts go under <root>/.bench_build")
	)
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "decibench: usage: --workload analytics|history|serve --seed n --seconds s --trace 0|1\n")
		os.Exit(2)
	}
	rowSalt = mix64(uint64(*seed))
	work := filepath.Join(*root, ".bench_build", fmt.Sprintf("run-%s-%d", *name, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "decibench:", err)
		os.Exit(1)
	}
	res, err := execute(mk, *name, *seed, *seconds, *trace == 1, work)
	os.RemoveAll(work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "decibench:", err)
		if res == nil {
			os.Exit(1)
		}
		res.Correct = false
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func execute(mk func(int64, int) workload, name string, seed int64, seconds int, traced bool, work string) (*result, error) {
	if !traced {
		b := newBench(name, seed, seconds, false)
		w := mk(seed, seconds)
		var setups []float64
		for i := 0; i < setupRounds; i++ {
			if i > 0 {
				if err := w.close(); err != nil {
					return nil, err
				}
				if err := os.RemoveAll(filepath.Join(work, fmt.Sprintf("ds%d", i-1))); err != nil {
					return nil, err
				}
				w = mk(seed, seconds)
			}
			settle()
			d, err := w.setup(b, filepath.Join(work, fmt.Sprintf("ds%d", i)))
			if err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, d.Seconds())
		}
		b.setupS = median(setups)
		settle()
		runErr := w.run(b)
		closeErr := w.close()
		res := b.endToEnd()
		b.report(os.Stderr)
		if runErr != nil {
			return res, runErr
		}
		return res, closeErr
	}

	// Traced: an untraced pass and a traced pass on fresh datasets of
	// the same seed, so work counts can be compared and the tracing
	// overhead measured.
	plain := newBench(name, seed, seconds, false)
	w := mk(seed, seconds)
	if _, err := w.setup(plain, filepath.Join(work, "plain")); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	settle()
	if err := w.run(plain); err != nil {
		return nil, err
	}
	if err := w.close(); err != nil {
		return nil, err
	}
	b := newBench(name, seed, seconds, true)
	w = mk(seed, seconds)
	if err := os.RemoveAll(filepath.Join(work, "plain")); err != nil {
		return nil, err
	}
	if _, err := w.setup(b, filepath.Join(work, "traced")); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	settle()
	runErr := w.run(b)
	closeErr := w.close()
	res := b.perLayer(plain)
	b.report(os.Stderr)
	if err := b.writeSpans(filepath.Join(filepath.Dir(work), fmt.Sprintf("spans-%s-%d.json", name, seed))); err != nil {
		fmt.Fprintln(os.Stderr, "decibench: writing spans:", err)
	}
	if runErr != nil {
		return res, runErr
	}
	return res, closeErr
}

// settle writes back dirty pages before each set-up and the measured
// phase, so the kernel's delayed writeback of earlier work does not
// land inside them.
func settle() { syscall.Sync() }

// median of the values (0 for none).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// tailQuantile is the highest of p99, p95 and p90 with at least ten
// samples above it for n samples (p90 when none has).
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.99, 0.95, 0.90} {
		i := int(math.Ceil(q*float64(n))) - 1
		if n-1-i >= 10 {
			return q
		}
	}
	return 0.90
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// peakRSSMB reads VmHWM of this process.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}
