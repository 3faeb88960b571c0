// Command perfbench is the repository benchmark. It generates one
// workload's inputs from a seed, stands the workload up in-process through
// the program's public entry points, drives it for a fixed window, checks
// every answer against its own oracle, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload serve-zipf --seed 1 --seconds 30 --trace 0
//
// run from the repository root, which builds it and writes everything under
// .bench_build/ there.
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it splits
// the window into an untraced and a traced half and prints the per-layer
// metrics derived from the traced half's spans, plus the tracing overhead.
// See README.md for the workloads, the metrics and reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// buildDir is the checkout-local scratch directory: databases, traces.
const buildDir = ".bench_build"

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opCount is one operation kind's attempted and failed counts.
type opCount struct {
	kind              string
	attempted, failed int
}

// config is one run's command line.
type config struct {
	seed    int64
	seconds int
	trace   bool
}

// outcome is what a workload reports back to main.
type outcome struct {
	metrics  map[string]metric
	ops      []opCount
	mismatch error // an answer the oracle rejected
}

var workloads = map[string]func(config) (*outcome, error){
	"serve-zipf":  runServeZipf,
	"paper-disk":  runPaperDisk,
	"gateway-mix": runGatewayMix,
}

func main() {
	name := flag.String("workload", "", "workload to run: serve-zipf, paper-disk or gateway-mix")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer variant")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	out, err := run(config{seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	res := result{Correct: out.mismatch == nil, Metrics: out.metrics}
	for _, op := range out.ops {
		fmt.Printf("ops workload=%s kind=%s attempted=%d failed=%d\n", *name, op.kind, op.attempted, op.failed)
		res.Attempted += op.attempted
		res.Failed += op.failed
	}
	if out.mismatch != nil {
		fmt.Printf("MISMATCH workload=%s seed=%d: %v\n", *name, *seed, out.mismatch)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// ---- measurement helpers ----------------------------------------------

// logPhase reports on standard error how long a phase of the run took.
func logPhase(name string, start time.Time) {
	fmt.Fprintf(os.Stderr, "perfbench: %s took %.2fs\n", name, time.Since(start).Seconds())
}

// quantile is the nearest-rank q-quantile of sorted samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999999) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func sortDurations(ds []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), ds...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// liveHeap is the live Go heap after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// heapGrowth is the live heap now minus base, the live heap taken once the
// inputs and the oracle's answers were built and before set-up: what the
// program itself holds.
func heapGrowth(base uint64) uint64 {
	if h := liveHeap(); h > base {
		return h - base
	}
	return 0
}

// keepAlive keeps the benchmark's own data reachable up to the heap
// measurement, so that data in heapGrowth's base that the run no longer
// needs is not taken off the program's growth.
func keepAlive(xs ...any) {
	for _, x := range xs {
		runtime.KeepAlive(x)
	}
}

// measureSetup runs build reps times, keeping the last deployment and
// tearing down the others, and returns it with the fastest set-up time.
// Every repetition starts from a forced collection. Contention from the
// rest of the machine only ever adds time, so the fastest repetition is
// the steadiest estimate of the set-up's own cost.
func measureSetup[D any](reps int, build func() (D, time.Duration, error), teardown func(D)) (D, float64, error) {
	var dep D
	best := math.Inf(1)
	for r := 0; r < reps; r++ {
		runtime.GC()
		d, took, err := build()
		if err != nil {
			return dep, 0, err
		}
		best = math.Min(best, took.Seconds())
		if r < reps-1 {
			teardown(d)
		} else {
			dep = d
		}
	}
	return dep, best, nil
}

// endToEnd renders the metrics every workload reports in the untraced run.
func endToEnd(lr loopResult, setupS float64, heapBytes uint64) map[string]metric {
	sorted := sortDurations(lr.lat)
	return map[string]metric{
		"qps":     {sliceQPS(lr), "1/s"},
		"p50_ms":  {ms(quantile(sorted, 0.50)), "ms"},
		"p90_ms":  {ms(quantile(sorted, 0.90)), "ms"},
		"setup_s": {setupS, "s"},
		"heap_mb": {float64(heapBytes) / (1 << 20), "MB"},
	}
}

// sliceQPS is the median throughput over the window's whole one-second
// slices. The machine's speed drifts from second to second; the median
// slice is robust to a few slow ones where the plain mean is not.
func sliceQPS(lr loopResult) float64 {
	n := int(lr.wall / time.Second)
	if n < 1 {
		return float64(lr.completed) / lr.wall.Seconds()
	}
	counts := make([]float64, n)
	for _, d := range lr.done {
		if i := int(d / time.Second); i < n {
			counts[i]++
		}
	}
	return median(counts)
}

// overhead is the traced half's p50 latency over the untraced half's, in
// percent.
func overhead(untraced, traced loopResult) float64 {
	a := quantile(sortDurations(untraced.lat), 0.5)
	b := quantile(sortDurations(traced.lat), 0.5)
	if a == 0 {
		return 0
	}
	return 100 * (float64(b)/float64(a) - 1)
}

// perQuery divides a work total by the answers that carried it.
func perQuery(total, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}
