// Command e2ebench is yardstick's end-to-end benchmark. One run drives
// one workload through the program's public Go APIs and HTTP endpoints,
// checks every output against a reference computed before timing, and
// prints its metrics as one JSON line (the last line of standard
// output). Inputs are generated from -seed before timing starts.
//
//	e2ebench -workload report-cold -seed 1 -seconds 30 -trace 0 -yardstickd ./yardstickd
//
// Workloads (see ../BENCHMARK.json):
//
//	report-cold  cold CLI-equivalent report on fat-tree k=8, sharded over 2 workers
//	churn        PATCH /network then GET /coverage per BGP flap, one yardstickd
//	fleet        coord.Coordinator running 8 shards over 2 yardstickd workers
//
// With -trace 0 the JSON carries the end-to-end metrics; with -trace 1
// it carries the per-layer metrics, measured by timing each call into a
// layer and harvesting the spans and counters the program exposes. Any
// failed operation or correctness check makes the command exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics of a -trace 0 run, reported on every
// workload. "op" is the workload's operation: one cold report
// (report-cold), one flap event's PATCH /network + GET /coverage
// (churn), one coordinator Run (fleet).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a -trace 1 run. Every run prints all of
// them; a layer its workload does not exercise reads 0.
var perLayer = []metricSpec{
	// report-cold
	{"netmodel.decode_ms", "ms"},
	{"sharded.replicas_ms", "ms"},
	{"sharded.run_ms", "ms"},
	{"sharded.merge_ms", "ms"},
	{"sharded.shard_max_ms", "ms"},
	{"sharded.shard_min_ms", "ms"},
	{"sharded.shard_imbalance", "ratio"},
	{"testkit.test_ms.DefaultRouteCheck", "ms"},
	{"testkit.test_ms.ConnectedRouteCheck", "ms"},
	{"testkit.test_ms.InternalRouteCheck", "ms"},
	{"testkit.test_ms.AggCanReachTorLoopback", "ms"},
	{"testkit.test_ms.ToRContract", "ms"},
	{"testkit.test_ms.ToRReachability", "ms"},
	{"testkit.test_ms.ToRPingmesh", "ms"},
	{"testkit.test_ms.HostInterfaceCheck", "ms"},
	{"bdd.run.ops", "count"},
	{"bdd.run.nodes", "count"},
	{"bdd.run.cache_hit_ratio", "ratio"},
	{"core.coverage_ms", "ms"},
	{"bdd.coverage.ops", "count"},
	{"bdd.coverage.cache_hit_ratio", "ratio"},
	{"runtime.alloc_mb_per_report", "MB"},
	// churn
	{"service.patch_ms_p50", "ms"},
	{"service.patch_ms_p90", "ms"},
	{"service.coverage_ms_p50", "ms"},
	{"service.coverage_ms_p90", "ms"},
	{"delta.apply_ms", "ms"},
	{"core.fingerprint_ms", "ms"},
	{"core.fingerprint_share", "ratio"},
	{"service.patch_overhead_ms", "ms"},
	{"delta.ops_per_patch", "count"},
	{"delta.marks_dropped_per_patch", "count"},
	{"service.patch_body_kb", "KB"},
	{"core.coverage_compute_ms", "ms"},
	{"service.coverage_overhead_ms", "ms"},
	{"bdd.churn.ops", "count"},
	{"bdd.churn.cache_hit_ratio", "ratio"},
	// fleet
	{"coord.shard_ms_p50", "ms"},
	{"coord.shard_ms_p90", "ms"},
	{"coord.dispatch_ms", "ms"},
	{"coord.merge_ms", "ms"},
	{"jobs.queue_wait_ms", "ms"},
	{"jobs.run_ms", "ms"},
	{"coord.overhead_ms", "ms"},
	{"client.requests_per_shard", "count"},
	{"client.polls_per_shard", "count"},
	{"client.resp_kb_per_shard", "KB"},
	{"coord.attempts_per_shard", "count"},
	{"coord.node_imbalance", "ratio"},
	// every workload
	{"failed_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// Fixed settings. They are part of the benchmark's definition: changing
// one changes what the numbers mean.
const (
	shardWorkers   = 2  // sharded.Config.Workers on report-cold
	fleetNodes     = 2  // yardstickd workers on fleet
	setupRepeats   = 9  // set-ups per run; setup_s is their median
	tailSamples    = 10 // samples an untraced run keeps beyond its p90
	maxLoopSeconds = 90 // hard stop for a loop still short of its samples
)

// config is one invocation.
type config struct {
	workload  string
	seed      int64
	seconds   time.Duration
	traced    bool
	daemonBin string
	outDir    string
	log       io.Writer // human-readable progress and summary
}

// outcome is what a workload measured.
type outcome struct {
	attempted int
	failed    int
	failures  []string
	ops       samples            // untraced operation latencies (ms)
	setup     []float64          // set-up wall-clocks (s)
	rssMB     []float64          // per-operation RSS high-water marks (MB)
	layers    map[string]float64 // per-layer metrics of a traced run
	counts    map[string]int     // sample count behind each reported value
}

func newOutcome() *outcome {
	return &outcome{layers: map[string]float64{}, counts: map[string]int{}}
}

// check records one attempted operation, failed when err is non-nil.
func (o *outcome) check(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if len(o.failures) < 5 {
			o.failures = append(o.failures, err.Error())
		}
	}
}

// layer sets a per-layer metric and the number of samples behind it.
func (o *outcome) layer(name string, v float64, n int) {
	o.layers[name] = v
	o.counts[name] = n
}

// loop drives op in a closed loop (the next call starts when the last
// returns) for the run's seconds. op checks its outputs itself and
// returns a func that records its samples. An operation during which
// the host stole CPU from the VM (see stolen) is checked but not
// recorded, and its time does not count toward the seconds. An
// untraced run keeps going until its p90 has tailSamples recorded
// samples beyond it, so the tail is measured, not guessed;
// maxLoopSeconds bounds all of that. The result is the number of
// operations run, recorded or not.
func (c *config) loop(op func(i int) (record func())) int {
	need := 1
	if !c.traced {
		need = minSamplesFor(0.9, tailSamples)
	}
	steal0, total0 := cpuSteal()
	start := time.Now()
	deadline := start.Add(maxLoopSeconds * time.Second)
	var lost time.Duration // in operations that were not recorded
	i, kept := 0, 0
	for ; (time.Since(start)-lost < c.seconds || kept < need) && time.Now().Before(deadline); i++ {
		s0, t0 := cpuSteal()
		t := time.Now()
		record := op(i)
		s1, t1 := cpuSteal()
		if stolen(s1-s0, t1-t0) {
			lost += time.Since(t)
			continue
		}
		record()
		kept++
	}
	steal1, total1 := cpuSteal()
	fmt.Fprintf(c.log, "measured %d operations in %.1fs; host CPU steal %.1f%%; %d more ran while the host stole CPU and were not recorded\n",
		kept, time.Since(start).Seconds(), 100*ratio(float64(steal1-steal0), float64(total1-total0)), i-kept)
	if kept < need {
		fmt.Fprintf(c.log, "warning: %d operations recorded, %d wanted\n", kept, need)
	}
	return i
}

// setups runs one set-up after another until setupRepeats of them ran
// without host steal, and returns their durations in seconds. After
// 3×setupRepeats tries, disturbed set-ups fill what is missing.
func setups(one func() (time.Duration, error)) ([]float64, error) {
	var quiet, noisy []float64
	for try := 0; len(quiet) < setupRepeats && try < 3*setupRepeats; try++ {
		steal0, total0 := cpuSteal()
		d, err := one()
		if err != nil {
			return nil, err
		}
		steal1, total1 := cpuSteal()
		if stolen(steal1-steal0, total1-total0) {
			noisy = append(noisy, d.Seconds())
		} else {
			quiet = append(quiet, d.Seconds())
		}
	}
	for len(quiet) < setupRepeats && len(noisy) > 0 {
		quiet, noisy = append(quiet, noisy[0]), noisy[1:]
	}
	return quiet, nil
}

var workloads = map[string]func(*config) (*outcome, error){
	"report-cold": runCold,
	"churn":       runChurn,
	"fleet":       runFleet,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: report-cold, churn, or fleet")
		seed     = fs.Int64("seed", 1, "input seed")
		seconds  = fs.Int("seconds", 20, "seconds to measure")
		trace    = fs.Int("trace", 0, "0 = end-to-end metrics; 1 = traced run with per-layer metrics")
		bin      = fs.String("yardstickd", "", "yardstickd binary built from the commit under test (churn, fleet)")
		outDir   = fs.String("out", "", "directory for the traced run's span file (empty = do not write)")
		first    = fs.String("first-report", "", "internal: run one report-cold report of the network on stdin, tests in this comma-separated order, and print it as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *first != "" {
		if err := runFirstReport(*first, os.Stdin, stdout); err != nil {
			fmt.Fprintln(stderr, "e2ebench: first report:", err)
			return 1
		}
		return 0
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: need -workload (report-cold, churn, fleet), -seconds >= 1, -trace 0|1\n")
		return 2
	}
	cfg := &config{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, daemonBin: *bin, outDir: *outDir, log: stdout,
	}
	if *workload != "report-cold" && *bin == "" {
		fmt.Fprintf(stderr, "e2ebench: %s needs -yardstickd\n", *workload)
		return 2
	}
	o, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", *workload, err)
		return 1
	}
	res := o.result(cfg.traced)
	printSummary(stdout, cfg, o, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		for _, f := range o.failures {
			fmt.Fprintln(stderr, "e2ebench: failed:", f)
		}
		return 1
	}
	return 0
}

// result renders the outcome as the benchmark's JSON contract.
func (o *outcome) result(traced bool) result {
	res := result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	if traced {
		o.layers["failed_ratio"] = ratio(float64(o.failed), float64(o.attempted))
		o.counts["failed_ratio"] = o.attempted
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{o.layers[m.name], m.unit}
		}
		return res
	}
	vals := map[string]float64{
		"setup_s":     median(o.setup),
		"op_ms_p50":   quantile(o.ops, 0.5),
		"op_ms_p90":   quantile(o.ops, 0.9),
		"peak_rss_mb": median(o.rssMB),
	}
	o.counts["setup_s"] = len(o.setup)
	o.counts["op_ms_p50"] = len(o.ops)
	o.counts["op_ms_p90"] = len(o.ops)
	o.counts["peak_rss_mb"] = len(o.rssMB)
	for _, m := range endToEnd {
		res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
	}
	return res
}

// printSummary writes every metric with its unit and sample count.
func printSummary(w io.Writer, cfg *config, o *outcome, res result) {
	mode := "end-to-end"
	if cfg.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s seed %d (%s): %d attempted, %d failed\n", cfg.workload, cfg.seed, mode, o.attempted, o.failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		count := o.counts[n]
		if count == 0 {
			fmt.Fprintf(w, "  %-40s %14s\n", n, "-")
			continue
		}
		extra := ""
		if strings.HasSuffix(n, "_p90") {
			extra = fmt.Sprintf(", %d beyond p90", beyond(count, 0.9))
		}
		fmt.Fprintf(w, "  %-40s %14.4f %-6s n=%d%s\n", n, m.Value, m.Unit, count, extra)
	}
}

// traceFile is where a traced run writes its spans.
func (c *config) traceFile() string {
	if c.outDir == "" {
		return ""
	}
	return filepath.Join(c.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", c.workload, c.seed))
}

// finishTrace writes the spans and prints the self-time table.
func (c *config) finishTrace(tr *tracer) error {
	if tr == nil {
		return nil
	}
	fmt.Fprintln(c.log, "self time by span (traced operations):")
	tr.printSelf(c.log, 20)
	return tr.write(c.traceFile())
}
