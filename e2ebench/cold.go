package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"yardstick/internal/core"
	"yardstick/internal/netmodel"
	"yardstick/internal/obs"
	"yardstick/internal/report"
	"yardstick/internal/sharded"
	"yardstick/internal/testkit"
	"yardstick/internal/topogen"
)

// builtinNames are the eight name-addressable built-in tests.
var builtinNames = []string{"default", "connected", "internal", "agg", "contract", "reach", "pingmesh", "host"}

const (
	fatTreeK   = 8 // report-cold network: the paper's §8 fat-tree
	testRounds = 3 // rounds of isolated per-test timing in a traced report-cold run
	orderCount = 1024
)

// drawOrders pre-draws count seeded permutations of n items.
func drawOrders(seed int64, n, count int) [][]int {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int, count)
	for i := range out {
		out[i] = rng.Perm(n)
	}
	return out
}

func permute[T any](items []T, order []int) []T {
	out := make([]T, len(order))
	for i, j := range order {
		out[i] = items[j]
	}
	return out
}

// coldOp is one cold report's output.
type coldOp struct {
	rows    []report.Metrics
	results []testkit.Result
}

// coldReport is the report-cold operation: what `yardstick -workers 2`
// does for a network file, minus printing. With acc non-nil it also
// measures each layer into acc; tr records its spans.
func coldReport(data []byte, suite testkit.Suite, tr *tracer, run string, acc map[string][]float64) (coldOp, error) {
	ctx := context.Background()
	var out coldOp
	var root *obs.Span
	var mem0 runtime.MemStats
	if acc != nil {
		runtime.ReadMemStats(&mem0)
		// The sharded engine hangs its replica, shard and merge spans on
		// whatever obs span rides the context.
		root = obs.NewRoot("report", nil)
		ctx = obs.ContextWithSpan(ctx, root)
	}
	op := tr.begin("report", run)

	var net *netmodel.Network
	var err error
	decode := timed(op, "netmodel.DecodeJSON", func() {
		if net, err = netmodel.DecodeJSON(bytes.NewReader(data)); err == nil {
			net.ComputeMatchSets()
		}
	})
	if err != nil {
		return out, err
	}
	var eng *sharded.Engine
	replicas := timed(op, "sharded.New", func() {
		eng, err = sharded.New(ctx, net, sharded.Config{Workers: shardWorkers})
	})
	if err != nil {
		return out, err
	}
	var res *sharded.Result
	runDur := timed(op, "sharded.Engine.Run", func() { res, err = eng.Run(ctx, suite) })
	if err != nil {
		return out, err
	}
	out.results = res.Results
	covBase := net.Space.EngineStats()
	covDur := timed(op, "core.coverage", func() {
		out.rows = coverageRows(core.NewCoverage(net, res.Trace), rolesOf(net))
	})
	spans := tr.finish(op)
	if acc == nil {
		return out, nil
	}

	// Graft the engine's own spans beneath the calls that made them.
	root.End()
	prof := root.Profile()
	for _, c := range prof.Children {
		if c.Name == "sharded.build_replicas" {
			child(spans, "sharded.New").Attach(c)
		} else {
			child(spans, "sharded.Engine.Run").Attach(c)
		}
	}
	put := func(name string, v float64) { acc[name] = append(acc[name], v) }
	put("netmodel.decode_ms", ms(decode))
	put("sharded.replicas_ms", ms(replicas))
	put("sharded.run_ms", ms(runDur))
	var shardMs []float64
	var ops, nodes, hits, misses float64
	for _, c := range prof.Children {
		switch {
		case c.Name == "sharded.merge":
			put("sharded.merge_ms", float64(c.DurNs)/1e6)
		case strings.HasPrefix(c.Name, "shard["):
			shardMs = append(shardMs, float64(c.DurNs)/1e6)
			for _, m := range c.Metrics {
				switch m.Name {
				case "bdd_ops":
					ops += float64(m.Value)
				case "bdd_nodes":
					nodes += float64(m.Value)
				case "bdd_cache_hits":
					hits += float64(m.Value)
				case "bdd_cache_misses":
					misses += float64(m.Value)
				}
			}
		}
	}
	if len(shardMs) > 0 {
		lo, hi := quantile(shardMs, 0), quantile(shardMs, 1)
		put("sharded.shard_max_ms", hi)
		put("sharded.shard_min_ms", lo)
		put("sharded.shard_imbalance", ratio(hi, lo))
	}
	put("bdd.run.ops", ops)
	put("bdd.run.nodes", nodes)
	put("bdd.run.cache_hit_ratio", ratio(hits, hits+misses))
	cov := net.Space.EngineStats().Delta(covBase)
	put("core.coverage_ms", ms(covDur))
	put("bdd.coverage.ops", float64(cov.Ops))
	put("bdd.coverage.cache_hit_ratio", ratio(float64(cov.CacheHits), float64(cov.CacheHits+cov.CacheMisses)))
	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)
	put("runtime.alloc_mb_per_report", float64(mem1.TotalAlloc-mem0.TotalAlloc)/(1<<20))
	return out, nil
}

// coldFirst is what a fresh process reports about its first report.
type coldFirst struct {
	Seconds  float64            `json:"seconds"`
	Table    []byte             `json:"table"`
	Verdicts map[string]verdict `json:"verdicts"`
}

// firstReport runs one report in a new process of this benchmark
// (-first-report), with the network bytes on its standard input. The
// child reads them before timing, so the figure is the report alone in
// a process whose runtime, heap and first-use initialisation are cold.
func firstReport(data []byte, order []int) (coldFirst, error) {
	var out coldFirst
	self, err := os.Executable()
	if err != nil {
		return out, err
	}
	idx := make([]string, len(order))
	for i, j := range order {
		idx[i] = strconv.Itoa(j)
	}
	cmd := exec.Command(self, "-first-report", strings.Join(idx, ","))
	cmd.Stdin = bytes.NewReader(data)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return out, fmt.Errorf("first-report process: %v: %.500s", err, stderr.Bytes())
	}
	err = json.Unmarshal(stdout.Bytes(), &out)
	return out, err
}

// runFirstReport is the -first-report process: read the network from
// stdin, run one report with the built-in tests in the given order, and
// print its time and outputs as JSON.
func runFirstReport(orderArg string, stdin io.Reader, stdout io.Writer) error {
	data, err := io.ReadAll(stdin)
	if err != nil {
		return err
	}
	suite, err := testkit.BuiltinSuite(strings.Join(builtinNames, ","))
	if err != nil {
		return err
	}
	var order []int
	for _, f := range strings.Split(orderArg, ",") {
		j, err := strconv.Atoi(f)
		if err != nil || j < 0 || j >= len(suite) {
			return fmt.Errorf("bad -first-report order %q", orderArg)
		}
		order = append(order, j)
	}
	start := time.Now()
	out, err := coldReport(data, testkit.Suite(permute(suite, order)), nil, "", nil)
	d := time.Since(start)
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(coldFirst{
		Seconds: d.Seconds(), Table: renderRows(out.rows), Verdicts: verdictsOf(out.results),
	})
}

func runCold(c *config) (*outcome, error) {
	// Inputs, before any timing: the network as the bytes a user's file
	// would hold, the suite, one seeded test order per report, and the
	// sequential single-space reference (the Workers=1 ≡ N oracle).
	ft, err := topogen.BuildFatTree(fatTreeK)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := ft.Net.EncodeJSON(&buf); err != nil {
		return nil, err
	}
	data := buf.Bytes()
	suite, err := testkit.BuiltinSuite(strings.Join(builtinNames, ","))
	if err != nil {
		return nil, err
	}
	orders := drawOrders(c.seed, len(suite), orderCount)
	refNet, err := netmodel.DecodeJSON(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	ref := sequentialReference(refNet, suite)
	// Return the generator's and the reference's heap before any report.
	debug.FreeOSMemory()

	o := newOutcome()
	var tr *tracer
	if c.traced {
		tr = newTracer()
	}
	opNum := 0
	// oneReport runs one checked report and returns its wall-clock.
	oneReport := func(traced bool, acc map[string][]float64) time.Duration {
		s := testkit.Suite(permute(suite, orders[opNum%len(orders)]))
		run := fmt.Sprintf("report-cold-%d-%d", c.seed, opNum)
		opNum++
		var t *tracer
		if traced {
			t = tr
		}
		start := time.Now()
		out, err := coldReport(data, s, t, run, acc)
		d := time.Since(start)
		if err == nil {
			err = checkSuiteOutput(renderRows(out.rows), verdictsOf(out.results), ref)
		}
		o.check(err)
		return d
	}

	// Set-up: the first report of a fresh process, once in each of
	// setupRepeats new processes; setup_s is their median.
	o.setup, err = setups(func() (time.Duration, error) {
		order := orders[opNum%len(orders)]
		opNum++
		first, err := firstReport(data, order)
		if err != nil {
			return 0, err
		}
		o.check(checkSuiteOutput(first.Table, first.Verdicts, ref))
		return time.Duration(first.Seconds * float64(time.Second)), nil
	})
	if err != nil {
		return nil, err
	}
	// One unrecorded report warms this process, so op_ms_* measure warm
	// reports while setup_s measures cold ones.
	oneReport(false, nil)

	if !c.traced {
		probe := &rssProbe{pids: []string{"self"}}
		c.loop(func(int) func() {
			probe.reset()
			d := oneReport(false, nil)
			rss := probe.read()
			return func() {
				o.ops.add(d)
				o.rssMB = append(o.rssMB, rss)
			}
		})
		return o, probe.err
	}

	// Traced run: traced and untraced reports alternate, so the tracing
	// overhead is measured under the same conditions.
	acc := map[string][]float64{}
	var tracedOps, plainOps samples
	c.loop(func(i int) func() {
		if i%2 == 1 {
			d := oneReport(false, nil)
			return func() { plainOps.add(d) }
		}
		layers := map[string][]float64{}
		d := oneReport(true, layers)
		return func() {
			tracedOps.add(d)
			for name, v := range layers {
				acc[name] = append(acc[name], v...)
			}
		}
	})
	for name, v := range acc {
		o.layer(name, median(v), len(v))
	}
	o.layer("trace.overhead_ratio", ratio(median(tracedOps), median(plainOps)), len(tracedOps))

	// Each test alone on a fresh decode: which test a shard's time goes to.
	per := map[string][]float64{}
	for round := 0; round < testRounds; round++ {
		for _, t := range suite {
			net, err := netmodel.DecodeJSON(bytes.NewReader(data))
			if err != nil {
				return nil, err
			}
			net.ComputeMatchSets()
			run := fmt.Sprintf("report-cold-%d-test-%s-%d", c.seed, t.Name(), round)
			op := tr.begin("testkit.Suite.Run", run)
			start := time.Now()
			rs := testkit.Suite{t}.Run(context.Background(), net, core.NewTrace())
			per[t.Name()] = append(per[t.Name()], ms(time.Since(start)))
			tr.finish(op)
			var verr error
			if got, want := verdictsOf(rs)[t.Name()], ref.verdicts[t.Name()]; len(rs) != 1 || got != want {
				verr = fmt.Errorf("isolated run of %s: verdict %+v, reference %+v", t.Name(), got, want)
			}
			o.check(verr)
		}
	}
	for name, v := range per {
		o.layer("testkit.test_ms."+name, median(v), len(v))
	}
	return o, c.finishTrace(tr)
}
