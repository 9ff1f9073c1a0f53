package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"yardstick/internal/coord"
	"yardstick/internal/core"
	"yardstick/internal/netmodel"
	"yardstick/internal/obs"
	"yardstick/internal/service"
	"yardstick/internal/testkit"
	"yardstick/internal/topogen"
)

func TestQuantileNearestRank(t *testing.T) {
	s := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0, 1}, {0.1, 1}, {0.5, 5}, {0.9, 9}, {0.95, 10}, {1, 10}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if s[0] != 10 {
		t.Error("quantile sorted its input in place")
	}
}

func TestSamplesBeyondP90(t *testing.T) {
	for _, c := range []struct{ n, want int }{{0, 0}, {1, 0}, {10, 1}, {99, 9}, {100, 10}, {110, 11}, {1000, 100}} {
		if got := beyond(c.n, 0.9); got != c.want {
			t.Errorf("beyond(%d, 0.9) = %d, want %d", c.n, got, c.want)
		}
	}
	if got := minSamplesFor(0.9, 10); got != 100 {
		t.Errorf("minSamplesFor(0.9, 10) = %d, want 100", got)
	}
	if got := minSamplesFor(0.5, 1); got != 2 {
		t.Errorf("minSamplesFor(0.5, 1) = %d, want 2", got)
	}
}

func TestRatioAndMean(t *testing.T) {
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio over zero = %v, want 0", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	if got := mean(nil); got != 0 {
		t.Errorf("mean of nothing = %v, want 0", got)
	}
}

func TestStolen(t *testing.T) {
	for _, c := range []struct {
		steal, total uint64
		want         bool
	}{{0, 0, false}, {0, 400, false}, {8, 400, false}, {9, 400, true}, {1, 4, true}, {1, 0, true}} {
		if got := stolen(c.steal, c.total); got != c.want {
			t.Errorf("stolen(%d, %d) = %v, want %v", c.steal, c.total, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	parent := &obs.SpanProfile{Start: 1000, DurNs: 100, Children: []*obs.SpanProfile{
		{Start: 1020, DurNs: 30},
		{Start: 1010, DurNs: 20}, // overlaps its sibling: counted once
		{Start: 1090, DurNs: 30}, // runs past the parent: clipped
		{Start: 1200, DurNs: 100},
	}}
	if got := selfNs(parent); got != 50 {
		t.Errorf("self = %d ns, want 50", got)
	}
	if got := selfNs(&obs.SpanProfile{DurNs: 100}); got != 100 {
		t.Errorf("self without children = %d ns, want 100", got)
	}
}

func TestTracerNilIsOff(t *testing.T) {
	var tr *tracer
	ran := false
	op := tr.begin("op", "run")
	timed(op, "x", func() { ran = true })
	if !ran || tr.finish(op) != nil || tr.selfTimes() != nil {
		t.Fatal("a nil tracer must run the call and record nothing")
	}
	on := newTracer()
	op = on.begin("op", "run-1")
	timed(op, "child", func() {})
	p := on.finish(op)
	child(p, "child").Attach(&obs.SpanProfile{Name: "harvested"})
	if len(on.ops) != 1 || p.Tag("run") != "run-1" || p.SpanCount() != 3 {
		t.Fatalf("operation tree: %+v", p)
	}
	stats := on.selfTimes()
	if len(stats) != 3 {
		t.Fatalf("self times per name: %+v", stats)
	}
}

func TestServerTiming(t *testing.T) {
	h := "compute;dur=1.25, stats;dur=0.10"
	if d, ok := serverTiming(h, "compute"); !ok || d != 1.25 {
		t.Errorf("compute = %v %v", d, ok)
	}
	if d, ok := serverTiming(h, "stats"); !ok || d != 0.10 {
		t.Errorf("stats = %v %v", d, ok)
	}
	if _, ok := serverTiming(h, "db"); ok {
		t.Error("found a metric the header does not carry")
	}
}

func TestPollJobID(t *testing.T) {
	if id, ok := pollJobID("GET", "/jobs/j42"); !ok || id != "j42" {
		t.Errorf("GET /jobs/j42 = %q %v", id, ok)
	}
	for _, c := range [][2]string{{"POST", "/jobs"}, {"GET", "/jobs/j42/trace"}, {"GET", "/jobs/"}, {"DELETE", "/jobs/j42"}} {
		if _, ok := pollJobID(c[0], c[1]); ok {
			t.Errorf("%s %s counted as a poll", c[0], c[1])
		}
	}
}

func TestPeakRSSParse(t *testing.T) {
	p := filepath.Join(t.TempDir(), "status")
	os.WriteFile(p, []byte("Name:\tx\nVmPeak:\t  9999 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n"), 0o644)
	if got, err := peakRSSMB(p); err != nil || got != 2 {
		t.Errorf("peakRSSMB = %v %v, want 2", got, err)
	}
	os.WriteFile(p, []byte("Name:\tx\n"), 0o644)
	if _, err := peakRSSMB(p); err == nil {
		t.Error("a status file without VmHWM parsed")
	}
}

// exampleReference runs every built-in test on the small example
// network: a real reference the corruption tests can damage.
func exampleReference(t *testing.T) (*netmodel.Network, testkit.Suite, reference) {
	t.Helper()
	ex, err := topogen.BuildExample(topogen.ExampleOpts{})
	if err != nil {
		t.Fatal(err)
	}
	suite, err := testkit.BuiltinSuite(strings.Join(builtinNames, ","))
	if err != nil {
		t.Fatal(err)
	}
	return ex.Net, suite, sequentialReference(ex.Net, suite)
}

func TestSuiteCheckRejectsCorruption(t *testing.T) {
	_, _, ref := exampleReference(t)
	good := map[string]verdict{}
	for n, v := range ref.verdicts {
		good[n] = v
	}
	if err := checkSuiteOutput(ref.table, good, ref); err != nil {
		t.Fatalf("the reference itself failed its check: %v", err)
	}

	table := bytes.Clone(ref.table)
	i := bytes.IndexAny(table, "123456789")
	table[i] = '0'
	if checkSuiteOutput(table, good, ref) == nil {
		t.Error("a wrong coverage table passed")
	}

	name := sortedNames(good)[0]
	wrong := map[string]verdict{}
	for n, v := range good {
		wrong[n] = v
	}
	v := wrong[name]
	v.Pass = !v.Pass
	wrong[name] = v
	if checkSuiteOutput(ref.table, wrong, ref) == nil {
		t.Error("a flipped test verdict passed")
	}
	delete(wrong, name)
	if checkSuiteOutput(ref.table, wrong, ref) == nil {
		t.Error("a missing test passed")
	}
}

func TestFleetCheckRejectsIncompleteOrWrongResult(t *testing.T) {
	_, _, ref := exampleReference(t)
	var runs []service.RunResult
	for n, v := range ref.verdicts {
		runs = append(runs, service.RunResult{Name: n, Checks: v.Checks, Pass: v.Pass, Errored: v.Errored, Failures: make([]string, v.Failures)})
	}
	res := &coord.Result{
		Complete: true,
		Shards:   []coord.ShardStatus{{ID: 0, Suite: "all", Done: true, Attempts: 1}},
		Tests:    map[string][]service.RunResult{"all": runs},
	}
	if err := checkFleetResult(res, ref.table, ref); err != nil {
		t.Fatalf("a complete, correct result failed: %v", err)
	}
	res.Complete = false
	res.Shards[0].Done = false
	res.Shards[0].Error = "node down"
	if checkFleetResult(res, ref.table, ref) == nil {
		t.Error("an incomplete fleet result passed")
	}
	res.Complete, res.Shards[0].Done = true, true
	if checkFleetResult(res, append(bytes.Clone(ref.table), '\n'), ref) == nil {
		t.Error("a merged table that differs from the single-node reference passed")
	}
}

func TestChurnChecksRejectWrongOutputs(t *testing.T) {
	if checkFingerprint(3, "abc", "abc") != nil {
		t.Error("a matching fingerprint failed")
	}
	if checkFingerprint(3, "abd", "abc") == nil {
		t.Error("a wrong PATCH fingerprint passed")
	}

	net, suite, _ := exampleReference(t)
	tr := newTraceOf(t, net, suite)
	want := twinRows(net, tr)
	rep := service.CoverageReport{ByRole: append([]service.MetricsRow(nil), want[:len(want)-1]...), Total: want[len(want)-1]}
	if err := checkCoverageRows(0, rep, want); err != nil {
		t.Fatalf("the twin's own rows failed: %v", err)
	}
	rep.Total.RuleFractional += 1e-9
	if checkCoverageRows(0, rep, want) == nil {
		t.Error("a wrong coverage row passed")
	}
	rep.ByRole = rep.ByRole[1:]
	if checkCoverageRows(0, rep, want) == nil {
		t.Error("a missing coverage row passed")
	}

	table := coverageTable(net, tr)
	if err := checkChurnFinal(true, table, table); err != nil {
		t.Fatalf("equal state failed: %v", err)
	}
	if checkChurnFinal(false, table, table) == nil {
		t.Error("a daemon trace that differs from the twin's passed")
	}
	if checkChurnFinal(true, table, coverageTable(net, newTraceOf(t, net, suite[:1]))) == nil {
		t.Error("a table that differs from the rebuild passed")
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric names and units the
// command prints in step with BENCHMARK.json.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []spec `json:"end_to_end"`
		PerLayer  []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []metricSpec, want []spec) {
		if len(got) != len(want) {
			t.Errorf("%s: command has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: command %v, BENCHMARK.json %v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", endToEnd, b.EndToEnd)
	same("per_layer", perLayer, b.PerLayer)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	var have []string
	for n := range workloads {
		have = append(have, n)
	}
	sort.Strings(have)
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Errorf("workloads: command %v, BENCHMARK.json %v", have, names)
	}
}

func sortedNames(m map[string]verdict) []string {
	var out []string
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func newTraceOf(t *testing.T, net *netmodel.Network, suite testkit.Suite) *core.Trace {
	t.Helper()
	tr := core.NewTrace()
	suite.Run(context.Background(), net, tr)
	return tr
}

// TestFirstReportMatchesReference runs the -first-report process body
// in-process on the example network.
func TestFirstReportMatchesReference(t *testing.T) {
	net, _, ref := exampleReference(t)
	var data bytes.Buffer
	if err := net.EncodeJSON(&data); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runFirstReport("7,6,5,4,3,2,1,0", bytes.NewReader(data.Bytes()), &out); err != nil {
		t.Fatal(err)
	}
	var first coldFirst
	if err := json.Unmarshal(out.Bytes(), &first); err != nil {
		t.Fatal(err)
	}
	if err := checkSuiteOutput(first.Table, first.Verdicts, ref); err != nil {
		t.Error(err)
	}
	if first.Seconds <= 0 {
		t.Errorf("first report took %v s", first.Seconds)
	}
	if runFirstReport("0,9", bytes.NewReader(data.Bytes()), &out) == nil {
		t.Error("an order naming a test that does not exist was accepted")
	}
}
