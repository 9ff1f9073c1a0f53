package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"

	"yardstick/internal/coord"
	"yardstick/internal/core"
	"yardstick/internal/netmodel"
	"yardstick/internal/report"
	"yardstick/internal/service"
	"yardstick/internal/testkit"
)

// verdict is one test's outcome, reduced to what must agree between a
// run and its reference.
type verdict struct {
	Checks   int
	Failures int
	Pass     bool
	Errored  bool
}

func verdictsOf(rs []testkit.Result) map[string]verdict {
	out := make(map[string]verdict, len(rs))
	for _, r := range rs {
		out[r.Name] = verdict{Checks: r.Checks, Failures: len(r.Failures), Pass: r.Pass(), Errored: r.Errored()}
	}
	return out
}

func verdictsOfRuns(rs []service.RunResult) map[string]verdict {
	out := make(map[string]verdict, len(rs))
	for _, r := range rs {
		out[r.Name] = verdict{Checks: r.Checks, Failures: len(r.Failures), Pass: r.Pass, Errored: r.Errored}
	}
	return out
}

// reference is the expected output of a suite run: the rendered by-role
// coverage table and every test's verdict. It comes from a sequential
// run in one BDD space, computed once before timing.
type reference struct {
	table    []byte
	verdicts map[string]verdict
}

// sequentialReference runs suite sequentially on net (one space, one
// trace) and renders the reference outputs.
func sequentialReference(net *netmodel.Network, suite testkit.Suite) reference {
	net.ComputeMatchSets()
	tr := core.NewTrace()
	results := suite.Run(context.Background(), net, tr)
	return reference{table: coverageTable(net, tr), verdicts: verdictsOf(results)}
}

// rolesOf lists the network's roles in device order — the row order of
// every coverage table the benchmark renders.
func rolesOf(net *netmodel.Network) []netmodel.Role {
	seen := map[netmodel.Role]bool{}
	var out []netmodel.Role
	for _, d := range net.Devices {
		if !seen[d.Role] {
			seen[d.Role] = true
			out = append(out, d.Role)
		}
	}
	return out
}

// coverageTable renders the by-role rows plus the TOTAL row of tr.
func coverageTable(net *netmodel.Network, tr *core.Trace) []byte {
	return renderRows(coverageRows(core.NewCoverage(net, tr), rolesOf(net)))
}

func coverageRows(cov *core.Coverage, roles []netmodel.Role) []report.Metrics {
	return append(report.ByRole(cov, roles), report.Total(cov, "TOTAL"))
}

func renderRows(rows []report.Metrics) []byte {
	var buf bytes.Buffer
	report.RenderTable(&buf, rows)
	return buf.Bytes()
}

// checkSuiteOutput compares one run's table and verdicts to the
// reference.
func checkSuiteOutput(table []byte, got map[string]verdict, ref reference) error {
	if !bytes.Equal(table, ref.table) {
		return fmt.Errorf("coverage table differs from the reference:\n%s\nwant:\n%s", table, ref.table)
	}
	if len(got) != len(ref.verdicts) {
		return fmt.Errorf("%d test verdicts, reference has %d", len(got), len(ref.verdicts))
	}
	names := make([]string, 0, len(got))
	for n := range ref.verdicts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		g, ok := got[n]
		if !ok {
			return fmt.Errorf("test %s missing from the run", n)
		}
		if w := ref.verdicts[n]; g != w {
			return fmt.Errorf("test %s verdict %+v, reference %+v", n, g, w)
		}
	}
	return nil
}

// checkFleetResult accepts a coordinator result only when every shard
// completed and the merged outputs match the single-node reference.
func checkFleetResult(res *coord.Result, table []byte, ref reference) error {
	if !res.Complete {
		for _, sh := range res.Shards {
			if !sh.Done {
				return fmt.Errorf("fleet run incomplete: shard %d (%s) failed: %s", sh.ID, sh.Suite, sh.Error)
			}
		}
		return fmt.Errorf("fleet run incomplete")
	}
	got := map[string]verdict{}
	for _, rs := range res.Tests {
		for n, v := range verdictsOfRuns(rs) {
			got[n] = v
		}
	}
	return checkSuiteOutput(table, got, ref)
}

// checkFingerprint compares a PATCH response's fingerprint with the
// pre-computed chain.
func checkFingerprint(event int, got, want string) error {
	if got != want {
		return fmt.Errorf("event %d: PATCH fingerprint %.16s, chain expects %.16s", event, got, want)
	}
	return nil
}

// checkCoverageRows compares a GET /coverage body with the rows the
// local twin computed for the same state.
func checkCoverageRows(event int, got service.CoverageReport, want []service.MetricsRow) error {
	rows := append(append([]service.MetricsRow(nil), got.ByRole...), got.Total)
	if len(rows) != len(want) {
		return fmt.Errorf("event %d: %d coverage rows, twin has %d", event, len(rows), len(want))
	}
	for i := range rows {
		if rows[i] != want[i] {
			return fmt.Errorf("event %d: coverage row %+v, twin %+v", event, rows[i], want[i])
		}
	}
	return nil
}

// twinRows is the GET /coverage row set (by role, then total) for a
// network and trace.
func twinRows(net *netmodel.Network, tr *core.Trace) []service.MetricsRow {
	cov := core.NewCoverage(net, tr)
	var out []service.MetricsRow
	for _, m := range report.ByRole(cov, rolesOf(net)) {
		out = append(out, metricsRow(m))
	}
	return append(out, metricsRow(report.Total(cov, "total")))
}

func metricsRow(m report.Metrics) service.MetricsRow {
	return service.MetricsRow{
		Group: m.Label, Devices: m.Devices,
		DeviceFractional: m.DeviceFractional, IfaceFractional: m.IfaceFractional,
		RuleFractional: m.RuleFractional, RuleWeighted: m.RuleWeighted,
	}
}

// checkChurnFinal is the churn oracle after the run: the daemon's trace
// must equal the local twin's, and the coverage table from that trace
// must byte-match the table of a from-scratch rebuild.
func checkChurnFinal(traceEqual bool, incremental, rebuilt []byte) error {
	if !traceEqual {
		return fmt.Errorf("daemon trace differs from the local twin's")
	}
	if !bytes.Equal(incremental, rebuilt) {
		return fmt.Errorf("incremental coverage table differs from the rebuild:\n%s\nrebuild:\n%s", incremental, rebuilt)
	}
	return nil
}
