package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"yardstick/internal/bgp"
	"yardstick/internal/core"
	"yardstick/internal/delta"
	"yardstick/internal/netmodel"
	"yardstick/internal/report"
	"yardstick/internal/service"
	"yardstick/internal/testkit"
	"yardstick/internal/topogen"
)

const (
	churnSuite = "default,internal,reach" // tests recorded into the daemon's trace
	// flapsPerCycle seeded flap events, then the same events undone in
	// reverse, make one cycle that returns the control plane to where it
	// started.
	flapsPerCycle = 100
	maxWarmCycles = 8
)

// churnChain is churn's pre-generated input: a start state S (network
// and trace, as the bytes the daemon receives) and one cycle of delta
// documents that leads from S back to S, so the loop can replay it for
// as long as the run lasts with every document's Base chaining.
type churnChain struct {
	netJSON   []byte
	traceJSON []byte
	docs      []delta.Document
	bodies    [][]byte               // docs as PATCH bodies
	fps       []string               // fingerprint after docs[i]
	rows      [][]service.MetricsRow // GET /coverage rows after docs[i]
	// firstDropped is the trace marks each document of the first pass
	// dropped. That pass starts from the suite's fresh trace; from the
	// fixed point on, every mark the cycle can drop is already gone.
	firstDropped []float64
}

// buildChain replays seeded BGP flaps through a local twin until a
// whole cycle maps the twin's state onto itself (network fingerprint
// and trace), then verifies the cycle on a twin rebuilt from the start
// state's bytes — exactly what the daemon will hold — recording the
// expected fingerprint and coverage rows after every document.
func buildChain(seed int64) (*churnChain, error) {
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{})
	if err != nil {
		return nil, err
	}
	suite, err := testkit.BuiltinSuite(churnSuite)
	if err != nil {
		return nil, err
	}
	trace := core.NewTrace()
	for _, r := range suite.Run(context.Background(), rg.Net, trace) {
		if r.Errored() {
			return nil, fmt.Errorf("suite %s errored: %s", r.Name, r.Err)
		}
	}
	eng, err := delta.NewEngine(rg.Net, trace)
	if err != nil {
		return nil, err
	}
	replay := bgp.NewReplay(bgp.Config{Net: rg.Net, Origins: rg.Origins, Statics: rg.Statics, Export: rg.Export})
	fwd := bgp.GenFlaps(seed, flapsPerCycle, len(rg.Origins))
	cycle := append([]bgp.FlapEvent(nil), fwd...)
	for i := len(fwd) - 1; i >= 0; i-- {
		cycle = append(cycle, bgp.FlapEvent{Origin: fwd[i].Origin, Up: !fwd[i].Up})
	}

	var firstDropped []float64
	for w := 0; w < maxWarmCycles; w++ {
		ch := &churnChain{}
		if ch.netJSON, ch.traceJSON, err = encodeState(eng); err != nil {
			return nil, err
		}
		startFP := eng.Fingerprint()
		for _, ev := range cycle {
			if err := replay.Toggle(ev); err != nil {
				return nil, err
			}
			next, err := replay.Build()
			if err != nil {
				return nil, err
			}
			ops, err := delta.Diff(eng.Net, next)
			if err != nil {
				return nil, err
			}
			doc := delta.Document{Base: eng.Fingerprint(), Ops: ops}
			a, err := eng.Apply(doc)
			if err != nil {
				return nil, err
			}
			ch.docs = append(ch.docs, doc)
			if w == 0 {
				firstDropped = append(firstDropped, float64(a.Decay.DroppedMarks))
			}
		}
		if eng.Fingerprint() != startFP {
			continue
		}
		start, err := core.DecodeTraceJSON(eng.Net, bytes.NewReader(ch.traceJSON))
		if err != nil {
			return nil, err
		}
		if !start.Equal(eng.Trace) {
			continue
		}
		ch.firstDropped = firstDropped
		return ch, ch.verify()
	}
	return nil, fmt.Errorf("flap cycle did not reach a fixed point in %d cycles", maxWarmCycles)
}

func encodeState(eng *delta.Engine) (netJSON, traceJSON []byte, err error) {
	var nb, tb bytes.Buffer
	if err := eng.Net.EncodeJSON(&nb); err != nil {
		return nil, nil, err
	}
	if err := eng.Trace.EncodeJSON(&tb); err != nil {
		return nil, nil, err
	}
	return nb.Bytes(), tb.Bytes(), nil
}

// verify replays the cycle on a twin decoded from the start bytes and
// records the expected outputs.
func (ch *churnChain) verify() error {
	tw, err := ch.twin()
	if err != nil {
		return err
	}
	if tw.Fingerprint() != ch.docs[0].Base {
		return fmt.Errorf("decoded start state has fingerprint %.16s, chain starts at %.16s", tw.Fingerprint(), ch.docs[0].Base)
	}
	for i, doc := range ch.docs {
		a, err := tw.Apply(doc)
		if err != nil {
			return fmt.Errorf("cycle document %d: %w", i, err)
		}
		body, err := json.Marshal(doc)
		if err != nil {
			return err
		}
		ch.bodies = append(ch.bodies, body)
		ch.fps = append(ch.fps, a.Fingerprint)
		ch.rows = append(ch.rows, twinRows(tw.Net, tw.Trace))
	}
	if tw.Fingerprint() != ch.docs[0].Base {
		return fmt.Errorf("cycle does not return to its start state")
	}
	return nil
}

// twin decodes the start state into a fresh local delta engine.
func (ch *churnChain) twin() (*delta.Engine, error) {
	net, err := netmodel.DecodeJSON(bytes.NewReader(ch.netJSON))
	if err != nil {
		return nil, err
	}
	net.ComputeMatchSets()
	tr, err := core.DecodeTraceJSON(net, bytes.NewReader(ch.traceJSON))
	if err != nil {
		return nil, err
	}
	return delta.NewEngine(net, tr)
}

// httpDo runs one request and reads the whole response.
func httpDo(hc *http.Client, method, url string, body []byte) (*http.Response, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp, nil, err
	}
	if resp.StatusCode/100 != 2 {
		return resp, data, fmt.Errorf("%s %s: %s: %.200s", method, url, resp.Status, data)
	}
	return resp, data, nil
}

// getJSON fetches url and decodes the body into out.
func getJSON(hc *http.Client, url string, out any) error {
	_, data, err := httpDo(hc, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, out)
}

// serverTiming extracts one metric's dur (ms) from a Server-Timing
// header such as "compute;dur=1.25, stats;dur=0.10".
func serverTiming(h, name string) (float64, bool) {
	for _, part := range strings.Split(h, ",") {
		fields := strings.Split(strings.TrimSpace(part), ";")
		if fields[0] != name {
			continue
		}
		for _, f := range fields[1:] {
			if v, ok := strings.CutPrefix(strings.TrimSpace(f), "dur="); ok {
				d, err := strconv.ParseFloat(v, 64)
				return d, err == nil
			}
		}
	}
	return 0, false
}

// churnSetup is the daemon side of churn's set-up: spawn, healthy,
// load the start network, report the start trace.
func churnSetup(c *config, hc *http.Client, ch *churnChain) (*daemon, error) {
	d, err := startDaemon(c.daemonBin)
	if err != nil {
		return nil, err
	}
	err = func() error {
		if err := d.waitHealthy(context.Background(), hc); err != nil {
			return err
		}
		_, data, err := httpDo(hc, http.MethodPut, d.base+"/network", ch.netJSON)
		if err != nil {
			return err
		}
		var st service.NetworkStats
		if err := json.Unmarshal(data, &st); err != nil {
			return err
		}
		if st.Fingerprint != ch.docs[0].Base {
			return fmt.Errorf("daemon loaded fingerprint %.16s, chain starts at %.16s", st.Fingerprint, ch.docs[0].Base)
		}
		_, _, err = httpDo(hc, http.MethodPost, d.base+"/trace", ch.traceJSON)
		return err
	}()
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func runChurn(c *config) (*outcome, error) {
	gen := time.Now()
	ch, err := buildChain(c.seed)
	if err != nil {
		return nil, fmt.Errorf("generating flap chain: %w", err)
	}
	fmt.Fprintf(c.log, "inputs: %d-document flap cycle, generated in %.1fs\n", len(ch.docs), time.Since(gen).Seconds())
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer hc.CloseIdleConnections()

	o := newOutcome()
	var d *daemon
	defer func() { d.stop() }()
	o.setup, err = setups(func() (time.Duration, error) {
		d.stop()
		start := time.Now()
		d, err = churnSetup(c, hc, ch)
		return time.Since(start), err
	})
	if err != nil {
		return nil, err
	}

	var tr *tracer
	if c.traced {
		tr = newTracer()
	}
	var before service.StatsReport
	if err := getJSON(hc, d.base+"/stats", &before); err != nil {
		return nil, err
	}
	var tracedOps, plainOps, patchMs, covMs, computeMs, covOverMs samples
	probe := &rssProbe{pids: []string{d.pid()}}
	events := c.loop(func(k int) func() {
		probe.reset()
		j := k % len(ch.docs)
		traced := c.traced && k%2 == 0
		var t *tracer
		if traced {
			t = tr
		}
		op := t.begin("event", fmt.Sprintf("churn-%d-%d", c.seed, k))
		var cresp *http.Response
		var pdata, cdata []byte
		var perr, cerr error
		pd := timed(op, "PATCH /network", func() {
			_, pdata, perr = httpDo(hc, http.MethodPatch, d.base+"/network", ch.bodies[j])
		})
		cd := timed(op, "GET /coverage", func() {
			cresp, cdata, cerr = httpDo(hc, http.MethodGet, d.base+"/coverage", nil)
		})
		t.finish(op)
		err := firstErr(perr, cerr)
		if err == nil {
			var a delta.Applied
			var rep service.CoverageReport
			err = firstErr(json.Unmarshal(pdata, &a), json.Unmarshal(cdata, &rep))
			if err == nil {
				err = firstErr(checkFingerprint(k, a.Fingerprint, ch.fps[j]), checkCoverageRows(k, rep, ch.rows[j]))
			}
		}
		o.check(err)
		rss := probe.read()
		return func() {
			o.rssMB = append(o.rssMB, rss)
			switch {
			case !c.traced:
				o.ops.add(pd + cd)
			case traced:
				tracedOps.add(pd + cd)
				patchMs.add(pd)
				covMs.add(cd)
				if cresp != nil {
					if compute, ok := serverTiming(cresp.Header.Get("Server-Timing"), "compute"); ok {
						computeMs = append(computeMs, compute)
						covOverMs = append(covOverMs, ms(cd)-compute)
					}
				}
			default:
				plainOps.add(pd + cd)
			}
		}
	})

	if probe.err != nil {
		return nil, probe.err
	}
	// The cmd/churn -check oracle: the daemon's trace equals the twin's
	// after the same documents, and its table byte-matches a rebuild.
	o.check(churnFinal(hc, d, ch, events))
	if !c.traced {
		return o, nil
	}

	var after service.StatsReport
	if err := getJSON(hc, d.base+"/stats", &after); err != nil {
		return nil, err
	}
	hits := float64(after.Engine.CacheHits - before.Engine.CacheHits)
	misses := float64(after.Engine.CacheMisses - before.Engine.CacheMisses)
	o.layer("bdd.churn.ops", ratio(float64(after.Engine.Ops-before.Engine.Ops), float64(events)), events)
	o.layer("bdd.churn.cache_hit_ratio", ratio(hits, hits+misses), events)
	o.layer("service.patch_ms_p50", quantile(patchMs, 0.5), len(patchMs))
	o.layer("service.patch_ms_p90", quantile(patchMs, 0.9), len(patchMs))
	o.layer("service.coverage_ms_p50", quantile(covMs, 0.5), len(covMs))
	o.layer("service.coverage_ms_p90", quantile(covMs, 0.9), len(covMs))
	o.layer("core.coverage_compute_ms", median(computeMs), len(computeMs))
	o.layer("service.coverage_overhead_ms", median(covOverMs), len(covOverMs))
	o.layer("trace.overhead_ratio", ratio(median(tracedOps), median(plainOps)), len(tracedOps))

	// The same document chain through an in-process delta engine: what
	// the PATCH handler spends applying, and fingerprinting inside that.
	tw, err := ch.twin()
	if err != nil {
		return nil, err
	}
	var apply, fp, nops, bodyKB []float64
	for i, doc := range ch.docs {
		op := tr.begin("replay", fmt.Sprintf("churn-%d-replay-%d", c.seed, i))
		ad := timed(op, "delta.Engine.Apply", func() { _, err = tw.Apply(doc) })
		if err != nil {
			return nil, err
		}
		fd := timed(op, "core.Fingerprint", func() { _, err = core.Fingerprint(tw.Net) })
		if err != nil {
			return nil, err
		}
		tr.finish(op)
		apply = append(apply, ms(ad))
		fp = append(fp, ms(fd))
		nops = append(nops, float64(len(doc.Ops)))
		bodyKB = append(bodyKB, float64(len(ch.bodies[i]))/1024)
	}
	n := len(ch.docs)
	o.layer("delta.apply_ms", median(apply), n)
	o.layer("core.fingerprint_ms", median(fp), n)
	o.layer("core.fingerprint_share", ratio(median(fp), median(apply)), n)
	o.layer("service.patch_overhead_ms", quantile(patchMs, 0.5)-median(apply), len(patchMs))
	o.layer("delta.ops_per_patch", mean(nops), n)
	o.layer("delta.marks_dropped_per_patch", mean(ch.firstDropped), len(ch.firstDropped))
	o.layer("service.patch_body_kb", mean(bodyKB), n)
	return o, c.finishTrace(tr)
}

// churnFinal checks the daemon's state after events documents.
func churnFinal(hc *http.Client, d *daemon, ch *churnChain, events int) error {
	tw, err := ch.twin()
	if err != nil {
		return err
	}
	for _, doc := range ch.docs[:events%len(ch.docs)] {
		if _, err := tw.Apply(doc); err != nil {
			return err
		}
	}
	_, raw, err := httpDo(hc, http.MethodGet, d.base+"/trace", nil)
	if err != nil {
		return err
	}
	remote, err := core.DecodeTraceJSON(tw.Net, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := tw.Net.EncodeJSON(&buf); err != nil {
		return err
	}
	rb, err := netmodel.DecodeJSON(&buf)
	if err != nil {
		return err
	}
	rb.ComputeMatchSets()
	return checkChurnFinal(remote.Equal(tw.Trace),
		churnTables(tw.Net, remote), churnTables(rb, tw.Trace.TransferTo(rb.Space)))
}

// churnTables renders the by-role and config-line coverage tables, the
// byte-diff surface of the churn oracle.
func churnTables(net *netmodel.Network, tr *core.Trace) []byte {
	cov := core.NewCoverage(net, tr)
	var buf bytes.Buffer
	buf.Write(renderRows(coverageRows(cov, rolesOf(net))))
	report.RenderConfig(&buf, report.ConfigCoverage(cov))
	return buf.Bytes()
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
