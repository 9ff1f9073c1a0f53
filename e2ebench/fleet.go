package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"yardstick/internal/client"
	"yardstick/internal/coord"
	"yardstick/internal/netmodel"
	"yardstick/internal/service"
	"yardstick/internal/testkit"
	"yardstick/internal/topogen"
)

// Fleet coordinator settings (hedging stays off: HedgeAfter 0).
const (
	fleetConcurrency = 2
	fleetPoll        = 5 * time.Millisecond
	fleetMaxAttempts = 3
)

// fleetDaemonFlags are the worker daemons' flags beyond -listen. A
// short job TTL bounds the finished jobs (result, fragment, profile) a
// worker retains to the last few seconds' worth, so worker memory
// measures steady state rather than how many runs fit in the run.
var fleetDaemonFlags = []string{"-job-ttl", "2s"}

// countingTransport counts the coordinator's requests per run: the
// client layer's work as seen on the wire. Job IDs are collected from
// poll URLs so the run's job records can be fetched afterwards.
type countingTransport struct {
	base http.RoundTripper

	mu        sync.Mutex
	requests  int
	polls     int
	respBytes int64
	jobs      map[string]string // job ID → node base URL
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.requests++
	if id, ok := pollJobID(req.Method, req.URL.Path); ok {
		t.polls++
		t.jobs[id] = req.URL.Scheme + "://" + req.URL.Host
	}
	if resp != nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, t: t}
	}
	return resp, err
}

// pollJobID recognizes GET /jobs/{id}, the job poll.
func pollJobID(method, path string) (string, bool) {
	id, ok := strings.CutPrefix(path, "/jobs/")
	if method != http.MethodGet || !ok || id == "" || strings.Contains(id, "/") {
		return "", false
	}
	return id, true
}

// reset zeroes the counters and returns what they held.
func (t *countingTransport) reset() (requests, polls int, respBytes int64, jobs map[string]string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	requests, polls, respBytes, jobs = t.requests, t.polls, t.respBytes, t.jobs
	t.requests, t.polls, t.respBytes, t.jobs = 0, 0, 0, map[string]string{}
	return
}

type countingBody struct {
	io.ReadCloser
	t *countingTransport
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.t.mu.Lock()
	b.t.respBytes += int64(n)
	b.t.mu.Unlock()
	return n, err
}

// fleet is one set-up fleet: the worker daemons and the coordinator
// that drives them.
type fleet struct {
	nodes []*daemon
	co    *coord.Coordinator
	net   *netmodel.Network // the coordinator's replica
	wire  *countingTransport
}

func (f *fleet) stop() {
	if f != nil {
		stopAll(f.nodes)
	}
}

// startFleet spawns the workers and builds a coordinator over them. The
// replica network is decoded by the caller, outside set-up timing.
func startFleet(c *config, hc *http.Client, replica *netmodel.Network) (*fleet, error) {
	f := &fleet{net: replica, wire: &countingTransport{base: http.DefaultTransport.(*http.Transport).Clone(), jobs: map[string]string{}}}
	var bases []string
	for i := 0; i < fleetNodes; i++ {
		d, err := startDaemon(c.daemonBin, fleetDaemonFlags...)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.nodes = append(f.nodes, d)
		bases = append(bases, d.base)
	}
	for _, d := range f.nodes {
		if err := d.waitHealthy(context.Background(), hc); err != nil {
			f.stop()
			return nil, err
		}
	}
	wireClient := &http.Client{Transport: f.wire}
	co, err := coord.New(coord.Config{
		Nodes:       bases,
		Net:         replica,
		NewClient:   func(base string) *client.Client { return client.New(base, client.WithHTTPClient(wireClient)) },
		Concurrency: fleetConcurrency,
		Poll:        fleetPoll,
		MaxAttempts: fleetMaxAttempts,
	})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.co = co
	return f, nil
}

func runFleet(c *config) (*outcome, error) {
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := rg.Net.EncodeJSON(&buf); err != nil {
		return nil, err
	}
	data := buf.Bytes()
	suite, err := testkit.BuiltinSuite(strings.Join(builtinNames, ","))
	if err != nil {
		return nil, err
	}
	refNet, err := netmodel.DecodeJSON(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	ref := sequentialReference(refNet, suite) // the single-node oracle
	orders := drawOrders(c.seed, len(builtinNames), orderCount)
	decode := func() (*netmodel.Network, error) {
		n, err := netmodel.DecodeJSON(bytes.NewReader(data))
		if err == nil {
			n.ComputeMatchSets()
		}
		return n, err
	}

	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	o := newOutcome()
	opNum := 0
	// fleetRun runs one checked coordinator Run.
	fleetRun := func(f *fleet) (*coord.Result, time.Duration) {
		shards := permute(builtinNames, orders[opNum%len(orders)])
		opNum++
		start := time.Now()
		res, err := f.co.Run(context.Background(), shards...)
		d := time.Since(start)
		if err == nil {
			err = checkFleetResult(res, coverageTable(f.net, res.Trace), ref)
		}
		o.check(err)
		return res, d
	}

	// Set-up: both daemon spawns plus the first Run, which pushes the
	// network to each node.
	var f *fleet
	defer func() { f.stop() }()
	o.setup, err = setups(func() (time.Duration, error) {
		f.stop()
		replica, err := decode()
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if f, err = startFleet(c, hc, replica); err != nil {
			return 0, err
		}
		fleetRun(f)
		return time.Since(start), nil
	})
	if err != nil {
		return nil, err
	}

	var tr *tracer
	if c.traced {
		tr = newTracer()
	}
	acc := map[string][]float64{}
	var tracedOps, plainOps samples
	probe := &rssProbe{}
	for _, n := range f.nodes {
		probe.pids = append(probe.pids, n.pid())
	}
	c.loop(func(k int) func() {
		f.wire.reset()
		probe.reset()
		res, d := fleetRun(f)
		rss := probe.read()
		layers := map[string][]float64{}
		if c.traced && k%2 == 0 && res != nil {
			fleetLayers(hc, f, res, tr, func(name string, v float64) { layers[name] = append(layers[name], v) })
		}
		return func() {
			o.rssMB = append(o.rssMB, rss)
			switch {
			case !c.traced:
				o.ops.add(d)
			case k%2 == 0:
				tracedOps.add(d)
				for name, v := range layers {
					acc[name] = append(acc[name], v...)
				}
			default:
				plainOps.add(d)
			}
		}
	})

	if probe.err != nil {
		return nil, probe.err
	}
	if !c.traced {
		return o, nil
	}
	for name, v := range acc {
		if strings.HasPrefix(name, "coord.shard_ms") {
			continue
		}
		o.layer(name, median(v), len(v))
	}
	o.layer("coord.shard_ms_p50", quantile(acc["coord.shard_ms"], 0.5), len(acc["coord.shard_ms"]))
	o.layer("coord.shard_ms_p90", quantile(acc["coord.shard_ms"], 0.9), len(acc["coord.shard_ms"]))
	o.layer("trace.overhead_ratio", ratio(median(tracedOps), median(plainOps)), len(tracedOps))
	return o, c.finishTrace(tr)
}

// fleetLayers harvests one traced Run: the coordinator's Timeline
// spans, the wire counters, and each worker's records of the run's
// jobs (fetched after the run, outside its timing).
func fleetLayers(hc *http.Client, f *fleet, res *coord.Result, tr *tracer, put func(string, float64)) {
	requests, polls, respBytes, jobIDs := f.wire.reset()
	shards := float64(len(res.Shards))
	// The timeline is the run's span tree; its coord.run root already
	// carries the run ID that every shard and worker span shares.
	tl := res.Timeline
	tr.keep(tl)
	var shardMs []float64
	for _, c := range tl.Children {
		switch c.Name {
		case "coord.dispatch":
			put("coord.dispatch_ms", float64(c.DurNs)/1e6)
			for _, s := range c.Children {
				if s.Name == "coord.shard" {
					shardMs = append(shardMs, float64(s.DurNs)/1e6)
					put("coord.shard_ms", float64(s.DurNs)/1e6)
				}
			}
		case "coord.merge":
			put("coord.merge_ms", float64(c.DurNs)/1e6)
		}
	}
	var jobMs []float64
	for id, base := range jobIDs {
		var j service.JobStatus
		if err := getJSON(hc, base+"/jobs/"+id, &j); err != nil || j.Started.IsZero() || j.Finished.IsZero() {
			continue
		}
		put("jobs.queue_wait_ms", ms(j.Started.Sub(j.Submitted)))
		put("jobs.run_ms", ms(j.Finished.Sub(j.Started)))
		jobMs = append(jobMs, ms(j.Finished.Sub(j.Submitted)))
	}
	if len(jobMs) > 0 {
		put("coord.overhead_ms", mean(shardMs)-mean(jobMs))
	}
	put("client.requests_per_shard", float64(requests)/shards)
	put("client.polls_per_shard", float64(polls)/shards)
	put("client.resp_kb_per_shard", float64(respBytes)/1024/shards)
	attempts := 0
	perNode := map[string]float64{}
	for _, sh := range res.Shards {
		attempts += sh.Attempts
		perNode[sh.Node]++
	}
	put("coord.attempts_per_shard", float64(attempts)/shards)
	busiest := 0.0
	for _, n := range f.nodes {
		busiest = max(busiest, perNode[n.base])
	}
	put("coord.node_imbalance", ratio(busiest, shards/float64(len(f.nodes))))
}
