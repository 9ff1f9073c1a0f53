// Package service exposes Yardstick as an HTTP service — the shape it
// has in production (§7: "Yardstick is deployed in Azure as part of a
// service to evaluate the impact of changes"). A server holds one
// network and one accumulating coverage trace; testing tools report
// coverage remotely by POSTing trace fragments (the §5.1 markPacket/
// markRule feed, serialized as BDD cubes), or ask the server to run its
// built-in suites; engineers read metrics, role breakdowns, and gap
// reports. Package client provides a typed, retrying Go client for
// every endpoint.
//
// Endpoints:
//
//	PUT    /network          load a network (JSON body; ?format=text for the text format)
//	GET    /network          current network stats
//	POST   /trace            merge a trace fragment (trace JSON)
//	GET    /trace            download the accumulated trace
//	DELETE /trace            reset the trace
//	POST   /run?suite=a,b    run built-in tests server-side, accumulate coverage
//	                         (&workers=n runs the suite sharded across up to
//	                         n workers, capped by WithWorkers; 0 = the cap)
//	POST   /jobs?suite=a,b   submit the same run asynchronously: 202 +
//	                         Location, poll GET /jobs/{id}, cancel with
//	                         DELETE /jobs/{id} (see jobs.go)
//	GET    /jobs             list retained jobs and queue stats
//	                         (?state= filter, ?offset=/?limit= paging with
//	                         X-Total-Count and Link rel="next" headers)
//	GET    /jobs/{id}/trace  a done job's own coverage fragment as trace
//	                         JSON — the shard-collection feed of the
//	                         distributed coordinator (internal/coord)
//	GET    /coverage         headline metrics + per-role rows
//	GET    /gaps             untested rules by origin and role
//	GET    /healthz          liveness: 200 once the process serves traffic
//	GET    /readyz           readiness: 200 when ready; 503 with a reason
//	                         body (no_network, draining, queue_saturated)
//
// The server serializes all requests: the underlying BDD manager is
// single-threaded by design. With WithWorkers(n > 1), POST /run can
// fan one request's suite out across per-worker network replicas
// (internal/sharded) — requests are still serialized; the parallelism
// is within a run.
//
// The handler chain hardens the service for long-running deployment:
// panics are recovered (500, logged stack, server survives), request
// bodies are size-capped (413 past the limit), and requests are logged.
// Compute-heavy endpoints additionally pass admission control
// (admission.go): a per-route-class concurrency cap sheds with 429 +
// Retry-After, a full job queue sheds with 503 + Retry-After, and a
// draining server sheds everything while /readyz steers load balancers
// away — under overload the service answers fast and explicitly rather
// than queueing without bound.
// With WithSnapshot, the accumulated trace is checkpointed to an
// atomic-rename snapshot file — periodically and on shutdown — and
// recovered on startup when the snapshot's network fingerprint matches
// the loaded network, so accumulated coverage survives a restart.
//
// Evaluation endpoints (/run, /coverage, /gaps) run under each
// request's context, optionally tightened by WithRunTimeout (the
// daemon's -run-timeout flag): a disconnected client or an expired
// deadline aborts the symbolic work through the BDD engine's watched
// context and answers 503. A server-side test that panics or exhausts
// a resource budget comes back as an errored RunResult while the rest
// of the suite still runs; partial trace contributions from aborted
// runs are kept (the trace is a monotonic union, so partial merges
// never corrupt it).
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"yardstick/internal/bdd"
	"yardstick/internal/core"
	"yardstick/internal/hdr"
	"yardstick/internal/jobs"
	"yardstick/internal/netmodel"
	"yardstick/internal/obs"
	"yardstick/internal/report"
	"yardstick/internal/sharded"
	"yardstick/internal/testkit"
)

// DefaultMaxBody is the request-body size cap when WithMaxBody is not
// given. Trace fragments for large networks run to a few MB of BDD
// cubes; 64 MiB leaves ample headroom.
const DefaultMaxBody int64 = 64 << 20

// Server is the HTTP coverage service. Create with New and mount via
// Handler.
type Server struct {
	mu    sync.Mutex
	net   *netmodel.Network
	trace *core.Trace
	// netFP is the loaded network's fingerprint ("" with no network),
	// set wherever net is. PUT uses it to detect a no-op re-upload,
	// PATCH to validate a delta document's base, and checkpoints to
	// stamp the trace snapshot and job records.
	netFP string
	// engine is the lazily built sharded evaluation pool for the current
	// network (nil until the first parallel /run; reset when the network
	// changes). Replicas are expensive to build, cheap to keep.
	engine *sharded.Engine
	// delta counts churn-path activity (PATCH /network applications and
	// full network resets), mirrored into the metrics registry and
	// reported raw in /stats.
	delta deltaTotals

	logger       *slog.Logger
	metrics      *obs.Registry
	started      time.Time
	maxBody      int64
	runTimeout   time.Duration
	maxWorkers   int
	snapPath     string
	snapInterval time.Duration

	// Async admission layer (admission.go, jobs.go). The queue exists
	// unconditionally — jobs simply wait until RunJobs starts workers —
	// so the /jobs API needs no "is it enabled" branch anywhere.
	jobs     *jobs.Queue
	jobsPath string // job-records snapshot, derived from snapPath
	// jobTraces holds each done job's own coverage fragment as encoded
	// trace JSON, keyed by job ID — the GET /jobs/{id}/trace export a
	// distributed coordinator collects shard results through. Entries
	// are pruned alongside the queue's retention (see storeJobTrace) and
	// are memory-only: after a restart the endpoint answers 410 Gone and
	// the coordinator re-dispatches the shard (merge is idempotent).
	jobTraces map[string][]byte
	// jobProfiles holds each finished job's span profile as encoded
	// JSON, keyed by job ID — the GET /jobs/{id}/profile export the
	// coordinator stitches into a cross-node run timeline. Same
	// lifecycle as jobTraces: memory-only, pruned with job retention.
	jobProfiles map[string][]byte
	// spanObserver, when set (WithSpanObserver), receives every request
	// root span after it ends — the test hook the span-leak suite uses
	// to assert OpenCount == 0 on all paths, panics included.
	spanObserver func(*obs.Span)
	queueDepth   int
	jobTTL      time.Duration
	maxInflight int
	inflight    atomic.Int64
	draining    atomic.Bool
	shedTotals  shedTotals

	// engineBase is the last-flushed counter baseline of the canonical
	// BDD manager. The canonical manager's movement is settled into the
	// metrics registry through exactly one path — flushCanonical, under
	// the server mutex — so scrapes and reports never double-count.
	engineBase bdd.Stats
}

// Option configures a Server.
type Option func(*Server)

// WithLogger routes request and panic logs to l (default: slog.Default).
// The same structured logger serves the middleware chain, snapshot
// recovery, and the checkpointer drain path.
func WithLogger(l *slog.Logger) Option { return func(s *Server) { s.logger = l } }

// WithMaxBody caps request-body size at n bytes (default DefaultMaxBody).
func WithMaxBody(n int64) Option { return func(s *Server) { s.maxBody = n } }

// WithRunTimeout bounds the compute-heavy endpoints (POST /run,
// GET /coverage, GET /gaps): each such request runs under a deadline of
// d on top of the client's own cancellation (r.Context()). Zero or
// negative means no server-side deadline.
func WithRunTimeout(d time.Duration) Option { return func(s *Server) { s.runTimeout = d } }

// WithWorkers caps the per-request parallelism of POST /run: a request's
// ?workers=n is clamped to this cap (default 1 — parallel runs disabled).
// Parallelism replicates the loaded network once per worker via a
// netmodel JSON round-trip, built lazily on the first parallel run and
// reused until the network changes.
func WithWorkers(n int) Option {
	return func(s *Server) {
		if n > 1 {
			s.maxWorkers = n
		}
	}
}

// WithSnapshot enables crash-safe persistence: the accumulated trace is
// checkpointed to path every interval (see RunCheckpointer) and on
// Checkpoint calls, and Restore recovers it on startup. Job records
// ride along in a sibling file (path + ".jobs") under the same network
// fingerprint, so completed async jobs survive a restart too. An
// interval <= 0 keeps the default of one minute.
func WithSnapshot(path string, interval time.Duration) Option {
	return func(s *Server) {
		s.snapPath = path
		s.jobsPath = path + ".jobs"
		if interval > 0 {
			s.snapInterval = interval
		}
	}
}

// WithJobQueue sizes the async-run admission layer: depth bounds how
// many submitted jobs may wait (a full queue sheds POST /jobs with
// 503 + Retry-After; default 64) and ttl is how long finished jobs stay
// pollable before they are swept (default 1h). The worker pool is sized
// off WithWorkers.
func WithJobQueue(depth int, ttl time.Duration) Option {
	return func(s *Server) {
		s.queueDepth = depth
		s.jobTTL = ttl
	}
}

// WithAdmission caps concurrent compute-heavy requests (POST /run,
// GET /coverage, GET /gaps, POST /jobs submissions): past the cap,
// requests are shed with 429 + Retry-After instead of queueing on the
// evaluation mutex. 0 (the default) disables the cap.
func WithAdmission(maxInflight int) Option {
	return func(s *Server) {
		if maxInflight > 0 {
			s.maxInflight = maxInflight
		}
	}
}

// WithSpanObserver registers fn to receive every request root span
// after it has ended. Spans may still be mutated by the observer's
// caller's goroutine only; treat them as read-only. Intended for tests
// asserting span hygiene (no open spans left behind on any path).
func WithSpanObserver(fn func(*obs.Span)) Option {
	return func(s *Server) { s.spanObserver = fn }
}

// New returns a server with no network loaded.
func New(opts ...Option) *Server {
	s := &Server{
		trace:        core.NewTrace(),
		jobTraces:    map[string][]byte{},
		jobProfiles:  map[string][]byte{},
		logger:       slog.Default(),
		metrics:      obs.NewRegistry(),
		started:      time.Now(),
		maxBody:      DefaultMaxBody,
		maxWorkers:   1,
		snapInterval: time.Minute,
	}
	for _, o := range opts {
		o(s)
	}
	// The queue wraps the server's own runner, so it is built after the
	// options settle sizing (workers, run-timeout, depth, TTL).
	s.jobs = jobs.New(s.runJob, jobs.Config{
		QueueDepth: s.queueDepth,
		Workers:    s.maxWorkers,
		RunTimeout: s.runTimeout,
		TTL:        s.jobTTL,
	})
	hdr.RegisterHelp(s.metrics)
	s.metrics.SetHelp(sharded.MetricRuns, "Sharded suite runs")
	s.metrics.SetHelp(sharded.MetricWorkerRuns, "Per-worker shard executions")
	s.metrics.SetHelp(sharded.MetricBudgetTrips, "Shard runs that tripped their BDD budget")
	s.metrics.SetHelp("yardstick_stage_duration_seconds", "Stage latency, by stage name")
	s.metrics.SetHelp("yardstick_http_shed_total", "Requests shed by admission control, by route and reason")
	s.metrics.SetHelp("yardstick_jobs_queue_depth", "Job-queue slots in use")
	s.metrics.SetHelp("yardstick_jobs_running", "Jobs currently executing")
	s.metrics.SetHelp("yardstick_jobs_retained", "Jobs held in memory, finished ones included")
	s.metrics.SetHelp(MetricNetworkResets, "Full network replacements that reset the trace and replica pool")
	s.metrics.SetHelp(MetricDeltaApplied, "Rule-level delta documents applied via PATCH /network")
	return s
}

// Metrics exposes the server's metrics registry (what GET /metrics
// serves) so an embedding daemon can add its own series.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// WithNetwork returns a server pre-loaded with a network.
func WithNetwork(net *netmodel.Network, opts ...Option) *Server {
	s := New(opts...)
	s.net = net
	s.netFP = net.Fingerprint()
	return s
}

// Handler returns the service's HTTP handler, wrapped in the hardening
// middleware chain (panic recovery, request logging, body-size limits).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /network", s.putNetwork)
	mux.HandleFunc("PATCH /network", s.admit("/network", s.patchNetwork))
	mux.HandleFunc("GET /network", s.getNetwork)
	mux.HandleFunc("POST /trace", s.postTrace)
	mux.HandleFunc("GET /trace", s.getTrace)
	mux.HandleFunc("DELETE /trace", s.deleteTrace)
	mux.HandleFunc("POST /run", s.admit("/run", s.postRun))
	mux.HandleFunc("POST /jobs", s.admit("/jobs", s.postJob))
	mux.HandleFunc("GET /jobs", s.listJobs)
	mux.HandleFunc("GET /jobs/{id}", s.getJob)
	mux.HandleFunc("GET /jobs/{id}/trace", s.getJobTrace)
	mux.HandleFunc("GET /jobs/{id}/profile", s.getJobProfile)
	mux.HandleFunc("DELETE /jobs/{id}", s.deleteJob)
	mux.HandleFunc("GET /coverage", s.admit("/coverage", s.getCoverage))
	mux.HandleFunc("GET /gaps", s.admit("/gaps", s.getGaps))
	mux.HandleFunc("GET /healthz", s.getHealthz)
	mux.HandleFunc("GET /readyz", s.getReadyz)
	mux.HandleFunc("GET /metrics", s.getMetrics)
	mux.HandleFunc("GET /stats", s.getStats)
	// LogRequests sits outermost so its deferred log line also covers
	// requests that panic (Recover, inside, has already answered 500 by
	// the time the line is emitted).
	return Chain(mux,
		LogRequests(s.logger),
		Recover(s.logger),
		Instrument(s.metrics),
		LimitBody(s.maxBody),
	)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// decodeError maps a request-body decode failure to a status code:
// bodies truncated by the LimitBody middleware are the client's fault
// at 413, everything else is a plain bad request.
func decodeError(w http.ResponseWriter, what string, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		httpError(w, http.StatusRequestEntityTooLarge, "parse %s: body exceeds %d bytes", what, mbe.Limit)
		return
	}
	httpError(w, http.StatusBadRequest, "parse %s: %v", what, err)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) putNetwork(w http.ResponseWriter, r *http.Request) {
	var (
		net *netmodel.Network
		err error
	)
	switch r.URL.Query().Get("format") {
	case "", "json":
		net, err = netmodel.DecodeJSON(r.Body)
	case "text":
		net, err = netmodel.ParseText(r.Body)
	default:
		httpError(w, http.StatusBadRequest, "unknown format %q", r.URL.Query().Get("format"))
		return
	}
	if err != nil {
		decodeError(w, "network", err)
		return
	}
	fp := net.Fingerprint()
	s.mu.Lock()
	defer s.mu.Unlock()
	// Idempotent re-upload: loading a byte-identical network again is a
	// no-op that keeps the accumulated trace, the replica pool, and the
	// retained job fragments — deploy pipelines PUT unconditionally, and
	// coverage must not evaporate when nothing changed.
	if s.net != nil && fp == s.netFP {
		body := statsBody(s.net, fp)
		body.Unchanged = true
		writeJSON(w, http.StatusOK, body)
		return
	}
	if s.net != nil {
		s.delta.networkResets++
		s.metrics.Counter(MetricNetworkResets).Inc()
	}
	s.net = net
	s.netFP = fp
	s.trace = core.NewTrace()         // a new network invalidates the old trace
	s.engine = nil                    // and the old replica pool
	s.jobTraces = map[string][]byte{} // job fragments decode against the old network
	s.jobProfiles = map[string][]byte{}
	s.engineBase = bdd.Stats{}        // fresh manager, fresh counter baseline
	writeJSON(w, http.StatusOK, statsBody(net, fp))
}

// NetworkStats is the GET /network (and PUT /network) response body.
type NetworkStats struct {
	Family  string `json:"family"`
	Devices int    `json:"devices"`
	Ifaces  int    `json:"ifaces"`
	Links   int    `json:"links"`
	Rules   int    `json:"rules"`
	// Fingerprint identifies the loaded network — the base a PATCH
	// /network delta document must name.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Unchanged marks a PUT that matched the loaded network's
	// fingerprint and therefore kept the trace and replica pool.
	Unchanged bool `json:"unchanged,omitempty"`
}

func statsBody(net *netmodel.Network, fp string) NetworkStats {
	st := net.Stats()
	return NetworkStats{
		Family:      net.Family().String(),
		Devices:     st.Devices,
		Ifaces:      st.Ifaces,
		Links:       st.Links,
		Rules:       st.Rules,
		Fingerprint: fp,
	}
}

func (s *Server) getNetwork(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.net == nil {
		httpError(w, http.StatusNotFound, "no network loaded")
		return
	}
	writeJSON(w, http.StatusOK, statsBody(s.net, s.netFP))
}

// TraceStats is the POST /trace response body: the size of the
// accumulated trace after the merge.
type TraceStats struct {
	Locations   int `json:"locations"`
	MarkedRules int `json:"markedRules"`
}

func (s *Server) postTrace(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.net == nil {
		httpError(w, http.StatusConflict, "no network loaded")
		return
	}
	frag, err := core.DecodeTraceJSON(s.net, r.Body)
	if err != nil {
		decodeError(w, "trace", err)
		return
	}
	s.trace.Merge(frag)
	st := s.trace.Stats()
	writeJSON(w, http.StatusOK, TraceStats{
		Locations:   st.Locations,
		MarkedRules: st.MarkedRules,
	})
}

func (s *Server) getTrace(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Buffer the encoding so a failure can still produce a clean 500
	// instead of corrupting an already-started 200 response.
	var buf bytes.Buffer
	if err := s.trace.EncodeJSON(&buf); err != nil {
		httpError(w, http.StatusInternalServerError, "encode trace: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes())
}

func (s *Server) deleteTrace(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.trace = core.NewTrace()
	w.WriteHeader(http.StatusNoContent)
}

// RunResult is one element of the POST /run response body.
type RunResult struct {
	Name     string   `json:"name"`
	Kind     string   `json:"kind"`
	Checks   int      `json:"checks"`
	Pass     bool     `json:"pass"`
	Failures []string `json:"failures,omitempty"`
	// Errored marks a test that terminated abnormally (panic, budget,
	// cancellation) — a third state distinct from pass/fail; Error
	// carries the reason.
	Errored bool   `json:"errored,omitempty"`
	Error   string `json:"error,omitempty"`
}

// endSpan ends a request root span (EndStage feeds the stage latency
// histogram) and hands it to the WithSpanObserver hook, which sees it
// only after it is settled. The single finish path for request roots,
// deferred so panic and cancellation exits still pass through it.
func (s *Server) endSpan(sp *obs.Span) {
	sp.EndStage()
	if s.spanObserver != nil && sp != nil {
		s.spanObserver(sp)
	}
}

// evalContext derives the evaluation context for a compute-heavy
// endpoint: the request context (client disconnection cancels the
// work) bounded by the WithRunTimeout deadline.
func (s *Server) evalContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.runTimeout > 0 {
		return context.WithTimeout(r.Context(), s.runTimeout)
	}
	return context.WithCancel(r.Context())
}

// abortError maps an aborted evaluation to a response. Cancellation and
// deadline map to 503 (the work was valid, the server declined to finish
// it); budget exhaustion too, with the budget spelled out so operators
// can retune limits. The Retry-After hint keeps the 503 within the
// backpressure contract: every refusal tells the client when to come
// back.
func abortError(w http.ResponseWriter, what string, err error) {
	w.Header().Set("Retry-After", strconv.Itoa(RetryAfterInflight))
	httpError(w, http.StatusServiceUnavailable, "%s aborted: %v", what, err)
}

func (s *Server) postRun(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.net == nil {
		httpError(w, http.StatusConflict, "no network loaded")
		return
	}
	suite, err := builtinSuite(r.URL.Query().Get("suite"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	workers, err := s.requestWorkers(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel := s.evalContext(r)
	defer cancel()
	// The request span carries the metrics registry into the evaluation:
	// sharded workers flush their per-run BDD deltas and budget trips
	// through it, and its EndStage feeds the stage latency histogram.
	sp := obs.NewRoot("service.run", s.metrics)
	defer s.endSpan(sp)
	ctx = obs.ContextWithSpan(ctx, sp)
	out, rerr := s.runSuiteLocked(ctx, suite, workers, s.trace)
	if rerr != nil {
		// Partial coverage already merged into the trace is kept: the
		// trace is a monotonic union and every marked set was really
		// exercised. The run itself reports the abort.
		abortError(w, "run", rerr)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// runSuiteLocked evaluates suite (sequentially or sharded across
// workers) against the loaded network, accumulating coverage into the
// destination trace, and converts the results to their wire form. The
// shared core of POST /run (into the server trace) and the async job
// runner (into a per-job fragment that is then folded into the server
// trace — see runJob). into must live in the canonical space. Callers
// hold s.mu and have attached any span to ctx.
func (s *Server) runSuiteLocked(ctx context.Context, suite testkit.Suite, workers int, into *core.Trace) ([]RunResult, error) {
	// The evaluation stage gets its own child span so even a sequential
	// run (workers=1, the common dispatch shape) exports a worker-side
	// stage beneath the request root — what a coordinator's cross-node
	// timeline links to. The sharded engine's build/shard children nest
	// beneath it through the re-wrapped context.
	eval := obs.SpanFromContext(ctx).Child("service.evaluate")
	eval.Set("workers", int64(workers))
	defer eval.EndStage()
	ctx = obs.ContextWithSpan(ctx, eval)
	var results []testkit.Result
	if workers > 1 {
		var err error
		results, err = s.runSharded(ctx, suite, workers, into)
		if err != nil {
			return nil, err
		}
	} else {
		defer s.net.Space.WatchContext(ctx)()
		gerr := bdd.Guard(func() { results = suite.Run(ctx, s.net, into) })
		if gerr == nil {
			gerr = ctx.Err()
		}
		if gerr != nil {
			return nil, gerr
		}
	}
	var out []RunResult
	for _, res := range results {
		rr := RunResult{
			Name:    res.Name,
			Kind:    string(res.Kind),
			Checks:  res.Checks,
			Pass:    res.Pass(),
			Errored: res.Errored(),
			Error:   res.Err,
		}
		for i, f := range res.Failures {
			if i == 10 {
				rr.Failures = append(rr.Failures, fmt.Sprintf("... %d more", len(res.Failures)-10))
				break
			}
			rr.Failures = append(rr.Failures, fmt.Sprintf("%s: %s", s.net.Device(f.Device).Name, f.Detail))
		}
		out = append(out, rr)
	}
	return out, nil
}

// builtinSuite resolves the suite names the CLI tools also accept.
func builtinSuite(arg string) (testkit.Suite, error) {
	return testkit.BuiltinSuite(arg)
}

// parseWorkers resolves a ?workers query value: absent means
// sequential (1); 0 asks for the server's cap (resolved by
// clampWorkers); negatives and non-integers are rejected.
func parseWorkers(q string) (int, error) {
	if q == "" {
		return 1, nil
	}
	n, err := strconv.Atoi(q)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("workers: %q is not a non-negative integer", q)
	}
	return n, nil
}

// clampWorkers maps a requested worker count to the effective one:
// 0 means the WithWorkers cap, everything else is clamped to [1, cap].
func (s *Server) clampWorkers(n int) int {
	if n == 0 || n > s.maxWorkers {
		n = s.maxWorkers
	}
	if n < 1 {
		n = 1
	}
	return n
}

// requestWorkers resolves the ?workers query parameter against the
// WithWorkers cap.
func (s *Server) requestWorkers(r *http.Request) (int, error) {
	n, err := parseWorkers(r.URL.Query().Get("workers"))
	if err != nil {
		return 0, err
	}
	return s.clampWorkers(n), nil
}

// runSharded evaluates suite across up to n workers of the lazily built
// replica pool and merges the coverage into the destination trace. On
// error the partial merged coverage is kept (monotonic union) and the
// error describes the abort.
func (s *Server) runSharded(ctx context.Context, suite testkit.Suite, n int, into *core.Trace) ([]testkit.Result, error) {
	if s.engine == nil {
		// Build nil selects clone-based replicas: each worker space is an
		// O(size) arena snapshot of the canonical network, carrying its
		// match sets by node index.
		eng, err := sharded.New(ctx, s.net, sharded.Config{
			Workers: s.maxWorkers,
		})
		if err != nil {
			return nil, fmt.Errorf("building worker pool: %w", err)
		}
		s.engine = eng
	}
	res, rerr := s.engine.RunWorkers(ctx, suite, n)
	// res.Trace is already in the canonical space; folding it into the
	// accumulated trace is same-space unions. Guard anyway: the canonical
	// manager could have been poisoned by an earlier budgeted request.
	merr := bdd.Guard(func() { into.Merge(res.Trace) })
	if rerr != nil {
		return res.Results, rerr
	}
	return res.Results, merr
}

// CoverageReport is the GET /coverage response body.
type CoverageReport struct {
	Total  MetricsRow   `json:"total"`
	ByRole []MetricsRow `json:"byRole"`
	// Engine reports the symbolic engine's health counters, so budget
	// tuning and degradation incidents are diagnosable from responses.
	Engine EngineStats `json:"engine"`
}

// EngineStats mirrors bdd.Stats for the wire: node counts, the
// unique table's geometry (slots and load factor — a load pinned near
// 0.75 right after a resize is normal; a table far larger than the node
// count suggests a leaked manager), memo-array sizes, and op-cache
// counters. When a sharded worker pool exists, additive counters
// (nodes, ops, cache hits/misses, resizes, memo sizes) aggregate the
// canonical manager plus every replica, PeakNodes is the maximum over
// the managers, and table geometry stays the canonical manager's;
// Workers says how many managers contributed.
type EngineStats struct {
	Workers        int     `json:"workers"`
	Nodes          int     `json:"nodes"`
	PeakNodes      int     `json:"peakNodes"`
	UniqueSlots    int     `json:"uniqueSlots"`
	UniqueLoad     float64 `json:"uniqueLoad"`
	CacheSlots     int     `json:"cacheSlots"`
	SatFracEntries int     `json:"satFracEntries"`
	SatCntEntries  int     `json:"satCntEntries"`
	Ops            uint64  `json:"ops"`
	CacheHits      uint64  `json:"cacheHits"`
	CacheMisses    uint64  `json:"cacheMisses"`
	UniqueResizes  uint64  `json:"uniqueResizes"`
	CacheResizes   uint64  `json:"cacheResizes"`
}

func toEngineStats(st bdd.Stats) EngineStats {
	return EngineStats{
		Workers:        1,
		Nodes:          st.Nodes,
		PeakNodes:      st.PeakNodes,
		UniqueSlots:    st.UniqueSlots,
		UniqueLoad:     st.UniqueLoad,
		CacheSlots:     st.CacheSlots,
		SatFracEntries: st.SatFracEntries,
		SatCntEntries:  st.SatCntEntries,
		Ops:            st.Ops,
		CacheHits:      st.CacheHits,
		CacheMisses:    st.CacheMisses,
		UniqueResizes:  st.UniqueResizes,
		CacheResizes:   st.CacheResizes,
	}
}

// engineStatsLocked aggregates the canonical manager and, when the
// sharded pool exists, every replica manager. Callers hold s.mu.
func (s *Server) engineStatsLocked() EngineStats {
	es := toEngineStats(s.net.Space.EngineStats())
	if s.engine == nil {
		return es
	}
	for _, st := range s.engine.ReplicaStats() {
		es.Workers++
		es.Nodes += st.Nodes
		es.Ops += st.Ops
		es.CacheHits += st.CacheHits
		es.CacheMisses += st.CacheMisses
		es.UniqueResizes += st.UniqueResizes
		es.CacheResizes += st.CacheResizes
		es.SatFracEntries += st.SatFracEntries
		es.SatCntEntries += st.SatCntEntries
		if st.PeakNodes > es.PeakNodes {
			es.PeakNodes = st.PeakNodes
		}
	}
	return es
}

// MetricsRow is one group's coverage metrics.
type MetricsRow struct {
	Group            string  `json:"group"`
	Devices          int     `json:"devices"`
	DeviceFractional float64 `json:"deviceFractional"`
	IfaceFractional  float64 `json:"ifaceFractional"`
	RuleFractional   float64 `json:"ruleFractional"`
	RuleWeighted     float64 `json:"ruleWeighted"`
}

func toMetricsRow(m report.Metrics) MetricsRow {
	return MetricsRow{
		Group:            m.Label,
		Devices:          m.Devices,
		DeviceFractional: m.DeviceFractional,
		IfaceFractional:  m.IfaceFractional,
		RuleFractional:   m.RuleFractional,
		RuleWeighted:     m.RuleWeighted,
	}
}

func (s *Server) getCoverage(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.net == nil {
		httpError(w, http.StatusConflict, "no network loaded")
		return
	}
	ctx, cancel := s.evalContext(r)
	defer cancel()
	defer s.net.Space.WatchContext(ctx)()
	start := time.Now()
	var body CoverageReport
	sp := obs.NewRoot("service.coverage", s.metrics)
	gerr := bdd.Guard(func() {
		cov := core.NewCoverage(s.net, s.trace)
		body.Total = toMetricsRow(report.Total(cov, "total"))
		seen := map[netmodel.Role]bool{}
		var roles []netmodel.Role
		for _, d := range s.net.Devices {
			if !seen[d.Role] {
				seen[d.Role] = true
				roles = append(roles, d.Role)
			}
		}
		for _, row := range report.ByRole(cov, roles) {
			body.ByRole = append(body.ByRole, toMetricsRow(row))
		}
	})
	s.endSpan(sp)
	compute := time.Since(start)
	if gerr == nil {
		// The engine polls its watched context every 1024 ops; small
		// computations can finish between polls, so backstop here.
		gerr = ctx.Err()
	}
	if gerr != nil {
		abortError(w, "coverage", gerr)
		return
	}
	body.Engine = s.engineStatsLocked()
	// Server-Timing (set before writeJSON starts the response): how the
	// request's time split between the coverage computation and the
	// stats/serialization tail.
	w.Header().Set("Server-Timing", fmt.Sprintf("compute;dur=%.2f, stats;dur=%.2f",
		float64(compute.Microseconds())/1000,
		float64(time.Since(start).Microseconds())/1000-float64(compute.Microseconds())/1000))
	writeJSON(w, http.StatusOK, body)
}

// getMetrics serves the Prometheus text exposition. The canonical
// manager's counters are settled into the registry first, so a scrape
// always reflects completed work, whichever endpoint performed it.
func (s *Server) getMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.flushCanonicalLocked()
	reg := s.metrics
	s.mu.Unlock()
	s.flushJobGauges()
	w.Header().Set("Content-Type", obs.ContentType)
	reg.WritePrometheus(w)
}

// flushCanonicalLocked settles the canonical BDD manager's counter
// movement since the last flush into the metrics registry. The single
// flush path for the canonical manager; callers hold s.mu.
func (s *Server) flushCanonicalLocked() {
	if s.net == nil {
		return
	}
	s.engineBase = s.net.Space.FlushStats(nil, s.metrics, s.engineBase)
	s.metrics.Gauge("yardstick_engine_nodes").Set(float64(s.net.Space.EngineStats().Nodes))
}

// StatsReport is the GET /stats response body: debug vars for humans
// and dashboards that want JSON rather than the Prometheus exposition.
type StatsReport struct {
	UptimeSeconds  float64      `json:"uptimeSeconds"`
	Goroutines     int          `json:"goroutines"`
	NetworkLoaded  bool         `json:"networkLoaded"`
	Network        NetworkStats `json:"network,omitempty"`
	TraceLocations int          `json:"traceLocations"`
	MarkedRules    int          `json:"markedRules"`
	Engine         EngineStats  `json:"engine,omitempty"`
	// Admission-layer health: job-queue depth and counters, currently
	// admitted heavy requests, draining state, and shed totals by
	// reason.
	Jobs     jobs.Stats `json:"jobs"`
	InFlight int64      `json:"inflight"`
	Draining bool       `json:"draining"`
	Shed     ShedReport `json:"shed"`
	// Delta reports churn-path totals: applied delta documents, full
	// network resets, and the rule/mark movement deltas caused.
	Delta DeltaReport `json:"delta"`
	// Routes summarizes per-route request latency — count plus p50/p99
	// quantile estimates from the same histogram /metrics exposes.
	Routes  []RouteStat  `json:"routes,omitempty"`
	Metrics []obs.Metric `json:"metrics"`
}

// RouteStat is one route's latency summary in GET /stats: request count
// and interpolated quantiles (seconds) from the Instrument middleware's
// per-route histogram.
type RouteStat struct {
	Route string  `json:"route"`
	Count uint64  `json:"count"`
	P50   float64 `json:"p50Seconds"`
	P99   float64 `json:"p99Seconds"`
}

// routeStats summarizes the per-route latency histograms. Routes with
// no observations yet are omitted.
func (s *Server) routeStats() []RouteStat {
	var out []RouteStat
	s.metrics.VisitHistograms("yardstick_http_request_duration_seconds", func(labels string, h *obs.Histogram) {
		if h.Count() == 0 {
			return
		}
		route := ""
		if pairs, err := obs.ParseLabelSig(labels); err == nil {
			for _, p := range pairs {
				if p[0] == "route" {
					route = p[1]
				}
			}
		}
		out = append(out, RouteStat{
			Route: route,
			Count: h.Count(),
			P50:   h.Quantile(0.50),
			P99:   h.Quantile(0.99),
		})
	})
	return out
}

func (s *Server) getStats(w http.ResponseWriter, r *http.Request) {
	s.flushJobGauges()
	s.mu.Lock()
	body := StatsReport{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Goroutines:    runtime.NumGoroutine(),
		NetworkLoaded: s.net != nil,
		Jobs:          s.jobs.Stats(),
		InFlight:      s.inflight.Load(),
		Draining:      s.draining.Load(),
		Shed:          s.shedTotals.report(),
		Delta:         s.delta.report(),
		Routes:        s.routeStats(),
	}
	ts := s.trace.Stats()
	body.TraceLocations = ts.Locations
	body.MarkedRules = ts.MarkedRules
	if s.net != nil {
		body.Network = statsBody(s.net, s.netFP)
		body.Engine = s.engineStatsLocked()
		s.flushCanonicalLocked()
	}
	body.Metrics = s.metrics.Snapshot()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, body)
}

// Gap is one element of the GET /gaps response body.
type Gap struct {
	Origin string `json:"origin"`
	Role   string `json:"role"`
	Count  int    `json:"count"`
}

func (s *Server) getGaps(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.net == nil {
		httpError(w, http.StatusConflict, "no network loaded")
		return
	}
	ctx, cancel := s.evalContext(r)
	defer cancel()
	defer s.net.Space.WatchContext(ctx)()
	out := []Gap{}
	gerr := bdd.Guard(func() {
		cov := core.NewCoverage(s.net, s.trace)
		for _, g := range report.Gaps(cov) {
			out = append(out, Gap{Origin: string(g.Origin), Role: string(g.Role), Count: g.Count})
		}
	})
	if gerr == nil {
		gerr = ctx.Err()
	}
	if gerr != nil {
		abortError(w, "gap report", gerr)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) getHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// ReadyReport is the GET /readyz response body. When unready, Reason is
// one of "draining" (shutdown has begun — route elsewhere),
// "queue_saturated" (the job queue has no admission headroom), or
// "no_network" (nothing loaded yet).
type ReadyReport struct {
	Status string `json:"status"`
	Reason string `json:"reason,omitempty"`
}

// getReadyz reports readiness with an explicit reason body, so load
// balancers and operators can tell "never came up" from "overloaded"
// from "going away" without reading logs.
func (s *Server) getReadyz(w http.ResponseWriter, r *http.Request) {
	reason := ""
	switch {
	case s.draining.Load():
		reason = "draining"
	case func() bool { s.mu.Lock(); defer s.mu.Unlock(); return s.net == nil }():
		reason = "no_network"
	case s.jobs.Stats().Saturated():
		reason = "queue_saturated"
	}
	if reason != "" {
		if reason != "no_network" {
			// Transient unreadiness comes with a retry hint; an unloaded
			// network needs an operator, not a retry loop.
			w.Header().Set("Retry-After", strconv.Itoa(RetryAfterQueueFull))
		}
		writeJSON(w, http.StatusServiceUnavailable, ReadyReport{Status: "unready", Reason: reason})
		return
	}
	writeJSON(w, http.StatusOK, ReadyReport{Status: "ready"})
}

// Checkpoint writes the current trace and job records to their snapshot
// files (atomic rename; see core.SaveSnapshotArena and jobs.Save),
// stamped with the network fingerprint. The trace goes out in the binary
// arena codec — sets persisted as a BDD dump, no cube extraction — and
// Restore reads either codec. Files stamped with another fingerprint
// version (or another network) are discarded on Restore, not upgraded.
// It is a no-op without WithSnapshot or before a network is loaded.
func (s *Server) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.snapPath == "" || s.net == nil {
		return nil
	}
	if err := core.SaveSnapshotArena(s.snapPath, s.net, s.trace); err != nil {
		return err
	}
	return s.checkpointJobsLocked()
}

// Restore recovers the trace from the snapshot file. It reports whether
// a snapshot was merged: a missing file or a fingerprint mismatch
// (snapshot recorded against a different network) is not an error — the
// stale snapshot is discarded and the server starts from the current
// trace. It is a no-op without WithSnapshot or before a network is
// loaded.
func (s *Server) Restore() (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.snapPath == "" || s.net == nil {
		return false, nil
	}
	// Job records recover independently of the trace: a missing or
	// mismatched trace snapshot must not discard completed job results,
	// and vice versa.
	if _, err := s.restoreJobsLocked(); err != nil {
		return false, fmt.Errorf("restore job records: %w", err)
	}
	snap, err := core.LoadSnapshot(s.snapPath, s.net)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return false, nil
	case errors.Is(err, core.ErrSnapshotMismatch):
		s.logger.Warn("snapshot recorded against a different network; discarding", "path", s.snapPath)
		return false, nil
	case err != nil:
		return false, err
	}
	s.trace.Merge(snap)
	return true, nil
}

// RunCheckpointer checkpoints every WithSnapshot interval until ctx is
// done, then takes a final checkpoint so shutdown never loses trace
// state. It returns immediately when persistence is not configured.
func (s *Server) RunCheckpointer(ctx context.Context) {
	s.mu.Lock()
	path, interval := s.snapPath, s.snapInterval
	s.mu.Unlock()
	if path == "" {
		return
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			if err := s.Checkpoint(); err != nil {
				s.logger.Error("checkpoint failed", "err", err)
			}
		case <-ctx.Done():
			if err := s.Checkpoint(); err != nil {
				s.logger.Error("final checkpoint failed", "err", err)
			}
			return
		}
	}
}
