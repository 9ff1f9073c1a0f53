package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"runtime/pprof"
	"strconv"

	"yardstick/internal/bdd"
	"yardstick/internal/core"
	"yardstick/internal/jobs"
	"yardstick/internal/obs"
	"yardstick/internal/testkit"
)

// The asynchronous run API. POST /run holds the connection for the
// whole evaluation; POST /jobs instead answers 202 immediately with a
// job the caller polls (or cancels), which is what lets the admission
// layer bound the daemon's concurrent work: the queue is the buffer,
// its depth is the backpressure signal, and a full queue sheds with
// 503 + Retry-After instead of stacking goroutines on the evaluation
// mutex.
//
//	POST   /jobs?suite=a,b[&workers=n]   submit; 202 + Location: /jobs/{id}
//	GET    /jobs                         list retained jobs (oldest first;
//	                                     ?state= filters, ?offset=/?limit=
//	                                     page — the response is hard-capped
//	                                     and carries X-Total-Count plus a
//	                                     Link rel="next" header when more
//	                                     rows remain)
//	GET    /jobs/{id}                    poll one job; Result set once done
//	GET    /jobs/{id}/trace              a done job's own coverage fragment
//	                                     as trace JSON (409 until done, 410
//	                                     once evicted or after a restart)
//	DELETE /jobs/{id}                    cancel a queued or running job
//
// Completed jobs are retained for the configured TTL and — when
// WithSnapshot is active — persisted next to the trace snapshot under
// the same network fingerprint, so a poller can fetch a finished job's
// result even across a daemon restart. Jobs caught queued or running
// by a restart come back failed with an explicit reason.

// JobStatus is the wire form of an async job (the POST /jobs and GET
// /jobs/{id} body).
type JobStatus = jobs.Job

// JobList is the GET /jobs response body.
type JobList struct {
	Jobs  []JobStatus `json:"jobs"`
	Stats jobs.Stats  `json:"stats"`
}

// runJob is the queue's Runner: it resolves the suite, serializes on
// the evaluation mutex like every synchronous endpoint, and returns the
// run results as the job's opaque result payload. The queue has already
// bounded ctx with the run-timeout and wires DELETE /jobs/{id} into its
// cancellation.
//
// Unlike POST /run, the job records its coverage into a private
// fragment first and only then folds the fragment into the accumulated
// trace — both live in the canonical space, so the fold is a cheap
// same-space union. The fragment is what GET /jobs/{id}/trace exports:
// a distributed coordinator needs exactly this shard's contribution,
// not whatever else the node has accumulated.
func (s *Server) runJob(ctx context.Context, spec jobs.Spec) (json.RawMessage, error) {
	// The goroutine runs under pprof labels for the job (and, when this
	// is a shard of a distributed run, the run and shard IDs), so a
	// -pprof-addr CPU profile attributes samples to specific runs.
	labels := []string{"job", jobs.JobID(ctx)}
	if spec.RunID != "" {
		labels = append(labels, "run", spec.RunID)
	}
	if spec.Shard != "" {
		labels = append(labels, "shard", spec.Shard)
	}
	var raw json.RawMessage
	var err error
	pprof.Do(ctx, pprof.Labels(labels...), func(ctx context.Context) {
		raw, err = s.runJobLabeled(ctx, spec)
	})
	return raw, err
}

// runJobLabeled is runJob's body, running under the job's pprof labels.
func (s *Server) runJobLabeled(ctx context.Context, spec jobs.Spec) (json.RawMessage, error) {
	suite, err := testkit.BuiltinSuite(spec.Suites)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.net == nil {
		return nil, errors.New("no network loaded")
	}
	workers := s.clampWorkers(spec.Workers)
	jobID := jobs.JobID(ctx)
	sp := obs.NewRoot("service.job", s.metrics)
	sp.SetTag("job", jobID)
	if spec.RunID != "" {
		sp.SetTag("run", spec.RunID)
		s.logger.Info("running distributed shard",
			"job", jobID, "run", spec.RunID, "shard", spec.Shard)
	}
	if spec.Shard != "" {
		sp.SetTag("shard", spec.Shard)
	}
	// One deferred finish path: end the span, store its profile for
	// GET /jobs/{id}/profile (even for aborted runs — a partial profile
	// still explains where the time went), then hand it to the observer.
	defer func() {
		sp.EndStage()
		s.storeJobProfileLocked(jobID, sp)
		if s.spanObserver != nil {
			s.spanObserver(sp)
		}
	}()
	ctx = obs.ContextWithSpan(ctx, sp)
	frag := core.NewTrace()
	out, err := s.runSuiteLocked(ctx, suite, workers, frag)
	// Whatever coverage the run managed to record is kept, even when the
	// run aborted: the trace is a monotonic union. Guarded — folding is
	// same-space BDD unions and the manager may have been poisoned by a
	// budget trip during the run.
	if merr := bdd.Guard(func() { s.trace.Merge(frag) }); err == nil {
		err = merr
	}
	if err != nil {
		return nil, fmt.Errorf("run aborted: %w", err)
	}
	if err := s.storeJobTraceLocked(jobID, frag); err != nil {
		return nil, fmt.Errorf("encode job trace: %w", err)
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return nil, fmt.Errorf("encode results: %w", err)
	}
	return raw, nil
}

// storeJobTraceLocked serializes a finished job's coverage fragment for
// GET /jobs/{id}/trace and prunes artifacts whose jobs the queue no
// longer retains, so the artifact map is bounded by job retention.
// Cube extraction is BDD-manager work; callers hold s.mu.
func (s *Server) storeJobTraceLocked(id string, frag *core.Trace) error {
	if id == "" {
		return nil // not running under the job queue (tests driving runJob directly)
	}
	var buf bytes.Buffer
	if err := frag.EncodeJSON(&buf); err != nil {
		return err
	}
	for old := range s.jobTraces {
		if _, ok := s.jobs.Get(old); !ok {
			delete(s.jobTraces, old)
		}
	}
	s.jobTraces[id] = buf.Bytes()
	return nil
}

// storeJobProfileLocked serializes a finished job's span profile for
// GET /jobs/{id}/profile, pruning entries whose jobs the queue no
// longer retains. Callers hold s.mu.
func (s *Server) storeJobProfileLocked(id string, sp *obs.Span) {
	if id == "" || sp == nil {
		return
	}
	var buf bytes.Buffer
	if err := sp.Profile().EncodeJSON(&buf); err != nil {
		s.logger.Error("encoding job span profile", "job", id, "err", err)
		return
	}
	for old := range s.jobProfiles {
		if _, ok := s.jobs.Get(old); !ok {
			delete(s.jobProfiles, old)
		}
	}
	s.jobProfiles[id] = buf.Bytes()
}

// getJobProfile serves a finished job's span profile as JSON — the
// worker-side half of a distributed run's timeline. Same ladder as the
// trace artifact: 404 unknown, 409 + Retry-After while the job still
// runs, 410 once the profile has been evicted or lost to a restart.
// Unlike the trace, failed and cancelled jobs do serve their (partial)
// profile: a timeline that explains where an aborted shard's time went
// is exactly what the abort investigation needs.
func (s *Server) getJobProfile(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobs.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	if !j.State.Terminal() {
		w.Header().Set("Retry-After", strconv.Itoa(RetryAfterInflight))
		httpError(w, http.StatusConflict, "job %s is %s; profile available once finished", id, j.State)
		return
	}
	s.mu.Lock()
	data, ok := s.jobProfiles[id]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusGone, "job %s profile no longer available (evicted or daemon restarted)", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// getJobTrace serves a done job's own coverage fragment as trace JSON.
// The status codes draw the coordinator's re-dispatch map: 404 means
// the job never existed here (or was swept — resubmit), 409 means poll
// again (the job is not done), and 410 means the result is done but
// the fragment is gone (artifacts are memory-only; a restarted daemon
// keeps the job record, not the trace) — re-run the shard, the merge
// being idempotent makes that exact.
func (s *Server) getJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobs.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	if !j.State.Terminal() {
		w.Header().Set("Retry-After", strconv.Itoa(RetryAfterInflight))
		httpError(w, http.StatusConflict, "job %s is %s; trace available once done", id, j.State)
		return
	}
	if j.State != jobs.StateDone {
		httpError(w, http.StatusConflict, "job %s ended %s; no trace", id, j.State)
		return
	}
	s.mu.Lock()
	data, ok := s.jobTraces[id]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusGone, "job %s trace no longer available (evicted or daemon restarted); re-run the shard", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// Run-context propagation headers. The coordinator mints a run ID per
// distributed run and a shard ID per dispatch and sends both on every
// job submission; the worker threads them through the job record into
// its span tags, log lines, and pprof labels.
const (
	HeaderRunID   = "X-Run-Id"
	HeaderShardID = "X-Shard-Id"
)

// runContextValue validates one run-context header value: at most 64
// bytes of [A-Za-z0-9._:/-]. Anything else is treated as absent — these
// values become observability identifiers, not free-form data.
func runContextValue(v string) string {
	if v == "" || len(v) > 64 {
		return ""
	}
	for i := 0; i < len(v); i++ {
		c := v[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == ':' || c == '/' || c == '-':
		default:
			return ""
		}
	}
	return v
}

func (s *Server) postJob(w http.ResponseWriter, r *http.Request) {
	// Validate up front so a bad suite or workers value fails the submit
	// with a 400 now, not the job with a failure later.
	if _, err := testkit.BuiltinSuite(r.URL.Query().Get("suite")); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	workers, err := parseWorkers(r.URL.Query().Get("workers"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j, err := s.jobs.Submit(jobs.Spec{
		Suites:  r.URL.Query().Get("suite"),
		Workers: workers,
		// Run context rides in on headers (the coordinator's
		// client.ContextWithHeader channel, extending the X-Request-Id
		// plumbing); the values reach span tags, log lines, and pprof
		// labels, so hostile bytes are rejected rather than carried.
		RunID: runContextValue(r.Header.Get(HeaderRunID)),
		Shard: runContextValue(r.Header.Get(HeaderShardID)),
	})
	if errors.Is(err, jobs.ErrQueueFull) {
		s.shedTotals.QueueFull.Add(1)
		s.shed(w, "/jobs", "queue_full", http.StatusServiceUnavailable,
			RetryAfterQueueFull, "job queue full (depth %d)", s.jobs.Config().QueueDepth)
		return
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, "submit: %v", err)
		return
	}
	w.Header().Set("Location", "/jobs/"+j.ID)
	writeJSON(w, http.StatusAccepted, j)
}

// Job-list paging bounds. TTL-retained jobs accumulate between sweeps,
// so the response is hard-capped: DefaultJobsPage rows unless ?limit=
// asks for fewer (or more, up to MaxJobsPage). X-Total-Count always
// carries the filtered total and a Link rel="next" header points at the
// next page while rows remain, so a coordinator can page the whole list
// without ever provoking an unbounded response.
const (
	DefaultJobsPage = 100
	MaxJobsPage     = 500
)

// listQuery is the parsed GET /jobs query: an optional state filter and
// an offset/limit window.
type listQuery struct {
	state         jobs.State // "" = all
	offset, limit int
}

func parseListQuery(r *http.Request) (listQuery, error) {
	q := listQuery{limit: DefaultJobsPage}
	if v := r.URL.Query().Get("state"); v != "" {
		switch st := jobs.State(v); st {
		case jobs.StateQueued, jobs.StateRunning, jobs.StateDone, jobs.StateFailed, jobs.StateCancelled:
			q.state = st
		default:
			return q, fmt.Errorf("state: unknown state %q", v)
		}
	}
	if v := r.URL.Query().Get("offset"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return q, fmt.Errorf("offset: %q is not a non-negative integer", v)
		}
		q.offset = n
	}
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return q, fmt.Errorf("limit: %q is not a positive integer", v)
		}
		q.limit = min(n, MaxJobsPage)
	}
	return q, nil
}

func (s *Server) listJobs(w http.ResponseWriter, r *http.Request) {
	q, err := parseListQuery(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	all := s.jobs.Jobs()
	if q.state != "" {
		kept := all[:0]
		for _, j := range all {
			if j.State == q.state {
				kept = append(kept, j)
			}
		}
		all = kept
	}
	total := len(all)
	w.Header().Set("X-Total-Count", strconv.Itoa(total))
	start := min(q.offset, total)
	end := min(start+q.limit, total)
	if end < total {
		next := fmt.Sprintf("/jobs?offset=%d&limit=%d", end, q.limit)
		if q.state != "" {
			next += "&state=" + string(q.state)
		}
		w.Header().Set("Link", fmt.Sprintf("<%s>; rel=%q", next, "next"))
	}
	writeJSON(w, http.StatusOK, JobList{Jobs: all[start:end], Stats: s.jobs.Stats()})
}

func (s *Server) getJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j)
}

func (s *Server) deleteJob(w http.ResponseWriter, r *http.Request) {
	j, err := s.jobs.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		httpError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
	case errors.Is(err, jobs.ErrFinished):
		httpError(w, http.StatusConflict, "job %s already %s", j.ID, j.State)
	case err != nil:
		httpError(w, http.StatusInternalServerError, "cancel: %v", err)
	default:
		writeJSON(w, http.StatusOK, j)
	}
}

// RunJobs runs the job queue's worker pool until ctx is cancelled and
// every worker has exited — the same blocking lifecycle shape as
// RunCheckpointer. The daemon runs it in a goroutine and waits for it
// before the final checkpoint, so persisted job states are settled.
func (s *Server) RunJobs(ctx context.Context) {
	s.jobs.Start(ctx)
	s.jobs.Wait()
}

// JobStats exposes the queue's health counters (also served inside
// GET /stats).
func (s *Server) JobStats() jobs.Stats { return s.jobs.Stats() }

// flushJobGauges refreshes the queue-health gauges in the metrics
// registry; called at scrape time so /metrics always reflects the
// current queue shape.
func (s *Server) flushJobGauges() {
	st := s.jobs.Stats()
	s.metrics.Gauge("yardstick_jobs_queue_depth").Set(float64(st.Depth))
	s.metrics.Gauge("yardstick_jobs_running").Set(float64(st.Running))
	s.metrics.Gauge("yardstick_jobs_retained").Set(float64(st.Retained))
}

// checkpointJobsLocked persists the job records next to the trace
// snapshot under the same network fingerprint. Callers hold s.mu.
func (s *Server) checkpointJobsLocked() error {
	if s.jobsPath == "" || s.net == nil {
		return nil
	}
	return jobs.Save(s.jobsPath, s.netFP, s.jobs.Records())
}

// restoreJobsLocked recovers persisted job records. Missing files and
// fingerprint mismatches are tolerated (stale records are discarded).
// Callers hold s.mu.
func (s *Server) restoreJobsLocked() (int, error) {
	if s.jobsPath == "" || s.net == nil {
		return 0, nil
	}
	recs, err := jobs.Load(s.jobsPath, s.netFP)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return 0, nil
	case errors.Is(err, jobs.ErrMismatch):
		s.logger.Warn("job records recorded against a different network; discarding", "path", s.jobsPath)
		return 0, nil
	case err != nil:
		return 0, err
	}
	recovered, interrupted := s.jobs.Restore(recs)
	if interrupted > 0 {
		s.logger.Warn("jobs interrupted by restart surfaced as failed", "count", interrupted)
	}
	return recovered, nil
}
