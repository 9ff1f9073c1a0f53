package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"yardstick/internal/core"
	"yardstick/internal/dataplane"
	"yardstick/internal/jobs"
	"yardstick/internal/netmodel"
	"yardstick/internal/topogen"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// TestConcurrentRequests hammers the hot endpoints from parallel
// goroutines. The server serializes on its mutex (the BDD manager is
// single-threaded); under -race this validates the lock discipline.
func TestConcurrentRequests(t *testing.T) {
	ts, rg := newTestServer(t)

	// Pre-encode a trace fragment once: encoding touches the network's
	// BDD manager, which must not be shared across goroutines.
	local := core.NewTrace()
	local.MarkPacket(dataplane.Injected(rg.ToRs[0]), rg.Net.Space.DstPrefix(rg.HostPrefix[rg.ToRs[1]]))
	for _, rid := range rg.Net.Device(rg.ToRs[0]).FIB {
		local.MarkRule(rid)
	}
	var frag bytes.Buffer
	if err := local.EncodeJSON(&frag); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	do := func(method, url string, body []byte) {
		defer wg.Done()
		req, err := http.NewRequest(method, url, bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s %s = %d", method, url, resp.StatusCode)
		}
	}
	for i := 0; i < 8; i++ {
		wg.Add(4)
		go do("POST", ts.URL+"/trace", frag.Bytes())
		go do("GET", ts.URL+"/coverage", nil)
		go do("POST", ts.URL+"/run?suite=connected", nil)
		go do("GET", ts.URL+"/trace", nil)
	}
	wg.Wait()
}

// TestPanicRecovery drives a panicking handler through the full
// middleware chain: the panic answers 500 and the server keeps serving.
func TestPanicRecovery(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })
	mux.HandleFunc("/ok", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
	var logbuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logbuf, nil))
	ts := httptest.NewServer(Chain(mux, LogRequests(logger), Recover(logger)))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("panicking handler = %d, want 500", resp.StatusCode)
	}
	if !bytes.Contains(logbuf.Bytes(), []byte("kaboom")) {
		t.Error("panic value not logged")
	}
	if !bytes.Contains(logbuf.Bytes(), []byte("goroutine")) {
		t.Error("stack trace not logged")
	}
	// The panicking request still gets its structured request line, with
	// the 500 Recover answered, tied together by the request id.
	if !bytes.Contains(logbuf.Bytes(), []byte("status=500")) {
		t.Errorf("request log line missing for panicking request:\n%s", logbuf.String())
	}
	if !bytes.Contains(logbuf.Bytes(), []byte("id="+resp.Header.Get("X-Request-Id"))) {
		t.Errorf("request id %q not in log:\n%s", resp.Header.Get("X-Request-Id"), logbuf.String())
	}

	// The server survives and keeps answering.
	resp, err = http.Get(ts.URL + "/ok")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("request after panic = %d, want 200", resp.StatusCode)
	}
}

func TestBodySizeLimit(t *testing.T) {
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{
		DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2,
		SpinesPerDC: 2, Hubs: 2, WANHubs: 1, WANPrefixes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(WithNetwork(rg.Net, WithMaxBody(512), WithLogger(discardLogger())).Handler())
	defer ts.Close()

	// Leading whitespace is valid JSON, so the decoder must read past
	// the cap and hit the MaxBytesReader limit rather than a syntax
	// error.
	big := append(bytes.Repeat([]byte(" "), 4096), []byte("{}")...)
	resp, err := http.Post(ts.URL+"/trace", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body = %d, want 413", resp.StatusCode)
	}

	// A small (if invalid) body still gets the ordinary 400.
	resp, err = http.Post(ts.URL+"/trace", "application/json", bytes.NewReader([]byte("junk")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("small junk body = %d, want 400", resp.StatusCode)
	}
}

func TestHealthAndReadiness(t *testing.T) {
	ts := httptest.NewServer(New(WithLogger(discardLogger())).Handler())
	defer ts.Close()

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz = %d, want 200", code)
	}
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz without network = %d, want 503", code)
	}

	// Loading a network flips readiness.
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{
		DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2,
		SpinesPerDC: 2, Hubs: 2, WANHubs: 1, WANPrefixes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rg.Net.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	doJSON(t, "PUT", ts.URL+"/network", buf.Bytes(), http.StatusOK, nil)
	if code := get("/readyz"); code != http.StatusOK {
		t.Errorf("/readyz with network = %d, want 200", code)
	}
}

// TestSnapshotPersistence accumulates a trace, checkpoints, and brings
// up a fresh server on the same snapshot: coverage survives the
// "restart". A third server with a different network must discard the
// stale snapshot.
func TestSnapshotPersistence(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "trace.snap")
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{
		DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2,
		SpinesPerDC: 2, Hubs: 2, WANHubs: 1, WANPrefixes: 4,
	})
	if err != nil {
		t.Fatal(err)
	}

	srv1 := WithNetwork(rg.Net, WithSnapshot(snap, time.Hour), WithLogger(discardLogger()))
	ts1 := httptest.NewServer(srv1.Handler())
	local := core.NewTrace()
	local.MarkPacket(dataplane.Injected(rg.ToRs[0]), rg.Net.Space.DstPrefix(rg.HostPrefix[rg.ToRs[1]]))
	for _, rid := range rg.Net.Device(rg.ToRs[0]).FIB {
		local.MarkRule(rid)
	}
	var frag bytes.Buffer
	if err := local.EncodeJSON(&frag); err != nil {
		t.Fatal(err)
	}
	doJSON(t, "POST", ts1.URL+"/trace", frag.Bytes(), http.StatusOK, nil)
	var covBefore CoverageReport
	doJSON(t, "GET", ts1.URL+"/coverage", nil, http.StatusOK, &covBefore)
	if covBefore.Total.RuleFractional <= 0 {
		t.Fatal("no coverage accumulated")
	}
	if err := srv1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	// "Restart": same network, same snapshot path.
	srv2 := WithNetwork(rg.Net, WithSnapshot(snap, time.Hour), WithLogger(discardLogger()))
	restored, err := srv2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if !restored {
		t.Fatal("snapshot not restored on matching network")
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	var covAfter CoverageReport
	doJSON(t, "GET", ts2.URL+"/coverage", nil, http.StatusOK, &covAfter)
	if covAfter.Total.RuleFractional != covBefore.Total.RuleFractional {
		t.Errorf("coverage after restart = %v, want %v",
			covAfter.Total.RuleFractional, covBefore.Total.RuleFractional)
	}

	// A different network must reject the stale snapshot.
	other, err := topogen.BuildRegional(topogen.RegionalOpts{
		DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2,
		SpinesPerDC: 2, Hubs: 2, WANHubs: 1, WANPrefixes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv3 := WithNetwork(other.Net, WithSnapshot(snap, time.Hour), WithLogger(discardLogger()))
	restored, err = srv3.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if restored {
		t.Error("stale snapshot (different network) must be discarded, not merged")
	}
	if st := srv3.trace.Stats(); st.Locations != 0 || st.MarkedRules != 0 {
		t.Errorf("trace after discarded restore = %+v, want empty", st)
	}
}

// TestRestartFromArenaCheckpoint is the arena-codec restart drill:
// Checkpoint writes the binary arena snapshot, a fresh server over a
// freshly *decoded* network (nothing shared in memory with the first
// daemon) restores from it, and the /coverage table — the total row and
// every per-role row — matches byte for byte. Engine counters are live
// manager diagnostics, not coverage state, so they are outside the
// comparison.
func TestRestartFromArenaCheckpoint(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "trace.snap")
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{
		DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2,
		SpinesPerDC: 2, Hubs: 2, WANHubs: 1, WANPrefixes: 4,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The coverage table as served: raw JSON of the total and per-role
	// rows, bytes untouched.
	covTable := func(url string) (total, byRole json.RawMessage) {
		t.Helper()
		resp, err := http.Get(url + "/coverage")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /coverage = %d: %s", resp.StatusCode, body)
		}
		if err != nil {
			t.Fatal(err)
		}
		var rep struct {
			Total  json.RawMessage `json:"total"`
			ByRole json.RawMessage `json:"byRole"`
		}
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Fatal(err)
		}
		return rep.Total, rep.ByRole
	}

	srv1 := WithNetwork(rg.Net, WithSnapshot(snap, time.Hour), WithLogger(discardLogger()))
	ts1 := httptest.NewServer(srv1.Handler())
	local := core.NewTrace()
	local.MarkPacket(dataplane.Injected(rg.ToRs[0]), rg.Net.Space.DstPrefix(rg.HostPrefix[rg.ToRs[1]]))
	local.MarkPacket(dataplane.Injected(rg.ToRs[1]), rg.Net.Space.DstPrefix(rg.HostPrefix[rg.ToRs[0]]).Intersect(rg.Net.Space.Proto(6)))
	for _, rid := range rg.Net.Device(rg.ToRs[0]).FIB {
		local.MarkRule(rid)
	}
	var frag bytes.Buffer
	if err := local.EncodeJSON(&frag); err != nil {
		t.Fatal(err)
	}
	doJSON(t, "POST", ts1.URL+"/trace", frag.Bytes(), http.StatusOK, nil)
	totalBefore, byRoleBefore := covTable(ts1.URL)

	if err := srv1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !core.IsSnapshotArena(raw) {
		t.Fatalf("checkpoint is not the arena codec (starts %q)", raw[:min(8, len(raw))])
	}
	ts1.Close()

	// "Restart": round-trip the network through its wire form so the new
	// daemon rebuilds everything — spaces, match sets, rule IDs — from
	// scratch, exactly like a real process restart.
	var netJSON bytes.Buffer
	if err := rg.Net.EncodeJSON(&netJSON); err != nil {
		t.Fatal(err)
	}
	fresh, err := netmodel.DecodeJSON(bytes.NewReader(netJSON.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	srv2 := WithNetwork(fresh, WithSnapshot(snap, time.Hour), WithLogger(discardLogger()))
	restored, err := srv2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if !restored {
		t.Fatal("arena checkpoint not restored on matching network")
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	totalAfter, byRoleAfter := covTable(ts2.URL)
	if !bytes.Equal(totalBefore, totalAfter) {
		t.Errorf("total row changed across restart:\n before %s\n after  %s", totalBefore, totalAfter)
	}
	if !bytes.Equal(byRoleBefore, byRoleAfter) {
		t.Errorf("per-role rows changed across restart:\n before %s\n after  %s", byRoleBefore, byRoleAfter)
	}
}

// TestCheckpointerFinalSave verifies RunCheckpointer writes a final
// snapshot when its context is canceled — the shutdown path.
func TestCheckpointerFinalSave(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "trace.snap")
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{
		DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2,
		SpinesPerDC: 2, Hubs: 2, WANHubs: 1, WANPrefixes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := WithNetwork(rg.Net, WithSnapshot(snap, time.Hour), WithLogger(discardLogger()))
	srv.trace.MarkRule(rg.Net.Device(rg.ToRs[0]).FIB[0])

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); srv.RunCheckpointer(ctx) }()
	cancel()
	<-done

	got, err := core.LoadSnapshot(snap, rg.Net)
	if err != nil {
		t.Fatalf("no snapshot after checkpointer shutdown: %v", err)
	}
	if !got.RuleMarked(rg.Net.Device(rg.ToRs[0]).FIB[0]) {
		t.Error("final checkpoint lost the marked rule")
	}
}

// legacyFingerprint is the network identity checkpoints carried before
// the versioned binary encoding: SHA-256 over the pretty-printed JSON.
func legacyFingerprint(t *testing.T, net *netmodel.Network) string {
	t.Helper()
	h := sha256.New()
	if err := net.EncodeJSON(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRestoreDiscardsLegacyFingerprints is the upgrade drill: a YSS1
// trace checkpoint and a job-record file stamped with the legacy
// JSON-hash fingerprint are both discarded on restore — no error, an
// empty trace, no recovered jobs — and the server keeps serving and
// checkpointing under the current identity.
func TestRestoreDiscardsLegacyFingerprints(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "trace.snap")
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{
		DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2,
		SpinesPerDC: 2, Hubs: 2, WANHubs: 1, WANPrefixes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	fp, legacy := rg.Net.Fingerprint(), legacyFingerprint(t, rg.Net)
	if len(legacy) != len(fp) || legacy == fp {
		t.Fatalf("legacy fingerprint %q vs current %q: want same length, different value", legacy, fp)
	}

	// A checkpoint with real content: a marked rule and one finished job.
	srv1 := WithNetwork(rg.Net, WithSnapshot(snap, time.Hour), WithLogger(discardLogger()))
	ts1 := httptest.NewServer(srv1.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); srv1.RunJobs(ctx) }()
	srv1.mu.Lock()
	srv1.trace.MarkRule(rg.Net.Device(rg.ToRs[0]).FIB[0])
	srv1.mu.Unlock()
	var job JobStatus
	doJSON(t, http.MethodPost, ts1.URL+"/jobs?suite=default", nil, http.StatusAccepted, &job)
	if job = pollJob(t, ts1.URL, job.ID); job.State != jobs.StateDone {
		t.Fatalf("job = %+v, want done", job)
	}
	cancel()
	<-done
	if err := srv1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	// Re-stamp both files with the legacy fingerprint. The YSS1 layout
	// puts the fingerprint at offset 12 behind its length, and a CRC-32
	// of everything before it closes the file.
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !core.IsSnapshotArena(raw) || binary.LittleEndian.Uint32(raw[8:]) != uint32(len(fp)) || string(raw[12:12+len(fp)]) != fp {
		t.Fatalf("checkpoint is not a YSS1 file stamped with %s", fp)
	}
	copy(raw[12:], legacy)
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.ChecksumIEEE(raw[:len(raw)-4]))
	if err := os.WriteFile(snap, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := core.LoadSnapshot(snap, rg.Net); !errors.Is(err, core.ErrSnapshotMismatch) {
		t.Fatalf("LoadSnapshot of the legacy checkpoint = %v, want ErrSnapshotMismatch", err)
	}
	recs, err := jobs.Load(snap+".jobs", fp)
	if err != nil || len(recs) == 0 {
		t.Fatalf("job records = %d, %v; want the finished job", len(recs), err)
	}
	if err := jobs.Save(snap+".jobs", legacy, recs); err != nil {
		t.Fatal(err)
	}

	srv2 := WithNetwork(rg.Net, WithSnapshot(snap, time.Hour), WithLogger(discardLogger()))
	restored, err := srv2.Restore()
	if restored || err != nil {
		t.Fatalf("Restore over legacy files = (%v, %v), want (false, nil)", restored, err)
	}
	if st := srv2.trace.Stats(); st.Locations != 0 || st.MarkedRules != 0 {
		t.Errorf("trace after discarded restore = %+v, want empty", st)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	doJSON(t, http.MethodGet, ts2.URL+"/jobs/"+job.ID, nil, http.StatusNotFound, nil)
	var st NetworkStats
	doJSON(t, http.MethodGet, ts2.URL+"/network", nil, http.StatusOK, &st)
	if st.Fingerprint != fp {
		t.Errorf("GET /network fingerprint = %s, want %s", st.Fingerprint, fp)
	}
	doJSON(t, http.MethodPost, ts2.URL+"/run?suite=default", nil, http.StatusOK, nil)
	var cov CoverageReport
	doJSON(t, http.MethodGet, ts2.URL+"/coverage", nil, http.StatusOK, &cov)
	if cov.Total.RuleFractional <= 0 {
		t.Error("no coverage after a run on the upgraded server")
	}

	// The next checkpoint carries the current identity and restores.
	if err := srv2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	srv3 := WithNetwork(rg.Net, WithSnapshot(snap, time.Hour), WithLogger(discardLogger()))
	if restored, err := srv3.Restore(); !restored || err != nil {
		t.Fatalf("Restore of the re-stamped checkpoint = (%v, %v), want (true, nil)", restored, err)
	}
}
