GO ?= go

.PHONY: all vet build test race bench profile loadproof clustersmoke churnsmoke ci

all: ci

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race detector gates every PR: the service serializes a
# single-threaded BDD manager behind a mutex, and the concurrent
# service tests exist to catch lock-discipline regressions.
race:
	$(GO) test -race ./...

# Benchmark the evaluation engine and the BDD kernel, recording the
# numbers (with allocation counts) as a committed JSON artifact.
# Separate steps so a failing benchmark run stops make instead of
# feeding an error transcript into the parser; benchfmt stamps the host
# core count into the artifact, which is what makes the workers=N
# numbers interpretable (no speedup is expected on 1 core), and -delta
# prints an advisory comparison against the previously committed
# numbers before overwriting them.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkSuiteParallel|BenchmarkSnapshotClone|BenchmarkComputeMatchSets|BenchmarkChurn|BenchmarkFingerprint' -benchmem -count 3 -timeout 30m . > bench.out
	$(GO) test -run '^$$' -bench BenchmarkBDD -benchmem -count 3 -timeout 15m ./internal/bdd >> bench.out
	$(GO) run ./cmd/benchfmt -delta BENCH_eval.json -o BENCH_eval.json < bench.out
	@rm -f bench.out
	@cat BENCH_eval.json

# Archive a span-tree profile of the regional-Clos suite (the flame
# report -profile prints to stderr) so perf work has a committed-able
# before/after stage breakdown to diff against.
profile:
	$(GO) run ./cmd/yardstick -topology regional -suite default,internal,reach,pingmesh -workers 4 -profile 2> profile.txt > /dev/null
	@cat profile.txt

# Regenerate the admission-layer load proof: boot the daemon with a
# deliberately tiny envelope (queue depth 8, 4 in-flight), drive it at
# 250 RPS of heavy 8-suite jobs for 10s — far past the drain rate — and
# record the accepted/shed accounting plus latency quantiles. -check
# fails the target if anything other than 2xx or Retry-After-carrying
# sheds came back.
loadproof:
	$(GO) build -o /tmp/yardstickd ./cmd/yardstickd
	$(GO) build -o /tmp/loadgen ./cmd/loadgen
	/tmp/yardstickd -listen 127.0.0.1:18080 -topology regional -queue-depth 8 -max-inflight 4 & \
	DPID=$$!; \
	for i in $$(seq 1 50); do curl -sf http://127.0.0.1:18080/readyz > /dev/null && break; sleep 0.2; done; \
	/tmp/loadgen -addr http://127.0.0.1:18080 -rps 250 -duration 10s \
		-suites default,connected,internal,agg,contract,reach,pingmesh,host \
		-check -out BENCH_service.json; \
	rc=$$?; kill $$DPID; exit $$rc
	@cat BENCH_service.json

# Chaos-prove the distributed path locally: three workers, one killed
# mid-run, coordinator must exit 0 with a coverage table byte-identical
# to the single-node sequential baseline (same recipe as the CI
# cluster-smoke job).
clustersmoke:
	$(GO) build -o /tmp/yardstickd ./cmd/yardstickd
	$(GO) build -o /tmp/yardstick ./cmd/yardstick
	$(GO) build -o /tmp/yardstick-coord ./cmd/yardstick-coord
	$(GO) build -o /tmp/promlint ./cmd/promlint
	/tmp/yardstickd -listen 127.0.0.1:18081 & W1=$$!; \
	/tmp/yardstickd -listen 127.0.0.1:18082 > w2.log 2>&1 & W2=$$!; \
	/tmp/yardstickd -listen 127.0.0.1:18083 & W3=$$!; \
	trap "kill $$W1 $$W3 2>/dev/null || true" EXIT; \
	for p in 18081 18082 18083; do \
		for i in $$(seq 1 50); do curl -sf http://127.0.0.1:$$p/healthz > /dev/null && break; sleep 0.2; done; \
	done; \
	/tmp/yardstick -topology regional -suite default,internal,contract > baseline.out; \
	sed -n '/^coverage:/,$$p' baseline.out | sed '/^$$/d' > baseline.cov; \
	/tmp/yardstick-coord \
		-nodes http://127.0.0.1:18081,http://127.0.0.1:18082,http://127.0.0.1:18083 \
		-suite default,internal,contract -rounds 120 -concurrency 3 -poll 25ms \
		-fail-threshold 2 -cooldown 1s -hedge-after 2s \
		-metrics-addr 127.0.0.1:19090 -scrape-interval 250ms \
		-report cluster-report.json > cluster.out & CPID=$$!; \
	for i in $$(seq 1 100); do \
		curl -sf http://127.0.0.1:19090/metrics > coord-metrics.txt \
			&& grep -q 'node="http://127.0.0.1:18082"' coord-metrics.txt && break; sleep 0.1; \
	done; \
	/tmp/promlint < coord-metrics.txt; \
	grep -q 'yardstick_coord_dispatch_total' coord-metrics.txt || { echo "no native coord metrics"; exit 1; }; \
	for i in $$(seq 1 200); do \
		n=$$(grep -c 'method=POST path=/jobs ' w2.log || true); \
		[ "$$n" -ge 20 ] && break; sleep 0.05; \
	done; \
	kill -9 $$W2; \
	rc=0; wait $$CPID || rc=$$?; \
	test $$rc -eq 0 || { echo "coordinator exited $$rc"; exit $$rc; }; \
	awk '/^coverage:/{f=1} /^wrote run report/{f=0} f' cluster.out | sed '/^$$/d' > cluster.cov; \
	diff baseline.cov cluster.cov; \
	grep -Eq '"trips": [1-9]' cluster-report.json || { echo "kill was not observed: no breaker trip"; exit 1; }; \
	grep -q '"timeline"' cluster-report.json || { echo "report has no run timeline"; exit 1; }; \
	echo "cluster == single-node: exact (1 worker SIGKILLed mid-run; fleet /metrics lint-clean)"; \
	rm -f baseline.out baseline.cov cluster.out cluster.cov cluster-report.json coord-metrics.txt w2.log

# Prove incremental coverage stays exact under churn: replay a seeded
# 50-event BGP flap schedule against a live daemon via PATCH /network
# (lockstep with a local twin), then byte-diff the final coverage table
# against a from-scratch rebuild and require the daemon trace to equal
# the local one exactly (same recipe as the CI churn-smoke job).
churnsmoke:
	$(GO) build -o /tmp/yardstickd ./cmd/yardstickd
	$(GO) build -o /tmp/churn ./cmd/churn
	/tmp/yardstickd -listen 127.0.0.1:18084 & DPID=$$!; \
	trap "kill $$DPID 2>/dev/null || true" EXIT; \
	for i in $$(seq 1 50); do curl -sf http://127.0.0.1:18084/healthz > /dev/null && break; sleep 0.2; done; \
	/tmp/churn -addr http://127.0.0.1:18084 -events 50 -seed 1 -check

ci: vet build race
