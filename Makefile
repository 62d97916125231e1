# Local targets mirror .github/workflows/ci.yml: `make ci` runs the same
# build, vet, gofmt, staticcheck, race-test, benchmark-smoke, e2ebench toy-run, round-workers
# and resume/shard/orchestrator smoke steps the workflow does, so a green
# `make ci` means a green PR (plus `make bench-gate` for the perf
# trajectory, which CI's bench-trajectory job enforces). (staticcheck is skipped with a warning when
# the binary is not installed; CI installs it pinned. The CI-only
# matrix-plan/matrix-shard/matrix-shard-merge jobs prove the -emit-matrix
# github plan is executable as a real Actions matrix; their local
# equivalent is `lbbench ... -spawn m -emit-matrix shell | sh`.)

GO ?= go

.PHONY: build test vet fmt fmt-check staticcheck bench e2e-smoke perfbench bench-gate large-n-smoke round-smoke grid-smoke resume-smoke shard-merge-smoke orchestrator-smoke steal-smoke ssh-smoke scenario-smoke serve-smoke obs-smoke ci

# e2ebench/ is a separate module, so the root `./...` never reaches it;
# build and vet name it explicitly (its binary goes to /dev/null, not into
# the benchmark's directory).
build:
	$(GO) build ./...
	cd e2ebench && $(GO) build -o /dev/null ./...

test:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...
	cd e2ebench && $(GO) vet ./...

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed — skipping (CI runs it via honnef.co/go/tools@2023.1.7)" >&2; \
	fi

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./... | tee /tmp/lbbench-bench-smoke.txt

# The repository benchmark's own toy-size test: every e2ebench workload
# end to end at seconds scale, plus its metric names against BENCHMARK.json.
# e2ebench/ is a separate module, so the root `./...` never reaches it.
e2e-smoke:
	cd e2ebench && $(GO) test ./...

# Measure the full pinned trajectory grid (the same one CI gates on) into
# /tmp. This is the slow, honest measurement — run it on a quiet machine.
perfbench:
	$(GO) run ./cmd/perfbench -label local -out /tmp/bench-current.json

# Measure and gate against the committed baseline, exactly like CI's
# bench-trajectory job: >25% calibration-normalized regression (or shrunk
# coverage) fails.
bench-gate: perfbench
	$(GO) run ./cmd/perfbench -diff -max-regress 0.25 BENCH_PR7.json /tmp/bench-current.json

# Million-node gate: a 2^20-node hypercube diffusion cell (the CSR hot loop
# at scale) plus an implicit Lanczos λ₂ solve on the 2^20-node de Bruijn
# graph, under a wall-clock budget, failing if the dense eigensolver ran at
# all. Mirrors CI's large-n-smoke job.
large-n-smoke:
	$(GO) run ./cmd/perfbench -large-n-smoke

# Round-level parallelism smoke: the stepper/scenario packages under -race
# with 8 round workers, plus rw1-vs-rw8-vs-auto byte-identity of a real
# grid sweep (mirroring grid-smoke's unit-level w1-vs-w8 check).
round-smoke:
	LB_TEST_ROUND_WORKERS=8 $(GO) test -race -count=1 \
		./internal/core/ ./internal/diffusion/ ./internal/dimexchange/ \
		./internal/randpair/ ./internal/scenario/ ./internal/batch/
	$(GO) run ./cmd/lbbench -grid -n 64 -seeds 1,2 -parallel 2 -round-workers 1 -format csv > /tmp/lbbench-rw1.csv
	$(GO) run ./cmd/lbbench -grid -n 64 -seeds 1,2 -parallel 2 -round-workers 8 -format csv > /tmp/lbbench-rw8.csv
	$(GO) run ./cmd/lbbench -grid -n 64 -seeds 1,2 -parallel 2 -round-workers auto -format csv > /tmp/lbbench-rwauto.csv
	cmp /tmp/lbbench-rw1.csv /tmp/lbbench-rw8.csv
	cmp /tmp/lbbench-rw1.csv /tmp/lbbench-rwauto.csv

grid-smoke:
	$(GO) run ./cmd/lbbench -grid -n 32 -seeds 1,2 -parallel 1 -format csv > /tmp/lbbench-w1.csv
	$(GO) run ./cmd/lbbench -grid -n 32 -seeds 1,2 -parallel 8 -format csv > /tmp/lbbench-w8.csv
	cmp /tmp/lbbench-w1.csv /tmp/lbbench-w8.csv

RESUME_ARGS = -grid -topos cycle,torus,hypercube,star,complete,path \
	-algos diffusion,dimexchange,randpair -modes continuous,discrete \
	-loads spike,uniform -n 192 -seeds 1,2,3 -eps 1e-5 -parallel 4 -format csv

resume-smoke:
	$(GO) build -o /tmp/lbbench ./cmd/lbbench
	rm -f /tmp/lbbench-cells.jsonl
	/tmp/lbbench $(RESUME_ARGS) > /tmp/lbbench-full.csv
	/tmp/lbbench $(RESUME_ARGS) -out /tmp/lbbench-cells.jsonl > /dev/null & \
	pid=$$!; \
	for i in $$(seq 1 600); do \
		{ [ -f /tmp/lbbench-cells.jsonl ] && [ "$$(wc -l < /tmp/lbbench-cells.jsonl)" -ge 80 ]; } && break; \
		kill -0 $$pid 2>/dev/null || break; \
		sleep 0.1; \
	done; \
	kill -INT $$pid 2>/dev/null; wait $$pid || true
	/tmp/lbbench $(RESUME_ARGS) -resume /tmp/lbbench-cells.jsonl -out /tmp/lbbench-cells.jsonl > /tmp/lbbench-resumed.csv
	cmp /tmp/lbbench-full.csv /tmp/lbbench-resumed.csv

SHARD_ARGS = -grid -topos cycle,torus,hypercube,star,complete,path \
	-algos diffusion,dimexchange,randpair -modes continuous,discrete \
	-loads spike,uniform -n 160 -seeds 1,2,3 -eps 1e-5 -parallel 4 -format csv

# One orchestrator command replaces the PR 3 hand-launched shard
# choreography: -spawn 3 plans, spawns, supervises and merges; the report
# and the stream-agg render from its journals must match the single-process
# sweep byte for byte.
shard-merge-smoke:
	$(GO) build -o /tmp/lbbench ./cmd/lbbench
	rm -rf /tmp/lbbench-sweep
	/tmp/lbbench $(SHARD_ARGS) > /tmp/lbbench-shard-full.csv
	/tmp/lbbench $(SHARD_ARGS) -stream-agg > /tmp/lbbench-shard-fullagg.csv
	/tmp/lbbench $(SHARD_ARGS) -spawn 3 -out /tmp/lbbench-sweep > /tmp/lbbench-merged.csv
	cmp /tmp/lbbench-shard-full.csv /tmp/lbbench-merged.csv
	/tmp/lbbench $(SHARD_ARGS) -merge /tmp/lbbench-sweep/shard-0.jsonl,/tmp/lbbench-sweep/shard-1.jsonl,/tmp/lbbench-sweep/shard-2.jsonl -stream-agg > /tmp/lbbench-mergedagg.csv
	cmp /tmp/lbbench-shard-fullagg.csv /tmp/lbbench-mergedagg.csv

# Supervision under fire, mirroring CI's orchestrator-smoke: SIGKILL one
# shard subprocess mid-run; the supervisor must restart it with -resume and
# the auto-merged report must still match the single-process sweep.
orchestrator-smoke:
	$(GO) build -o /tmp/lbbench ./cmd/lbbench
	rm -rf /tmp/lbbench-osweep
	/tmp/lbbench $(SHARD_ARGS) > /tmp/lbbench-ofull.csv
	/tmp/lbbench $(SHARD_ARGS) -spawn 3 -out /tmp/lbbench-osweep > /tmp/lbbench-ospawned.csv 2> /tmp/lbbench-orch.log & \
	opid=$$!; \
	for i in $$(seq 1 600); do \
		{ [ -f /tmp/lbbench-osweep/shard-2.jsonl ] && [ "$$(wc -l < /tmp/lbbench-osweep/shard-2.jsonl)" -ge 10 ]; } && break; \
		kill -0 $$opid 2>/dev/null || break; \
		sleep 0.1; \
	done; \
	cpid=$$(pgrep -f -- '-shard [2]/3' | head -1); \
	if [ -n "$$cpid" ]; then echo "SIGKILLing shard 2/3 (pid $$cpid)"; kill -9 $$cpid; fi; \
	wait $$opid
	cmp /tmp/lbbench-ofull.csv /tmp/lbbench-ospawned.csv
	grep -q "restarting with -resume" /tmp/lbbench-orch.log || \
		echo "note: shard 2 finished before the kill — no restart needed"

# Work stealing under fire, mirroring CI's steal-smoke: SIGSTOP one shard
# subprocess mid-run — a wedged process the launcher cannot see die. The
# supervisor must declare it stalled, SIGKILL it, carve its unstarted
# units into stolen sub-shards on idle slots, and still merge
# byte-identical to the single-process sweep. The grid forces fixed round
# counts (eps below reach) so units are uniform and healthy shards stay
# far inside the steal threshold.
STEAL_ARGS = -grid -topos torus,hypercube -algos diffusion,randpair \
	-modes continuous -loads spike,uniform \
	-n 4096 -seeds 1,2,3,4,5,6 -eps 1e-12 -rounds 4096 \
	-parallel 1 -format csv

steal-smoke:
	$(GO) build -o /tmp/lbbench ./cmd/lbbench
	rm -rf /tmp/lbbench-stealsweep
	LB_SPECCACHE_DIR=/tmp/lbbench-speccache /tmp/lbbench $(STEAL_ARGS) > /tmp/lbbench-steal-full.csv
	LB_SPECCACHE_DIR=/tmp/lbbench-speccache /tmp/lbbench $(STEAL_ARGS) -spawn 3 -out /tmp/lbbench-stealsweep \
		-steal-after 5s -progress 250ms > /tmp/lbbench-steal-merged.csv 2> /tmp/lbbench-steal.log & \
	opid=$$!; \
	for i in $$(seq 1 600); do \
		{ [ -f /tmp/lbbench-stealsweep/shard-1.jsonl ] && [ "$$(wc -l < /tmp/lbbench-stealsweep/shard-1.jsonl)" -ge 3 ]; } && break; \
		kill -0 $$opid 2>/dev/null || break; \
		sleep 0.05; \
	done; \
	cpid=$$(pgrep -f -- '-shard [1]/3' | head -1); \
	if [ -n "$$cpid" ]; then echo "SIGSTOPping shard 1/3 (pid $$cpid)"; kill -STOP $$cpid; fi; \
	wait $$opid; \
	cmp /tmp/lbbench-steal-full.csv /tmp/lbbench-steal-merged.csv; \
	if [ -n "$$cpid" ]; then \
		grep -q "stolen sub-shard" /tmp/lbbench-steal.log && \
		head -1 /tmp/lbbench-stealsweep/shard-1-steal-1.jsonl | grep -q '"origin":"steal:s1"'; \
	else echo "note: shard 1 finished before the stop — stealing degrades to a plain run"; fi

# The ssh launcher against real ssh, mirroring CI's ssh-smoke. Requires
# passwordless `ssh localhost` (CI provisions a key for the runner);
# -remote-dir keeps the remote journal off the fetch path, which matters
# when "remote" shares the local filesystem.
ssh-smoke:
	$(GO) build -o /tmp/lbbench ./cmd/lbbench
	$(GO) build -o /tmp/lborch ./cmd/lborch
	@if ! ssh -o BatchMode=yes -o ConnectTimeout=5 localhost true 2>/dev/null; then \
		echo "ssh-smoke needs passwordless 'ssh localhost' — skipping" >&2; exit 0; \
	fi; \
	set -e; \
	rm -rf /tmp/lbbench-sshsweep /tmp/lbbench-sshremote; \
	/tmp/lbbench -grid $(SSH_ARGS) -parallel 1 > /tmp/lbbench-ssh-full.csv; \
	/tmp/lborch -m 2 $(SSH_ARGS) -out /tmp/lbbench-sshsweep \
		-launcher ssh -hosts localhost,localhost \
		-remote-cmd /tmp/lbbench -remote-dir /tmp/lbbench-sshremote \
		-progress 250ms > /tmp/lbbench-ssh-merged.csv 2> /tmp/lbbench-ssh.log; \
	cmp /tmp/lbbench-ssh-full.csv /tmp/lbbench-ssh-merged.csv

SSH_ARGS = -topos torus,hypercube -algos diffusion,randpair \
	-modes continuous -loads spike,uniform \
	-n 1024 -seeds 1,2,3 -eps 1e-12 -rounds 512 -format csv

# The scenario dimension rides the whole pipeline with zero special cases:
# a grid with static + adversarial + stochastic-arrival scenarios must be
# byte-identical across worker counts, and an orchestrator-spawned 3-shard
# run (one shard SIGKILLed mid-sweep and auto-resumed) must merge
# byte-identical to the single-process sweep.
SCENARIO_ARGS = -grid -topos torus,hypercube -algos diffusion,randpair \
	-modes continuous,discrete -loads spike,uniform \
	-scenarios static,adversarial-respike,poisson-arrivals \
	-n 64 -seeds 1,2 -eps 1e-4 -rounds 96 -format csv

scenario-smoke:
	$(GO) build -o /tmp/lbbench ./cmd/lbbench
	rm -rf /tmp/lbbench-ssweep
	/tmp/lbbench $(SCENARIO_ARGS) -parallel 1 > /tmp/lbbench-scen-w1.csv
	/tmp/lbbench $(SCENARIO_ARGS) -parallel 8 > /tmp/lbbench-scen-w8.csv
	cmp /tmp/lbbench-scen-w1.csv /tmp/lbbench-scen-w8.csv
	/tmp/lbbench $(SCENARIO_ARGS) -parallel 4 -spawn 3 -out /tmp/lbbench-ssweep > /tmp/lbbench-scen-merged.csv 2> /tmp/lbbench-scen-orch.log & \
	opid=$$!; \
	for i in $$(seq 1 600); do \
		{ [ -f /tmp/lbbench-ssweep/shard-1.jsonl ] && [ "$$(wc -l < /tmp/lbbench-ssweep/shard-1.jsonl)" -ge 5 ]; } && break; \
		kill -0 $$opid 2>/dev/null || break; \
		sleep 0.1; \
	done; \
	cpid=$$(pgrep -f -- '-shard [1]/3' | head -1); \
	if [ -n "$$cpid" ]; then echo "SIGKILLing shard 1/3 (pid $$cpid)"; kill -9 $$cpid; fi; \
	wait $$opid
	cmp /tmp/lbbench-scen-w1.csv /tmp/lbbench-scen-merged.csv
	/tmp/lbbench $(SCENARIO_ARGS) -parallel 4 -stream-agg > /tmp/lbbench-scen-fullagg.csv
	/tmp/lbbench $(SCENARIO_ARGS) -parallel 4 -merge /tmp/lbbench-ssweep/shard-0.jsonl,/tmp/lbbench-ssweep/shard-1.jsonl,/tmp/lbbench-ssweep/shard-2.jsonl -stream-agg > /tmp/lbbench-scen-mergedagg.csv
	cmp /tmp/lbbench-scen-fullagg.csv /tmp/lbbench-scen-mergedagg.csv

# Service mode end to end, mirroring CI's serve-smoke: lbserved replays the
# committed mini-trace at 100×, records what it injects, drains to exit 0 on
# SIGTERM; the recording must byte-match the source trace and re-run as a
# trace:<file> grid scenario byte-identically across worker counts.
serve-smoke:
	$(GO) build -o /tmp/lbserved ./cmd/lbserved
	$(GO) build -o /tmp/lbbench ./cmd/lbbench
	rm -f /tmp/lbserved-recorded.jsonl
	/tmp/lbserved -addr 127.0.0.1:18080 -replay testdata/mini-trace.jsonl \
		-speedup 100x -record /tmp/lbserved-recorded.jsonl 2> /tmp/lbserved.log & \
	pid=$$!; \
	for i in $$(seq 1 100); do \
		curl -fs http://127.0.0.1:18080/healthz >/dev/null 2>&1 && break; \
		sleep 0.1; \
	done; \
	for i in $$(seq 1 600); do \
		pending=$$(curl -fs http://127.0.0.1:18080/metrics | sed 's/.*"replay_pending"://;s/,.*//'); \
		[ "$$pending" = "0" ] && break; \
		sleep 0.1; \
	done; \
	kill -TERM $$pid; wait $$pid
	cmp testdata/mini-trace.jsonl /tmp/lbserved-recorded.jsonl
	/tmp/lbbench -grid -topos torus -algos diffusion,randpair \
		-modes continuous,discrete -loads spike \
		-scenarios static,trace:/tmp/lbserved-recorded.jsonl \
		-n 64 -seeds 1,2 -rounds 96 -format csv -parallel 1 > /tmp/lbserved-w1.csv
	/tmp/lbbench -grid -topos torus -algos diffusion,randpair \
		-modes continuous,discrete -loads spike \
		-scenarios static,trace:/tmp/lbserved-recorded.jsonl \
		-n 64 -seeds 1,2 -rounds 96 -format csv -parallel 8 > /tmp/lbserved-w8.csv
	cmp /tmp/lbserved-w1.csv /tmp/lbserved-w8.csv

# Telemetry end to end, mirroring CI's obs-smoke: lbserved's Prometheus
# exposition and pprof endpoints answer; a traced lbbench sweep produces a
# loadable Chrome trace file while its report stays byte-identical to the
# untraced run.
obs-smoke:
	$(GO) build -o /tmp/lbserved ./cmd/lbserved
	$(GO) build -o /tmp/lbbench ./cmd/lbbench
	/tmp/lbserved -addr 127.0.0.1:18081 -telemetry 127.0.0.1:16060 \
		-replay testdata/mini-trace.jsonl -speedup 100x \
		2> /tmp/obs-lbserved.log & \
	pid=$$!; \
	for i in $$(seq 1 100); do \
		curl -fs http://127.0.0.1:18081/healthz >/dev/null 2>&1 && break; \
		sleep 0.1; \
	done; \
	for i in $$(seq 1 600); do \
		pending=$$(curl -fs http://127.0.0.1:18081/metrics | sed 's/.*"replay_pending"://;s/,.*//'); \
		[ "$$pending" = "0" ] && break; \
		sleep 0.1; \
	done; \
	curl -fs http://127.0.0.1:18081/metrics/prom > /tmp/obs-prom.txt; \
	curl -fs http://127.0.0.1:16060/metrics/prom > /tmp/obs-prom-debug.txt; \
	curl -fs http://127.0.0.1:16060/debug/pprof/goroutine?debug=1 > /dev/null; \
	kill -TERM $$pid; wait $$pid
	grep -q '^# TYPE lbserved_rounds_total counter' /tmp/obs-prom.txt
	grep -q '^lbserved_arrivals_total 24' /tmp/obs-prom.txt
	grep -q '^# TYPE lbserved_backlog_depth histogram' /tmp/obs-prom.txt
	grep -q '^lbserved_rounds_total ' /tmp/obs-prom-debug.txt
	/tmp/lbbench -grid -topos torus,cycle -algos diffusion,randpair \
		-n 256 -seeds 1,2 -format csv -parallel 1 > /tmp/obs-plain.csv
	/tmp/lbbench -grid -topos torus,cycle -algos diffusion,randpair \
		-n 256 -seeds 1,2 -format csv -parallel 1 \
		-trace-out /tmp/obs-trace.json > /tmp/obs-traced.csv 2> /tmp/obs-trace.log
	cmp /tmp/obs-plain.csv /tmp/obs-traced.csv
	jq -e '.traceEvents | length > 0' /tmp/obs-trace.json > /dev/null
	jq -e '[.traceEvents[] | select(.cat == "unit")] | length == 16' /tmp/obs-trace.json > /dev/null
	jq -e '[.traceEvents[] | select(.cat == "sweep")] | length == 1' /tmp/obs-trace.json > /dev/null
	jq -e '.traceEvents | map(select(.ph == "X")) | all(.ts >= 0 and .dur >= 1)' /tmp/obs-trace.json > /dev/null
	jq -e '([.traceEvents[] | select(.cat == "unit") | .dur] | add) >= 0.9 * ([.traceEvents[] | select(.cat == "sweep") | .dur] | add)' /tmp/obs-trace.json > /dev/null

# bench-gate is not part of `make ci`: the trajectory measurement needs a
# quiet machine to be meaningful (CI's bench-trajectory job runs it on the
# dedicated runner). Run `make bench-gate` before committing perf-sensitive
# changes.
ci: build vet fmt-check staticcheck test bench e2e-smoke round-smoke grid-smoke resume-smoke shard-merge-smoke orchestrator-smoke steal-smoke ssh-smoke scenario-smoke serve-smoke obs-smoke
