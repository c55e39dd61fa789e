# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench examples clean bench-deterministic bench-check bench-ab serve-smoke balance-smoke thermal-smoke warm-smoke corpus-smoke

# Parallel jobs used for the determinism check's "parallel" leg.
JOBS ?= 4

# Smoke targets keep their scratch output (daemon logs, stage
# profiles, sockets, throwaway models) out of the repo root.
LOGS := logs

all: build

build:
	dune build @all

test:
	dune runtest

test-log:
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt

bench:
	dune exec bench/main.exe

bench-log:
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

# Determinism guard: the kernels and route benches must produce
# bit-identical results at DCO3D_JOBS=1 and DCO3D_JOBS=$(JOBS).  The
# bench writes BENCH_kernels.digest (timing-free content digests of
# every section's numeric output); the two runs' files must match.
bench-deterministic:
	dune build bench/main.exe
	DCO3D_ONLY=kernels,route,predict DCO3D_JOBS=1 dune exec --no-build bench/main.exe > /dev/null
	mv BENCH_kernels.digest BENCH_kernels.jobs1.digest
	DCO3D_ONLY=kernels,route,predict DCO3D_JOBS=$(JOBS) dune exec --no-build bench/main.exe > /dev/null
	sha256sum BENCH_kernels.jobs1.digest BENCH_kernels.digest
	cmp BENCH_kernels.jobs1.digest BENCH_kernels.digest
	@rm -f BENCH_kernels.jobs1.digest
	@echo "bench-deterministic: OK (DCO3D_JOBS=1 == DCO3D_JOBS=$(JOBS))"

# Performance regression gate: regenerate BENCH_kernels.json at
# DCO3D_JOBS=$(JOBS) and compare it against the baseline committed at
# HEAD.  Fails on digest drift (numerics changed), a parallel leg
# slower than sequential (beyond timing-noise tolerance), or par_ms
# more than 15 % above the committed baseline.  Knobs:
#   DCO3D_BENCH_TOL      speedup noise tolerance  (default 0.10)
#   DCO3D_BENCH_REGRESS  par_ms regression cap    (default 0.15)
bench-check:
	dune build bench/main.exe bench/bench_check.exe bin/dco3d.exe
	DCO3D_ONLY=kernels,route,predict,serve DCO3D_JOBS=$(JOBS) dune exec --no-build bench/main.exe > /dev/null
	dune exec --no-build bench/bench_check.exe

# Ledger A/B: the working tree against BASE (a git worktree under
# _build/bench-ab/), PAIRS alternating-order pairs of W at seeds
# SEED, SEED+1, ..., S seconds each; prints each pair, the wins per
# workload and ledger_check's verdict (base -- change).
BASE ?= HEAD~1
W ?= train-alg1
PAIRS ?= 10
S ?= 20
SEED ?= 951
bench-ab:
	BASE='$(BASE)' W='$(W)' PAIRS=$(PAIRS) S=$(S) SEED=$(SEED) bash bench/ab.sh

# End-to-end daemon smoke: train a tiny model with `dco3d train -o`,
# serve it with `dco3d serve --model` (a hello must report the
# fingerprint `train` printed: the saved-model path end to end), fire
# predict requests (the repeats must hit the result cache), run a tiny
# remote flow (a corpus PPA cell) through the async job queue, then
# drain with SIGTERM.  The
# daemon writes its stage profile to $(LOGS)/serve-profile.txt at exit,
# each client its own to $(LOGS)/serve-client-profile.txt.<command>.
# Every frame is MD5'd once by its sender and once by its receiver, and
# beyond frames the daemon's serve/digest_bytes counts only the dedup
# key of each corpus job (serve/corpus_key_bytes).  So it must equal
# the clients' sum plus those key bytes: a second hash of a predict
# body on the daemon (the cache key) shows up there.
serve-smoke:
	dune build bin/dco3d.exe
	mkdir -p $(LOGS)
	rm -f $(LOGS)/serve-smoke.sock $(LOGS)/serve-profile.txt $(LOGS)/serve-client-profile.txt.*
	rm -f $(LOGS)/serve-model.bin
	dune exec --no-build bin/dco3d.exe -- train -d DMA -s 0.02 --gcell 12 --samples 3 \
	  --epochs 1 --input-hw 16 -o $(LOGS)/serve-model.bin | tee $(LOGS)/serve-train.log
	DCO3D_PROFILE=$(LOGS)/serve-profile.txt \
	  dune exec --no-build bin/dco3d.exe -- serve --socket $(LOGS)/serve-smoke.sock \
	  --model $(LOGS)/serve-model.bin > $(LOGS)/serve-smoke.log 2>&1 & \
	SERVE_PID=$$!; \
	for i in $$(seq 1 50); do [ -S $(LOGS)/serve-smoke.sock ] && break; sleep 0.1; done; \
	[ -S $(LOGS)/serve-smoke.sock ] || { cat $(LOGS)/serve-smoke.log; exit 1; }; \
	DCO3D_PROFILE=$(LOGS)/serve-client-profile.txt.ping \
	  dune exec --no-build bin/dco3d.exe -- client --route any ping \
	  --socket $(LOGS)/serve-smoke.sock | tee $(LOGS)/serve-ping.log && \
	FP_TRAIN=$$(sed -n 's/^saved predictor to .* (fingerprint \([0-9a-f]*\))$$/\1/p' $(LOGS)/serve-train.log) && \
	FP_SERVE=$$(sed -n 's/^hello: shard .* (fingerprint \([0-9a-f]*\))$$/\1/p' $(LOGS)/serve-ping.log) && \
	echo "serve-smoke: model fingerprint, trained $$FP_TRAIN, served $$FP_SERVE" && \
	[ -n "$$FP_TRAIN" ] && [ "$$FP_TRAIN" = "$$FP_SERVE" ] && \
	DCO3D_PROFILE=$(LOGS)/serve-client-profile.txt.predict \
	  dune exec --no-build bin/dco3d.exe -- client predict --socket $(LOGS)/serve-smoke.sock \
	  -s 0.05 --gcell 16 --repeat 3 | tee $(LOGS)/serve-predict.log && \
	grep -q "cache hit" $(LOGS)/serve-predict.log && \
	DCO3D_PROFILE=$(LOGS)/serve-client-profile.txt.flow \
	  dune exec --no-build bin/dco3d.exe -- client flow --socket $(LOGS)/serve-smoke.sock \
	  -d DMA -s 0.02 --gcell 12 && \
	DCO3D_PROFILE=$(LOGS)/serve-client-profile.txt.stats \
	  dune exec --no-build bin/dco3d.exe -- client stats --socket $(LOGS)/serve-smoke.sock; \
	CLIENTS=$$?; kill -TERM $$SERVE_PID; wait $$SERVE_PID; \
	STATUS=$$?; cat $(LOGS)/serve-smoke.log; \
	[ $$CLIENTS -eq 0 ] && [ $$STATUS -eq 0 ] && [ -f $(LOGS)/serve-profile.txt ] && \
	  grep -q "serve/batch " $(LOGS)/serve-profile.txt && \
	  grep -q "serve/corpus_job" $(LOGS)/serve-profile.txt && \
	  grep -q "serve/cache_hit" $(LOGS)/serve-profile.txt && \
	  grep -q "serve/requests" $(LOGS)/serve-profile.txt && \
	  grep -q "serve/digest_bytes" $(LOGS)/serve-profile.txt && \
	  awk '$$1 == "serve/digest_bytes" { if (FILENAME ~ /client/) c += $$2; else d += $$2 } \
	    $$1 == "serve/corpus_key_bytes" && FILENAME !~ /client/ { k += $$2 } \
	    END { printf "serve-smoke: digest bytes, daemon %d, clients %d, corpus keys %d\n", d, c, k; \
	          exit !(d > 0 && d == c + k) }' \
	    $(LOGS)/serve-profile.txt $(LOGS)/serve-client-profile.txt.* && \
	  grep -q "drained and stopped" $(LOGS)/serve-smoke.log && \
	  echo "serve-smoke: OK" || { echo "serve-smoke: FAILED"; exit 1; }
	@rm -f $(LOGS)/serve-smoke.sock

# Fleet smoke: `dco3d balance` with two shards behind one socket.
# Concurrent clients predict through it, a client pins its route with
# a hello, a SIGKILLed shard is respawned by the supervisor while
# `client predict --retry` rides through, and SIGTERM drains the whole
# fleet.  A one-entry result cache forces LRU evictions, so the spill
# is written both on eviction (spill_writes in the stats taken before
# the kill) and on drain (.spill files under each shard's spill dir).
# The balancer and each shard leave stage profiles under $(LOGS)/; a
# span path balance/route/balance/route in any of them means the
# concurrent connection threads nested their spans into each other.
balance-smoke:
	dune build bin/dco3d.exe
	mkdir -p $(LOGS)
	rm -f $(LOGS)/balance-smoke.sock $(LOGS)/balance-smoke.ctl $(LOGS)/balance-profile.txt*
	rm -rf $(LOGS)/balance-spill
	DCO3D_PROFILE=$(LOGS)/balance-profile.txt \
	  dune exec --no-build bin/dco3d.exe -- balance --socket $(LOGS)/balance-smoke.sock \
	  --ctl $(LOGS)/balance-smoke.ctl --shards 2 \
	  --spill-dir $(LOGS)/balance-spill --cache-capacity 1 \
	  > $(LOGS)/balance-smoke.log 2>&1 & \
	BAL_PID=$$!; \
	for i in $$(seq 1 150); do grep -q "all 2 shards live" $(LOGS)/balance-smoke.log 2>/dev/null && break; sleep 0.2; done; \
	grep -q "all 2 shards live" $(LOGS)/balance-smoke.log || { cat $(LOGS)/balance-smoke.log; exit 1; }; \
	( for s in 1 2 3; do \
	    dune exec --no-build bin/dco3d.exe -- client predict --socket $(LOGS)/balance-smoke.sock \
	      -s 0.05 --gcell 16 --seed $$s --retry 6 & \
	  done; wait ) > $(LOGS)/balance-predict.log 2>&1 && \
	dune exec --no-build bin/dco3d.exe -- client predict --socket $(LOGS)/balance-smoke.sock \
	  -s 0.05 --gcell 16 --route any --retry 6 | tee -a $(LOGS)/balance-predict.log | grep -q "hello: shard" && \
	dune exec --no-build bin/dco3d.exe -- client stats --socket $(LOGS)/balance-smoke.sock \
	  > $(LOGS)/balance-stats.log && \
	pkill -9 -f "[-]-shard-id 0" && sleep 1 && \
	dune exec --no-build bin/dco3d.exe -- client predict --socket $(LOGS)/balance-smoke.sock \
	  -s 0.05 --gcell 16 --retry 10 >> $(LOGS)/balance-predict.log 2>&1 && \
	dune exec --no-build bin/dco3d.exe -- client stats --socket $(LOGS)/balance-smoke.sock \
	  | tee -a $(LOGS)/balance-stats.log && \
	kill -TERM $$BAL_PID && wait $$BAL_PID; \
	STATUS=$$?; cat $(LOGS)/balance-smoke.log; \
	[ $$STATUS -eq 0 ] && \
	  grep -q "drained and stopped" $(LOGS)/balance-smoke.log && \
	  grep -q "shard 0: .*1 restarts" $(LOGS)/balance-smoke.log && \
	  [ -f $(LOGS)/balance-profile.txt ] && \
	  ls $(LOGS)/balance-profile.txt.shard0 $(LOGS)/balance-profile.txt.shard1 && \
	  ls $(LOGS)/balance-spill/shard-*/*.spill > /dev/null && \
	  awk '/spill_writes/ { s += $$2 } END { exit !(s > 0) }' $(LOGS)/balance-stats.log && \
	  { ! grep -l 'balance/route/balance/route' $(LOGS)/balance-profile.txt* || \
	    { echo "balance-smoke: concurrent connections nested their route spans"; false; }; } && \
	  echo "balance-smoke: OK" || { echo "balance-smoke: FAILED"; exit 1; }
	@rm -f $(LOGS)/balance-smoke.sock $(LOGS)/balance-smoke.ctl

# Thermal smoke: on a deliberately hotspotted tiny design, alternating
# minimization on the thermal penalty (`dco3d thermal --check`) must
# lower the measured peak temperature vs the no-penalty baseline with
# post-route overflow within 5%, and the epsilon-coupled Algorithm-2
# loop must run the solver in the loop and come back legal.  Exercised
# at DCO3D_JOBS=1 and $(JOBS): the solve itself is gated bit-identical.
thermal-smoke:
	dune build bin/dco3d.exe
	DCO3D_JOBS=1 dune exec --no-build bin/dco3d.exe -- thermal --check
	DCO3D_JOBS=$(JOBS) dune exec --no-build bin/dco3d.exe -- thermal --check
	@echo "thermal-smoke: OK"

# Incremental-routing smoke: `dco3d route --warm-check` perturbs the
# DMA placement, re-routes it cold and warm-started, and fails unless
# the warm start reused paths (route/warm/reused > 0), won >= 2x wall
# clock, and matched the cold route's overflow/wirelength within 5%.
# Run at DCO3D_JOBS=1 and $(JOBS); the warm result digest printed by
# the gate must be identical across the two legs.
warm-smoke:
	dune build bin/dco3d.exe
	mkdir -p $(LOGS)
	DCO3D_JOBS=1 dune exec --no-build bin/dco3d.exe -- route --warm-check \
	  | tee $(LOGS)/warm-smoke.jobs1.log
	DCO3D_JOBS=$(JOBS) dune exec --no-build bin/dco3d.exe -- route --warm-check \
	  | tee $(LOGS)/warm-smoke.jobsN.log
	@D1=$$(grep "warm digest" $(LOGS)/warm-smoke.jobs1.log); \
	DN=$$(grep "warm digest" $(LOGS)/warm-smoke.jobsN.log); \
	[ -n "$$D1" ] && [ "$$D1" = "$$DN" ] || \
	  { echo "warm-smoke: FAILED (digest differs between DCO3D_JOBS=1 and $(JOBS))"; exit 1; }
	@echo "warm-smoke: OK"

# Corpus smoke: a 2-shard fleet sharing ONE route cache and ONE PPA
# store runs a 3-design x 2-config PPA matrix twice.  The first run
# evaluates every cell; the second must be answered from the on-disk
# store without re-running the flow (rows come back verbatim, so the
# two JSON matrices are byte-identical, and corpus_cache_hits > 0 in
# the fleet stats).  A local run of the same matrix must produce the
# same matrix digest as both fleet runs — the serving tier adds no
# numeric drift.  The CI matrix runs this at DCO3D_JOBS=1 and 4.
CORPUS_DESIGNS := dma,ecg-local,vga-macro
corpus-smoke:
	dune build bin/dco3d.exe
	mkdir -p $(LOGS)
	rm -f $(LOGS)/corpus-smoke.sock $(LOGS)/corpus-smoke.ctl $(LOGS)/corpus-profile.txt*
	rm -rf $(LOGS)/corpus-store $(LOGS)/corpus-routes
	dune exec --no-build bin/dco3d.exe -- corpus --matrix \
	  --designs $(CORPUS_DESIGNS) --configs base,cong --scale 0.03 --gcell 16 \
	  --json $(LOGS)/corpus-local.json | tee $(LOGS)/corpus-local.log
	DCO3D_PROFILE=$(LOGS)/corpus-profile.txt \
	  dune exec --no-build bin/dco3d.exe -- balance --socket $(LOGS)/corpus-smoke.sock \
	  --ctl $(LOGS)/corpus-smoke.ctl --shards 2 \
	  --route-cache $(LOGS)/corpus-routes --corpus-cache $(LOGS)/corpus-store \
	  > $(LOGS)/corpus-smoke.log 2>&1 & \
	BAL_PID=$$!; \
	for i in $$(seq 1 150); do grep -q "all 2 shards live" $(LOGS)/corpus-smoke.log 2>/dev/null && break; sleep 0.2; done; \
	grep -q "all 2 shards live" $(LOGS)/corpus-smoke.log || { cat $(LOGS)/corpus-smoke.log; exit 1; }; \
	dune exec --no-build bin/dco3d.exe -- corpus --matrix --socket $(LOGS)/corpus-smoke.sock \
	  --designs $(CORPUS_DESIGNS) --configs base,cong --scale 0.03 --gcell 16 \
	  --json $(LOGS)/corpus-run1.json | tee $(LOGS)/corpus-run1.log && \
	dune exec --no-build bin/dco3d.exe -- corpus --matrix --socket $(LOGS)/corpus-smoke.sock \
	  --designs $(CORPUS_DESIGNS) --configs base,cong --scale 0.03 --gcell 16 \
	  --json $(LOGS)/corpus-run2.json | tee $(LOGS)/corpus-run2.log && \
	{ dune exec --no-build bin/dco3d.exe -- client stats --socket $(LOGS)/corpus-smoke.sock; \
	  dune exec --no-build bin/dco3d.exe -- client stats --socket $(LOGS)/corpus-smoke.sock; } \
	  | tee $(LOGS)/corpus-stats.log && \
	kill -TERM $$BAL_PID && wait $$BAL_PID; \
	STATUS=$$?; cat $(LOGS)/corpus-smoke.log; \
	[ $$STATUS -eq 0 ] && \
	  grep -q "drained and stopped" $(LOGS)/corpus-smoke.log && \
	  cmp $(LOGS)/corpus-run1.json $(LOGS)/corpus-run2.json && \
	  D_LOCAL=$$(grep "corpus matrix:" $(LOGS)/corpus-local.log) && \
	  D_RUN1=$$(grep "corpus matrix:" $(LOGS)/corpus-run1.log) && \
	  D_RUN2=$$(grep "corpus matrix:" $(LOGS)/corpus-run2.log) && \
	  [ -n "$$D_LOCAL" ] && [ "$$D_LOCAL" = "$$D_RUN1" ] && [ "$$D_RUN1" = "$$D_RUN2" ] && \
	  awk '/corpus_cache_hits/ { s += $$2 } END { exit !(s > 0) }' $(LOGS)/corpus-stats.log && \
	  echo "corpus-smoke: OK" || { echo "corpus-smoke: FAILED"; exit 1; }
	@rm -f $(LOGS)/corpus-smoke.sock $(LOGS)/corpus-smoke.ctl

examples:
	dune exec examples/quickstart.exe
	dune exec examples/predict_congestion.exe
	dune exec examples/spread_3d.exe
	dune exec examples/flow_compare.exe

clean:
	dune clean
