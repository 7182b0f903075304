.PHONY: all build test lint analyze chaos crash-chaos replica-chaos storage-chaos scrub-smoke mvcc-chaos serve-smoke bench-smoke perfbench-smoke check clean

all: build

build:
	dune build

test:
	dune runtest

# Lint the example SQL corpus with the plan checker (`rfview lint`),
# plus the SQL string literals embedded in the test/ and examples/
# OCaml drivers (extracted-literal mode).
lint:
	dune build @lint

# Abstract interpretation over the example corpus (`rfview analyze`):
# fails on any RF2xx diagnostic — statically-empty predicates,
# guaranteed division by zero, NULL-poisoned aggregates, cumulative-SUM
# overflow risk — and prints derivability certificates for each query.
analyze:
	dune build @analyze

# Fault-injection sweep: the chaos harness plus the rollback/quarantine
# suite (test/test_fault.ml) against every registered site.
chaos:
	dune exec test/test_fault.exe

# Crash-recovery chaos: the durability suite (test/test_crash.ml) — WAL
# round trips, torn tails, checkpoint/recovery faults, and the seed
# matrix of randomized crash streams against the shadow oracle.
crash-chaos:
	dune exec test/test_crash.exe

# Replication chaos: the replica suite (test/test_replica.ml) —
# compression/pack round trips, the prefix-monotone WAL replay
# property, checkpoint-epoch crash protocol, stale-bounded reads,
# quarantine/resync, promotion, and the multi-seed replica chaos
# matrix (kills, feed corruption, lag, primary crashes, failover; every
# served read must be a true historical state at its reported LSN).
replica-chaos:
	dune exec test/test_replica.exe

# Storage-fault chaos: the storage suite (test/test_storage.ml) — the
# simulated disk (ENOSPC byte budgets with torn writes, EIO, seeded bit
# flips, power cuts losing unsynced bytes), disk-full degraded mode and
# the space-probe resume, the io.* fault-site sweep, the scrub property,
# cross-source WAL repair with bit-identity, and the multi-seed
# storage-chaos matrix against the shadow oracle.
storage-chaos:
	dune exec test/test_storage.exe

# End-to-end scrub/repair smoke over a real fixture: build a durable
# database from the quickstart script, corrupt one WAL byte with dd,
# and check that `rfview scrub` flags it (exit 1), `--repair` heals it,
# and a final scrub comes back clean.
scrub-smoke:
	rm -rf _scrub_smoke
	dune exec bin/rfview.exe -- run examples/sql/quickstart.sql \
	  --db _scrub_smoke > /dev/null
	printf '\377' | dd of=_scrub_smoke/log.wal bs=1 seek=20 \
	  conv=notrunc status=none
	@if dune exec bin/rfview.exe -- scrub _scrub_smoke; then \
	  echo "scrub missed the corrupted WAL byte"; exit 1; fi
	dune exec bin/rfview.exe -- scrub _scrub_smoke --repair
	dune exec bin/rfview.exe -- scrub _scrub_smoke
	rm -rf _scrub_smoke

# MVCC + server suites at 1 and 4 worker domains: snapshot isolation,
# the retained-version window, the concurrent snapshot chaos matrix
# (every read a true historical state at its reported LSN), the domain
# pool, and socket round-trips with concurrent clients.
mvcc-chaos:
	RFVIEW_TEST_DOMAINS=1 dune exec test/test_mvcc.exe
	RFVIEW_TEST_DOMAINS=1 dune exec test/test_server.exe
	RFVIEW_TEST_DOMAINS=4 dune exec test/test_mvcc.exe
	RFVIEW_TEST_DOMAINS=4 dune exec test/test_server.exe

# End-to-end server smoke over a real durable fixture: build a database
# from the quickstart script, serve it on a fixed port, run three
# client round-trips (`rfview call`), and shut the server down cleanly.
serve-smoke:
	rm -rf _serve_smoke
	dune build bin/rfview.exe
	./_build/default/bin/rfview.exe run examples/sql/quickstart.sql \
	  --db _serve_smoke > /dev/null
	./_build/default/bin/rfview.exe serve _serve_smoke --port 7491 & \
	  srv=$$!; \
	  for i in 1 2 3 4 5 6 7 8 9 10; do \
	    if ./_build/default/bin/rfview.exe call 7491 ping \
	      >/dev/null 2>&1; then break; fi; sleep 0.5; \
	  done; \
	  ./_build/default/bin/rfview.exe call 7491 ping status \
	    "query SELECT * FROM seq" && \
	  ./_build/default/bin/rfview.exe call 7491 shutdown && \
	  wait $$srv
	rm -rf _serve_smoke

# Scaled-down run of the delta-maintenance experiment (batched vs
# per-row vs full-refresh propagation): asserts the modes agree
# bit-for-bit, writes BENCH_delta.json, and fails unless the report is
# well-formed.  Then the generalized-IVM experiment (derived delta
# plans vs full refresh on join/GROUP BY views), writing BENCH_IVM.json,
# the scan-sharing experiment (certified shared base scans vs per-view
# batched maintenance, bit-identical fingerprints), writing
# BENCH_share.json, the replica experiment, and the concurrent-serving
# experiment (snapshot-read fan-out + wrong-read chaos), writing
# BENCH_serve.json, all under the same checks.
bench-smoke:
	dune exec bench/main.exe -- delta --smoke
	@grep -q '"acceptance"' BENCH_delta.json && grep -q '"speedup"' BENCH_delta.json \
	  && echo "BENCH_delta.json well-formed"
	dune exec bench/main.exe -- delta-ivm --smoke
	@grep -q '"acceptance"' BENCH_IVM.json && grep -q '"speedup"' BENCH_IVM.json \
	  && echo "BENCH_IVM.json well-formed"
	dune exec bench/main.exe -- share --smoke
	@grep -q '"acceptance"' BENCH_share.json && grep -q '"speedup"' BENCH_share.json \
	  && echo "BENCH_share.json well-formed"
	dune exec bench/main.exe -- replica --smoke
	@grep -q '"acceptance"' BENCH_replica.json && grep -q '"speedup"' BENCH_replica.json \
	  && echo "BENCH_replica.json well-formed"
	dune exec bench/main.exe -- serve --smoke
	@grep -q '"acceptance"' BENCH_serve.json && grep -q '"speedup"' BENCH_serve.json \
	  && echo "BENCH_serve.json well-formed"

# The benchmark's correctness gate: a 3-second run of each perfbench
# workload (point-commit, report-read, ingest-mixed) must report
# "correct": true and zero failed operations.  report-read's gate
# bit-compares every wire answer with an in-process Snapshot.query
# through the view index, where a stale shared index would show.
perfbench-smoke:
	@for w in point-commit report-read ingest-mixed; do \
	  line=$$(python3 perfbench/run.py --workload $$w --seed 1 --seconds 3 \
	    --trace 0 | tail -n 1); \
	  echo "$$w: $$line"; \
	  printf '%s' "$$line" | python3 -c 'import json, sys; r = json.load(sys.stdin); sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' \
	    || { echo "perfbench-smoke: $$w answered wrongly or failed operations"; exit 1; }; \
	done

check: build test lint analyze chaos crash-chaos replica-chaos storage-chaos scrub-smoke mvcc-chaos serve-smoke bench-smoke perfbench-smoke

clean:
	dune clean
