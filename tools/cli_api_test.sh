#!/usr/bin/env bash
# End-to-end CLI acceptance for the unified engine API (ctest label `api`):
# an ExplicitWorkload (the paper's Fig. 1 matrix) runs the full dense
# store-and-serve loop — design --save -> release --store (ledger charged)
# -> serve — plus the strict --engine parsing contract, the ledger's exit-3
# refusal, and standalone strategy files of both engines (design --out
# materializes a kron strategy). Usage: cli_api_test.sh <path-to-dpmm_cli>
set -euo pipefail

CLI="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT
STORE="${WORK}/store"
fail() { echo "FAIL: $*" >&2; exit 1; }

# An 8-cell histogram over the Fig. 1 domain (gender x gpa = 2 x 4).
DATA="${WORK}/fig1.csv"
{
  echo "# domain: 2,4"
  for i in 0 1 2 3 4 5 6 7; do echo "${i},$((10 + i * 3))"; done
} > "${DATA}"

echo "== strict --engine parsing =="
"${CLI}" release --data "${DATA}" --workload fig1 --engine bogus \
  >/dev/null 2>&1 && fail "--engine bogus must exit nonzero"
rc=0; "${CLI}" release --data "${DATA}" --workload fig1 --engine bogus \
  >/dev/null 2>&1 || rc=$?
[ "${rc}" -eq 2 ] || fail "--engine bogus must exit 2, got ${rc}"

echo "== --delta >= 1 is a usage error =="
rc=0; "${CLI}" release --data "${DATA}" --workload fig1 --delta 1.5 \
  >/dev/null 2>&1 || rc=$?
[ "${rc}" -eq 2 ] || fail "release --delta 1.5 must exit 2, got ${rc}"
rc=0; "${CLI}" error --domain 8 --delta 2 >/dev/null 2>&1 || rc=$?
[ "${rc}" -eq 2 ] || fail "error --delta 2 must exit 2, got ${rc}"

echo "== dense design --save =="
"${CLI}" design --domain 2,4 --workload fig1 --save "${STORE}" \
  > "${WORK}/design.out" || fail "dense design --save failed"
grep -q "engine dense" "${WORK}/design.out" || fail "design did not report the dense engine"

echo "== release --store against the dense artifact =="
"${CLI}" release --data "${DATA}" --workload fig1 --store "${STORE}" \
  --dataset fig1 --epsilon 0.4 --delta 1e-4 \
  --total-epsilon 0.5 --total-delta 2e-4 --seed 7 \
  > "${WORK}/release.csv" 2> "${WORK}/release.err" \
  || fail "release --store failed"
grep -q "reusing stored strategy" "${WORK}/release.err" \
  || fail "release did not reuse the stored dense strategy"
grep -q "stored release 0" "${WORK}/release.err" || fail "release not stored"

echo "== explicit --engine contradicting the stored engine exits 2 =="
rc=0; "${CLI}" release --data "${DATA}" --workload fig1 --store "${STORE}" \
  --dataset fig1 --epsilon 0.01 --engine kron >/dev/null 2>&1 || rc=$?
[ "${rc}" -eq 2 ] || fail "--engine kron on a dense store must exit 2, got ${rc}"

echo "== ledger refusal exits 3 =="
rc=0; "${CLI}" release --data "${DATA}" --workload fig1 --store "${STORE}" \
  --dataset fig1 --epsilon 0.4 --delta 1e-4 >/dev/null 2>&1 || rc=$?
[ "${rc}" -eq 3 ] || fail "over-budget release must exit 3, got ${rc}"

echo "== serve from the dense artifact =="
printf '*\nA1 = 0 AND A2 <= 1\nquit\n' | \
  "${CLI}" serve --store "${STORE}" --domain 2,4 --workload fig1 \
  > "${WORK}/serve.out" 2> "${WORK}/serve.err" || fail "serve failed"
grep -q "engine dense" "${WORK}/serve.err" || fail "serve did not report the dense engine"
[ "$(grep -c '±' "${WORK}/serve.out")" -eq 2 ] || fail "expected 2 served answers"
# Sanity: the total query's answer is a finite number with a finite bar.
awk 'NR==1 { if ($1+0 != $1 || $3+0 != $3) exit 1 }' "${WORK}/serve.out" \
  || fail "served answer not numeric"

echo "== an oversized literal is a served error, not a crash =="
rc=0
printf 'A1 < 99999999999999999999999\n*\nquit\n' | \
  "${CLI}" serve --store "${STORE}" --domain 2,4 --workload fig1 \
  > "${WORK}/serve_huge.out" 2> "${WORK}/serve_huge.err" || rc=$?
[ "${rc}" -eq 0 ] || fail "serve must survive an oversized literal, exited ${rc}"
head -n 1 "${WORK}/serve_huge.out" | grep -q "^error: predicate parse error" \
  || fail "oversized literal was not reported as a parse error"
[ "$(sed -n 2p "${WORK}/serve_huge.out")" = "$(head -n 1 "${WORK}/serve.out")" ] \
  || fail "serve did not answer '*' after the bad line"

echo "== ledger lock contention exits 4 =="
# A background `ledger hold` owns the dataset's exclusive lock; a release
# (and a ledger show, whose shared lock also waits out an exclusive holder)
# with a short timeout must give up with the distinct Unavailable code.
"${CLI}" ledger hold --store "${STORE}" --dataset fig1 --hold-ms 3000 \
  2> "${WORK}/hold.err" &
HOLD_PID=$!
for _ in $(seq 50); do
  grep -q "holding ledger lock" "${WORK}/hold.err" 2>/dev/null && break
  sleep 0.1
done
grep -q "holding ledger lock" "${WORK}/hold.err" || fail "ledger hold never acquired"
rc=0; "${CLI}" release --data "${DATA}" --workload fig1 --store "${STORE}" \
  --dataset fig1 --epsilon 0.05 --delta 1e-5 --lock-timeout-ms 200 \
  >/dev/null 2>&1 || rc=$?
[ "${rc}" -eq 4 ] || fail "release against a held lock must exit 4, got ${rc}"
rc=0; "${CLI}" ledger show --store "${STORE}" --dataset fig1 \
  --lock-timeout-ms 200 >/dev/null 2>&1 || rc=$?
[ "${rc}" -eq 4 ] || fail "ledger show against a held lock must exit 4, got ${rc}"
wait "${HOLD_PID}" || fail "ledger hold exited nonzero"

echo "== crash mid-charge, then idempotent retry charges exactly once =="
# DPMM_FS_CRASH_AFTER=2 kills the ledger's filesystem seam inside the WAL
# append (after open + write, at the fsync): the charge is not acknowledged.
# The retry with the same --charge-id must land the charge exactly once —
# whether or not the interrupted append's record survived.
rc=0; DPMM_FS_CRASH_AFTER=2 "${CLI}" release --data "${DATA}" \
  --workload fig1 --store "${STORE}" --dataset crashy --epsilon 0.1 \
  --delta 1e-5 --total-epsilon 0.5 --total-delta 1e-4 \
  --charge-id retry-me >/dev/null 2>&1 || rc=$?
[ "${rc}" -ne 0 ] || fail "release with an injected crash must exit nonzero"
"${CLI}" ledger recover --store "${STORE}" --dataset crashy >/dev/null 2>&1 \
  || true  # truncates any torn tail; NotFound is fine if nothing landed
"${CLI}" release --data "${DATA}" --workload fig1 --store "${STORE}" \
  --dataset crashy --epsilon 0.1 --delta 1e-5 --total-epsilon 0.5 \
  --total-delta 1e-4 --charge-id retry-me >/dev/null 2>&1 \
  || fail "retry of the crashed charge failed"
"${CLI}" ledger show --store "${STORE}" --dataset crashy \
  > "${WORK}/crashy.out" || fail "ledger show after recovery failed"
grep -q "^charges  1$" "${WORK}/crashy.out" \
  || fail "crashed+retried charge must appear exactly once: $(cat "${WORK}/crashy.out")"
grep -q "^spent    eps=0.1" "${WORK}/crashy.out" \
  || fail "spent must reflect exactly one charge: $(cat "${WORK}/crashy.out")"

echo "== strategy file round-trip through release --strategy =="
"${CLI}" design --domain 2,4 --workload fig1 --out "${WORK}/fig1.strategy" \
  >/dev/null || fail "design --out failed"
"${CLI}" release --data "${DATA}" --workload fig1 \
  --strategy "${WORK}/fig1.strategy" --epsilon 0.5 \
  --out "${WORK}/answers.csv" >/dev/null || fail "release --strategy failed"
[ -s "${WORK}/answers.csv" ] || fail "no answers written"

echo "== kron strategy file: design --out materializes, release --strategy uses it =="
"${CLI}" design --domain 2,4 --workload allrange \
  --out "${WORK}/allrange.strategy" > "${WORK}/kron_design.out" \
  || fail "kron design --out failed"
grep -q "engine kron" "${WORK}/kron_design.out" \
  || fail "allrange design did not report the kron engine"
"${CLI}" release --data "${DATA}" --workload allrange \
  --strategy "${WORK}/allrange.strategy" --epsilon 0.5 \
  --out "${WORK}/allrange_answers.csv" >/dev/null \
  || fail "release --strategy with a materialized kron strategy failed"
[ -s "${WORK}/allrange_answers.csv" ] || fail "no allrange answers written"

echo "== stats --json round-trips a JSON parser =="
"${CLI}" stats --json 1 > "${WORK}/stats.json" || fail "stats --json failed"
python3 - "${WORK}/stats.json" <<'PYEOF' || fail "stats --json is not valid JSON with the standard inventory"
import json, sys
with open(sys.argv[1]) as f:
    d = json.load(f)
assert set(d) == {"counters", "gauges", "histograms"}, sorted(d)
assert "dpmm.serve.wal.appends" in d["counters"]
assert "dpmm.util.thread_pool.queue_depth" in d["gauges"]
h = d["histograms"]["dpmm.serve.answer_engine.query_ns"]
assert set(h) == {"count", "sum", "p50", "p95", "p99", "max"}, sorted(h)
PYEOF
"${CLI}" stats > "${WORK}/stats.out" || fail "stats table failed"
grep -q "dpmm.serve.budget_ledger.charges" "${WORK}/stats.out" \
  || fail "stats table missing the standard inventory"

echo "== DPMM_STATS=1 shows nonzero counters across the pipeline =="
# Each stage must prove its own subsystems counted in-process: design the
# solver, release the ledger/WAL/lock/store, serve the engine and parser.
DPMM_STATS=1 "${CLI}" design --domain 2,4 --workload fig1 \
  --out "${WORK}/stats.strategy" >/dev/null 2> "${WORK}/design_stats.err" \
  || fail "design under DPMM_STATS failed"
grep -q "dpmm.optimize.dual_solver.solves " "${WORK}/design_stats.err" \
  || fail "design did not count dual-solver solves"
DPMM_STATS=1 "${CLI}" release --data "${DATA}" --workload fig1 \
  --store "${STORE}" --dataset obs --epsilon 0.05 --delta 1e-5 \
  --total-epsilon 0.5 --total-delta 1e-4 \
  >/dev/null 2> "${WORK}/release_stats.err" \
  || fail "release under DPMM_STATS failed"
for metric in dpmm.serve.budget_ledger.charges dpmm.serve.wal.appends \
    dpmm.serve.file_lock.acquires dpmm.serve.store.artifact_writes \
    dpmm.mechanism.matrix_mechanism.releases; do
  grep -q "${metric} " "${WORK}/release_stats.err" \
    || fail "release did not count ${metric}"
done
printf '*\n\\stats\nA1 = 0; A1 = 1\nquit\n' | \
  DPMM_STATS=1 "${CLI}" serve --store "${STORE}" --domain 2,4 \
  --workload fig1 --stats-every 1 \
  > "${WORK}/serve_stats.out" 2> "${WORK}/serve_stats.err" \
  || fail "serve under DPMM_STATS failed"
for metric in dpmm.serve.answer_engine.queries dpmm.query.predicate.parses \
    dpmm.serve.store.artifact_reads; do
  grep -q "${metric} " "${WORK}/serve_stats.err" \
    || fail "serve did not count ${metric}"
done
# The \stats meta-command plus the exit dump -> at least two dumps, and
# --stats-every 1 -> at least one periodic summary line.
[ "$(grep -c -- "-- metrics --" "${WORK}/serve_stats.err")" -ge 2 ] \
  || fail "\\stats meta-command did not dump metrics"
grep -q "^stats: served=" "${WORK}/serve_stats.err" \
  || fail "--stats-every did not emit the periodic stats line"
[ "$(grep -c '±' "${WORK}/serve_stats.out")" -eq 3 ] \
  || fail "stats surfaces must not disturb the answer stream"

echo "== DPMM_TRACE writes a loadable Chrome trace =="
printf '*\nquit\n' | DPMM_TRACE="${WORK}/trace.json" "${CLI}" serve \
  --store "${STORE}" --domain 2,4 --workload fig1 >/dev/null 2>&1 \
  || fail "serve under DPMM_TRACE failed"
python3 - "${WORK}/trace.json" <<'PYEOF' || fail "DPMM_TRACE output is not a valid trace_event file"
import json, sys
with open(sys.argv[1]) as f:
    d = json.load(f)
events = d["traceEvents"]
assert events, "no trace events recorded"
for e in events:
    assert e["ph"] == "X" and e["dur"] >= 0, e
assert any(e["name"] == "AnswerPredicate" for e in events)
PYEOF

echo "cli_api_test: all green"
