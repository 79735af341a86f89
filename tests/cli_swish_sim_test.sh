#!/usr/bin/env bash
# swish_sim CLI contract test (registered with CTest):
#   1. Malformed arguments exit with status 2 and a usage message on stderr —
#      never an uncaught exception (which would abort with SIGABRT/134).
#   2. Two same-seed runs export byte-identical --metrics-json documents.
#   3. --trace writes a parseable flight-recorder dump, at any shard count.
#   4. Causal tracing: --perfetto emits a trace-event JSON the analyze
#      subcommand accepts, --timeseries emits CSV, an output given as "-"
#      (--metrics-json, --drops-json, --health-json) writes pure JSON to
#      stdout and at most one may, and --trace-mask errors enumerate valid
#      names.
#   5. Sharding: impossible --shards values exit 2 with a diagnostic,
#      --shards 1 is byte-identical to the flagless run, and same-seed
#      multi-shard runs (trace dumps included) are byte-identical to each
#      other.
set -u

BIN="${1:?usage: cli_swish_sim_test.sh <path-to-swish_sim>}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
fail=0

expect_usage() {
  local rc=0
  "$BIN" "$@" >"$TMP/out" 2>"$TMP/err" || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL: swish_sim $* exited $rc (want 2)"
    fail=1
  elif ! grep -q "^usage:" "$TMP/err"; then
    echo "FAIL: swish_sim $* printed no usage message"
    fail=1
  fi
}

# Unknown flag.
expect_usage --definitely-not-a-flag
# Malformed numerics (previously an uncaught std::invalid_argument).
expect_usage --switches abc
expect_usage --switches -3
expect_usage --loss banana
expect_usage --loss -0.5
expect_usage --duration-ms 10x
expect_usage --seed ""
# Malformed compound arguments.
expect_usage --kill 1
expect_usage --kill one:20
expect_usage --attack 100:200
expect_usage --space nospace
expect_usage --space =sro
expect_usage --space name=bogus
# Bad space kind (valid class, bogus kind; and empty kind).
expect_usage --space name=sro:dense-ish
expect_usage --space name=ewo:
expect_usage --topology ring
expect_usage --nf quantum
expect_usage --trace-mask not-a-category
# Flag missing its value.
expect_usage --switches
# Probabilities lie in [0, 1]; periods drive timers, so they are positive.
expect_usage --loss 1.5
expect_usage --reroute 2
expect_usage --sync-period-us 0
expect_usage --timeseries-period-us 0 --timeseries "$TMP/zero_period.csv"

# Determinism: same seed, byte-identical metrics export.
run_args=(--nf nat --switches 3 --duration-ms 40 --seed 11 --quiet)
if ! "$BIN" "${run_args[@]}" --metrics-json "$TMP/m1.json" >/dev/null 2>&1; then
  echo "FAIL: baseline run exited nonzero"
  fail=1
fi
if ! "$BIN" "${run_args[@]}" --metrics-json "$TMP/m2.json" >/dev/null 2>&1; then
  echo "FAIL: repeat run exited nonzero"
  fail=1
fi
if ! cmp -s "$TMP/m1.json" "$TMP/m2.json"; then
  echo "FAIL: same-seed runs produced different --metrics-json output"
  diff "$TMP/m1.json" "$TMP/m2.json" | head -20
  fail=1
fi
grep -q '"shm"' "$TMP/m1.json" || { echo "FAIL: metrics JSON missing shm subtree"; fail=1; }
grep -q '"net"' "$TMP/m1.json" || { echo "FAIL: metrics JSON missing net subtree"; fail=1; }

# Tracing: a kill produces failover events in the dump.
if ! "$BIN" --switches 3 --duration-ms 60 --kill 1:20 --quiet \
     --trace "$TMP/trace.txt" --trace-mask failover >/dev/null 2>&1; then
  echo "FAIL: trace run exited nonzero"
  fail=1
fi
grep -q "switch_failed" "$TMP/trace.txt" || {
  echo "FAIL: trace dump has no switch_failed event"
  fail=1
}

# Causal tracing exporters: sampled spans reach the Perfetto JSON and the
# analyze subcommand stitches them back into traces.
if ! "$BIN" --nf nat --switches 3 --duration-ms 60 --seed 5 --quiet \
     --span-sample 1 --perfetto "$TMP/spans.json" \
     --timeseries "$TMP/ts.csv" --timeseries-period-us 10000 >/dev/null 2>&1; then
  echo "FAIL: perfetto/timeseries run exited nonzero"
  fail=1
fi
grep -q '"traceEvents"' "$TMP/spans.json" || {
  echo "FAIL: perfetto output is not a trace-event document"
  fail=1
}
grep -q '"ph"' "$TMP/spans.json" || { echo "FAIL: perfetto output has no events"; fail=1; }
if ! "$BIN" analyze "$TMP/spans.json" >"$TMP/analyze.txt" 2>&1; then
  echo "FAIL: analyze subcommand exited nonzero"
  fail=1
fi
grep -q "traces" "$TMP/analyze.txt" || { echo "FAIL: analyze printed no trace count"; fail=1; }
head -1 "$TMP/ts.csv" | grep -q "^time_ns,metric,value$" || {
  echo "FAIL: timeseries CSV missing header"
  fail=1
}
[ "$(wc -l <"$TMP/ts.csv")" -gt 1 ] || { echo "FAIL: timeseries CSV has no samples"; fail=1; }

# --metrics-json - writes the JSON document (and nothing else) to stdout.
if ! "$BIN" --nf nat --switches 3 --duration-ms 40 --seed 11 --quiet \
     --metrics-json - >"$TMP/stdout.json" 2>/dev/null; then
  echo "FAIL: --metrics-json - run exited nonzero"
  fail=1
fi
if ! cmp -s "$TMP/stdout.json" "$TMP/m1.json"; then
  echo "FAIL: --metrics-json - stdout differs from file export"
  fail=1
fi

# Space-kind overrides: forcing a space sparse is accepted, runs clean, and
# stays deterministic across repeat runs.
sparse_args=(--nf nat --switches 3 --duration-ms 40 --seed 11 --quiet
             --space nat.translation=sro:sparse)
for i in 1 2; do
  if ! "$BIN" "${sparse_args[@]}" --metrics-json "$TMP/sp$i.json" >/dev/null 2>&1; then
    echo "FAIL: --space nat.translation=sro:sparse run $i exited nonzero"
    fail=1
  fi
done
if ! cmp -s "$TMP/sp1.json" "$TMP/sp2.json"; then
  echo "FAIL: same-seed sparse-override runs produced different metrics"
  fail=1
fi
grep -q '"store"' "$TMP/sp1.json" || {
  echo "FAIL: sparse-override metrics missing store gauges"
  fail=1
}
# An explicit dense kind is accepted too (and is the default: same output
# as spelling only the class).
if ! "$BIN" --nf nat --switches 3 --duration-ms 40 --seed 11 --quiet \
     --space nat.translation=sro:dense >/dev/null 2>&1; then
  echo "FAIL: --space nat.translation=sro:dense run exited nonzero"
  fail=1
fi

# Sharding contract. Impossible --shards combinations exit 2 with a
# diagnostic (not a throw from inside Fabric).
expect_error2() {
  local pattern="$1"
  shift
  local rc=0
  "$BIN" "$@" >"$TMP/out" 2>"$TMP/err" || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL: swish_sim $* exited $rc (want 2)"
    fail=1
  elif ! grep -q "$pattern" "$TMP/err"; then
    echo "FAIL: swish_sim $* diagnostic missing '$pattern'"
    head -3 "$TMP/err"
    fail=1
  fi
}

expect_error2 "at least one event loop"  --switches 3 --shards 0
expect_error2 "exceeds the fabric"       --switches 3 --shards 9
expect_error2 "expects a count"          --switches 3 --shards banana
expect_error2 "expects a count"          --switches 3 --shards 2x
expect_error2 "multi-switch fabric"      --switches 1 --shards auto
expect_error2 "require --shards 1"       --switches 3 --shards 3 --timeseries "$TMP/t.csv"

# Impossible fabrics and spaces exit 2 with a diagnostic, not a throw (134)
# or a silent run: a switch index past the fabric, a leaf-spine without
# spines (no leaf could reach another), and a table-backed space overridden
# to dense EWO (its raw-key register arrays cannot hold flow-hash keys).
expect_error2 "names switch index" --switches 4 --kill 4:20
expect_error2 "names switch index" --switches 4 --revive 99:20
expect_error2 "needs >= 1 spine"   --topology leafspine --spines 0 --duration-ms 20
expect_error2 "ewo:sparse" --nf nat --duration-ms 20 --space nat.translation=ewo
expect_error2 "ewo:sparse" --nf firewall --duration-ms 20 --space fw.connections=ewo
expect_error2 "ewo:sparse" --nf lb --duration-ms 20 --space lb.conn_to_dip=ewo
# ...while the sparse layout holds them.
if ! "$BIN" --nf nat --duration-ms 20 --quiet --space nat.translation=ewo:sparse \
     >/dev/null 2>&1; then
  echo "FAIL: --space nat.translation=ewo:sparse run exited nonzero"
  fail=1
fi
# A zero rate generates nothing and exits 0: no flows, and a flood of one
# packet.
for zero in "--flows-per-sec 0" "--nf ddos --attack 0:5:10"; do
  # shellcheck disable=SC2086  # $zero is a word list
  if ! "$BIN" $zero --duration-ms 20 --quiet >/dev/null 2>&1; then
    echo "FAIL: swish_sim $zero exited nonzero"
    fail=1
  fi
done

# --trace dumps every shard's record log: a sharded kill run traces the
# failover, and two same-seed runs dump byte-identical traces.
for i in 1 2; do
  if ! "$BIN" --switches 3 --shards 3 --duration-ms 60 --kill 1:20 --seed 11 --quiet \
       --trace "$TMP/trace_s3_$i.txt" --trace-mask drop,failover >/dev/null 2>&1; then
    echo "FAIL: --shards 3 --trace run $i exited nonzero"
    fail=1
  fi
done
grep -q "switch_failed" "$TMP/trace_s3_1.txt" || {
  echo "FAIL: --shards 3 trace dump has no switch_failed event"
  fail=1
}
cmp -s "$TMP/trace_s3_1.txt" "$TMP/trace_s3_2.txt" || {
  echo "FAIL: same-seed --shards 3 runs produced different trace dumps"
  diff "$TMP/trace_s3_1.txt" "$TMP/trace_s3_2.txt" | head -20
  fail=1
}

# --shards 1 must reproduce the flagless (legacy single-threaded) run
# byte-for-byte: m1.json above was exported without the flag.
if ! "$BIN" "${run_args[@]}" --shards 1 --metrics-json "$TMP/m_s1.json" >/dev/null 2>&1; then
  echo "FAIL: --shards 1 run exited nonzero"
  fail=1
fi
if ! cmp -s "$TMP/m_s1.json" "$TMP/m1.json"; then
  echo "FAIL: --shards 1 differs from the flagless run"
  diff "$TMP/m_s1.json" "$TMP/m1.json" | head -20
  fail=1
fi

# Multi-shard determinism: same seed + same shard count, byte-identical
# metrics and Perfetto exports across repeat runs.
shard_args=(--nf nat --switches 3 --shards 3 --duration-ms 40 --seed 11 --quiet
            --span-sample 1)
for i in 1 2; do
  if ! "$BIN" "${shard_args[@]}" --metrics-json "$TMP/ms$i.json" \
       --perfetto "$TMP/ps$i.json" >/dev/null 2>&1; then
    echo "FAIL: sharded run $i exited nonzero"
    fail=1
  fi
done
if ! cmp -s "$TMP/ms1.json" "$TMP/ms2.json"; then
  echo "FAIL: same-seed --shards 3 runs produced different metrics"
  diff "$TMP/ms1.json" "$TMP/ms2.json" | head -20
  fail=1
fi
if ! cmp -s "$TMP/ps1.json" "$TMP/ps2.json"; then
  echo "FAIL: same-seed --shards 3 runs produced different Perfetto exports"
  fail=1
fi

# Membership contract. Bad protocol names, impossible protocol/fabric
# combinations, and invalid detection timing exit 2 with a diagnostic.
expect_error2 "unknown membership protocol" --membership raft
expect_error2 "at least 2 switches"         --switches 1 --membership swim
expect_error2 "must exceed check_period"    --hb-timeout-ms 5 --check-period-ms 10
expect_error2 "must be positive"            --check-period-ms 0

# --membership heartbeat is the default spelled out: byte-identical to the
# flagless export (m1.json above).
if ! "$BIN" "${run_args[@]}" --membership heartbeat \
     --metrics-json "$TMP/m_hb.json" >/dev/null 2>&1; then
  echo "FAIL: --membership heartbeat run exited nonzero"
  fail=1
fi
if ! cmp -s "$TMP/m_hb.json" "$TMP/m1.json"; then
  echo "FAIL: --membership heartbeat differs from the flagless run"
  diff "$TMP/m_hb.json" "$TMP/m1.json" | head -20
  fail=1
fi

# SWIM under sharding: same seed + same shard count, byte-identical metrics
# across repeat runs (the gossip protocol must be shard-deterministic).
swim_args=(--nf nat --switches 4 --shards 3 --membership swim
           --duration-ms 60 --seed 11 --quiet)
for i in 1 2; do
  if ! "$BIN" "${swim_args[@]}" --metrics-json "$TMP/sw$i.json" >/dev/null 2>&1; then
    echo "FAIL: swim sharded run $i exited nonzero"
    fail=1
  fi
done
if ! cmp -s "$TMP/sw1.json" "$TMP/sw2.json"; then
  echo "FAIL: same-seed --membership swim --shards 3 runs differ"
  diff "$TMP/sw1.json" "$TMP/sw2.json" | head -20
  fail=1
fi
grep -q '"membership"' "$TMP/sw1.json" || {
  echo "FAIL: swim metrics JSON missing membership subtree"
  fail=1
}

# Consensus class: --space NAME=con runs clean and deterministically; both
# lb.* spaces on kCON exercises the transactional install path.
con_args=(--nf lb --switches 3 --duration-ms 40 --seed 11 --quiet
          --space lb.conn_to_dip=con --space lb.dip_refcount=con)
for i in 1 2; do
  if ! "$BIN" "${con_args[@]}" --metrics-json "$TMP/con$i.json" >/dev/null 2>&1; then
    echo "FAIL: --space ...=con run $i exited nonzero"
    fail=1
  fi
done
if ! cmp -s "$TMP/con1.json" "$TMP/con2.json"; then
  echo "FAIL: same-seed kCON runs produced different metrics"
  diff "$TMP/con1.json" "$TMP/con2.json" | head -20
  fail=1
fi
grep -q '"con"' "$TMP/con1.json" || {
  echo "FAIL: kCON metrics JSON missing con counters"
  fail=1
}
# Sparse storage under consensus is accepted too.
if ! "$BIN" --nf lb --switches 3 --duration-ms 40 --seed 11 --quiet \
     --space lb.conn_to_dip=con:sparse >/dev/null 2>&1; then
  echo "FAIL: --space lb.conn_to_dip=con:sparse run exited nonzero"
  fail=1
fi
# A kill schedule that permanently drops the deployment below a majority
# quorum can never commit a consensus write: refused up front with exit 2.
expect_error2 "majority quorum" --nf lb --switches 3 --duration-ms 60 \
  --space lb.conn_to_dip=con --kill 1:10 --kill 2:10
# ...but the same schedule with a revive keeps the quorum reachable.
if ! "$BIN" --nf lb --switches 3 --duration-ms 60 --seed 11 --quiet \
     --space lb.conn_to_dip=con --kill 1:10 --kill 2:10 --revive 2:30 \
     >/dev/null 2>&1; then
  echo "FAIL: quorum-preserving kill/revive schedule exited nonzero"
  fail=1
fi

# INT telemetry contract. Malformed flag values exit 2 with usage, never a
# throw; the hop cap must fit the on-wire u8.
expect_usage --int-sample abc
expect_usage --int-sample
expect_usage --int-hop-cap 0
expect_usage --int-hop-cap 256
expect_usage --int-hop-cap abc
expect_usage --dataplane-pps 0
expect_usage --dataplane-pps abc
expect_usage analyze --health

# A sampled run exports the health scorecard: health.* metrics subtree, a
# health JSON the analyze subcommand re-renders, and a Perfetto file whose
# counter tracks ride beside the spans.
int_args=(--nf nat --switches 4 --loss 0.02 --duration-ms 60 --seed 11 --quiet
          --int-sample 4)
if ! "$BIN" "${int_args[@]}" --metrics-json "$TMP/int_m1.json" \
     --health-json "$TMP/health.json" --drops-json "$TMP/drops.json" \
     --perfetto "$TMP/int_p.json" >/dev/null 2>&1; then
  echo "FAIL: --int-sample run exited nonzero"
  fail=1
fi
grep -q '"drop_forensics_version"' "$TMP/drops.json" || {
  echo "FAIL: --drops-json output is not a drop-forensics document"
  fail=1
}
grep -q '"reason":"link_loss"' "$TMP/drops.json" || {
  echo "FAIL: drop forensics carry no typed link_loss records"
  fail=1
}
grep -q '"health"' "$TMP/int_m1.json" || {
  echo "FAIL: INT-sampled metrics JSON missing health subtree"
  fail=1
}
grep -q '"health_version"' "$TMP/health.json" || {
  echo "FAIL: --health-json output is not a health report"
  fail=1
}
grep -q '"ph":"C"' "$TMP/int_p.json" || {
  echo "FAIL: INT-sampled Perfetto export has no counter tracks"
  fail=1
}
if ! "$BIN" analyze --health "$TMP/health.json" >"$TMP/health.txt" 2>&1; then
  echo "FAIL: analyze --health exited nonzero"
  fail=1
fi
grep -q "fleet health" "$TMP/health.txt" || {
  echo "FAIL: analyze --health printed no scorecard"
  fail=1
}
# analyze --health on a missing or non-health file fails cleanly (exit 1).
rc=0; "$BIN" analyze --health "$TMP/definitely-missing.json" >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 1 ] || { echo "FAIL: analyze --health missing-file exited $rc (want 1)"; fail=1; }
rc=0; "$BIN" analyze --health "$TMP/spans.json" >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 1 ] || { echo "FAIL: analyze --health non-health input exited $rc (want 1)"; fail=1; }

# Same-seed INT runs are deterministic (note the repeat must spell the same
# flags: --perfetto implies --span-sample 64, which is itself metered), and
# INT-sampled runs stay deterministic under sharding. (Cross-shard-count
# invariance of the collector itself is covered in test_int with shard-local
# traffic; CLI workload injection is intentionally lookahead-shifted across
# shard counts.)
if ! "$BIN" "${int_args[@]}" --metrics-json "$TMP/int_m2.json" \
     --health-json "$TMP/health2.json" --perfetto "$TMP/int_p2.json" >/dev/null 2>&1; then
  echo "FAIL: repeat --int-sample run exited nonzero"
  fail=1
fi
cmp -s "$TMP/int_m1.json" "$TMP/int_m2.json" || {
  echo "FAIL: same-seed --int-sample runs produced different metrics"
  fail=1
}
cmp -s "$TMP/health.json" "$TMP/health2.json" || {
  echo "FAIL: same-seed --int-sample runs produced different health JSON"
  fail=1
}
for i in 1 2; do
  if ! "$BIN" "${int_args[@]}" --shards 2 --health-json "$TMP/health_s2_$i.json" \
       >/dev/null 2>&1; then
    echo "FAIL: --int-sample --shards 2 run $i exited nonzero"
    fail=1
  fi
done
cmp -s "$TMP/health_s2_1.json" "$TMP/health_s2_2.json" || {
  echo "FAIL: same-seed --int-sample --shards 2 runs produced different health JSON"
  diff "$TMP/health_s2_1.json" "$TMP/health_s2_2.json" | head -20
  fail=1
}

# Any output given as "-" owns stdout (the report moves to stderr), so the
# --drops-json - and --health-json - documents equal their file exports, and
# two "-" outputs are refused.
if ! "$BIN" "${int_args[@]}" --drops-json "$TMP/drops_f.json" \
     --health-json "$TMP/health_f.json" >/dev/null 2>&1; then
  echo "FAIL: --drops-json/--health-json file run exited nonzero"
  fail=1
fi
for out in drops health; do
  if ! "$BIN" "${int_args[@]}" --$out-json - >"$TMP/${out}_stdout.json" 2>/dev/null; then
    echo "FAIL: --$out-json - run exited nonzero"
    fail=1
  fi
  cmp -s "$TMP/${out}_stdout.json" "$TMP/${out}_f.json" || {
    echo "FAIL: --$out-json - stdout differs from file export"
    fail=1
  }
done
expect_error2 "only one output" --duration-ms 20 --metrics-json - --drops-json -

# An unsampled run is byte-identical with and without --int-hop-cap (the cap
# alone must not perturb anything; a warning on stderr is the only effect).
if ! "$BIN" "${run_args[@]}" --int-hop-cap 12 --metrics-json "$TMP/m_cap.json" \
     >/dev/null 2>"$TMP/cap_warn.txt"; then
  echo "FAIL: --int-hop-cap-without-sample run exited nonzero"
  fail=1
fi
cmp -s "$TMP/m_cap.json" "$TMP/m1.json" || {
  echo "FAIL: --int-hop-cap without --int-sample changed the run"
  fail=1
}
grep -q "no effect" "$TMP/cap_warn.txt" || {
  echo "FAIL: --int-hop-cap without --int-sample printed no warning"
  fail=1
}

# A bad --trace-mask names the valid categories in its error, including the
# INT category.
"$BIN" --trace-mask not-a-category >/dev/null 2>"$TMP/err" || true
grep -q "valid names:.*proto-chain" "$TMP/err" || {
  echo "FAIL: --trace-mask error does not enumerate category names"
  fail=1
}
grep -qE "valid names:.*[ ,]int[, ]" "$TMP/err" || {
  echo "FAIL: --trace-mask error does not enumerate the int category"
  fail=1
}

if [ "$fail" -eq 0 ]; then
  echo "PASS: swish_sim CLI contract"
fi
exit "$fail"
