#!/usr/bin/env bash
# Byte-identity check between two build trees: runs the same deterministic
# scenarios — swish_sim runs across NFs, class overrides, faults, shard
# counts and the INT, drop and trace exports, the experiment benches, and the
# examples — from each tree and compares their stdout and every file they
# write, byte for byte. A change meant to leave behaviour alone (a refactor)
# reports every scenario identical against a build of its parent commit.
#
#   tools/identity.sh OLD_BUILD NEW_BUILD
#
# A build tree is a CMake binary dir holding tools/swish_sim, bench/ and
# examples/ (Release recommended). Both sides run each scenario in the same
# scratch working directory with the same --metrics-json path, so printed
# paths match; that directory also catches the BENCH_*.json artifacts that
# bench_c13 writes into its working directory. Prints one line per scenario
# and exits 1, with the first differing lines, on any mismatch.
# `tools/identity.sh build build` is the self-check: every scenario is
# deterministic, so a tree always matches itself.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 OLD_BUILD NEW_BUILD" >&2
  exit 2
fi
OLD="$(cd "$1" && pwd)"
NEW="$(cd "$2" && pwd)"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# Scenarios: "name<TAB>binary relative to the build tree<TAB>arguments".
SCENARIOS=()
add() { SCENARIOS+=("$1"$'\t'"$2"$'\t'"${3:-}"); }

SIM=tools/swish_sim
JSON="--metrics-json metrics.json"
for nf in nat firewall lb ips ddos ratelimiter; do
  add "sim.$nf" "$SIM" "--nf $nf $JSON"
  add "sim.$nf.faults" "$SIM" "--nf $nf --loss 0.02 --kill 2:40 --revive 2:70 $JSON"
done
add sim.ddos.own "$SIM" "--nf ddos --space ddos.cms=own --space ddos.total=own $JSON"
add sim.ratelimiter.own "$SIM" "--nf ratelimiter --space rl.user_bytes=own $JSON"
add sim.ratelimiter.con "$SIM" "--nf ratelimiter --space rl.user_bytes=con $JSON"
add sim.firewall.sro "$SIM" "--nf firewall --space fw.blocked_prefixes=sro $JSON"
add sim.nat.con "$SIM" "--nf nat --space nat.translation=con --switches 5 --kill 1:40 $JSON"
LB_CON="--nf lb --space lb.conn_to_dip=con --space lb.dip_refcount=con"
add sim.lb.con "$SIM" "$LB_CON --switches 4 $JSON"
add sim.lb.con.leafspine "$SIM" \
  "$LB_CON --topology leafspine --switches 8 --spines 2 --shards 2 $JSON"
INT="--nf nat --switches 4 --loss 0.02 --int-sample 4 --health-json health.json"
add sim.nat.int "$SIM" "$INT --drops-json drops.json $JSON"
add sim.nat.int.shards2 "$SIM" "$INT --drops-json drops.json --shards 2 $JSON"
add sim.nat.trace "$SIM" \
  "--nf nat --loss 0.02 --kill 2:40 --trace trace.txt --trace-mask drop,failover $JSON"
# Sparse spaces under kill/revive stream CoW-pinned snapshots to the rejoiner.
FAULTS="--kill 2:40 --revive 2:70"
add sim.nat.sparse.faults "$SIM" \
  "--nf nat --space nat.translation=sro:sparse --loss 0.02 $FAULTS $JSON"
add sim.lb.con.sparse.faults "$SIM" \
  "--nf lb --space lb.conn_to_dip=con:sparse --space lb.dip_refcount=con $FAULTS $JSON"
add sim.rl.own.sparse.faults "$SIM" "--nf ratelimiter --space rl.user_bytes=own:sparse $FAULTS $JSON"
# Every other swish_sim flag, at least once. `--shards auto` picks the shard
# count from the host, so compare both builds on one host.
add sim.flags.workload "$SIM" \
  "--nf ddos --topology chain --switches 5 --link-delay-us 3 --dataplane-pps 2000000 \
--flows-per-sec 3000 --packets-per-flow 12 --reroute 0.1 --duration-ms 120 \
--sync-period-us 500 --attack 40000:20:50 --seed 7 --quiet $JSON"
add sim.flags.heartbeat "$SIM" \
  "--nf firewall --hb-timeout-ms 20 --check-period-ms 4 --kill 1:30 --revive 1:80 \
--duration-ms 150 --seed 3 $JSON"
add sim.flags.swim "$SIM" "--nf nat --membership swim --switches 5 --kill 3:30 --duration-ms 120 $JSON"
add sim.flags.observe "$SIM" \
  "--nf nat --switches 3 --duration-ms 60 --span-sample 8 --top-slowest 3 --perfetto spans.json \
--timeseries ts.csv --timeseries-period-us 5000 --pcap fabric.pcap --int-sample 4 \
--int-hop-cap 3 $JSON"
add sim.flags.auto "$SIM" "--nf lb --switches 2 --shards auto $JSON"

for n in 2 3 4 5 6 7 8 9 10 11 12 13; do
  for bin in "$OLD"/bench/bench_c"${n}"_*; do
    [[ -x "$bin" ]] && add "bench.c$n" "bench/$(basename "$bin")"
  done
done
for bin in "$OLD"/bench/bench_table1_*; do
  [[ -x "$bin" ]] && add bench.table1 "bench/$(basename "$bin")"
done
for bin in "$OLD"/examples/*; do
  [[ -f "$bin" && -x "$bin" ]] && add "example.$(basename "$bin")" "examples/$(basename "$bin")"
done

# run TREE SIDE NAME BINARY ARGS: runs one scenario in the shared working
# directory and files its stdout, exit status and written files under
# $WORK/SIDE/NAME.
run() {
  local tree="$1" side="$2" name="$3" binary="$4" args="$5"
  local out="$WORK/$side/$name" status=0
  mkdir -p "$out"
  rm -rf "$WORK/run" && mkdir "$WORK/run"
  if [[ ! -x "$tree/$binary" ]]; then
    echo "missing $binary" > "$out/status"
    return
  fi
  # shellcheck disable=SC2086  # args is a word list by construction
  (cd "$WORK/run" && "$tree/$binary" $args > "$out/stdout" 2> "$WORK/stderr") || status=$?
  echo "exit $status" > "$out/status"
  cp -r "$WORK/run/." "$out/"
}

mismatches=0
for entry in "${SCENARIOS[@]}"; do
  IFS=$'\t' read -r name binary args <<< "$entry"
  run "$OLD" old "$name" "$binary" "$args"
  run "$NEW" new "$name" "$binary" "$args"
  if grep -qs missing "$WORK/old/$name/status" "$WORK/new/$name/status"; then
    printf '%-28s MISSING\n' "$name"
    cat "$WORK/old/$name/status" "$WORK/new/$name/status" | sed 's/^/    /'
    mismatches=$((mismatches + 1))
  elif diff -r "$WORK/old/$name" "$WORK/new/$name" > "$WORK/diff" 2>&1; then
    printf '%-28s identical\n' "$name"
  else
    printf '%-28s DIFFERS\n' "$name"
    head -n 20 "$WORK/diff" | sed 's/^/    /'
    mismatches=$((mismatches + 1))
  fi
done

echo
if [[ $mismatches -gt 0 ]]; then
  echo "identity.sh: $mismatches of ${#SCENARIOS[@]} scenarios differ"
  exit 1
fi
echo "identity.sh: all ${#SCENARIOS[@]} scenarios identical"
