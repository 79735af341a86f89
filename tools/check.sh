#!/usr/bin/env bash
# Strict pre-merge check: Debug build with warnings-as-errors plus
# ASan/UBSan and the full test suite under those sanitizers, then a
# ThreadSanitizer build (SWISH_SANITIZE=thread) running the sharded-core
# determinism and conformance suites with worker threads forced on
# (SWISH_SHARD_FORCE_THREADS=1), so the window barrier and handoff-lane
# protocol are exercised under real contention even on small machines.
# Slower than the default Release build — run before merging protocol
# changes, not on every edit.
#
#   tools/check.sh [--jobs N]
set -euo pipefail

JOBS="$(nproc)"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --jobs) JOBS="$2"; shift 2 ;;
    *) echo "usage: $0 [--jobs N]" >&2; exit 2 ;;
  esac
done

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$ROOT/build-check"

cmake -B "$BUILD" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=Debug \
  -DSWISH_WERROR=ON \
  -DSWISH_SANITIZE=ON >/dev/null
cmake --build "$BUILD" -j "$JOBS"

# halt_on_error keeps a sanitizer hit from being buried in test output.
ASAN_OPTIONS=halt_on_error=1 \
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  ctest --test-dir "$BUILD" --output-on-failure -j "$JOBS"

# TSan pass over the multi-shard suites: the sharded-sim determinism tests,
# the consistency-conformance suite (the heaviest cross-switch protocol
# traffic), the CoW store suites (snapshot pins shared across the recovery
# path), the record-log suites (every shard's worker writes its own per-node
# trace, drop and INT logs, gathered cross-shard by the health collector and
# the sharded trace dump), the per-thread PacketStats stripes, the
# controller's 2- and 4-shard migrations and readmissions, revive races
# included (pushes and stream kickoffs hop shards), and the recovery suite's
# 2-shard revive. TSan and ASan cannot share a build, hence the second tree.
TSAN_BUILD="$ROOT/build-check-tsan"
cmake -B "$TSAN_BUILD" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSWISH_WERROR=ON \
  -DSWISH_SANITIZE=thread >/dev/null
cmake --build "$TSAN_BUILD" -j "$JOBS"

TSAN_OPTIONS=halt_on_error=1 \
SWISH_SHARD_FORCE_THREADS=1 \
  ctest --test-dir "$TSAN_BUILD" --output-on-failure -j "$JOBS" \
    -R 'ShardedSim|Conformance|Store|Membership|Consensus|Int|MirrorOnDrop|HealthCollector|PacketStats|ControllerMigrate|Directory|RecordLog|ReviveBeforeDetection|Recovery'

echo
echo "check.sh: clean (Werror + ASan/UBSan + TSan sharded suites)"
