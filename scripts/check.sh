#!/usr/bin/env bash
# Runs the full protection-boundary analysis matrix (docs/MEMORY_MODEL.md):
#
#   plain         RelWithDebInfo build + full ctest (includes the layout and
#                 hot-path lints; the symbol pass runs only in this leg)
#   single-writer build with the ownership race detector armed + full ctest
#   hot-path      build with the hot-path purity guards armed + full ctest
#   hot-path-tsan guards armed under ThreadSanitizer (hook race check)
#   tsan          ThreadSanitizer build + full ctest
#   asan-ubsan    AddressSanitizer + UBSan build + full ctest
#   tidy          clang-tidy over src/ (skipped with a notice if not installed)
#   static-audit  flipc_static_audit (role/memory-order/hot-path proofs) +
#                 policy + protocol-IR drift checks and the fixture
#                 selftest (skipped without python3)
#   progress-cert whole-program wait-free certificate (interprocedural
#                 purity closure + bounded-progress proofs) plus the JSON
#                 report and the park-site census gate (>=1 annotated park
#                 site, none inside a hot-path scope)
#   failure-scenarios
#                 the DESIGN.md §14 failure-injection family (engine
#                 kill/restart recovery, endpoint churn, stale doorbells,
#                 seeded fabric fault plans) under ThreadSanitizer; failing
#                 tests leave Chrome-trace postmortems
#                 (failure_postmortem_*.json) in the build tree
#
# Usage: scripts/check.sh [leg ...]     (default: every leg)
# Build trees live under build-matrix/<leg> and are reused across runs.
set -euo pipefail

cd "$(dirname "$0")/.."

GENERATOR=()
if command -v ninja > /dev/null 2>&1; then
  GENERATOR=(-G Ninja)
fi

JOBS="$(nproc 2> /dev/null || echo 4)"
LEGS=("$@")
if [ ${#LEGS[@]} -eq 0 ]; then
  LEGS=(plain single-writer hot-path hot-path-tsan tsan asan-ubsan tidy static-audit progress-cert failure-scenarios)
fi

build_and_test() {
  local leg="$1"
  shift
  local dir="build-matrix/$leg"
  echo "==== [$leg] configure + build + ctest ($dir) ===="
  cmake -B "$dir" -S . "${GENERATOR[@]}" -DCMAKE_BUILD_TYPE=RelWithDebInfo "$@"
  cmake --build "$dir" -j "$JOBS"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

run_tidy() {
  if ! command -v clang-tidy > /dev/null 2>&1; then
    echo "==== [tidy] SKIPPED: clang-tidy not installed ===="
    return 0
  fi
  local dir="build-matrix/tidy"
  echo "==== [tidy] clang-tidy over src/ ===="
  cmake -B "$dir" -S . "${GENERATOR[@]}" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  local sources
  sources="$(find src -name '*.cc')"
  if command -v run-clang-tidy > /dev/null 2>&1; then
    run-clang-tidy -quiet -p "$dir" ${sources}
  else
    # shellcheck disable=SC2086
    clang-tidy -p "$dir" ${sources}
  fi
}

run_static_audit() {
  if ! command -v python3 > /dev/null 2>&1; then
    echo "==== [static-audit] SKIPPED: python3 not installed ===="
    return 0
  fi
  local dir="build-matrix/static-audit"
  echo "==== [static-audit] protocol auditor + drift + selftest ($dir) ===="
  cmake -B "$dir" -S . "${GENERATOR[@]}" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$dir" -j "$JOBS" --target flipc_ownership_export
  ctest --test-dir "$dir" --output-on-failure     -R '^flipc_(static_audit|static_audit_selftest|ownership_policy_drift|protocol_ir_drift)$'
}

run_progress_cert() {
  if ! command -v python3 > /dev/null 2>&1; then
    echo "==== [progress-cert] SKIPPED: python3 not installed ===="
    return 0
  fi
  local dir="build-matrix/progress-cert"
  mkdir -p "$dir"
  echo "==== [progress-cert] whole-program wait-free certificate ===="
  python3 tools/flipc_static_audit/flipc_static_audit.py \
    --policy tools/ownership_policy.json --source-root . \
    --json "$dir/audit_report.json"
  echo "==== [progress-cert] park-site census gate ===="
  python3 - "$dir/audit_report.json" << 'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
census = doc["unbounded_wait_sites"]
print(f"park sites: {census['total']} total, {census['in_hot_scope']} in hot scopes")
if census["total"] < 1:
    sys.exit("expected at least one FLIPC_UNBOUNDED_WAIT park site "
             "(the annotations vanished, so the census gate is vacuous)")
if census["in_hot_scope"] != 0:
    sys.exit("FLIPC_UNBOUNDED_WAIT park site(s) inside hot-path scopes")
EOF
}

run_failure_scenarios() {
  local dir="build-matrix/failure-scenarios"
  echo "==== [failure-scenarios] crash/restart + churn + fault-plan family under TSan ($dir) ===="
  cmake -B "$dir" -S . "${GENERATOR[@]}" -DCMAKE_BUILD_TYPE=RelWithDebInfo -DFLIPC_SANITIZE=thread
  cmake --build "$dir" -j "$JOBS"
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
    ctest --test-dir "$dir" --output-on-failure -j "$JOBS" \
      -R '^(failure_scenarios_test|simnet_test|engine_test|soak_test|cluster_test)$'
}

for leg in "${LEGS[@]}"; do
  case "$leg" in
    plain)         build_and_test plain ;;
    single-writer) build_and_test single-writer -DFLIPC_CHECK_SINGLE_WRITER=ON ;;
    hot-path)      build_and_test hot-path -DFLIPC_CHECK_HOT_PATH=ON ;;
    hot-path-tsan) build_and_test hot-path-tsan -DFLIPC_CHECK_HOT_PATH=ON -DFLIPC_SANITIZE=thread ;;
    tsan)          build_and_test tsan -DFLIPC_SANITIZE=thread ;;
    asan-ubsan)    build_and_test asan-ubsan -DFLIPC_SANITIZE=address,undefined ;;
    tidy)          run_tidy ;;
    static-audit)  run_static_audit ;;
    progress-cert) run_progress_cert ;;
    failure-scenarios) run_failure_scenarios ;;
    *)
      echo "unknown leg '$leg' (expected: plain single-writer hot-path hot-path-tsan tsan asan-ubsan tidy static-audit progress-cert failure-scenarios)" >&2
      exit 2
      ;;
  esac
done

echo "==== check.sh: all requested legs passed ===="
