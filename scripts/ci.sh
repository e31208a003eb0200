#!/usr/bin/env bash
# CI entry points.
#   ./scripts/ci.sh          tier-1 verify: the perfbench unit tests, then
#                            configure, build, full ctest run
#                            (vector tier), then the kernel/bit-identity
#                            suites again under HADAD_FORCE_SCALAR=1 so both
#                            dispatch arms stay green on any CI hardware
#   ./scripts/ci.sh tsan     ThreadSanitizer build of the concurrency-bearing
#                            targets (exec, session, views, mutation, MVCC,
#                            obs, server, pacb tests); the MVCC snapshot-
#                            isolation stress suite runs at 1000 iterations
#   ./scripts/ci.sh asan     AddressSanitizer+UBSan build, full ctest run,
#                            then the MVCC stress suite again at 500
#                            iterations and the chase's incremental-rebuild
#                            differential test at 2000
#   ./scripts/ci.sh bench    Release-mode bench smoke: builds and runs the
#                            benchmark drivers, then diffs the merged
#                            results against the committed baseline with
#                            scripts/bench_diff.py (speedup regressions
#                            beyond 15% fail); also smoke-runs the Fig. 9
#                            and Fig. 12 factorized benches, and the
#                            adaptive-views bench (exits non-zero on a
#                            1e-9 mismatch or a warmed speedup < 1.5x);
#                            records the §9.1.3 RW_find distribution and
#                            the Fig. 5-8, appendix and ablation session
#                            comparisons (ungated rows; each of those
#                            benches exits non-zero when a comparison
#                            fails or disagrees)
#   ./scripts/ci.sh trace    Observability validation: builds and runs
#                            examples/trace_demo with tracing on, then
#                            validates the emitted Chrome trace-event JSON
#                            with scripts/check_trace.py (one span per
#                            instrumented layer required)
#   ./scripts/ci.sh docs     Documentation checks: every relative link in
#                            docs/ and README.md resolves, and the README
#                            quickstart snippet still compiles and links
#   ./scripts/ci.sh lint     Static analysis: invariant cross-reference
#                            (always), then — when clang is available —
#                            a -Werror=thread-safety build, the expected-
#                            failure snippet harness, and clang-tidy over
#                            the library sources. Set
#                            HADAD_LINT_REQUIRE_CLANG=1 (CI does) to turn
#                            a missing clang/clang-tidy into a failure
#                            instead of a loud skip.
set -euxo pipefail

cd "$(dirname "$0")/.."
mode="${1:-tier1}"

case "$mode" in
  tier1)
    # The repository benchmark's own unit tests (pure python3, no build).
    python3 -m unittest discover -s perfbench -p 'test_*.py'
    cmake -B build -S .
    cmake --build build --parallel "$(nproc)"
    cd build
    ctest --output-on-failure -j
    # Second dispatch arm: the kernel-bearing suites (SIMD microkernels,
    # exec bit-identity, matrix/engine/session pipelines, the adaptive-view
    # store, whose contents must not depend on the tier, and the PLU-based
    # decompositions, whose elimination dispatches too) must also pass
    # with the vector tier pinned off — same binaries, scalar reference
    # dispatch. Results are bit-identical across tiers by contract, so any
    # divergence here is a real kernel bug, not noise. (-R must precede the
    # bare -j: ctest would otherwise parse -R as -j's level argument and
    # silently drop the filter.)
    HADAD_FORCE_SCALAR=1 ctest --output-on-failure -R \
      'simd_test|exec_test|matrix_test|matrix_edge_test|engine_test|mutation_test|session_test|views_test|decompositions_test|lup_test' \
      -j
    # Serving smoke: concurrent clients over one substrate, one
    # deadline-exceeded request, clean pool drain (exits nonzero on any
    # broken contract).
    ./examples/server_demo
    ;;
  tsan)
    cmake -B build-tsan -S . \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="-fsanitize=thread -O1 -fno-omit-frame-pointer" \
      -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" \
      -DHADAD_BUILD_BENCHMARKS=OFF \
      -DHADAD_BUILD_EXAMPLES=OFF
    cmake --build build-tsan --parallel "$(nproc)" --target exec_test \
      session_test views_test mutation_test mvcc_test obs_test server_test \
      pacb_test
    ./build-tsan/tests/exec_test
    ./build-tsan/tests/session_test
    ./build-tsan/tests/views_test
    ./build-tsan/tests/mutation_test
    # The randomized snapshot-isolation stress suite is the tentpole TSan
    # workload: 1000 interleavings of concurrent readers, ticket-serialized
    # writers, and atomic batches over one MVCC workspace.
    HADAD_STRESS_ITERS=1000 ./build-tsan/tests/mvcc_test
    ./build-tsan/tests/obs_test
    ./build-tsan/tests/server_test
    # Concurrent Optimize() calls share the optimizer's leaf-statistics memo.
    ./build-tsan/tests/pacb_test
    ;;
  asan)
    cmake -B build-asan -S . \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -O1 -fno-omit-frame-pointer" \
      -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" \
      -DHADAD_BUILD_BENCHMARKS=OFF \
      -DHADAD_BUILD_EXAMPLES=OFF
    cmake --build build-asan --parallel "$(nproc)"
    cd build-asan
    ctest --output-on-failure -j
    # Version-lifetime torture under ASan: the stress suite re-runs with
    # more iterations than the ctest default so races between a version's
    # last handle dropping and its readers, and snapshot use-after-free,
    # get real soak time.
    HADAD_STRESS_ITERS=500 ./tests/mvcc_test \
      --gtest_filter='MvccStressTest.*:MvccLeakTest.*'
    # The incremental rebuild's bucket and fact-table upkeep against a
    # rebuild from scratch, on 2000 random instances: an out-of-range read
    # there shows up here, not in the optimizer's results.
    HADAD_STRESS_ITERS=2000 ./tests/chase_test \
      --gtest_filter='RebuildDifferentialTest.*'
    ;;
  bench)
    cmake -B build-bench -S . \
      -DCMAKE_BUILD_TYPE=Release \
      -DBUILD_TESTING=OFF \
      -DHADAD_BUILD_EXAMPLES=OFF
    cmake --build build-bench --parallel "$(nproc)" --target \
      bench_session_cache bench_update_refresh bench_server_concurrency \
      bench_simd_kernels bench_adaptive_views bench_fig9_morpheus \
      bench_fig12_morpheus_overhead bench_sec913_overhead \
      bench_fig5_la_rewrites bench_fig6_agg_rewrites \
      bench_fig7_view_rewrites bench_fig8_speedup_distribution \
      bench_appendix_sparse bench_ablation
    # Factorized smoke: both figures run on a Session over a normalized M
    # (nm_* DAG kernels); fig9 aborts when the rewritten and as-stated
    # results disagree beyond 1e-6.
    ./build-bench/bench/bench_fig9_morpheus
    ./build-bench/bench/bench_fig12_morpheus_overhead
    ./build-bench/bench/bench_session_cache \
      --json=build-bench/bench_session_cache.json
    ./build-bench/bench/bench_update_refresh \
      --json=build-bench/bench_update_refresh.json
    ./build-bench/bench/bench_server_concurrency \
      --json=build-bench/bench_server_concurrency.json
    ./build-bench/bench/bench_simd_kernels \
      --json=build-bench/bench_simd_kernels.json
    ./build-bench/bench/bench_adaptive_views \
      --json=build-bench/bench_adaptive_views.json
    # §9.1.3: RW_find median, p90 and max over P¬Opt per estimator. Only the
    # summary runs; the google-benchmark part is filtered out.
    ./build-bench/bench/bench_sec913_overhead --benchmark_filter='^$' \
      --json=build-bench/bench_sec913_overhead.json
    # The paper figures: each pipeline as stated (Q_exec) against HADAD's
    # rewriting (RW_exec) on one api::Session.
    for figure in bench_fig5_la_rewrites bench_fig6_agg_rewrites \
        bench_fig7_view_rewrites bench_fig8_speedup_distribution \
        bench_appendix_sparse bench_ablation; do
      "./build-bench/bench/$figure" --json="build-bench/$figure.json"
    done
    # Merge the per-driver documents into the machine-readable summary that
    # perf tooling consumes (the stdout tables above are for humans).
    python3 - <<'PYEOF'
import json

drivers = ["bench_session_cache", "bench_update_refresh",
           "bench_server_concurrency", "bench_simd_kernels",
           "bench_adaptive_views", "bench_sec913_overhead",
           "bench_fig5_la_rewrites", "bench_fig6_agg_rewrites",
           "bench_fig7_view_rewrites", "bench_fig8_speedup_distribution",
           "bench_appendix_sparse", "bench_ablation"]
merged = {"schema_version": 1, "generated_by": "scripts/ci.sh bench",
          "benchmarks": []}
for name in drivers:
    with open(f"build-bench/{name}.json") as f:
        merged["benchmarks"].append(json.load(f))
for b in merged["benchmarks"]:
    assert b["results"], f"{b['benchmark']} produced no results"
with open("BENCH_results.json", "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")
print(f"wrote BENCH_results.json "
      f"({sum(len(b['results']) for b in merged['benchmarks'])} workloads)")
PYEOF
    # Gate on the committed baseline: a >15% drop in any workload's
    # within-run speedup (machine-independent, unlike raw seconds) fails.
    python3 scripts/bench_diff.py bench/baseline/BENCH_results.json \
      BENCH_results.json
    ;;
  trace)
    cmake -B build-trace -S . \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DBUILD_TESTING=OFF \
      -DHADAD_BUILD_BENCHMARKS=OFF
    cmake --build build-trace --parallel "$(nproc)" --target trace_demo
    ./build-trace/examples/trace_demo build-trace/trace.json
    python3 scripts/check_trace.py build-trace/trace.json
    ;;
  docs)
    # 1) Relative links in docs/ and README.md must resolve on disk
    #    (http(s)/mailto links and pure #fragments are skipped).
    status=0
    for f in README.md docs/*.md; do
      dir="$(dirname "$f")"
      while IFS= read -r target; do
        target="${target%%#*}"
        [ -z "$target" ] && continue
        case "$target" in
          http://*|https://*|mailto:*) continue ;;
        esac
        if [ ! -e "$dir/$target" ]; then
          echo "broken link in $f: $target" >&2
          status=1
        fi
      done < <(grep -oE '\]\([^)]+\)' "$f" | sed -E 's/^\]\(//; s/\)$//')
    done
    [ "$status" -eq 0 ]

    # 2) The README quickstart (first ```cpp block) must compile and link
    #    against the library: extract it, wrap the statements in main(),
    #    and build it for real.
    cmake -B build-docs -S . \
      -DBUILD_TESTING=OFF \
      -DHADAD_BUILD_BENCHMARKS=OFF \
      -DHADAD_BUILD_EXAMPLES=OFF
    cmake --build build-docs --parallel "$(nproc)" --target hadad
    snippet_dir="$(mktemp -d)"
    awk '/^```cpp/{f=1; next} /^```/{if (f) exit} f' README.md \
      > "$snippet_dir/snippet.in"
    [ -s "$snippet_dir/snippet.in" ]
    {
      grep -E '^#include|^using namespace' "$snippet_dir/snippet.in"
      echo 'int main() {'
      grep -vE '^#include|^using namespace' "$snippet_dir/snippet.in"
      echo 'return 0; }'
    } > "$snippet_dir/quickstart.cc"
    g++ -std=c++20 -Isrc "$snippet_dir/quickstart.cc" \
      build-docs/libhadad.a -lpthread -o "$snippet_dir/quickstart"
    rm -rf "$snippet_dir"
    echo "docs checks passed"
    ;;
  lint)
    require_clang="${HADAD_LINT_REQUIRE_CLANG:-0}"

    # 1) Invariant cross-reference: every sync member documented, every
    #    documented member real. Pure python3; runs everywhere.
    python3 scripts/check_invariants.py

    # 2) Thread-safety analysis needs a clang frontend (GCC parses the
    #    attributes away). Prefer an unversioned clang++, fall back to the
    #    newest versioned one on PATH.
    clangxx="$(command -v clang++ || true)"
    if [ -z "$clangxx" ]; then
      for v in 20 19 18 17 16 15 14; do
        if command -v "clang++-$v" >/dev/null 2>&1; then
          clangxx="clang++-$v"
          break
        fi
      done
    fi
    if [ -z "$clangxx" ]; then
      if [ "$require_clang" = "1" ]; then
        echo "lint: clang++ not found but HADAD_LINT_REQUIRE_CLANG=1" >&2
        exit 1
      fi
      echo "lint: SKIPPED thread-safety + clang-tidy (no clang++ on PATH;" \
           "install clang or run the CI lint job)" >&2
      exit 0
    fi

    # Full library build under -Werror=thread-safety. The compile_commands
    # export feeds clang-tidy below.
    cmake -B build-lint -S . \
      -DCMAKE_CXX_COMPILER="$clangxx" \
      -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
      -DHADAD_THREAD_SAFETY=ON \
      -DHADAD_BUILD_BENCHMARKS=OFF \
      -DHADAD_BUILD_EXAMPLES=OFF
    cmake --build build-lint --parallel "$(nproc)"

    # 3) Guard the guard: each expected-failure snippet must be REJECTED.
    #    A snippet that compiles cleanly means the annotations got neutered.
    for snippet in tests/lint_expected_fail/*.cc; do
      if "$clangxx" -std=c++20 -Isrc -Wthread-safety -Werror=thread-safety \
          -fsyntax-only "$snippet" 2>/dev/null; then
        echo "lint: $snippet compiled cleanly but must trip" \
             "-Werror=thread-safety — annotations are not being enforced" >&2
        exit 1
      fi
      # Distinguish "rejected for the right reason" from a bit-rotted
      # snippet: without -Werror it must compile, emitting only warnings.
      if ! "$clangxx" -std=c++20 -Isrc -Wthread-safety -fsyntax-only \
          "$snippet" 2>/dev/null; then
        echo "lint: $snippet has a non-thread-safety compile error;" \
             "fix the snippet" >&2
        exit 1
      fi
    done
    echo "lint: expected-failure snippets all rejected as intended"

    # 4) clang-tidy with the curated .clang-tidy over the library sources.
    tidy="$(command -v clang-tidy || true)"
    if [ -z "$tidy" ]; then
      for v in 20 19 18 17 16 15 14; do
        if command -v "clang-tidy-$v" >/dev/null 2>&1; then
          tidy="clang-tidy-$v"
          break
        fi
      done
    fi
    if [ -z "$tidy" ]; then
      if [ "$require_clang" = "1" ]; then
        echo "lint: clang-tidy not found but HADAD_LINT_REQUIRE_CLANG=1" >&2
        exit 1
      fi
      echo "lint: SKIPPED clang-tidy (not on PATH)" >&2
      exit 0
    fi
    "$tidy" -p build-lint --quiet src/*/*.cc
    echo "lint checks passed"
    ;;
  *)
    echo "unknown mode: $mode (expected: tier1 | tsan | asan | bench | trace | docs | lint)" >&2
    exit 2
    ;;
esac
