#!/usr/bin/env bash
# Full local CI: build, test, sanitize, bench-smoke.
#
#   scripts/check.sh               # build + ctest + bench smoke
#   scripts/check.sh --asan        # also run the ASan/UBSan test sweep
#   scripts/check.sh --tsan        # also run the concurrency suite under TSan
#   scripts/check.sh --ubsan       # also run the full suite under UBSan alone
#   scripts/check.sh --bench-smoke # brief figure benches with JSON metrics
#                                  # dumps (BENCH_*.json), schema-checked by
#                                  # morph-stat --check and diffed against the
#                                  # committed BENCH_baseline.json (>10% slowdowns
#                                  # are flagged; MORPH_BENCH_STRICT=1 makes them
#                                  # fatal for same-machine baselines), plus the
#                                  # perfbench pipeline as a correctness lane
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== configure + build =="
cmake -B build -G Ninja >/dev/null
cmake --build build

echo "== tests =="
ctest --test-dir build --output-on-failure

echo "== chain fusion on the bytecode VM =="
# Fused chains must agree with hop-wise execution on both backends; ctest
# above ran them on the JIT.
MORPH_DISABLE_JIT=1 ./build/tests/tests_core --gtest_filter='Fusion*'

echo "== evolution audit (vs examples/transforms/AUDIT_golden.json) =="
# Static breaking-change gate over the committed corpus: new error-severity
# findings or chain-quality regressions against the golden report fail the
# run. Refresh the golden after an intentional corpus change with:
#   ./build/tools/morph-audit --json examples/transforms/*.eco \
#     > examples/transforms/AUDIT_golden.json
./build/tools/morph-audit --baseline examples/transforms/AUDIT_golden.json \
  examples/transforms/*.eco >/dev/null

if [[ "${1:-}" != "--bench-smoke" ]]; then
  echo "== bench smoke (paper tables) =="
  # One run per bench source, so stale binaries left in an incremental build
  # dir are not run; a target that was not built (the optional
  # bench_libxml_reference, or bench_support, which is a library) is skipped.
  for src in bench/bench_*.cpp; do
    b="build/bench/$(basename "$src" .cpp)"
    [ -f "$b" ] && [ -x "$b" ] || continue
    echo "--- $b"
    "$b"
  done
fi

if [[ "${1:-}" == "--bench-smoke" ]]; then
  echo "== bench smoke with metrics JSON =="
  # Cap the payload sweep so each figure bench finishes in seconds; every
  # run dumps the metrics registry (including its own table as bench_ms
  # gauges) and morph-stat validates the schema and the histogram/counter
  # invariants.
  # MORPH_BENCH_MAX_BYTES caps the payload sweep of the figure benches;
  # MORPH_BENCH_MAX_SUBS caps bench_fanout's subscriber sweep at the 1k rows.
  for b in bench_fig8_encoding bench_fig9_decoding bench_fig10_morphing bench_fmtsvc \
           bench_fanout bench_pbuf; do
    out="BENCH_${b#bench_}.json"
    echo "--- $b -> $out"
    MORPH_BENCH_MAX_BYTES=10240 MORPH_BENCH_MAX_SUBS=2000 "./build/bench/$b" --json "$out"
    ./build/tools/morph-stat --check "$out" >/dev/null
  done
  echo "bench JSON dumps OK"

  echo "== connection-scale A/B (thread-per-conn vs reactor) =="
  # One receiver process, 1000 sustained concurrent peers per mode (the full
  # 10k rows run uncapped locally / nightly). The receiver child dumps its
  # obs registry so the reactor gauges/histograms are schema-checked too.
  MORPH_BENCH_MAX_CONNS=1000 MORPH_CONNSCALE_RX_DUMP=BENCH_connscale_rx.json \
    ./build/bench/bench_connscale --json BENCH_connscale.json
  ./build/tools/morph-stat --check BENCH_connscale.json >/dev/null
  ./build/tools/morph-stat --check BENCH_connscale_rx.json >/dev/null
  echo "connection-scale A/B OK"

  echo "== pbuf round-trip differential (proto corpus) =="
  # Replays the committed examples/proto corpus through the bridge: encode
  # to protobuf wire, decode back, assert value-identical records. Fast and
  # deterministic, so it rides in the bench-smoke lane as the interop gate.
  ./build/tests/tests_pbuf --gtest_filter='PbufBridge.*RoundTrip*' >/dev/null
  echo "pbuf round-trip differential OK"

  echo "== fused vs hop-wise A/B dump =="
  # Same fig10 run with chain fusion disabled, kept as a separate dump so CI
  # uploads both sides of the A/B. Not fed to the regression gate: its cells
  # carry the same bench/row/col labels and would shadow the fused run.
  MORPH_BENCH_MAX_BYTES=10240 ./build/bench/bench_fig10_morphing --fused off \
    --json BENCH_fig10_morphing_fused_off.json
  ./build/tools/morph-stat --check BENCH_fig10_morphing_fused_off.json >/dev/null

  echo "== telemetry e2e (three-process stitched trace) =="
  # morph-trace pipeline forks a publisher, broker, and receiver under
  # MORPH_TRACE=1, stitches their spans in an in-process collector, and
  # exits non-zero unless every trace carries all three processes with
  # linked parentage and the conservation laws hold. morph-stat --check
  # re-derives those laws independently from the dump artifact.
  ./build/tools/morph-trace pipeline --events 8 --json TRACE_pipeline.json >/dev/null
  ./build/tools/morph-stat --check TRACE_pipeline.json >/dev/null
  echo "telemetry e2e OK (TRACE_pipeline.json)"

  echo "== pipeline bench correctness lane (perfbench, 3 s per workload) =="
  # Publisher -> reactor broker -> mixed-revision subscribers over real
  # sockets. Gates on the exit code only: run.py fails when a run reports
  # correct=false (field-by-field oracle), a failed share, or a broken
  # conservation check. Timing is not judged here.
  python3 perfbench/run.py --workload all --seconds 3 --trace 0 >/dev/null
  echo "pipeline bench correctness OK"

  echo "== bench regression gate (vs BENCH_baseline.json) =="
  # The committed baseline was recorded on one machine; absolute timings do
  # not transfer, so by default regressions only warn. Set
  # MORPH_BENCH_STRICT=1 when comparing runs from the same machine (e.g.
  # after refreshing the baseline locally) to make >10% slowdowns fatal.
  compare_flags=(--tolerance 0.10)
  [[ "${MORPH_BENCH_STRICT:-0}" != "1" ]] && compare_flags+=(--warn-only)
  python3 scripts/bench_compare.py "${compare_flags[@]}" BENCH_baseline.json \
    BENCH_fig8_encoding.json BENCH_fig9_decoding.json BENCH_fig10_morphing.json \
    BENCH_fanout.json BENCH_pbuf.json BENCH_connscale.json
fi

if [[ "${1:-}" == "--asan" ]]; then
  echo "== ASan/UBSan sweep =="
  cmake -B build-asan -G Ninja -DMORPH_SANITIZE=address \
    -DMORPH_BUILD_BENCH=OFF -DMORPH_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build build-asan
  ctest --test-dir build-asan --output-on-failure
fi

if [[ "${1:-}" == "--ubsan" ]]; then
  echo "== UBSan sweep =="
  # UBSan alone is cheap enough to keep benches and examples buildable and
  # run every test, JIT paths included.
  cmake -B build-ubsan -G Ninja -DMORPH_SANITIZE=undefined \
    -DMORPH_BUILD_BENCH=OFF -DMORPH_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build build-ubsan
  ctest --test-dir build-ubsan --output-on-failure
fi

if [[ "${1:-}" == "--tsan" ]]; then
  echo "== TSan concurrency sweep =="
  cmake -B build-tsan -G Ninja -DMORPH_SANITIZE=thread \
    -DMORPH_BUILD_BENCH=OFF -DMORPH_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build build-tsan
  # The dedicated concurrency suite (including ReactorConcurrency), the
  # multi-threaded soak, and every reactor-served server (format service,
  # telemetry collector, ECho node), whose protocol handling runs on loop
  # threads while test threads publish and read stats.
  ./build-tsan/tests/tests_concurrency
  ./build-tsan/tests/tests_fmtsvc
  ./build-tsan/tests/tests_telemetry
  ./build-tsan/tests/tests_middleware --gtest_filter='EchoTcp*:EchoNode*:Soak.*'
fi

echo "ALL GREEN"
