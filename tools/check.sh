#!/usr/bin/env bash
# CI entry point: build + test the repo four times — plain, under
# ThreadSanitizer (the controller's parallel broadcast and the engine's
# two-level locking are race-checked on every PR), under
# AddressSanitizer, and under UndefinedBehaviorSanitizer (the WAL's
# frame/checksum arithmetic and the recovery scanners).
#
# Usage:
#   tools/check.sh                 # plain + TSan + ASan + UBSan, full suite
#   MLDS_TSAN_FILTER=Parallel tools/check.sh   # restrict the TSan ctest run
#   MLDS_SKIP_TSAN=1 tools/check.sh            # skip the TSan stage
#   MLDS_SKIP_ASAN=1 tools/check.sh            # skip the ASan stage
#   MLDS_SKIP_UBSAN=1 tools/check.sh           # skip the UBSan stage
#   MLDS_SKIP_BENCH=1 tools/check.sh           # skip the bench smoke stage
#   MLDS_SKIP_SERVER=1 tools/check.sh          # skip the server smoke stage
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 2)"

echo "== plain build =="
cmake -B build -S . >/dev/null
cmake --build build -j "${JOBS}"
(cd build && ctest --output-on-failure -j "${JOBS}")

# Example smoke: README's quickstart must exit 0 and print its DML ->
# ABDL translation trace; then one statement per language interface plus
# an EXPLAIN and quoted literals with doubled quotes, piped through the
# in-process shell. Any "error:" line fails.
echo "== local shell smoke =="
QUICKSTART_OUT="$(build/examples/quickstart)" \
  || { echo "quickstart exited non-zero"; exit 1; }
echo "${QUICKSTART_OUT}"
grep -q "=> RETRIEVE" <<< "${QUICKSTART_OUT}" \
  || { echo "quickstart printed no RETRIEVE translation"; exit 1; }
LOCAL_SHELL_OUT="$(printf '%s\n' \
  "MOVE 'Networks' TO title IN course" \
  "FIND ANY course USING title IN course" \
  "FOR EACH course SUCH THAT title = 'Networks' PRINT title" \
  "INSERT INTO staff (name, wage) VALUES ('alice', 900)" \
  "EXPLAIN SELECT name, wage FROM staff" \
  "ISRT patient (pname = 'smith')" \
  "INSERT INTO staff (name, wage) VALUES ('o''neil', 901)" \
  "SELECT name FROM staff WHERE name = 'o''neil'" \
  "FOR EACH course SUCH THAT title = 'Bob''s' PRINT title" \
  ".quit" \
  | build/examples/local_shell)"
echo "${LOCAL_SHELL_OUT}"
if grep -q "error:" <<< "${LOCAL_SHELL_OUT}"; then
  echo "local shell smoke: a statement failed"
  exit 1
fi
# A doubled quote is an escaped quote in every language's literals.
grep -q "o'neil" <<< "${LOCAL_SHELL_OUT}" \
  || { echo "local shell smoke: SELECT did not read back o'neil"; exit 1; }
echo "local shell smoke passed"

if [[ "${MLDS_SKIP_BENCH:-0}" == "1" ]]; then
  echo "== bench smoke skipped (MLDS_SKIP_BENCH=1) =="
else
  # Run every bench binary at smoke size: each main() loads its data set
  # and writes its BENCH_*.json report, so the measurement paths run on
  # every PR and CI uploads the fresh JSON artifacts. tools/bench_compare
  # then checks each report against its committed bench/results/ twin.
  echo "== bench smoke =="
  rm -rf build/bench-smoke
  mkdir -p build/bench-smoke
  # The streaming bench bulk-loads its row count from the environment:
  # 24k rows renders a ~330 KB body, past the 256 KiB stream threshold,
  # so the smoke still exercises chunked transfer end to end (the full
  # 120k-row run happens off-CI). The bulk-load bench reads its record
  # count the same way: 20k rows smokes the batch/WAL/recovery paths; the
  # committed report is the full 1M-row run.
  for bench in bench_range_queries bench_intra_backend bench_fault_recovery \
               bench_server bench_streaming bench_bulk_load \
               bench_paged_storage bench_joins bench_mbds_scaling; do
    (cd build/bench-smoke && \
      MLDS_STREAM_BENCH_ROWS=24000 MLDS_BULK_RECORDS=20000 "../bench/${bench}")
  done
  tools/bench_compare build/bench-smoke bench/results

  # Repository benchmark smoke: build perfbench (its own CMake package,
  # so its wire driver compiles against the current client and STATS
  # API), run one second of the lookup, walk and ingest workloads, and
  # require correct runs with no failed operations. The walk covers the
  # two-sided range scans and the key-probed Daplex ISA levels over the
  # wire; the ingest drives all four languages' batch inserts over the
  # wire.
  echo "== perfbench smoke =="
  for workload in lookup walk ingest; do
    PERFBENCH_LINE="$(CARGO_TARGET_DIR=build/perfbench-smoke python3 perfbench/run.py \
      --workload "${workload}" --seed 1 --seconds 1 | tail -n 1)"
    echo "${workload}: ${PERFBENCH_LINE}"
    grep -q '"correct": true' <<< "${PERFBENCH_LINE}" \
      || { echo "perfbench smoke: ${workload} run was not correct"; exit 1; }
    grep -q '"failed": 0[,}]' <<< "${PERFBENCH_LINE}" \
      || { echo "perfbench smoke: ${workload} operations failed"; exit 1; }
  done
  echo "perfbench smoke passed"
fi

# Streaming smoke against a given build tree: a server with a tiny
# stream threshold so even the demo tables travel as chunked results,
# driven through the shell; .stats must report streamed results.
run_streaming_smoke() {
  local build_dir="$1" log="$2"
  "${build_dir}/tools/mlds_server" --port 0 \
    --stream-threshold 64 --chunk-bytes 48 > "${log}" &
  local server_pid=$!
  trap 'kill "'"${server_pid}"'" 2>/dev/null || true' EXIT
  local port=""
  for _ in $(seq 1 100); do
    port="$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' "${log}")"
    [[ -n "${port}" ]] && break
    sleep 0.1
  done
  [[ -n "${port}" ]] || { echo "streaming server never reported its port"; exit 1; }
  printf '%s\n' \
    ".use sql payroll" \
    "SELECT name, wage FROM staff" \
    ".use abdl university" \
    "RETRIEVE ((FILE = course)) (title) BY course" \
    ".stats" \
    ".shutdown" \
    | "${build_dir}/tools/mlds_shell" 127.0.0.1 "${port}" --strict \
    > "${log}.shell"
  wait "${server_pid}"
  trap - EXIT
  grep -Eq 'server\.results_streamed [1-9]' "${log}.shell" \
    || { echo "no results streamed in streaming smoke"; exit 1; }
  grep -Eq 'server\.chunks_streamed [1-9]' "${log}.shell" \
    || { echo "no chunks streamed in streaming smoke"; exit 1; }
  echo "streaming smoke passed (port ${port})"
}

# Bulk-load smoke against a given build tree: the server seeds itself
# from a --source script before accepting connections, the shell replays
# a second script with .source, and a SELECT confirms both loads landed.
run_bulk_smoke() {
  local build_dir="$1" log="$2"
  local seed_script="${build_dir}/bulk_seed.mlds"
  local more_script="${build_dir}/bulk_more.mlds"
  printf '%s\n' \
    "# seeded by mlds_server --source before it listens" \
    ".use sql payroll" \
    "INSERT INTO staff (name, wage) VALUES ('bulk_a', 11)" \
    "INSERT INTO staff (name, wage) VALUES ('bulk_b', 12)" \
    > "${seed_script}"
  printf '%s\n' \
    "-- replayed through the shell's .source" \
    ".use sql payroll" \
    "INSERT INTO staff (name, wage) VALUES ('bulk_c', 13)" \
    > "${more_script}"
  "${build_dir}/tools/mlds_server" --port 0 --source "${seed_script}" \
    > "${log}" &
  local server_pid=$!
  trap 'kill "'"${server_pid}"'" 2>/dev/null || true' EXIT
  local port=""
  for _ in $(seq 1 100); do
    port="$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' "${log}")"
    [[ -n "${port}" ]] && break
    sleep 0.1
  done
  [[ -n "${port}" ]] || { echo "bulk smoke server never reported its port"; exit 1; }
  printf '%s\n' \
    ".source ${more_script}" \
    ".use sql payroll" \
    "SELECT name FROM staff WHERE wage > 10" \
    ".shutdown" \
    | "${build_dir}/tools/mlds_shell" 127.0.0.1 "${port}" --strict \
    > "${log}.shell"
  wait "${server_pid}"
  trap - EXIT
  grep -q "sourced ${seed_script}: 3 statement(s), 0 failed" "${log}" \
    || { echo "server --source did not replay the seed script"; exit 1; }
  grep -q "bulk_a" "${log}.shell" && grep -q "bulk_c" "${log}.shell" \
    || { echo "bulk-loaded rows missing from SELECT"; exit 1; }
  echo "bulk load smoke passed (port ${port})"
}

# Restart-persistence smoke against a given build tree: a server with a
# --data-dir takes one write per language interface over the wire, plus
# 400 more `staff` rows, shuts down cleanly (remote SHUTDOWN → drain →
# engine flush + clean marker), and a second server over the same dir
# must serve every row back — no snapshot call anywhere, the page files
# alone carry the database. The server fills pages by bytes, so
# staff.mpf must hold at most 8 data pages (the 16-record block needs
# 26).
run_persistence_smoke() {
  local build_dir="$1" log="$2"
  local data_dir="${build_dir}/persist-smoke-data"
  rm -rf "${data_dir}"

  start_persistence_server() {
    "${build_dir}/tools/mlds_server" --port 0 --data-dir "${data_dir}" \
      --pool-pages 64 > "$1" &
    PERSIST_PID=$!
    trap 'kill "${PERSIST_PID}" 2>/dev/null || true' EXIT
    PERSIST_PORT=""
    for _ in $(seq 1 100); do
      PERSIST_PORT="$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' "$1")"
      [[ -n "${PERSIST_PORT}" ]] && break
      sleep 0.1
    done
    [[ -n "${PERSIST_PORT}" ]] \
      || { echo "persistence server never reported its port"; exit 1; }
  }

  start_persistence_server "${log}.first"
  {
    printf '%s\n' \
      ".use sql payroll" \
      "INSERT INTO staff (name, wage) VALUES ('persist_sql', 55)" \
      ".use daplex university" \
      "CREATE department (dname = 'Persistence')" \
      ".use codasyl university" \
      "MOVE 'Hopper Hall' TO dname IN department" \
      "STORE department" \
      ".use dli clinic" \
      "ISRT patient (pname = 'persist_p')" \
      ".use sql payroll"
    for i in $(seq 1 400); do
      echo "INSERT INTO staff (name, wage) VALUES ('pr_${i}', ${i})"
    done
    echo ".shutdown"
  } | "${build_dir}/tools/mlds_shell" 127.0.0.1 "${PERSIST_PORT}" --strict \
    > "${log}.first.shell"
  wait "${PERSIST_PID}"
  trap - EXIT
  grep -q "stopped" "${log}.first" \
    || { echo "persistence server did not drain cleanly"; exit 1; }

  start_persistence_server "${log}.second"
  printf '%s\n' \
    ".use sql payroll" \
    "SELECT name FROM staff WHERE name = 'persist_sql'" \
    "SELECT COUNT(name) FROM staff" \
    ".use daplex university" \
    "FOR EACH department SUCH THAT dname = 'Persistence' PRINT dname" \
    ".use codasyl university" \
    "MOVE 'Hopper Hall' TO dname IN department" \
    "FIND ANY department USING dname IN department" \
    "GET dname IN department" \
    ".use dli clinic" \
    "GU patient (pname = 'persist_p')" \
    ".stats" \
    ".shutdown" \
    | "${build_dir}/tools/mlds_shell" 127.0.0.1 "${PERSIST_PORT}" --strict \
    > "${log}.second.shell"
  wait "${PERSIST_PID}"
  trap - EXIT
  for row in persist_sql Persistence Hopper persist_p; do
    grep -q "${row}" "${log}.second.shell" \
      || { echo "row '${row}' did not survive the restart"; exit 1; }
  done
  # 3 demo rows, persist_sql and the 400 added rows.
  grep -A2 '^COUNT(name)' "${log}.second.shell" | grep -Eq '^404 *$' \
    || { echo "SELECT COUNT(name) did not return all 404 staff rows"; exit 1; }
  python3 - "${data_dir}" <<'PY' \
    || { echo "staff.mpf holds more than 8 data pages"; exit 1; }
import pathlib, struct, sys
# Header page, then one frame (page + 16-byte trailer) per data page.
mpf = next(pathlib.Path(sys.argv[1]).rglob('staff.mpf'))
data = mpf.read_bytes()
page_bytes = struct.unpack_from('<I', data, len(b'MLDSPAGE 2\n'))[0]
pages = (len(data) - page_bytes) // (page_bytes + 16)
print(f"staff.mpf holds {pages} data page(s)")
sys.exit(0 if pages <= 8 else 1)
PY
  echo "restart persistence smoke passed (port ${PERSIST_PORT})"
}

# Corruption-recovery smoke against a given build tree: a server with a
# --data-dir takes one write per language interface and shuts down
# cleanly; then one byte near the tail of every kernel page file is
# flipped. The restarted server must detect the damage via the page
# checksums, quarantine the files, rebuild them from checkpoint + WAL,
# and serve all four rows back — .verify must scrub clean afterwards and
# .stats must report the rebuilds. At no point may a wrong byte be
# served.
run_integrity_smoke() {
  local build_dir="$1" log="$2"
  local data_dir="${build_dir}/integrity-smoke-data"
  rm -rf "${data_dir}"

  start_integrity_server() {
    "${build_dir}/tools/mlds_server" --port 0 --data-dir "${data_dir}" \
      --pool-pages 64 > "$1" &
    INTEGRITY_PID=$!
    trap 'kill "${INTEGRITY_PID}" 2>/dev/null || true' EXIT
    INTEGRITY_PORT=""
    for _ in $(seq 1 100); do
      INTEGRITY_PORT="$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' "$1")"
      [[ -n "${INTEGRITY_PORT}" ]] && break
      sleep 0.1
    done
    [[ -n "${INTEGRITY_PORT}" ]] \
      || { echo "integrity server never reported its port"; exit 1; }
  }

  start_integrity_server "${log}.first"
  printf '%s\n' \
    ".use sql payroll" \
    "INSERT INTO staff (name, wage) VALUES ('integrity_sql', 77)" \
    "INSERT INTO staff (name, wage) VALUES ('integrity_f', 1234567.25)" \
    ".use daplex university" \
    "CREATE department (dname = 'IntegrityDept')" \
    ".use codasyl university" \
    "MOVE 'Integrity Hall' TO dname IN department" \
    "STORE department" \
    ".use dli clinic" \
    "ISRT patient (pname = 'integrity_p')" \
    ".shutdown" \
    | "${build_dir}/tools/mlds_shell" 127.0.0.1 "${INTEGRITY_PORT}" --strict \
    > "${log}.first.shell"
  wait "${INTEGRITY_PID}"
  trap - EXIT
  grep -q "stopped" "${log}.first" \
    || { echo "integrity server did not drain cleanly"; exit 1; }

  # Flip one byte near the end of every kernel page file: depending on
  # the file that lands in a frame payload, a frame trailer, or the
  # header page — the checksums must catch all three.
  python3 - "${data_dir}" <<'PY' \
    || { echo "no page files found to corrupt"; exit 1; }
import pathlib, sys
count = 0
for mpf in sorted(pathlib.Path(sys.argv[1]).rglob('*.mpf')):
    data = bytearray(mpf.read_bytes())
    if not data:
        continue
    data[max(0, len(data) - 5)] ^= 0x40
    mpf.write_bytes(bytes(data))
    count += 1
print(f"flipped one byte in {count} page file(s)")
sys.exit(0 if count else 1)
PY

  start_integrity_server "${log}.second"
  printf '%s\n' \
    ".use sql payroll" \
    "SELECT name FROM staff WHERE name = 'integrity_sql'" \
    "SELECT name, wage FROM staff WHERE name = 'integrity_f'" \
    ".use daplex university" \
    "FOR EACH department SUCH THAT dname = 'IntegrityDept' PRINT dname" \
    ".use codasyl university" \
    "MOVE 'Integrity Hall' TO dname IN department" \
    "FIND ANY department USING dname IN department" \
    "GET dname IN department" \
    ".use dli clinic" \
    "GU patient (pname = 'integrity_p')" \
    ".verify" \
    ".stats" \
    ".shutdown" \
    | "${build_dir}/tools/mlds_shell" 127.0.0.1 "${INTEGRITY_PORT}" --strict \
    > "${log}.second.shell"
  wait "${INTEGRITY_PID}"
  trap - EXIT
  for row in integrity_sql IntegrityDept "Integrity Hall" integrity_p; do
    grep -q "${row}" "${log}.second.shell" \
      || { echo "row '${row}' did not survive corruption recovery"; exit 1; }
  done
  # A float keeps every digit through the checkpoint rebuild.
  grep -q "1234567.25" "${log}.second.shell" \
    || { echo "integrity_f's wage lost digits in the rebuild"; exit 1; }
  grep -q "integrity OK" "${log}.second.shell" \
    || { echo ".verify did not scrub clean after the rebuild"; exit 1; }
  grep -Eq 'integrity\.files_rebuilt [1-9]' "${log}.second.shell" \
    || { echo ".stats did not report any rebuilt file"; exit 1; }
  echo "corruption recovery smoke passed (port ${INTEGRITY_PORT})"
}

# Concurrent insert smoke against a given build tree and backend count
# (0: one engine; N: the MBDS controller over N backends): four wire
# clients each INSERT 300 staff rows at once into a --workers 4 server.
# The kernel assigns every key under the file's lock, so no two rows may
# share one, and every row must land (1,200 plus the three demo rows).
run_concurrent_insert_smoke() {
  local build_dir="$1" log="$2" backends="$3"
  rm -f "${log}" "${log}".client*
  "${build_dir}/tools/mlds_server" --port 0 --workers 4 \
    --backends "${backends}" > "${log}" &
  local pid=$!
  local port=""
  for _ in $(seq 1 50); do
    port="$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' "${log}")"
    [[ -n "${port}" ]] && break
    sleep 0.1
  done
  [[ -n "${port}" ]] \
    || { kill "${pid}"; echo "concurrent insert smoke: no port"; exit 1; }
  local clients=()
  for c in 1 2 3 4; do
    { echo ".use sql payroll"
      for i in $(seq 1 300); do
        echo "INSERT INTO staff (name, wage) VALUES ('c${c}_${i}', 1.0)"
      done
    } | "${build_dir}/tools/mlds_shell" 127.0.0.1 "${port}" --strict \
        > "${log}.client${c}" &
    clients+=($!)
  done
  for client in "${clients[@]}"; do
    wait "${client}" \
      || { kill "${pid}"; echo "concurrent insert smoke: a client failed"; exit 1; }
  done
  local keys
  keys="$(printf '%s\n' ".use abdl payroll" "RETRIEVE ((FILE = staff)) (staff)" \
            ".shutdown" \
          | "${build_dir}/tools/mlds_shell" 127.0.0.1 "${port}" --strict \
          | grep -o '^staff_[0-9]*')"
  wait "${pid}"
  local repeated
  repeated="$(sort <<< "${keys}" | uniq -d)"
  [[ -z "${repeated}" ]] \
    || { echo "concurrent insert smoke: $(wc -l <<< "${repeated}") repeated" \
              "keys, such as $(head -3 <<< "${repeated}" | tr '\n' ' ')"; exit 1; }
  [[ "$(wc -l <<< "${keys}")" == "1203" ]] \
    || { echo "concurrent insert smoke: $(wc -l <<< "${keys}") staff rows, want 1203"; exit 1; }
  echo "concurrent insert smoke passed (${backends} backends, port ${port})"
}

if [[ "${MLDS_SKIP_SERVER:-0}" == "1" ]]; then
  echo "== server smoke skipped (MLDS_SKIP_SERVER=1) =="
else
  # Server round-trip smoke: start mlds_server on an ephemeral port,
  # drive one statement per language interface through the wire shell,
  # then stop the server with a remote SHUTDOWN and check it drained.
  echo "== server round-trip smoke =="
  # A numeric flag that does not fit its field is a usage error (exit 2),
  # not a silently wrapped value.
  rc=0; build/tools/mlds_server --port 70000 >/dev/null 2>&1 || rc=$?
  [[ "${rc}" == "2" ]] \
    || { echo "mlds_server --port 70000 exited ${rc}, want 2"; exit 1; }
  build/tools/mlds_server --port 0 > build/mlds_server_smoke.log &
  SERVER_PID=$!
  trap 'kill "${SERVER_PID}" 2>/dev/null || true' EXIT
  for _ in $(seq 1 50); do
    PORT="$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' \
            build/mlds_server_smoke.log)"
    [[ -n "${PORT}" ]] && break
    sleep 0.1
  done
  [[ -n "${PORT}" ]] || { echo "server never reported its port"; exit 1; }
  printf '%s\n' \
    ".use sql payroll" \
    "SELECT name, wage FROM staff" \
    ".use daplex university" \
    "FOR EACH course SUCH THAT title = 'Networks' PRINT title" \
    ".use codasyl university" \
    "MOVE 'Networks' TO title IN course" \
    "FIND ANY course USING title IN course" \
    "GET" \
    ".use dli clinic" \
    "GU patient (pname = 'smith')" \
    ".health" \
    ".stats" \
    ".shutdown" \
    | build/tools/mlds_shell 127.0.0.1 "${PORT}" --strict
  wait "${SERVER_PID}"
  trap - EXIT
  grep -q "stopped" build/mlds_server_smoke.log \
    || { echo "server did not drain cleanly"; exit 1; }
  echo "server round-trip smoke passed (port ${PORT})"

  echo "== streaming smoke =="
  run_streaming_smoke build build/mlds_streaming_smoke.log

  echo "== bulk load smoke =="
  run_bulk_smoke build build/mlds_bulk_smoke.log

  echo "== restart persistence smoke =="
  run_persistence_smoke build build/mlds_persist_smoke.log

  echo "== corruption recovery smoke =="
  run_integrity_smoke build build/mlds_integrity_smoke.log

  echo "== concurrent insert smoke =="
  run_concurrent_insert_smoke build build/mlds_concurrent_smoke.log 0
  run_concurrent_insert_smoke build build/mlds_concurrent_smoke_b4.log 4
fi

if [[ "${MLDS_SKIP_TSAN:-0}" == "1" ]]; then
  echo "== TSan run skipped (MLDS_SKIP_TSAN=1) =="
else
  echo "== ThreadSanitizer build =="
  cmake -B build-tsan -S . -DMLDS_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "${JOBS}"
  # TSan aborts the test on the first data race (halt_on_error) so races
  # fail the suite loudly rather than scrolling past.
  (cd build-tsan && \
    TSAN_OPTIONS="halt_on_error=1" \
    ctest --output-on-failure -j "${JOBS}" ${MLDS_TSAN_FILTER:+-R "${MLDS_TSAN_FILTER}"})
  # Fault-matrix smoke: the failover and crash-recovery suites rerun
  # race-checked with every injected-fault path (error/stall/crash,
  # deadline abandonment, quarantine catch-up, reintegration hand-off)
  # exercised — the fan-out/cancellation machinery is exactly where a
  # data race would hide. StatisticsStress rides along: concurrent
  # histogram maintenance against concurrent estimate readers is the
  # statistics subsystem's cross-thread hot path.
  echo "== TSan fault matrix =="
  (cd build-tsan && \
    TSAN_OPTIONS="halt_on_error=1" \
    ctest --output-on-failure -j "${JOBS}" \
      -R 'BackendFailover|WalRecovery|FailureInjection|StatisticsStress')
  # Server suites: the server threads share each connection's decoder,
  # lanes, outbox and streams under one mutex and hand lanes to each
  # other; rerun them race-checked even when MLDS_TSAN_FILTER narrowed
  # the run above.
  echo "== TSan server suites =="
  (cd build-tsan && \
    TSAN_OPTIONS="halt_on_error=1" \
    ctest --output-on-failure -j "${JOBS}" \
      -R 'PipelineStress|SessionStress|ServerRoundTrip')
  # Record-layout and directory suites: readers share a file's interned
  # layouts and its directory buckets under the store's shared lock while
  # writers register layouts and rewrite buckets under the exclusive lock
  # (FileStoreTest holds the directory oracle, PostingsTest one bucket's
  # against std::set, ValueOrderTest the key order every bucket map
  # relies on); rerun them race-checked even when MLDS_TSAN_FILTER
  # narrowed the run above.
  echo "== TSan record-layout and directory suites =="
  (cd build-tsan && \
    TSAN_OPTIONS="halt_on_error=1" \
    ctest --output-on-failure -j "${JOBS}" \
      -R 'ConcurrencyTest|CompactRaceTest|AbdlCommitRaceTest|RecordTest|FileStoreTest|PostingsTest|ValueOrderTest')
  # Key-probe suites: Daplex ISA levels fetched by key across four MBDS
  # backends (each backend's store plans and probes the key set under
  # its shared lock while the controller fans out), the fold oracles
  # against the unfolded DNF, the DLET/DESTROY cascades' key-set
  # transactions faulted at every request over four backends, and the
  # kernel-owned keys and unique guards under concurrent sessions of
  # every language (in-process and over the wire, 0 and 4 backends);
  # rerun them race-checked even when MLDS_TSAN_FILTER narrowed the run
  # above.
  echo "== TSan key-probe suites =="
  (cd build-tsan && \
    TSAN_OPTIONS="halt_on_error=1" \
    ctest --output-on-failure -j "${JOBS}" \
      -R 'DaplexIsaJoinTest|DaplexInheritanceTest|KeySetFold|FoldedKeySet|CascadeFaultTest|NestedInsertTest|InsertStressTest')
  echo "== TSan concurrent insert smoke =="
  run_concurrent_insert_smoke build-tsan build-tsan/mlds_concurrent_smoke.log 0
  run_concurrent_insert_smoke build-tsan build-tsan/mlds_concurrent_smoke_b4.log 4
  # Fan-out and transaction suites: every backend share runs on a worker
  # of the controller's fan-out executor, which starts workers on demand
  # and hands idle ones to the next share, while transactions and
  # statement-level faults drive the controller from the calling thread;
  # rerun them race-checked even when MLDS_TSAN_FILTER narrowed the run
  # above.
  echo "== TSan fan-out and transaction suites =="
  (cd build-tsan && \
    TSAN_OPTIONS="halt_on_error=1" \
    ctest --output-on-failure -j "${JOBS}" \
      -R 'FanOutExecutorTest|TransactionPipeline|CascadeFaultTest')
  # Streaming smoke under TSan: the server threads and the per-session
  # stream state all touch the write path — race-check the chunked
  # transfer end to end, not just in unit tests.
  echo "== TSan streaming smoke =="
  run_streaming_smoke build-tsan build-tsan/mlds_streaming_smoke.log
  # Bulk smoke under TSan: the --source seeder runs on the client thread
  # while the server threads serve it, and group commit coalesces appends
  # across sessions — both are cross-thread write paths.
  echo "== TSan bulk load smoke =="
  run_bulk_smoke build-tsan build-tsan/mlds_bulk_smoke.log
  # Persistence smoke under TSan: server threads share the buffer pool
  # (pin/unpin, LRU moves, eviction write-backs) while the shutdown path
  # flushes it — exactly where a storage-layer race would hide.
  echo "== TSan restart persistence smoke =="
  run_persistence_smoke build-tsan build-tsan/mlds_persist_smoke.log
fi

if [[ "${MLDS_SKIP_ASAN:-0}" == "1" ]]; then
  echo "== ASan run skipped (MLDS_SKIP_ASAN=1) =="
else
  echo "== AddressSanitizer build =="
  cmake -B build-asan -S . -DMLDS_SANITIZE=address >/dev/null
  cmake --build build-asan -j "${JOBS}"
  (cd build-asan && \
    ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
    ctest --output-on-failure -j "${JOBS}")
  # Corruption-recovery smoke under ASan: quarantine + rebuild tears down
  # and recreates whole FileStores while sessions hold pool frames — the
  # exact shape where a use-after-free would hide.
  if [[ "${MLDS_SKIP_SERVER:-0}" != "1" ]]; then
    echo "== ASan corruption recovery smoke =="
    run_integrity_smoke build-asan build-asan/mlds_integrity_smoke.log
  fi
fi

if [[ "${MLDS_SKIP_UBSAN:-0}" == "1" ]]; then
  echo "== UBSan run skipped (MLDS_SKIP_UBSAN=1) =="
else
  echo "== UndefinedBehaviorSanitizer build =="
  cmake -B build-ubsan -S . -DMLDS_SANITIZE=undefined >/dev/null
  cmake --build build-ubsan -j "${JOBS}"
  # -fno-sanitize-recover=all makes any UB hit abort the test, so the
  # fuzzers' mangled snapshots/logs fail loudly instead of printing.
  (cd build-ubsan && ctest --output-on-failure -j "${JOBS}")
fi

echo "== all checks passed =="
