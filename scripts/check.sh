#!/usr/bin/env bash
#
# Tier-1 gate: configure (if needed), build, and run the fast test
# suite.  This is the command every change must keep green.
#
#   scripts/check.sh           # build + ctest -L tier1
#   scripts/check.sh --tsan    # also build the thread-heavy tests
#                              # (`exec`, `service`, `cluster`, `obs`,
#                              # `qa` and `core_par` ctest labels)
#                              # with -fsanitize=thread in build-tsan/
#                              # and run them (thread pool, eval
#                              # cache, batch determinism, admission
#                              # queue, loopback server, cluster
#                              # router + health prober, metrics and
#                              # spans, fuzz oracles, and the
#                              # multi-worker A*)
#   scripts/check.sh --bench-smoke
#                              # also run bench_astar --smoke and diff
#                              # its deterministic search counters
#                              # against bench/expectations/ — catches
#                              # unintended changes to A* expansion
#                              # order, pruning, or evaluation totals
#                              # (one-worker runs of the one engine) —
#                              # and bench_table2 --smoke, whose IAR
#                              # make-spans, lower bounds, counters and
#                              # schedule digests on the nine Table 1
#                              # configs must match
#                              # bench/expectations/iar_smoke.txt
#   scripts/check.sh --par-smoke
#                              # also run bench_astar_par --smoke and
#                              # diff its deterministic counters
#                              # (one-worker runs with and without the
#                              # incumbent seed, cross-worker-count
#                              # cost agreement) against
#                              # bench/expectations/
#   scripts/check.sh --obs-smoke
#                              # also exercise the observability
#                              # surface end to end: start jitschedd,
#                              # submit the Fig. 1 workload with
#                              # --trace-out and validate the Chrome
#                              # trace JSON with jitsched-trace-check,
#                              # then scrape STATS and diff the
#                              # instrument key set against
#                              # bench/expectations/obs_keys.txt
#   scripts/check.sh --fuzz-smoke
#                              # also run the differential fuzzer:
#                              # ~20s of jitsched-fuzz solvers, ~10s
#                              # each of jitsched-fuzz protocol,
#                              # result-cache and cluster, plus the
#                              # broken-oracle canaries (runs with the
#                              # lower-bound / astar-par /
#                              # result-cache / cluster oracles
#                              # deliberately broken MUST fail —
#                              # proves the harness can still detect
#                              # a broken oracle)
#   scripts/check.sh --asan    # also build the tree with
#                              # -fsanitize=address,undefined in
#                              # build-asan/ and run the `qa` and
#                              # `service` test labels plus a short
#                              # fuzz smoke under the sanitizers
#   scripts/check.sh --cluster-smoke
#                              # also drive the real cluster binaries
#                              # end to end: two jitschedd backends +
#                              # jitsched-router on ephemeral ports,
#                              # byte-compare routed responses against
#                              # a direct daemon, kill one backend
#                              # mid-run (answers must keep coming),
#                              # and scrape the router's STATS
#   scripts/check.sh --trace-smoke
#                              # also exercise distributed tracing end
#                              # to end: 2 jitschedd + jitsched-router,
#                              # all with --trace-out, drive traced
#                              # requests through the router, scrape
#                              # the flight recorder with DUMP,
#                              # validate every written trace with
#                              # jitsched-trace-check, and diff the
#                              # observed span-name set against
#                              # bench/expectations/span_keys.txt
#   scripts/check.sh --result-cache-smoke
#                              # also exercise the request-level
#                              # result cache end to end: jitschedd
#                              # with --result-cache-mb + a snapshot
#                              # file, the same workload twice (the
#                              # second answer must come from the
#                              # store, byte-identical to the fresh
#                              # solve), `jitsched-cli snapshot`, and
#                              # a warm restart whose first answer is
#                              # already a hit — plus the cache-off
#                              # default, whose wire bytes must not
#                              # mention the cache at all
#
set -euo pipefail

cd "$(dirname "$0")/.."

run_tsan=0
run_bench_smoke=0
run_par_smoke=0
run_obs_smoke=0
run_fuzz_smoke=0
run_asan=0
run_cluster_smoke=0
run_trace_smoke=0
run_result_cache_smoke=0
for arg in "$@"; do
    case "$arg" in
        --tsan) run_tsan=1 ;;
        --bench-smoke) run_bench_smoke=1 ;;
        --par-smoke) run_par_smoke=1 ;;
        --obs-smoke) run_obs_smoke=1 ;;
        --fuzz-smoke) run_fuzz_smoke=1 ;;
        --asan) run_asan=1 ;;
        --cluster-smoke) run_cluster_smoke=1 ;;
        --trace-smoke) run_trace_smoke=1 ;;
        --result-cache-smoke) run_result_cache_smoke=1 ;;
        *)
            echo "usage: scripts/check.sh [--tsan] [--bench-smoke]" \
                 "[--par-smoke] [--obs-smoke] [--fuzz-smoke]" \
                 "[--asan] [--cluster-smoke] [--trace-smoke]" \
                 "[--result-cache-smoke]" >&2
            exit 2
            ;;
    esac
done

cmake -B build -S . >/dev/null
cmake --build build -j
(cd build && ctest -L tier1 --output-on-failure -j "$(nproc)")

if [ "$run_bench_smoke" -eq 1 ]; then
    echo "== Bench smoke (deterministic A* counters) =="
    ./build/bench/bench_astar --smoke > build/astar_smoke.out
    if ! diff -u bench/expectations/astar_smoke.txt \
            build/astar_smoke.out; then
        echo "bench smoke: A* counters diverged from" \
             "bench/expectations/astar_smoke.txt" >&2
        echo "(if the change is intentional, regenerate with:" \
             "./build/bench/bench_astar --smoke >" \
             "bench/expectations/astar_smoke.txt)" >&2
        exit 1
    fi
    echo "bench smoke: counters match"
    echo "== Bench smoke (IAR schedules and counters) =="
    ./build/bench/bench_table2 --smoke > build/iar_smoke.out
    if ! diff -u bench/expectations/iar_smoke.txt build/iar_smoke.out; then
        echo "bench smoke: IAR output diverged from" \
             "bench/expectations/iar_smoke.txt" >&2
        echo "(if the change is intentional, regenerate with:" \
             "./build/bench/bench_table2 --smoke >" \
             "bench/expectations/iar_smoke.txt)" >&2
        exit 1
    fi
    echo "bench smoke: IAR output matches"
fi

if [ "$run_par_smoke" -eq 1 ]; then
    echo "== Parallel A* smoke (deterministic astar-par counters) =="
    ./build/bench/bench_astar_par --smoke > build/astar_par_smoke.out
    if ! diff -u bench/expectations/astar_par_smoke.txt \
            build/astar_par_smoke.out; then
        echo "par smoke: astar-par counters diverged from" \
             "bench/expectations/astar_par_smoke.txt" >&2
        echo "(if the change is intentional, regenerate with:" \
             "./build/bench/bench_astar_par --smoke >" \
             "bench/expectations/astar_par_smoke.txt)" >&2
        exit 1
    fi
    echo "par smoke: counters match"
fi

if [ "$run_obs_smoke" -eq 1 ]; then
    echo "== Observability smoke (trace export + STATS key set) =="
    workload="$(mktemp)" log="$(mktemp)" trace="$(mktemp --suffix=.json)"
    daemon_pid=""
    cleanup_obs() {
        [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
        [ -n "$daemon_pid" ] && wait "$daemon_pid" 2>/dev/null || true
        rm -f "$workload" "$log" "$trace" "$log.stats"
    }
    trap cleanup_obs EXIT
    # The paper's Fig. 1 instance (trace/paper_examples.hh).
    cat > "$workload" <<'EOF'
# jitsched workload trace
workload paper-fig1
levels 2
func 0 f0 1 1 1 1 1
func 1 f1 1 1 3 3 2
func 2 f2 1 3 3 5 1
calls 4
0 1 2 1
EOF
    ./build/bin/jitschedd --port 0 > "$log" &
    daemon_pid=$!
    port=""
    for _ in $(seq 1 50); do
        port="$(sed -n \
            's/^jitschedd listening on .*:\([0-9]*\)$/\1/p' "$log")"
        [ -n "$port" ] && break
        sleep 0.1
    done
    if [ -z "$port" ]; then
        echo "obs smoke: jitschedd did not come up:" >&2
        cat "$log" >&2
        exit 1
    fi
    # Solve + timeline export, then validate the trace JSON.
    ./build/bin/jitsched-cli --port "$port" --policy iar --no-stats \
        --trace-out "$trace" "$workload" > /dev/null
    ./build/bin/jitsched-trace-check "$trace"
    # The STATS key set must match the checked-in inventory (values
    # are volatile; the keys are the scrape contract).
    ./build/bin/jitsched-cli --port "$port" stats > "$log.stats"
    if ! awk '/^snapshot /{s=1; next} /^end$/{s=0} s{print $1, $2}' \
            "$log.stats" | diff -u bench/expectations/obs_keys.txt -
    then
        echo "obs smoke: STATS keys diverged from" \
             "bench/expectations/obs_keys.txt" >&2
        echo "(if the change is intentional, regenerate the" \
             "expectation from the awk output above)" >&2
        exit 1
    fi
    kill "$daemon_pid" 2>/dev/null || true
    wait "$daemon_pid" 2>/dev/null || true
    daemon_pid=""
    echo "obs smoke: trace valid, STATS keys match"
fi

if [ "$run_cluster_smoke" -eq 1 ]; then
    echo "== Cluster smoke (2 jitschedd + jitsched-router) =="
    cs_dir="$(mktemp -d)"
    cs_pids=()
    cleanup_cluster() {
        for pid in "${cs_pids[@]:-}"; do
            kill "$pid" 2>/dev/null || true
            wait "$pid" 2>/dev/null || true
        done
        rm -rf "$cs_dir"
    }
    trap cleanup_cluster EXIT
    # The paper's Fig. 1 instance (trace/paper_examples.hh).
    cat > "$cs_dir/workload" <<'EOF'
# jitsched workload trace
workload paper-fig1
levels 2
func 0 f0 1 1 1 1 1
func 1 f1 1 1 3 3 2
func 2 f2 1 3 3 5 1
calls 4
0 1 2 1
EOF
    scrape_port() { # logfile binary-name
        local port="" i
        for i in $(seq 1 50); do
            port="$(sed -n \
                "s/^$2 listening on .*:\([0-9]*\)$/\1/p" "$1")"
            [ -n "$port" ] && break
            sleep 0.1
        done
        if [ -z "$port" ]; then
            echo "cluster smoke: $2 did not come up:" >&2
            cat "$1" >&2
            exit 1
        fi
        echo "$port"
    }
    ./build/bin/jitschedd --port 0 > "$cs_dir/a.log" &
    cs_pids+=($!)
    ./build/bin/jitschedd --port 0 > "$cs_dir/b.log" &
    cs_pids+=($!)
    port_a="$(scrape_port "$cs_dir/a.log" jitschedd)"
    port_b="$(scrape_port "$cs_dir/b.log" jitschedd)"
    ./build/bin/jitsched-router --port 0 \
        --backend "127.0.0.1:$port_a" \
        --backend "127.0.0.1:$port_b" > "$cs_dir/router.log" &
    router_pid=$!
    cs_pids+=("$router_pid")
    port_r="$(scrape_port "$cs_dir/router.log" jitsched-router)"

    # Byte-identity: the same request through the router and against
    # a daemon directly must print the same response (--no-stats
    # drops the one volatile line).
    ./build/bin/jitsched-cli --port "$port_r" --policy iar --id 1 \
        --no-stats --timeout-ms 10000 "$cs_dir/workload" \
        > "$cs_dir/via-router.out"
    ./build/bin/jitsched-cli --port "$port_a" --policy iar --id 1 \
        --no-stats --timeout-ms 10000 "$cs_dir/workload" \
        > "$cs_dir/direct.out"
    if ! diff -u "$cs_dir/direct.out" "$cs_dir/via-router.out"; then
        echo "cluster smoke: routed response diverged from the" \
             "direct daemon" >&2
        exit 1
    fi

    # Fault tolerance: kill backend A; requests must keep being
    # answered, and still byte-identically, by the survivor.  (The
    # request id is kept at 1 so the reference bytes stay valid.)
    kill "${cs_pids[0]}" 2>/dev/null || true
    wait "${cs_pids[0]}" 2>/dev/null || true
    for shot in 1 2 3; do
        ./build/bin/jitsched-cli --port "$port_r" --policy iar \
            --id 1 --no-stats --timeout-ms 10000 \
            "$cs_dir/workload" > "$cs_dir/after-kill.$shot.out"
        if ! diff -u "$cs_dir/direct.out" \
                "$cs_dir/after-kill.$shot.out"; then
            echo "cluster smoke: response $shot after the backend" \
                 "kill diverged" >&2
            exit 1
        fi
    done

    # The router's own STATS surface.
    ./build/bin/jitsched-cli --port "$port_r" --timeout-ms 10000 \
        stats > "$cs_dir/stats.out"
    if ! grep -q "cluster.frames.served" "$cs_dir/stats.out"; then
        echo "cluster smoke: router STATS is missing cluster.*" \
             "instruments" >&2
        cat "$cs_dir/stats.out" >&2
        exit 1
    fi
    # Stop the survivor and the router now: a later smoke's EXIT trap
    # replaces this one.
    cleanup_cluster
    cs_pids=()
    echo "cluster smoke: byte-identical routing, failover, STATS ok"
fi

if [ "$run_trace_smoke" -eq 1 ]; then
    echo "== Trace smoke (distributed tracing through the router) =="
    tr_dir="$(mktemp -d)"
    tr_pids=()
    cleanup_trace_smoke() {
        for pid in "${tr_pids[@]:-}"; do
            kill "$pid" 2>/dev/null || true
            wait "$pid" 2>/dev/null || true
        done
        rm -rf "$tr_dir"
    }
    trap cleanup_trace_smoke EXIT
    # The paper's Fig. 1 instance (trace/paper_examples.hh).
    cat > "$tr_dir/workload" <<'EOF'
# jitsched workload trace
workload paper-fig1
levels 2
func 0 f0 1 1 1 1 1
func 1 f1 1 1 3 3 2
func 2 f2 1 3 3 5 1
calls 4
0 1 2 1
EOF
    tr_scrape_port() { # logfile binary-name
        local port="" i
        for i in $(seq 1 50); do
            port="$(sed -n \
                "s/^$2 listening on .*:\([0-9]*\)$/\1/p" "$1")"
            [ -n "$port" ] && break
            sleep 0.1
        done
        if [ -z "$port" ]; then
            echo "trace smoke: $2 did not come up:" >&2
            cat "$1" >&2
            exit 1
        fi
        echo "$port"
    }
    # The backends run with the result cache on so the probe span
    # (service.result_cache) is part of the observed taxonomy.
    ./build/bin/jitschedd --port 0 --result-cache-mb 16 \
        --trace-out "$tr_dir/a.json" > "$tr_dir/a.log" &
    tr_pids+=($!)
    ./build/bin/jitschedd --port 0 --result-cache-mb 16 \
        --trace-out "$tr_dir/b.json" > "$tr_dir/b.log" &
    tr_pids+=($!)
    port_a="$(tr_scrape_port "$tr_dir/a.log" jitschedd)"
    port_b="$(tr_scrape_port "$tr_dir/b.log" jitschedd)"
    ./build/bin/jitsched-router --port 0 \
        --backend "127.0.0.1:$port_a" \
        --backend "127.0.0.1:$port_b" \
        --trace-out "$tr_dir/router.json" > "$tr_dir/router.log" &
    tr_pids+=($!)
    port_r="$(tr_scrape_port "$tr_dir/router.log" jitsched-router)"

    # One request with a caller-chosen trace id, one where the CLI
    # mints its own; both must be answered and traced.
    ./build/bin/jitsched-cli --port "$port_r" --policy iar --id 1 \
        --trace-id deadbeef --timeout-ms 10000 \
        "$tr_dir/workload" > /dev/null
    ./build/bin/jitsched-cli --port "$port_r" --policy iar --id 2 \
        --timeout-ms 10000 "$tr_dir/workload" > /dev/null

    # The router's flight recorder must remember the traced request,
    # scrapeable over the wire with the DUMP verb.
    ./build/bin/jitsched-cli --port "$port_r" --timeout-ms 10000 \
        dump > "$tr_dir/dump.out"
    if ! grep -q "trace deadbeef " "$tr_dir/dump.out"; then
        echo "trace smoke: DUMP through the router is missing the" \
             "deadbeef flight record" >&2
        cat "$tr_dir/dump.out" >&2
        exit 1
    fi

    # Graceful SIGTERM so every process writes its trace file.
    for pid in "${tr_pids[@]}"; do
        kill "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    done
    tr_pids=()

    # Every trace file actually written must validate (an idle
    # backend skips its file), and the union of span names across
    # them is the checked-in taxonomy.
    wrote=0
    for f in a.json b.json router.json; do
        [ -f "$tr_dir/$f" ] || continue
        ./build/bin/jitsched-trace-check "$tr_dir/$f"
        wrote=$((wrote + 1))
    done
    if [ "$wrote" -lt 2 ]; then
        echo "trace smoke: expected at least the router and one" \
             "backend to write traces, got $wrote file(s)" >&2
        exit 1
    fi
    if ! sed -n 's/.*"name": "\([^"]*\)", "cat": "span".*/\1/p' \
            "$tr_dir"/*.json | sort -u \
            | diff -u bench/expectations/span_keys.txt -; then
        echo "trace smoke: observed span names diverged from" \
             "bench/expectations/span_keys.txt" >&2
        echo "(if the taxonomy change is intentional, regenerate" \
             "the expectation from the sed output above)" >&2
        exit 1
    fi
    echo "trace smoke: traces valid, DUMP ok, span names match"
fi

if [ "$run_result_cache_smoke" -eq 1 ]; then
    echo "== Result-cache smoke (hits, snapshot, warm restart) =="
    rc_dir="$(mktemp -d)"
    rc_pid=""
    cleanup_result_cache() {
        [ -n "$rc_pid" ] && kill "$rc_pid" 2>/dev/null || true
        [ -n "$rc_pid" ] && wait "$rc_pid" 2>/dev/null || true
        rm -rf "$rc_dir"
    }
    trap cleanup_result_cache EXIT
    # The paper's Fig. 1 instance (trace/paper_examples.hh).
    cat > "$rc_dir/workload" <<'EOF'
# jitsched workload trace
workload paper-fig1
levels 2
func 0 f0 1 1 1 1 1
func 1 f1 1 1 3 3 2
func 2 f2 1 3 3 5 1
calls 4
0 1 2 1
EOF
    rc_scrape_port() { # logfile
        local port="" i
        for i in $(seq 1 50); do
            port="$(sed -n \
                's/^jitschedd listening on .*:\([0-9]*\)$/\1/p' "$1")"
            [ -n "$port" ] && break
            sleep 0.1
        done
        if [ -z "$port" ]; then
            echo "result-cache smoke: jitschedd did not come up:" >&2
            cat "$1" >&2
            exit 1
        fi
        echo "$port"
    }

    # Cache off (the default): the wire must not mention the cache.
    ./build/bin/jitschedd --port 0 > "$rc_dir/off.log" &
    rc_pid=$!
    port="$(rc_scrape_port "$rc_dir/off.log")"
    ./build/bin/jitsched-cli --port "$port" --policy iar --id 1 \
        --timeout-ms 10000 "$rc_dir/workload" > "$rc_dir/off.out"
    if grep -q "result-cache" "$rc_dir/off.out"; then
        echo "result-cache smoke: cache-off response mentions the" \
             "result cache — the off path is no longer byte-clean" >&2
        cat "$rc_dir/off.out" >&2
        exit 1
    fi
    kill "$rc_pid" 2>/dev/null || true
    wait "$rc_pid" 2>/dev/null || true
    rc_pid=""

    # Cache on, with a snapshot file.
    ./build/bin/jitschedd --port 0 --result-cache-mb 16 \
        --snapshot-file "$rc_dir/snap" > "$rc_dir/on.log" &
    rc_pid=$!
    port="$(rc_scrape_port "$rc_dir/on.log")"

    # The same request twice: a fresh solve, then a store hit that
    # must be byte-identical (--no-stats drops the one volatile
    # line; the id is kept equal so the echo matches too).
    ./build/bin/jitsched-cli --port "$port" --policy iar --id 7 \
        --no-stats --timeout-ms 10000 "$rc_dir/workload" \
        > "$rc_dir/fresh.out"
    ./build/bin/jitsched-cli --port "$port" --policy iar --id 7 \
        --no-stats --timeout-ms 10000 "$rc_dir/workload" \
        > "$rc_dir/cached.out"
    if ! diff -u "$rc_dir/fresh.out" "$rc_dir/cached.out"; then
        echo "result-cache smoke: cached response diverged from the" \
             "fresh solve" >&2
        exit 1
    fi
    # With the stats line kept, the repeat must declare itself a
    # store hit (`result-cache 1`).
    ./build/bin/jitsched-cli --port "$port" --policy iar --id 8 \
        --timeout-ms 10000 "$rc_dir/workload" > "$rc_dir/hit.out"
    if ! grep -q " result-cache 1" "$rc_dir/hit.out"; then
        echo "result-cache smoke: repeat was not served from the" \
             "store" >&2
        cat "$rc_dir/hit.out" >&2
        exit 1
    fi
    # The daemon's own counters agree.
    ./build/bin/jitsched-cli --port "$port" --timeout-ms 10000 \
        stats > "$rc_dir/stats.out"
    rc_hits="$(awk '$2 == "service.result_cache.hits" {print $3}' \
        "$rc_dir/stats.out")"
    if [ -z "$rc_hits" ] || [ "$rc_hits" -lt 1 ]; then
        echo "result-cache smoke: STATS hit counter missing or" \
             "zero (got '${rc_hits:-}')" >&2
        cat "$rc_dir/stats.out" >&2
        exit 1
    fi

    # Concurrent burst on a fresh key (a policy the cache has not
    # seen): exactly one request leads the solve; every other one
    # must be served by the cache — collapsed onto the in-flight
    # solve or answered from the store once it lands — so exactly 7
    # of the 8 responses carry a result-cache marker, independent of
    # timing.
    burst_pids=()
    for i in 1 2 3 4 5 6 7 8; do
        ./build/bin/jitsched-cli --port "$port" \
            --policy lower-bound --id "$((100 + i))" \
            --timeout-ms 10000 "$rc_dir/workload" \
            > "$rc_dir/burst.$i.out" &
        burst_pids+=($!)
    done
    for pid in "${burst_pids[@]}"; do
        wait "$pid"
    done
    burst_served="$(cat "$rc_dir"/burst.*.out \
        | grep -c " result-cache " || true)"
    if [ "$burst_served" -ne 7 ]; then
        echo "result-cache smoke: expected 7 of 8 burst responses" \
             "served by the cache, got $burst_served" >&2
        cat "$rc_dir"/burst.*.out >&2
        exit 1
    fi

    # On-demand snapshot over the wire (the SNAPSHOT verb).
    ./build/bin/jitsched-cli --port "$port" --timeout-ms 10000 \
        snapshot > "$rc_dir/snapshot.out"
    if ! grep -q "^snapshot 2 entries" "$rc_dir/snapshot.out"; then
        echo "result-cache smoke: unexpected snapshot reply:" >&2
        cat "$rc_dir/snapshot.out" >&2
        exit 1
    fi
    if [ ! -s "$rc_dir/snap" ]; then
        echo "result-cache smoke: snapshot file was not written" >&2
        exit 1
    fi

    # Warm restart: a clean shutdown re-writes the snapshot; the
    # next daemon must load it and serve its very first request from
    # the store — still byte-identical to the original fresh solve.
    kill "$rc_pid" 2>/dev/null || true
    wait "$rc_pid" 2>/dev/null || true
    rc_pid=""
    ./build/bin/jitschedd --port 0 --result-cache-mb 16 \
        --snapshot-file "$rc_dir/snap" > "$rc_dir/warm.log" &
    rc_pid=$!
    port="$(rc_scrape_port "$rc_dir/warm.log")"
    ./build/bin/jitsched-cli --port "$port" --policy iar --id 9 \
        --timeout-ms 10000 "$rc_dir/workload" > "$rc_dir/warm.out"
    if ! grep -q " result-cache 1" "$rc_dir/warm.out"; then
        echo "result-cache smoke: first request after the warm" \
             "restart was not served from the snapshot" >&2
        cat "$rc_dir/warm.out" "$rc_dir/warm.log" >&2
        exit 1
    fi
    ./build/bin/jitsched-cli --port "$port" --policy iar --id 7 \
        --no-stats --timeout-ms 10000 "$rc_dir/workload" \
        > "$rc_dir/warm7.out"
    if ! diff -u "$rc_dir/fresh.out" "$rc_dir/warm7.out"; then
        echo "result-cache smoke: snapshot-warmed response diverged" \
             "from the original fresh solve" >&2
        exit 1
    fi
    kill "$rc_pid" 2>/dev/null || true
    wait "$rc_pid" 2>/dev/null || true
    rc_pid=""
    echo "result-cache smoke: off-path clean, hits byte-identical," \
         "snapshot + warm restart ok"
fi

if [ "$run_fuzz_smoke" -eq 1 ]; then
    echo "== Fuzz smoke (solvers 20s + protocol 10s +" \
         "result-cache 10s + cluster 10s + canaries) =="
    fuzz_corpus="$(mktemp -d)"
    trap 'rm -rf "$fuzz_corpus"' EXIT
    ./build/bin/jitsched-fuzz solvers --seconds 20 --seed 1 \
        --corpus-dir "$fuzz_corpus"
    ./build/bin/jitsched-fuzz protocol --seconds 10 --seed 1 \
        --corpus-dir "$fuzz_corpus"
    ./build/bin/jitsched-fuzz result-cache --seconds 10 --seed 1 \
        --corpus-dir "$fuzz_corpus"
    # Routed answers byte for byte against a direct engine while
    # backends are killed, hung and fed mangled frames.
    ./build/bin/jitsched-fuzz cluster --seconds 10 --seed 1 \
        --corpus-dir "$fuzz_corpus"
    # Test the tester: with the lower-bound oracle inverted the run
    # must FAIL, fast.  A canary that passes means the fuzz loop can
    # no longer see a broken oracle — itself a gate failure.
    if ./build/bin/jitsched-fuzz solvers --seconds 20 --seed 1 \
        --break-oracle lower-bound --corpus-dir "$fuzz_corpus" \
        > /dev/null 2>&1; then
        echo "fuzz smoke: the broken-oracle canary PASSED — the" \
             "harness failed to detect a deliberately inverted" \
             "lower-bound oracle" >&2
        exit 1
    fi
    # Same self-check for the parallel-A* differential: a perturbed
    # astar-par cost must be flagged against the sequential solvers.
    if ./build/bin/jitsched-fuzz solvers --seconds 20 --seed 1 \
        --break-oracle astar-par --corpus-dir "$fuzz_corpus" \
        > /dev/null 2>&1; then
        echo "fuzz smoke: the broken-oracle canary PASSED — the" \
             "harness failed to detect a deliberately perturbed" \
             "astar-par cost" >&2
        exit 1
    fi
    # And for the result-cache store/snapshot identity oracles: a
    # deliberately corrupted cached body must be flagged against the
    # fresh solve.
    if ./build/bin/jitsched-fuzz result-cache --seconds 10 --seed 1 \
        --break-oracle result-cache --corpus-dir "$fuzz_corpus" \
        > /dev/null 2>&1; then
        echo "fuzz smoke: the broken-oracle canary PASSED — the" \
             "harness failed to detect a deliberately corrupted" \
             "result-cache body" >&2
        exit 1
    fi
    # And for the cluster's routed-vs-direct byte identity: a
    # corrupted direct answer must be flagged on the first round trip.
    if ./build/bin/jitsched-fuzz cluster --seconds 10 --seed 1 \
        --break-oracle cluster --corpus-dir "$fuzz_corpus" \
        > /dev/null 2>&1; then
        echo "fuzz smoke: the broken-oracle canary PASSED — the" \
             "harness failed to detect a deliberately corrupted" \
             "direct answer in the cluster fuzzer" >&2
        exit 1
    fi
    echo "fuzz smoke: clean run + canaries fired"
fi

if [ "$run_asan" -eq 1 ]; then
    echo "== ASan+UBSan pass (qa + service labels, fuzz smoke) =="
    cmake -B build-asan -S . -DJITSCHED_ASAN=ON \
        -DJITSCHED_BUILD_BENCH=OFF -DJITSCHED_BUILD_EXAMPLES=OFF \
        >/dev/null
    cmake --build build-asan --target test_qa test_service \
        jitsched-fuzz -j
    # Run the binaries directly (as the TSan pass does): only these
    # targets exist in build-asan/, so ctest's discovery files for
    # the rest of the suite would be missing.
    ./build-asan/tests/test_qa
    ./build-asan/tests/test_service
    asan_corpus="$(mktemp -d)"
    ./build-asan/bin/jitsched-fuzz solvers --seconds 10 --seed 2 \
        --corpus-dir "$asan_corpus"
    ./build-asan/bin/jitsched-fuzz protocol --seconds 5 --seed 2 \
        --corpus-dir "$asan_corpus"
    rm -rf "$asan_corpus"
fi

if [ "$run_tsan" -eq 1 ]; then
    echo "== ThreadSanitizer pass (exec + service + cluster + obs" \
         "+ qa + core_par) =="
    cmake -B build-tsan -S . -DJITSCHED_TSAN=ON \
        -DJITSCHED_BUILD_BENCH=OFF -DJITSCHED_BUILD_EXAMPLES=OFF \
        >/dev/null
    cmake --build build-tsan --target test_exec test_service \
        test_cluster test_obs test_qa test_core_par -j
    # More than one executor thread, so the pool and the sharded
    # cache actually race if they can.
    JITSCHED_THREADS=4 ./build-tsan/tests/test_exec \
        --gtest_filter='ThreadPool*:EvalCache*:Batch*'
    # The hash-distributed parallel A* (the `core_par` ctest label):
    # MPSC inboxes, ancestor walks across workers' node stores, the
    # atomic incumbent, the live-node terminator, and per-worker
    # memory accounting, all under real concurrency.
    JITSCHED_THREADS=4 ./build-tsan/tests/test_core_par
    # The whole service stack is concurrent: acceptor + handler
    # threads, admission worker, astar-par workers, parallel
    # clients.
    JITSCHED_THREADS=4 ./build-tsan/tests/test_service
    # The cluster layer on top of it: router handlers, the health
    # prober, and a backend bouncing while requests route.
    JITSCHED_THREADS=4 ./build-tsan/tests/test_cluster
    # The striped metrics instruments, the span collector and the
    # flight recorder under a deliberate thread hammer (the
    # satellite concurrency suites).
    JITSCHED_THREADS=4 ./build-tsan/tests/test_obs \
        --gtest_filter='MetricsConcurrency*:SpanConcurrency*:FlightRecorderConcurrency*'
    # The corpus replay drives the protocol frames through the
    # loopback server's full thread stack; the reproducers must stay
    # race-free too.
    JITSCHED_THREADS=4 ./build-tsan/tests/test_qa
fi

echo "check.sh: all green"
