#!/usr/bin/env bash
# Repository verification gate.
#
# Tier 1 (the ROADMAP contract): release build + root test suite.
# Tier 2: full workspace tests at one and four pool threads (every
#         golden fixture — suite, post-hoc, training, scenarios — runs
#         in both), the golden suite and the scenario fixtures under
#         TSGB_EVAL_CACHE=on, the benchmark's self-tests built against
#         this tree (perfbench/), the serve, monitor, and
#         sharded-router smoke legs (including a worker-kill fault
#         drill and a drift-injection drill), the scenario smoke leg
#         (streamed chunks from TimeVAE and RGAN, conditional identity,
#         a non-finite condition rejected with 400, and the scenario
#         engine end-to-end), a rustfmt check of the workspace
#         (perfbench/ is a separate workspace and is not checked), a
#         warning-free clippy pass, and a warning-free rustdoc pass.
#
#   scripts/verify.sh          # tier 1 + tier 2
#   scripts/verify.sh --quick  # tier 1 only
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> tier 1: cargo build --release"
cargo build --release

echo "==> tier 1: cargo test -q"
cargo test -q

if [[ "${1:-}" != "--quick" ]]; then
    echo "==> tier 2: cargo test --workspace -q (TSGB_THREADS=1)"
    TSGB_THREADS=1 cargo test --workspace -q

    echo "==> tier 2: cargo test --workspace -q (TSGB_THREADS=4)"
    TSGB_THREADS=4 cargo test --workspace -q

    # the content-addressed eval cache must leave the committed fixture
    # values bit-for-bit unchanged, at one thread and four
    echo "==> tier 2: golden-value suite (TSGB_EVAL_CACHE=on)"
    TSGB_EVAL_CACHE=on TSGB_THREADS=1 cargo test -p tsgb-eval --test golden_suite -q
    TSGB_EVAL_CACHE=on TSGB_THREADS=4 cargo test -p tsgb-eval --test golden_suite -q

    # the benchmark builds against the tree by path: a public-API change
    # that breaks it must fail here, not in the benchmark run
    echo "==> tier 2: perfbench self-tests"
    cargo test --offline -q --manifest-path perfbench/Cargo.toml

    echo "==> tier 2: serve smoke test (train -> serve -> generate -> drain)"
    CKPT_DIR="$(mktemp -d)"
    trap 'rm -rf "$CKPT_DIR"' EXIT
    ./target/release/tsgbench train --out "$CKPT_DIR" --dataset Stock \
        --methods TimeVAE --epochs 3 --max-samples 24 --max-len 12
    ./target/release/tsgbench serve --ckpt-dir "$CKPT_DIR" --addr 127.0.0.1:0 \
        > "$CKPT_DIR/serve.log" 2>&1 &
    SERVE_PID=$!
    for _ in $(seq 100); do
        grep -q 'listening on' "$CKPT_DIR/serve.log" && break
        sleep 0.1
    done
    ADDR="$(sed -n 's#.*http://\([0-9.:]*\).*#\1#p' "$CKPT_DIR/serve.log" | head -1)"
    curl -fsS "http://$ADDR/healthz" | grep -q '"status":"ok"'
    curl -fsS -X POST "http://$ADDR/generate" -d '{"model":"timevae","n":2,"seed":5}' \
        | grep -q '"samples"'
    curl -fsS -X POST "http://$ADDR/shutdown" > /dev/null
    wait "$SERVE_PID"

    echo "==> tier 2: monitor smoke test (drill healthy -> inject drift -> flag -> drain)"
    ./target/release/tsgbench monitor --dataset Stock --max-samples 64 --max-len 16 \
        --addr 127.0.0.1:0 --calibrate 24 --stride 12 --min-eval 8 --refresh-every 0 \
        > "$CKPT_DIR/monitor.log" 2>&1 &
    MONITOR_PID=$!
    for _ in $(seq 100); do
        grep -q 'monitoring on' "$CKPT_DIR/monitor.log" && break
        sleep 0.1
    done
    ADDR="$(sed -n 's#^monitoring on http://\([0-9.:]*\).*#\1#p' "$CKPT_DIR/monitor.log" | head -1)"
    curl -fsS "http://$ADDR/healthz" | grep -q '"status":"ok"'
    # healthy calibration, then a seeded trend break must raise a flag
    curl -fsS -X POST "http://$ADDR/drill" -d '{"method":"demo","n":24,"seed":1}' \
        | grep -q '"accepted":24'
    curl -fsS "http://$ADDR/quality" | grep -q '"flags":\[\]'
    FLAGGED=0
    for i in $(seq 10); do
        curl -fsS -X POST "http://$ADDR/drill" \
            -d "{\"method\":\"demo\",\"n\":12,\"seed\":$((100 + i)),\"drift\":\"trend_break\",\"severity\":2.0}" \
            > /dev/null
        if curl -fsS "http://$ADDR/quality" | grep -q '"flags":\["'; then
            FLAGGED=1
            break
        fi
    done
    [ "$FLAGGED" = 1 ] || { echo "monitor never flagged the injected drift"; exit 1; }
    curl -fsS -X POST "http://$ADDR/shutdown" > /dev/null
    wait "$MONITOR_PID"
    grep -q 'drained' "$CKPT_DIR/monitor.log"

    echo "==> tier 2: router smoke test (train -> route 2 workers -> kill one -> generate -> drain)"
    ./target/release/tsgbench train --out "$CKPT_DIR/tier" --dataset Stock \
        --methods TimeVAE,RGAN --epochs 3 --max-samples 24 --max-len 12
    ./target/release/tsgbench route --ckpt-dir "$CKPT_DIR/tier" --addr 127.0.0.1:0 \
        --workers 2 --replicas 2 > "$CKPT_DIR/route.log" 2>&1 &
    ROUTE_PID=$!
    for _ in $(seq 300); do
        grep -q 'routing on' "$CKPT_DIR/route.log" && break
        sleep 0.1
    done
    ADDR="$(sed -n 's#^routing on http://\([0-9.:]*\).*#\1#p' "$CKPT_DIR/route.log" | head -1)"
    curl -fsS "http://$ADDR/healthz" | grep -q '"status":"ok"'
    curl -fsS "http://$ADDR/models" | grep -q '"timevae"'
    curl -fsS -X POST "http://$ADDR/generate" -d '{"model":"timevae","n":2,"seed":5}' \
        | grep -q '"samples"'
    # fault injection: SIGKILL one worker; the tier must answer through
    # the surviving replica and respawn the corpse
    WORKER_PID="$(sed -n 's#^worker 0 pid \([0-9]*\).*#\1#p' "$CKPT_DIR/route.log" | head -1)"
    kill -9 "$WORKER_PID"
    curl -fsS -X POST "http://$ADDR/generate" -d '{"model":"timevae","n":2,"seed":5}' \
        | grep -q '"samples"'
    curl -fsS -X POST "http://$ADDR/generate" -d '{"model":"rgan","n":2,"seed":5}' \
        | grep -q '"samples"'
    # wait for the supervisor to report the respawn, then drain the tier
    for _ in $(seq 100); do
        curl -fsS "http://$ADDR/healthz" | grep -q '"respawns":[1-9]' && break
        sleep 0.1
    done
    curl -fsS "http://$ADDR/healthz" | grep -q '"respawns":[1-9]'
    curl -fsS -X POST "http://$ADDR/shutdown" > /dev/null
    wait "$ROUTE_PID"
    grep -q 'tier drained' "$CKPT_DIR/route.log"

    echo "==> tier 2: scenario smoke test (stream -> conditional -> impute -> golden -> drain)"
    # reuse the tier checkpoints (TimeVAE + RGAN at 12x6)
    ./target/release/tsgbench serve --ckpt-dir "$CKPT_DIR/tier" --addr 127.0.0.1:0 \
        > "$CKPT_DIR/scenario.log" 2>&1 &
    SERVE_PID=$!
    for _ in $(seq 100); do
        grep -q 'listening on' "$CKPT_DIR/scenario.log" && break
        sleep 0.1
    done
    ADDR="$(sed -n 's#.*http://\([0-9.:]*\).*#\1#p' "$CKPT_DIR/scenario.log" | head -1)"
    # streamed chunks arrive over chunked transfer and end in a done frame
    STREAM="$(curl -fsS -X POST "http://$ADDR/generate/stream" \
        -d '{"model":"timevae","n":6,"seed":5,"chunk":2}')"
    echo "$STREAM" | grep -q '"offset":0'
    echo "$STREAM" | grep -q '"offset":4'
    echo "$STREAM" | grep -q '"done":true,"chunks":3,"windows":6'
    # RGAN streams through the same derived draw/decode path
    STREAM="$(curl -fsS -X POST "http://$ADDR/generate/stream" \
        -d '{"model":"rgan","n":6,"seed":5,"chunk":4}')"
    echo "$STREAM" | grep -q '"done":true,"chunks":2,"windows":6'
    # conditional generation: strength 0 must be byte-identical to the
    # unconditional response, a real condition must move it
    PLAIN="$(curl -fsS -X POST "http://$ADDR/generate" -d '{"model":"timevae","n":4,"seed":9}')"
    ZERO="$(curl -fsS -X POST "http://$ADDR/generate" \
        -d '{"model":"timevae","n":4,"seed":9,"condition":{"class":1,"strength":0.0}}')"
    SHAPED="$(curl -fsS -X POST "http://$ADDR/generate" \
        -d '{"model":"timevae","n":4,"seed":9,"condition":{"class":1,"strength":2.0}}')"
    [ "$PLAIN" = "$ZERO" ] || { echo "strength 0 changed the response body"; exit 1; }
    [ "$PLAIN" != "$SHAPED" ] || { echo "conditioning did not shape the draw"; exit 1; }
    # 1e999 parses as infinity: a non-finite strength is a 400, not NaN windows
    STATUS="$(curl -sS -o /dev/null -w '%{http_code}' -X POST "http://$ADDR/generate" \
        -d '{"model":"timevae","n":2,"seed":1,"condition":{"class":1,"strength":1e999}}')"
    [ "$STATUS" = 400 ] || { echo "non-finite strength answered $STATUS"; exit 1; }
    curl -fsS -X POST "http://$ADDR/shutdown" > /dev/null
    wait "$SERVE_PID"
    grep -q 'drained' "$CKPT_DIR/scenario.log"
    # the scenario engine end-to-end: all three families on the same
    # checkpoints, one JSON report per (model, scenario) pair
    ./target/release/tsgbench scenario --ckpt-dir "$CKPT_DIR/tier" --dataset Stock \
        --max-samples 24 --max-len 12 --seed 7 > "$CKPT_DIR/scenario_reports.jsonl"
    grep -q '"scenario":"streaming".*"stream.bit_identical":1' "$CKPT_DIR/scenario_reports.jsonl"
    grep -q '"scenario":"conditional".*"cond.deterministic":1' "$CKPT_DIR/scenario_reports.jsonl"
    grep -q '"scenario":"imputation".*"imp.mae"' "$CKPT_DIR/scenario_reports.jsonl"
    # the imputation measures must not move under the eval cache
    TSGB_EVAL_CACHE=on ./target/release/tsgbench scenario --ckpt-dir "$CKPT_DIR/tier" \
        --dataset Stock --max-samples 24 --max-len 12 --seed 7 \
        > "$CKPT_DIR/scenario_reports_cached.jsonl"
    diff "$CKPT_DIR/scenario_reports.jsonl" "$CKPT_DIR/scenario_reports_cached.jsonl"

    echo "==> tier 2: scenario golden fixtures (TSGB_EVAL_CACHE=on)"
    TSGB_EVAL_CACHE=on cargo test -p tsgb-scenario --test golden_scenarios -q

    echo "==> tier 2: cargo fmt --all --check"
    cargo fmt --all --check

    echo "==> tier 2: cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings

    # an unresolved or private intra-doc link fails here, so a deleted
    # item cannot leave a dangling link behind
    echo "==> tier 2: cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
fi

echo "verify: OK"
