#!/usr/bin/env bash
# Paired benchmark runs: the working tree against a parent commit.
#
#   scripts/perf_pairs.sh <parent-rev> <workload> <seed>...
#
# Exports <parent-rev> with `git archive`, builds perfbench for it and
# for the working tree (offline, each in its own CARGO_TARGET_DIR under
# .bench_build/), then runs one pair per seed: each side once with
# `--trace 0` for BENCHMARK.json's `run_seconds`, alternating which side
# runs first because host speed drifts over minutes. Prints every
# end-to-end metric's median and quartiles per side, the change's
# median relative to the parent's in percent, how many pairs the
# change won, and whether the medians differ by more than the parent's
# interquartile distance, and flags a metric whose median got worse by
# more than its `bound` in BENCHMARK.json. Exits non-zero if any run
# fails, reports `correct: false`, or reports `failed > 0`, or if any
# metric is flagged. Tracked files are not touched; run output goes to
# .bench_build/perf_pairs/.
set -euo pipefail

if [[ $# -lt 3 ]]; then
    echo "usage: $0 <parent-rev> <workload> <seed>..." >&2
    exit 2
fi
parent_rev="$1"
workload="$2"
shift 2
seeds=("$@")

root="$(cd "$(dirname "$0")/.." && pwd)"
sha="$(git -C "$root" rev-parse --verify "$parent_rev^{commit}")"
work="$root/.bench_build/perf_pairs"
parent_src="$work/$sha/src"
run_seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")"

if [[ ! -d "$parent_src" ]]; then
    mkdir -p "$parent_src.tmp"
    git -C "$root" archive "$sha" | tar -x -C "$parent_src.tmp"
    mv "$parent_src.tmp" "$parent_src"
fi

build() { # <side root> <target dir>
    (cd "$1" && CARGO_TARGET_DIR="$2" cargo build --quiet --release --offline \
        --manifest-path perfbench/Cargo.toml)
}
echo "==> building perfbench: parent ${sha:0:12}" >&2
build "$parent_src" "$work/$sha/target"
echo "==> building perfbench: working tree" >&2
build "$root" "$work/tree-target"

declare -A side_root=([parent]="$parent_src" [change]="$root")
declare -A side_bin=([parent]="$work/$sha/target/release/perfbench"
                     [change]="$work/tree-target/release/perfbench")
out="$work/runs-$workload-$(date +%Y%m%dT%H%M%S)"
mkdir -p "$out"

for k in "${!seeds[@]}"; do
    seed="${seeds[$k]}"
    if (( k % 2 == 0 )); then order=(parent change); else order=(change parent); fi
    for side in "${order[@]}"; do
        echo "==> seed $seed: $side" >&2
        (cd "${side_root[$side]}" && "${side_bin[$side]}" --workload "$workload" \
            --seed "$seed" --seconds "$run_seconds" --trace 0 \
            2>"$out/$side-$seed.log" | tail -n 1 >"$out/$side-$seed.json") || true
    done
done

python3 - "$root/BENCHMARK.json" "$out" "${seeds[@]}" <<'EOF'
import json, statistics, sys

bench, out, seeds = json.load(open(sys.argv[1])), sys.argv[2], sys.argv[3:]
ok = True
runs = {"parent": [], "change": []}
for seed in seeds:
    for side in runs:
        path = f"{out}/{side}-{seed}.json"
        try:
            doc = json.load(open(path))
        except (OSError, ValueError):
            print(f"seed {seed} {side}: no result line (see {path[:-5]}.log)")
            ok = False
            runs[side].append(None)
            continue
        if doc.get("correct") is not True or doc.get("failed", 1) > 0:
            print(f"seed {seed} {side}: correct={doc.get('correct')} failed={doc.get('failed')}")
            ok = False
        runs[side].append({k: v["value"] for k, v in doc["metrics"].items()})

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

def cell(xs):
    q1, med, q3 = quartiles(xs)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"

pairs = [(p, c) for p, c in zip(runs["parent"], runs["change"]) if p and c]
print(f"{len(pairs)} complete pairs, seeds {' '.join(seeds)}")
print(f"{'metric':<12} {'parent median [q1, q3]':>28} {'change median [q1, q3]':>28}"
      f" {'change':>8}   won  beyond parent IQR")
for m in bench["end_to_end"] if pairs else []:
    name, lower = m["name"], m["better"] == "lower"
    p = [a[name] for a, _ in pairs]
    c = [b[name] for _, b in pairs]
    won = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
    pq1, pm, pq3 = quartiles(p)
    cm = quartiles(c)[1]
    beyond = abs(cm - pm) > pq3 - pq1
    rel = (cm - pm) / pm if pm else 0.0
    worse = rel if lower else -rel
    flag = ""
    if worse > m["bound"]:
        flag = f"  WORSE by more than its {m['bound']:.0%} bound"
        ok = False
    print(f"{name:<12} {cell(p):>28} {cell(c):>28} {rel:>+8.1%} {won:>3}/{len(pairs):<3}"
          f" {'yes' if beyond else 'no'}{flag}")
print(f"runs: {out}")
sys.exit(0 if ok else 1)
EOF
