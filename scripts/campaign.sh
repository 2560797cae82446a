#!/usr/bin/env bash
# Wall-clock campaign of the repo benchmark: a parent revision against HEAD.
#
#   scripts/campaign.sh <parent-rev> [out.json]
#
# Builds `git archive` trees of <parent-rev> and of HEAD under
# $CAMPAIGN_DIR (default target/campaign), each with its own
# benchmark/target, offline; a tree already extracted from the same commit
# is reused with its build. Then, for every seed S of $CAMPAIGN_SEEDS
# (default 11..20), it runs `benchmark/run.sh --seed S --seconds
# $CAMPAIGN_SECONDS` (default 15, all four workloads) in both trees, one
# pair per seed, alternating: odd seeds parent first, even seeds change
# first. QA_THREADS defaults to 2. Every run's result file is kept under
# $CAMPAIGN_DIR/runs and enters the summary; nothing is discarded, and a
# run that fails is counted, not retried.
#
# The summary (default $CAMPAIGN_DIR/campaign.json) holds the `workloads`
# block of a BENCH_*.json: per workload and end-to-end metric of
# BENCHMARK.json, both sides' runs, medians, quartiles as Python's
# `statistics.quantiles(runs, n=4)`, spread (IQR / median), ratio (change
# median / parent median), wins and losses per pair in the metric's own
# direction, worse_share (the change's relative slip, negative when
# better) and a verdict: `unresolved` where either side's spread exceeds
# the metric's bound, else `ok` or `worse` against the bound. It also
# counts the simulated response cells (`response_ms*` of the sim
# workloads) the two sides agree on to the bit. With
# CAMPAIGN_CLAIM=workload/metric/target_ratio it adds a `claim` block: met
# when the change wins at least 9 pairs in 10, the median gap exceeds the
# parent's IQR and the ratio reaches the target.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: scripts/campaign.sh <parent-rev> [out.json]" >&2
  exit 2
fi
dir=${CAMPAIGN_DIR:-target/campaign}
seeds=${CAMPAIGN_SEEDS:-"11 12 13 14 15 16 17 18 19 20"}
seconds=${CAMPAIGN_SECONDS:-15}
out=${2:-$dir/campaign.json}
export QA_THREADS=${QA_THREADS:-2}
unset CARGO_TARGET_DIR
parent=$(git rev-parse --verify "$1^{commit}")
change=$(git rev-parse --verify "HEAD^{commit}")
mkdir -p "$dir/runs"

# Extracts and builds one side's tree, unless it holds that commit already.
prepare() {
  local side=$1 rev=$2 tree=$dir/$1
  if [ "$(cat "$tree/.campaign-rev" 2>/dev/null)" != "$rev" ]; then
    rm -rf "$tree"
    mkdir -p "$tree"
    git archive "$rev" | tar -x -C "$tree"
    echo "$rev" >"$tree/.campaign-rev"
  fi
  echo "campaign: building $side ($rev)" >&2
  cargo build --release --offline --quiet --manifest-path "$tree/benchmark/Cargo.toml"
}

# One run of one side; its result file is copied out of the tree.
run_side() {
  local side=$1 seed=$2 tree=$dir/$1
  local result=$dir/runs/${side}_seed$seed.json
  rm -f "$result" "$tree/benchmark/out/result_seed$seed.json"
  echo "campaign: seed $seed $side" >&2
  if (cd "$tree" && bash benchmark/run.sh --seed "$seed" --seconds "$seconds") \
    >"$dir/runs/${side}_seed$seed.log" 2>&1; then
    cp "$tree/benchmark/out/result_seed$seed.json" "$result"
  else
    echo "campaign: seed $seed $side FAILED (see $dir/runs/${side}_seed$seed.log)" >&2
  fi
}

prepare parent "$parent"
prepare change "$change"
for seed in $seeds; do
  if [ $((seed % 2)) -eq 1 ]; then
    run_side parent "$seed"
    run_side change "$seed"
  else
    run_side change "$seed"
    run_side parent "$seed"
  fi
done

python3 - "$dir/runs" "$out" "$parent" "$change" "$seconds" "${CAMPAIGN_CLAIM:-}" $seeds <<'EOF'
import json, os, statistics, sys

runs_dir, out, parent, change, seconds, claim_arg, *seeds = sys.argv[1:]
seeds = [int(s) for s in seeds]
bench = json.load(open("BENCHMARK.json"))
metrics = bench["end_to_end"]
workloads = [w["name"] for w in bench["workloads"]]
SIMS = ("flat1k", "paper100_overload", "broker10k")


def load(side, seed):
    path = os.path.join(runs_dir, f"{side}_seed{seed}.json")
    return json.load(open(path)) if os.path.exists(path) else None


sets = {side: [load(side, s) for s in seeds] for side in ("parent", "change")}


def section(result, workload):
    if result is None:
        return None
    return result["workloads"].get(workload, {}).get("end_to_end")


def value(result, workload, metric):
    e = section(result, workload)
    if e is None:
        return None
    return e["metrics"].get(metric, {}).get("value")


def quartiles(v):
    q = statistics.quantiles(v, n=4)
    return [q[0], q[2]]


summary = {}
cells = identical = 0
for w in workloads:
    failed = {}
    for side, results in sets.items():
        # A missing run counts as one failure; a run's own failed
        # operations count as reported.
        failed[side] = sum(
            1 if section(r, w) is None else section(r, w).get("failed", 0)
            for r in results
        )
    entry = {"failed_parent": failed["parent"], "failed_change": failed["change"], "metrics": {}}
    for m in metrics:
        name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
        p = [value(r, w, name) for r in sets["parent"]]
        c = [value(r, w, name) for r in sets["change"]]
        pairs = [(a, b) for a, b in zip(p, c) if a is not None and b is not None]
        if w in SIMS and name.startswith("response_ms"):
            cells += len(pairs)
            identical += sum(a == b for a, b in pairs)
        pv = [a for a in p if a is not None]
        cv = [b for b in c if b is not None]
        if len(pv) < 2 or len(cv) < 2:
            entry["metrics"][name] = {"parent_runs": p, "change_runs": c, "verdict": "unresolved"}
            continue
        pm, cm = statistics.median(pv), statistics.median(cv)
        ratio = cm / pm if pm else float("nan")
        worse = ratio - 1 if lower else 1 - ratio
        pq, cq = quartiles(pv), quartiles(cv)
        ps = (pq[1] - pq[0]) / pm if pm else 0.0
        cs = (cq[1] - cq[0]) / cm if cm else 0.0
        better = lambda a, b: b < a if lower else b > a
        verdict = "unresolved" if max(ps, cs) > bound else ("ok" if worse <= bound else "worse")
        entry["metrics"][name] = {
            "parent_runs": p,
            "change_runs": c,
            "parent_median": pm,
            "change_median": cm,
            "ratio": ratio,
            "wins": sum(better(a, b) for a, b in pairs),
            "losses": sum(better(b, a) for a, b in pairs),
            "worse_share": worse,
            "parent_spread": ps,
            "change_spread": cs,
            "parent_quartiles": pq,
            "change_quartiles": cq,
            "bound": bound,
            "verdict": verdict,
        }
    summary[w] = entry

report = {
    "parent_commit": parent,
    "change_commit": change,
    "procedure": (
        f"scripts/campaign.sh: QA_THREADS={os.environ.get('QA_THREADS')} benchmark/run.sh "
        f"--seed S --seconds {seconds} in git archive trees of both commits, each with its "
        "own benchmark/target; one pair per seed, odd seeds parent first, even seeds change "
        "first; nothing discarded"
    ),
    "seeds": seeds,
    "sim_response_bit_identical": {"cells": cells, "identical": identical},
    "workloads": summary,
}
if claim_arg:
    w, name, target = claim_arg.split("/")
    m = summary[w]["metrics"][name]
    pq = m["parent_quartiles"]
    gap = abs(m["change_median"] - m["parent_median"])
    lower = next(x for x in metrics if x["name"] == name)["better"] == "lower"
    improved = (m["change_median"] < m["parent_median"]) if lower else (m["change_median"] > m["parent_median"])
    ratio = m["ratio"]
    pairs = [(a, b) for a, b in zip(m["parent_runs"], m["change_runs"]) if a is not None and b is not None]
    report["claim"] = {
        "metric": name,
        "workload": w,
        "target_ratio": float(target),
        "parent_median": m["parent_median"],
        "change_median": m["change_median"],
        "ratio": ratio,
        "wins": m["wins"],
        "pairs": len(seeds),
        "median_gap": gap,
        "parent_iqr": pq[1] - pq[0],
        "pair_ratios": [round(b / a, 4) for a, b in pairs],
        "met": improved
        and m["wins"] * 10 >= 9 * len(seeds)
        and gap > pq[1] - pq[0]
        and ((1 / ratio) if lower else ratio) >= float(target),
    }
with open(out, "w") as f:
    json.dump(report, f, indent=1)
    f.write("\n")
for w, entry in summary.items():
    for name, m in entry["metrics"].items():
        if "ratio" in m:
            print(f"{w:<18} {name:<16} {m['ratio']:.4f} wins {m['wins']} losses {m['losses']} {m['verdict']}")
print(f"sim response cells bit-identical: {identical}/{cells}")
if "claim" in report:
    print(f"claim met: {report['claim']['met']}")
print(f"wrote {out}")
EOF
