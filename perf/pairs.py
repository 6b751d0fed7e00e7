#!/usr/bin/env python3
"""Alternating parent/change pairs of one perf_bench workload, as a markdown table.

Build each commit's perf_bench once, then:

    python3 perf/pairs.py PARENT_BIN CHANGE_BIN --workload push_r3_dev --seed 1

Runs `--pairs` pairs (default 10) of `--seconds` each (default 30, what
BENCHMARK.json runs), alternating which side goes first, and prints for every
end-to-end metric of BENCHMARK.json: each side's median [q1, q3], the change
of the medians, that change against the parent's own IQR, the pairs the
change won, and each side's IQR against the metric's bound — the bound's
share of the *parent's* median, for both sides, as the driver reckons it (a
side whose middle half spreads wider than that is one it cannot judge; when
the parent's is near 1 too, the host is what varies).
Every run's `failed` and `correct` are checked. The machine has two cores:
run nothing else meanwhile.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(binary, workload, seed, seconds):
    """One run: the JSON object perf_bench prints as its last stdout line."""
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=False,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{binary} exited {out.returncode} on {workload} seed {seed}")
    return json.loads(lines[-1])


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def fmt(value):
    return f"{value:.4g}" if abs(value) < 100 else f"{value:,.0f}".replace(",", " ")


def main():
    root = Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="perf_bench binary built at the parent commit")
    ap.add_argument("change", help="perf_bench binary built with the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--benchmark", default=str(root / "BENCHMARK.json"),
                    help="where the metrics' direction and bound are read from")
    ap.add_argument("--raw", help="also write every run's JSON here, one per line")
    args = ap.parse_args()

    metrics = json.loads(Path(args.benchmark).read_text())["end_to_end"]
    runs = {"parent": [], "change": []}
    binaries = {"parent": args.parent, "change": args.change}
    raw = open(args.raw, "w") if args.raw else None
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run(binaries[side], args.workload, args.seed, args.seconds)
            runs[side].append(result)
            if raw:
                raw.write(json.dumps({"pair": pair, "side": side, **result}) + "\n")
                raw.flush()
        print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr)

    print(f"`{args.workload}`, seed {args.seed}, {args.pairs} alternating pairs "
          f"x {args.seconds:g} s\n")
    print("| metric | parent median [q1, q3] | change median [q1, q3] | Δ median "
          "| Δ ÷ parent IQR | pairs won | IQR ÷ bound: parent, change |")
    print("|---|---|---|---|---|---|---|")
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        sides = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        (p1, pm, p3), (c1, cm, c3) = quartiles(sides["parent"]), quartiles(sides["change"])
        better = (lambda c, p: c > p) if higher else (lambda c, p: c < p)
        won = sum(better(c, p) for p, c in zip(sides["parent"], sides["change"]))
        iqr = p3 - p1
        against_iqr = f"{abs(cm - pm) / iqr:.1f}" if iqr > 0 else "∞"
        bound = metric["bound"] * pm
        spread = f"{iqr / bound:.2f}, {(c3 - c1) / bound:.2f}" if bound else "n/a"
        print(f"| `{name}` | {fmt(pm)} [{fmt(p1)}, {fmt(p3)}] "
              f"| {fmt(cm)} [{fmt(c1)}, {fmt(c3)}] | {(cm - pm) / pm:+.1%} "
              f"| {against_iqr} | {won}/{args.pairs} | {spread} |")
    for side in runs:
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        correct = all(r["correct"] for r in runs[side])
        print(f"\n{side}: failed {failed} of {attempted} attempted, "
              f"correct on {'every' if correct else 'NOT every'} run")


if __name__ == "__main__":
    main()
