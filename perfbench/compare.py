#!/usr/bin/env python3
"""Summarise, or compare, result records that run.py appended to a JSONL file.

    python3 perfbench/compare.py .bench_out/results.jsonl
    python3 perfbench/compare.py base.jsonl change.jsonl

For every workload and end-to-end metric of the untraced runs it prints the
median, the quartiles and the spread (quartile distance over median). The
deterministic quality records ``final_loss`` and ``exact_match`` are
summarised the same way: their spread across seeds is the yardstick for a
change that reorders summation, which cannot stay bit-identical.

With two files it adds the change's median as a share of the base median and
flags a metric that got worse by more than its bound in BENCHMARK.json. It
refuses, with exit code 2, to compare records made on different kernel
backends: numba and numpy kernels differ by a few ulp, and over many epochs
that moves the loss.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
QUALITY = {"final_loss": "lower", "exact_match": "higher"}


def load(path) -> list:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def columns(records) -> dict:
    """(workload, metric) -> values over the untraced runs."""
    out = {}
    for r in records:
        if r["trace"]:
            continue
        values = {name: m["value"] for name, m in r["result"]["metrics"].items()}
        values.update({name: r[name] for name in QUALITY})
        for name, value in values.items():
            out.setdefault((r["workload"], name), []).append(value)
    return out


def summary(values) -> tuple:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sides = [load(path) for path in argv]
    backends = {r["env"]["backend"] for records in sides for r in records}
    if len(backends) > 1:
        print(f"compare.py: refusing to compare kernel backends {sorted(backends)}", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]} | QUALITY
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    tables = [columns(records) for records in sides]
    worse = 0
    print(f"{'workload':10} {'metric':20} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}"
          + ("  change  verdict" if len(tables) == 2 else ""))
    for key in sorted(tables[-1]):
        med, q1, q3, spread = summary(tables[-1][key])
        line = f"{key[0]:10} {key[1]:20} {len(tables[-1][key]):3} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:7.3f}"
        if len(tables) == 2 and key in tables[0]:
            base = summary(tables[0][key])[0]
            change = (med - base) / base if base else (0.0 if med == 0 else float("inf"))
            verdict = ""
            if key[1] in bound:
                regress = change if better[key[1]] == "lower" else -change
                verdict = "WORSE" if regress > bound[key[1]] else "ok"
                worse += verdict == "WORSE"
            line += f"  {change:+7.3f}  {verdict}"
        print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
