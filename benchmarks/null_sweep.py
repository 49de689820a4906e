#!/usr/bin/env python3
"""Measure the depth sweep's noise floor with the paired null sweep.

For each root seed this runs the pinned sweep protocol (``hamattn sweep``
defaults: copy task, 512 pairs, depths 1/2/5, 5 restarts, 200 epochs, adam
lr 1e-2, batch 32) as a null sweep: one ``run_sweep(cfgs, null=True)`` call
takes one config per root. Its plans freeze the level weights of depths
above 1, and ``depth_sweep`` pins them to level 1, so every depth computes
the depth-1 function and any gap between the best losses is restart noise.
It prints one table row per root and the tolerance the largest
consecutive-depth ratio implies, rounded up to two decimals
(``SWEEP_TOLERANCE`` in ``hamattn.train``).

Usage:
    python benchmarks/null_sweep.py [--roots 0 1 2 3 4] [--out null.json]

``depth_sweep`` trains every root's cells in one pool over the usable CPUs,
deepest first; roots 0-4 took 589-603 s on a 2-core x86_64 host. Every root
and ``--out`` are checked before any cell trains, so a bad one exits 2 at
once with one ``error:`` line.
"""

import json
import math
import sys

from hamattn.cli import SWEEP_DEFAULTS, _out_file, _Parser, run_sweep
from hamattn.data import write_text
from hamattn.errors import DomainError


def main(argv=None) -> int:
    parser = _Parser(description=__doc__.splitlines()[0])
    parser.add_argument("--roots", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    parser.add_argument("--out", help="also write the rows as JSON to this file")
    args = parser.parse_args(argv)
    try:
        run(args)
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


def _row(records, summary) -> dict:
    depths = summary["depths"]
    best = [summary["best_loss"][str(d)] for d in depths]
    return {
        "root": summary["seed"],
        "depths": depths,
        "best_loss": best,
        "ratios": [b / a for a, b in zip(best, best[1:])],
        "final_loss": {str(d): [r.final_loss for r in records if r.depth == d] for d in depths},
    }


def run(args) -> None:
    out = _out_file(args.out)
    cfgs = [{**SWEEP_DEFAULTS, "seed": root} for root in args.roots]
    rows = [_row(*sweep) for sweep in run_sweep(cfgs, null=True)]
    depths = rows[0]["depths"]
    head = [f"best d={d}" for d in depths] + [f"d={a}->{b}" for a, b in zip(depths, depths[1:])]
    print("| root | " + " | ".join(head) + " |")
    print("|" + "---|" * (len(head) + 1))
    for row in rows:
        cells = [f"{v:.5f}" for v in row["best_loss"]] + [f"{v:.4f}" for v in row["ratios"]]
        print(f"| {row['root']} | " + " | ".join(cells) + " |")
    worst = max(r for row in rows for r in row["ratios"])
    allowed = math.ceil(worst * 100) / 100
    print(f"largest ratio {worst:.4f}: allowed ratio {allowed:.2f}, SWEEP_TOLERANCE {allowed - 1:.2f}")
    if out:
        write_text(out, [json.dumps(rows, indent=1)])


if __name__ == "__main__":
    sys.exit(main())
