#!/usr/bin/env python3
"""Sweep the share of pre-experienced households and measure peak shaving.

Runs the scenario once per fraction at the same seed (runs stay draw
aligned, so differences are purely behavioural) and reports the demand drop
over the peak window relative to the first fraction listed.

    python3 scripts/experienced_fraction_sweep.py --fractions 0.0,0.3,0.6,0.9
"""

import argparse
import csv
import os
import sys

from metersim.domain import ScenarioValidationError, load_scenario
from metersim.engine import run
from metersim.metrics import aggregate_load, peak_reduction, window_mean


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", default="configs/sample_scenario.json")
    parser.add_argument("--out", default="results/fraction_sweep.csv")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    parser.add_argument(
        "--fractions", default="0.0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9",
        help="comma separated initial_experienced_fraction values; the first is the baseline",
    )
    args = parser.parse_args()

    fractions = [float(f) for f in args.fractions.split(",")]
    try:
        scenarios = {
            frac: load_scenario(
                args.config, {"seed": args.seed, "initial_experienced_fraction": frac})
            for frac in fractions
        }
    except ScenarioValidationError as exc:
        for issue in exc.issues:
            print(str(issue), file=sys.stderr)
        return 2
    curves = {}
    for frac, scenario in scenarios.items():
        curves[frac] = aggregate_load(run(scenario))
        print(f"ran fraction {frac:.2f}", file=sys.stderr)
    config = scenario.config
    window = config.peak_window

    base = curves[fractions[0]]
    rows = []
    for frac in fractions:
        peak_mean = window_mean(curves[frac], window)
        rows.append((frac, peak_mean, peak_reduction(base, curves[frac], window)))

    out_dir = os.path.dirname(args.out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("experienced_fraction", "peak_window_mean_watts", "peak_reduction"))
        for frac, peak_mean, reduction in rows:
            writer.writerow((f"{frac:.2f}", f"{peak_mean:.3f}", f"{reduction:.6f}"))

    print(f"wrote {args.out}")
    print(f"window {window[0]}-{window[1]}, seed {config.seed}")
    print("fraction  peak window mean (W)  reduction")
    for frac, peak_mean, reduction in rows:
        print(f"{frac:>8.2f}  {peak_mean:>20.0f}  {reduction:>9.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
