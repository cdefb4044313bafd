#!/usr/bin/env python3
"""Simulate a scenario and report the community's daily load curve.

Writes the half hour curve CSV and prints a text rendering with the evening
peak and overnight trough, the first thing to eyeball after changing the
appliance catalog or the schedules.

    python3 scripts/daily_load_curve.py --config configs/sample_scenario.json
"""

import argparse
import os
import sys

from metersim.domain import ScenarioValidationError, TimeOfDay, load_scenario
from metersim.engine import run
from metersim.metrics import aggregate_load, peak_stats, window_mean, write_load_curve


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", default="configs/sample_scenario.json")
    parser.add_argument("--out", default="results/daily_curve")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    parser.add_argument("--width", type=int, default=60, help="bar chart width in characters")
    args = parser.parse_args()

    try:
        scenario = load_scenario(args.config, {"seed": args.seed})
    except ScenarioValidationError as exc:
        for issue in exc.issues:
            print(str(issue), file=sys.stderr)
        return 2

    output = run(scenario)
    curve = aggregate_load(output)

    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"loadcurve_seed{scenario.config.seed}.csv")
    write_load_curve(curve, path)

    peak_time, peak_watts = peak_stats(curve)
    night = window_mean(curve, (TimeOfDay.parse("01:00"), TimeOfDay.parse("05:00")))
    print(f"wrote {path}")
    print(f"peak {peak_watts:.0f} W at {peak_time}, "
          f"overnight mean {night:.0f} W ({night / peak_watts:.0%} of peak)")
    print()
    for i, v in enumerate(curve.values):
        bar = "#" * int(round(args.width * v / peak_watts))
        print(f"{TimeOfDay(i * curve.bucket_minutes)}  {v:>10.1f} W  {bar}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
