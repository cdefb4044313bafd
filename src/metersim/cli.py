"""Command line front end.

Subcommands:
    run            simulate a scenario and write curve/adoption/event files
    compare        correlation and peak statistics for two load curve CSVs
    network-stats  contact network summary for a scenario
    validate       check a scenario file and list every violation
    sweep          peak window reduction across initial experienced fractions

The commands raise; main alone prints the stderr line and picks the exit
code: 2 for a refused scenario (a line per violation) or curve (BadCurve),
1 for a file that cannot be read or written (IOFailure) or a run that does
not fit in memory, 0 on success.  Any other error ends in a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
import time

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from . import __version__
from .behavior import AgentEvent
from .domain import (BUCKET_MINUTES, DEFAULT_PEAK_WINDOW, Scenario, ScenarioValidationError,
                     TimeOfDay, load_scenario)
from .engine import STREAM_ANALYSIS, STREAM_NETWORK, Simulation, run, substream
from .metrics import (
    BadCurve,
    aggregate_load,
    peak_reduction,
    peak_stats,
    pearson_correlation,
    read_load_curve,
    window_buckets,
    window_mean,
    write_load_curve,
)
from .network import clustering_coefficient, generate_small_world, mean_path_length_sampled

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2


class IOFailure(Exception):
    """A file the command cannot read or write; the message says which."""


@contextlib.contextmanager
def _io_failure(what: str):
    """Raise an OSError in the block as IOFailure("what: error")."""
    try:
        yield
    except OSError as exc:
        raise IOFailure(f"{what}: {exc}") from exc


@contextlib.contextmanager
def _outputs(directory: str):
    """Make directory and its missing parents, and yield create(name), which
    opens the file name in directory for writing.  An OSError in the block
    is raised as IOFailure("cannot write outputs: error"); whatever the
    block raises, every file create opened and every directory made here
    is removed first."""
    made = []  # the directories added, innermost first
    parent = os.path.abspath(directory)
    while not os.path.exists(parent):
        made.append(parent)
        parent = os.path.dirname(parent)
    opened = []

    def create(name: str):
        path = os.path.join(directory, name)
        fh = open(path, "w", encoding="utf-8", newline="")
        opened.append(path)
        return fh

    try:
        with _io_failure("cannot write outputs"):
            os.makedirs(directory, exist_ok=True)
            yield create
    except BaseException:
        for path in opened:
            with contextlib.suppress(OSError):
                os.remove(path)
        with contextlib.suppress(OSError):
            for path in made:
                os.rmdir(path)
        raise


def event_rows(events: list[AgentEvent]) -> str:
    """The events as lines of events.csv.

    No field needs quoting: ticks and agent ids are ints, kinds are
    constants, and a detail is a peer id or "<appliance id>#<n>", where the
    validator refuses an id holding a comma, a double quote, CR or LF.  So
    each line is the one csv.writer would write.
    """
    return "".join(map("%d,%d,%s,%s\n".__mod__, events))


def _parse_window_arg(text: str) -> tuple[TimeOfDay, TimeOfDay]:
    try:
        start_text, end_text = text.split("-")
        window = (TimeOfDay.parse(start_text), TimeOfDay.parse(end_text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected HH:MM-HH:MM, got {text!r}: {exc}") from exc
    if window[0].minutes >= window[1].minutes:
        raise argparse.ArgumentTypeError(f"window {text!r} is empty")
    return window


def _parse_fractions_arg(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma separated numbers, got {text!r}") from exc


def _load_scenario(args: argparse.Namespace, fraction: float | None = None) -> Scenario:
    """The scenario named by --config, with the --seed and
    --experienced-fraction (else fraction) overrides."""
    overrides = {
        "seed": getattr(args, "seed", None),
        "initial_experienced_fraction": getattr(args, "experienced_fraction", fraction),
    }
    with _io_failure(f"cannot read {args.config}"):
        return load_scenario(args.config, overrides)


def _peak_rss_mb() -> float | None:
    """The process's peak resident memory in MiB, or None where the
    platform does not report it."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # KiB on Linux, bytes on macOS
    return round(peak / (2**20 if sys.platform == "darwin" else 2**10), 1)


def cmd_run(args: argparse.Namespace) -> None:
    scenario = _load_scenario(args)

    started = time.monotonic()
    events_file = None
    events_rows = 0

    def write_events(events: list[AgentEvent]) -> None:
        nonlocal events_rows
        events_rows += len(events)
        events_file.write(event_rows(events))

    # events.csv is written as the run goes, so a bad --out is found
    # before the first tick
    with _outputs(args.out) as create:
        if args.events:
            events_file = create("events.csv")
        with events_file or contextlib.nullcontext():
            if args.events:
                events_file.write("tick,agent_id,kind,detail\n")
            sim = Simulation(scenario, event_sink=write_events if args.events else None)
            built = time.monotonic()
            output = sim.run_all()
            ran = time.monotonic()
        # the agents and network are dead once the output is built; held
        # through the writing below they raise the peak memory
        del sim
        curve = aggregate_load(output)

        files = ["loadcurve.csv", "adoption.csv"] + (["events.csv"] if args.events else [])
        # opened here first, so that a failure removes it only once the
        # run has opened it; write_load_curve opens it again by its path
        create("loadcurve.csv").close()
        write_load_curve(curve, os.path.join(args.out, "loadcurve.csv"))

        with create("adoption.csv") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("day", "uninfluenced", "inexperienced", "experienced"))
            for day, row in enumerate(output.adoption_series):
                writer.writerow((day, *row))

        manifest = {
            "scenario_path": os.path.abspath(args.config),
            "seed": scenario.config.seed,
            "out_dir": os.path.abspath(args.out),
            "files": files,
            "engine_version": __version__,
            "setup_seconds": round(built - started, 3),
            "tick_seconds": round(ran - built, 3),
            "duration_seconds": round(time.monotonic() - started, 3),
        }
        if ran > built:
            config = scenario.config
            agent_ticks = config.population * config.horizon_days * config.ticks_per_day
            manifest["agent_ticks_per_s"] = round(agent_ticks / (ran - built))
        if args.events:
            manifest["events_rows"] = events_rows
        peak_rss_mb = _peak_rss_mb()
        if peak_rss_mb is not None:
            manifest["peak_rss_mb"] = peak_rss_mb
        with create("manifest.json") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")

    time_of_peak, peak_watts = peak_stats(curve)
    print(f"seed={scenario.config.seed}")
    print(f"files={','.join(files)}")
    print(f"peak_start={time_of_peak}")
    print(f"peak_watts={peak_watts:.3f}")
    last = output.adoption_series[-1]
    print(f"final_adoption=uninfluenced:{last[0]},inexperienced:{last[1]},experienced:{last[2]}")


def cmd_compare(args: argparse.Namespace) -> None:
    with _io_failure("cannot read curve"):
        base = read_load_curve(args.base)
        treated = read_load_curve(args.treated)
    correlation = pearson_correlation(base, treated)
    reduction = peak_reduction(base, treated, args.window)

    base_peak = peak_stats(base)
    treated_peak = peak_stats(treated)
    print(f"correlation={correlation:.6f}")
    print(f"base_peak_start_min={base_peak[0].minutes}")
    print(f"base_peak_watts={base_peak[1]:.3f}")
    print(f"treated_peak_start_min={treated_peak[0].minutes}")
    print(f"treated_peak_watts={treated_peak[1]:.3f}")
    print(f"peak_reduction={reduction:.6f}")


def cmd_network_stats(args: argparse.Namespace) -> None:
    config = _load_scenario(args).config
    net = generate_small_world(
        config.population,
        config.network_mean_degree_K,
        config.network_rewire_beta,
        substream(config.seed, STREAM_NETWORK),
    )

    mean_degree = 2 * net.edge_count / net.node_count
    clustering = clustering_coefficient(net)
    path_length = mean_path_length_sampled(net, substream(config.seed, STREAM_ANALYSIS))
    print("nodes,edges,mean_degree,clustering_coefficient,mean_path_length")
    print(
        f"{net.node_count},{net.edge_count},{mean_degree:.6f},"
        f"{clustering:.6f},{path_length:.6f}"
    )


def cmd_validate(args: argparse.Namespace) -> None:
    _load_scenario(args)
    print("ok")


def _fraction_label(fraction: float) -> str:
    """fraction to two decimals when they read back as the same float, else its repr."""
    text = f"{fraction:.2f}"
    return text if float(text) == fraction else repr(fraction)


def cmd_sweep(args: argparse.Namespace) -> None:
    # every fraction and the window are checked before the first run
    scenarios = [_load_scenario(args, fraction) for fraction in args.fractions]
    window = scenarios[0].config.peak_window
    window_buckets(BUCKET_MINUTES, window)

    # same seed for every fraction: the runs stay draw aligned, so the
    # differences are behavioural; the first fraction is the baseline
    curves = [aggregate_load(run(scenario)) for scenario in scenarios]
    rows = [(fraction, window_mean(curve, window), peak_reduction(curves[0], curve, window))
            for fraction, curve in zip(args.fractions, curves)]
    with _outputs(os.path.dirname(args.out) or os.curdir) as create:
        with create(os.path.basename(args.out)) as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("experienced_fraction", "peak_window_mean_watts", "peak_reduction"))
            for fraction, peak_mean, reduction in rows:
                writer.writerow((_fraction_label(fraction), f"{peak_mean:.3f}", f"{reduction:.6f}"))

    print(f"window {window[0]}-{window[1]}, seed {scenarios[0].config.seed}")
    print("fraction  peak window mean (W)  reduction")
    for fraction, peak_mean, reduction in rows:
        print(f"{_fraction_label(fraction):>8}  {peak_mean:>20.0f}  {reduction:>9.2%}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metersim",
        description="Household load simulation under mandated smart metering",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and write result files")
    p_run.add_argument("--config", required=True, help="scenario JSON file")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--events", action="store_true", help="also write events.csv")
    p_run.add_argument(
        "--experienced-fraction", type=float, default=None, dest="experienced_fraction",
        help="override initial_experienced_fraction",
    )
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="compare two load curve CSVs")
    p_cmp.add_argument("base", help="baseline curve CSV")
    p_cmp.add_argument("treated", help="treated curve CSV")
    p_cmp.add_argument(
        "--window", type=_parse_window_arg, default=DEFAULT_PEAK_WINDOW,
        help="evaluation window, HH:MM-HH:MM (default {}-{})".format(*DEFAULT_PEAK_WINDOW),
    )
    p_cmp.set_defaults(func=cmd_compare)

    p_net = sub.add_parser("network-stats", help="summarize the scenario's contact network")
    p_net.add_argument("--config", required=True, help="scenario JSON file")
    p_net.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_net.set_defaults(func=cmd_network_stats)

    p_val = sub.add_parser("validate", help="validate a scenario file")
    p_val.add_argument("--config", required=True, help="scenario JSON file")
    p_val.set_defaults(func=cmd_validate)

    p_swp = sub.add_parser("sweep", help="peak window reduction across experienced fractions")
    p_swp.add_argument("--config", required=True, help="scenario JSON file")
    p_swp.add_argument(
        "--fractions", required=True, type=_parse_fractions_arg,
        help="comma separated initial_experienced_fraction values; the first is the baseline",
    )
    p_swp.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_swp.add_argument("--out", required=True, help="output CSV file")
    p_swp.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
        return EXIT_OK
    except ScenarioValidationError as exc:
        code, message = EXIT_INVALID, str(exc)
    except BadCurve as exc:
        code, message = EXIT_INVALID, f"{type(exc).__name__}: {exc}"
    except IOFailure as exc:
        code, message = EXIT_IO, str(exc)
    except MemoryError as exc:
        code, message = EXIT_IO, f"cannot allocate the run: {str(exc) or 'out of memory'}"
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
