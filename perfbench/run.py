#!/usr/bin/env python3
"""metersim benchmark: one workload per invocation.

    python3 perfbench/run.py --workload learning_compare --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; metersim is imported from ./src.
The seed picks the scenario seed of every scenario file the benchmark
writes; nothing else varies.  The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  With
`--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json,
taken with tracing off.  With `--trace 1` they are the per-layer metrics of
one traced round of every workload, and the full trace is written to
perfbench/out/.  Untraced times are process CPU seconds scaled by the
host's speed (hostspeed.py); elapsed seconds are kept next to them in the
result record.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SAMPLE = BENCH_DIR / "sample_scenario.json"

# Scenario changes against the sample, per workload.  The sample's 7-day
# horizon lets nobody learn: at most 2 trials a day against a threshold of
# 16 (homebody) or 19 (worker) trials.  Eight days let homebodies that
# chat every day cross it (16 trials by day index 7) at fraction 0.9.
SCENARIOS = {
    "learning_compare": {"horizon_days": 8},
    "population_scale": {"population": 10_000, "horizon_days": 1,
                         "initial_experienced_fraction": 0.5},
    "network_stats": {"population": 5_000},
}
# set-ups timed per round: ten where one is short, one where it is long
SETUPS_PER_ROUND = {"learning_compare": 10, "population_scale": 1, "network_stats": 10}
MIN_ROUNDS = 2
# host-speed kernels per workload (hostspeed.py): the cache-resident
# network analysis does not slow with the cache-missing object walk
KERNELS = {"learning_compare": ("objects", "graph", "arith"),
           "population_scale": ("objects", "graph", "arith"),
           "network_stats": ("graph", "arith")}


def cli_calls(workload: str, scenario: str, out: Path) -> list[list[str]]:
    """The metersim command lines one round of a workload runs."""
    if workload == "learning_compare":
        base, seeded = out / "fraction_0.0", out / "fraction_0.9"
        return [
            ["run", "--config", scenario, "--out", str(base), "--events",
             "--experienced-fraction", "0.0"],
            ["run", "--config", scenario, "--out", str(seeded), "--events",
             "--experienced-fraction", "0.9"],
            ["compare", str(base / "loadcurve.csv"), str(seeded / "loadcurve.csv")],
        ]
    if workload == "population_scale":
        return [["run", "--config", scenario, "--out", str(out / "run")]]
    return [["network-stats", "--config", scenario]]


def write_scenarios(seed: int, where: Path) -> dict[str, tuple[Path, dict]]:
    sample = json.loads(SAMPLE.read_text())
    made = {}
    for workload, changes in SCENARIOS.items():
        doc = copy.deepcopy(sample)
        doc["scenario"].update(changes, seed=seed % 2**64)
        path = where / f"{workload}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        made[workload] = (path, doc)
    return made


def steal_seconds() -> float:
    """Host CPU steal so far, summed over CPUs; 0.0 where /proc/stat is absent."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_mb() -> float:
    """Resident memory now; 0.0 where /proc/self/statm is absent."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, IndexError, ValueError):
        return 0.0


class Bench:
    """Runs rounds of the workloads and keeps what the checks need.

    With a HostSpeed, sections are timed in calibrated seconds (see
    hostspeed.py); without one (traced runs), in CPU seconds.
    """

    def __init__(self, seed: int, work: Path, speed: HostSpeed | None, reference_mb: float):
        import metersim.cli
        import metersim.engine

        self.cli = metersim.cli
        self.engine = metersim.engine
        self.work = work
        self.speed = speed
        self.reference_mb = reference_mb  # resident memory of the host-speed kernels
        self.scenarios = write_scenarios(seed, work)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[str, set[str]] = {}
        self.last_stdout: dict[str, list[str]] = {}
        self.loops: list[tuple[float, float]] = []  # run_all elapsed and CPU s

    def measure(self, fn, *args):
        """(timed s, elapsed s, CPU s, result) of fn(*args)."""
        if self.speed is not None:
            return self.speed.timed(fn, *args)
        started, cpu = time.perf_counter(), time.process_time()
        result = fn(*args)
        cpu = time.process_time() - cpu
        return cpu, time.perf_counter() - started, cpu, result

    def build(self, workload: str):
        """Scenario load and validation plus what `run` builds before its
        first tick; network_stats builds only the contact network."""
        from metersim import Simulation, generate_small_world, load_scenario

        scenario = load_scenario(str(self.scenarios[workload][0]))
        if workload == "network_stats":
            cfg = scenario.config
            return generate_small_world(
                cfg.population, cfg.network_mean_degree_K, cfg.network_rewire_beta,
                self.engine.substream(cfg.seed, self.engine.STREAM_NETWORK))
        return Simulation(scenario, record_events=workload == "learning_compare")

    def invoke(self, argv: list[str]) -> tuple[tuple, tuple | None, str]:
        """One metersim command line in this process: its timed, elapsed
        and CPU seconds, the same for its tick loop (None when no
        simulation ran), and its stdout."""
        self.attempted += 1
        self.loops.clear()
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout):
                timed, elapsed, cpu, code = self.measure(self.cli.main, argv)
        except Exception:
            timed = elapsed = cpu = 0.0
            code = None
            self.errors.append(traceback.format_exc())
        if code != 0:
            self.failed += 1
            self.errors.append(f"metersim {' '.join(argv)} exited with {code}")
        loop = None
        if self.loops:
            scale = 1.0 if self.speed is None else self.speed.scale
            loop_cpu = sum(c for _, c in self.loops)
            loop = (loop_cpu * scale, sum(e for e, _ in self.loops), loop_cpu)
        return (timed, elapsed, cpu), loop, stdout.getvalue()

    def round(self, workload: str, setups: int) -> dict:
        gc.collect()
        record = {f"{part}_{kind}": [] for part in ("setup", "wall", "loop")
                  for kind in ("s", "elapsed_s", "cpu_s")}
        for _ in range(setups):
            timed, elapsed, cpu, built = self.measure(self.build, workload)
            record["setup_s"].append(timed)
            record["setup_elapsed_s"].append(elapsed)
            record["setup_cpu_s"].append(cpu)
            del built
            gc.collect()
        out = self.work / workload
        stdouts = []
        for argv in cli_calls(workload, str(self.scenarios[workload][0]), out):
            wall, loop, stdout = self.invoke(argv)
            for kind, w, lp in zip(("s", "elapsed_s", "cpu_s"), wall, loop or (None,) * 3):
                record[f"wall_{kind}"].append(w)
                record[f"loop_{kind}"].append(lp)
            stdouts.append(stdout)
        self.record_digest(workload, out, stdouts)
        self.last_stdout[workload] = stdouts
        return record

    def record_digest(self, workload: str, out: Path, stdouts: list[str]) -> None:
        """Hash every output; rounds of one workload must agree byte for byte."""
        h = hashlib.sha256()
        for path in sorted(out.rglob("*.csv")):
            h.update(path.name.encode())
            h.update(path.read_bytes())
        for text in stdouts:
            h.update(text.encode())
        self.digests.setdefault(workload, set()).add(h.hexdigest())

    @contextlib.contextmanager
    def loop_probe(self):
        """Time Simulation.run_all, the tick loop behind every `run`."""
        sim_cls = self.engine.Simulation
        original = sim_cls.run_all

        def timed(sim):
            # host-speed samples taken inside the loop do not count
            spent = 0.0 if self.speed is None else self.speed.spent
            started, cpu = time.perf_counter(), time.process_time()
            try:
                return original(sim)
            finally:
                cpu = time.process_time() - cpu
                if self.speed is not None:
                    cpu -= self.speed.spent - spent
                self.loops.append((time.perf_counter() - started, cpu))

        sim_cls.run_all = timed
        try:
            yield
        finally:
            sim_cls.run_all = original

    def agent_ticks(self, workload: str) -> int:
        """Agent-ticks one `run` of the workload simulates."""
        cfg = self.scenarios[workload][1]["scenario"]
        return cfg["population"] * cfg["horizon_days"] * (1440 // cfg["tick_minutes"])

    def check(self, workload: str) -> list[str]:
        """Check the outputs of the workload's last round."""
        import checks

        doc = self.scenarios[workload][1]
        out = self.work / workload
        stdout = self.last_stdout[workload]
        if len(self.digests[workload]) != 1:
            return [f"{workload}: rounds wrote different outputs"]
        if workload == "learning_compare":
            return checks.check_learning_compare(
                doc, str(out / "fraction_0.0"), str(out / "fraction_0.9"), stdout[2])
        if workload == "population_scale":
            return checks.check_population_scale(doc, str(out / "run"))
        net = self.build(workload)
        return checks.check_network_stats(doc, stdout[0], net)


def end_to_end(bench: Bench, workload: str, rounds: list[dict]) -> dict:
    """The median round of each command line, summed, and the median of
    all set-ups."""
    def summed_medians(key: str) -> float:
        return sum(statistics.median(times) for times in zip(*(r[key] for r in rounds)))

    wall = summed_medians("wall_s")
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(s for r in rounds for s in r["setup_s"]), "s"),
    }
    runs = sum(loop is not None for loop in rounds[0]["loop_s"])
    if runs:
        loops = [[x for x in r["loop_s"] if x is not None] for r in rounds]
        loop = sum(statistics.median(times) for times in zip(*loops))
        metrics["agent_ticks_per_s"] = (bench.agent_ticks(workload) * runs / loop, "1/s")
    else:
        # no tick loop: each household analysed once counts as one tick
        population = bench.scenarios[workload][1]["scenario"]["population"]
        metrics["agent_ticks_per_s"] = (population / wall, "1/s")
    metrics["peak_rss_mb"] = (peak_rss_mb() - bench.reference_mb, "MB")
    return metrics


def run_untraced(bench: Bench, workload: str, seconds: float) -> tuple[dict, list[dict]]:
    """Whole rounds for `seconds`: a round starts only if the longest
    round so far would still end in time, so a run does not overrun."""
    rounds = []
    deadline = time.perf_counter() + seconds
    longest = 0.0
    with bench.loop_probe():
        while len(rounds) < MIN_ROUNDS or time.perf_counter() + longest <= deadline:
            started = time.perf_counter()
            rounds.append(bench.round(workload, SETUPS_PER_ROUND[workload]))
            longest = max(longest, time.perf_counter() - started)
    return end_to_end(bench, workload, rounds), rounds


def run_traced(bench: Bench, workload: str) -> tuple[dict, dict, list[dict], list[str]]:
    """One untraced round of the workload, then one traced round of every
    workload; the named workload's pair gives the tracing overhead.  Also
    returns the traced names that metersim does not have."""
    from tracing import Tracer

    untraced = bench.round(workload, 1)
    tracer = Tracer()
    traced_rounds, by_workload, missing = {}, {}, set()
    for name in [workload] + [w for w in SCENARIOS if w != workload]:
        part = Tracer()
        part.install()
        try:
            traced_rounds[name] = part.root("round", bench.round, name, 0)
        finally:
            part.uninstall()
        missing.update(part.missing)
        for events in (bench.work / name).rglob("events.csv"):
            with events.open("rb") as fh:
                part.counts["cli.events_rows"] += sum(1 for _ in fh) - 1
            part.counts["cli.events_bytes"] += events.stat().st_size
        by_workload[name] = {"layers": part.layer_metrics(), "spans": part.spans()}
        for key in ("self_s", "calls", "counts"):
            for k, v in getattr(part, key).items():
                getattr(tracer, key)[k] += v
    overhead = sum(traced_rounds[workload]["wall_s"]) - sum(untraced["wall_s"])
    layers = tracer.layer_metrics()
    layers["trace.overhead_s"] = overhead
    detail = {"by_workload": by_workload, "spans": tracer.spans(),
              "untraced_wall_s": untraced["wall_s"],
              "traced_wall_s": traced_rounds[workload]["wall_s"]}
    return layers, detail, [untraced] + list(traced_rounds.values()), sorted(missing)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SCENARIOS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="run whole rounds for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "metersim" / "__init__.py").is_file():
        print(f"no metersim sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(BENCH_DIR))
    from hostspeed import HostSpeed
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    work = OUT_DIR / f"work_{tag}_{os.getpid()}"
    work.mkdir()
    steal_before = steal_seconds()
    started = time.perf_counter()
    problems: list[str] = []
    try:
        # the host-speed kernels' data stays resident; peak_rss_mb leaves it out
        before = rss_mb()
        speed = None if args.trace else HostSpeed(KERNELS[args.workload])
        bench = Bench(args.seed, work, speed, rss_mb() - before)
        if args.trace:
            layers, detail, rounds, missing = run_traced(bench, args.workload)
            problems += [f"tracing: metersim has no {name}" for name in missing]
            names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
            checked = list(SCENARIOS)
        else:
            e2e, rounds = run_untraced(bench, args.workload, args.seconds)
            layers = {name: value for name, (value, _unit) in e2e.items()}
            names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
            detail = {"rounds": rounds,
                      "reference_median_s": {name: statistics.median(kept)
                                             for name, kept in speed.samples.items()}}
            checked = [args.workload]
        steal = steal_seconds() - steal_before
        layers["host.steal_s"] = steal
        if bench.failed == 0:
            for name in checked:
                problems += bench.check(name)
    finally:
        shutil.rmtree(work)

    result = {
        "correct": bench.failed == 0 and not problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": layers[name], "unit": unit} for name, unit in names},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  run_s=time.perf_counter() - started, host_steal_s=steal,
                  problems=problems[:50], errors=bench.errors[:5], detail=detail)
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    for line in (problems[:20] + bench.errors[:5]):
        print(line, file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} rounds={len(rounds)} "
          f"host_steal_s={steal:.2f} run_s={record['run_s']:.1f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
