"""Output checks for the benchmark workloads.

Each check recomputes what the program printed or wrote from the scenario
document and the program's own logs, with code of its own, or tests a
property the model must have.  None compares against a stored copy of
earlier output.  Every function returns a list of problems; empty means the
outputs are correct.
"""

from __future__ import annotations

import csv
import math
import os

DAY_MIN = 1440
BUCKET_MIN = 30


# -- reading the scenario document ------------------------------------------

def p_learn(m: float, k: float, t: int) -> float:
    """The README's learning curve, P(t) = M(1 - e^(-kt))."""
    return m * (1.0 - math.exp(-k * t))


def trials_needed(m: float, k: float, p: float) -> int:
    """Smallest t >= 1 with P(t) >= p (the curve is increasing in t)."""
    t = 1
    while p_learn(m, k, t) < p:
        t += 1
        if t > 100_000:
            raise ValueError("threshold unreachable")
    return t


def agent_archetypes(doc: dict) -> list[dict]:
    """Archetype of every agent: largest remainder apportionment of the
    population over the mix, in mix order, ties to the earlier entry."""
    cfg = doc["scenario"]
    by_id = {a["id"]: a for a in doc["archetypes"]}
    mix = list(cfg["archetype_mix"].items())
    n = cfg["population"]
    quotas = [n * f for _, f in mix]
    counts = [math.floor(q) for q in quotas]
    rest = sorted(range(len(mix)), key=lambda i: (counts[i] - quotas[i], i))
    for i in rest[: n - sum(counts)]:
        counts[i] += 1
    agents: list[dict] = []
    for (arch_id, _), count in zip(mix, counts):
        agents.extend([by_id[arch_id]] * count)
    return agents


def seeded_count(doc: dict, fraction: float) -> int:
    return math.floor(fraction * doc["scenario"]["population"] + 0.5)


def read_curve(path: str) -> list[tuple[int, str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["bucket_start_min", "mean_watts"]:
        raise ValueError(f"{path}: unexpected header {rows[0]}")
    return [(int(start), text) for start, text in rows[1:]]


def read_adoption(path: str) -> list[tuple[int, int, int, int]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["day", "uninfluenced", "inexperienced", "experienced"]:
        raise ValueError(f"{path}: unexpected header {rows[0]}")
    return [tuple(int(x) for x in row) for row in rows[1:]]


def parse_key_values(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


# -- learning_compare ---------------------------------------------------------

def replay_run(doc: dict, fraction: float, run_dir: str) -> list[str]:
    """Rebuild one `run --events` from its event log.

    The load of every tick is rebuilt from the switch events and the
    catalog wattages and bucketed to half hours; the learning rules are
    replayed from presence, influence and chat events.  Both are compared
    with the files the run wrote.
    """
    problems: list[str] = []
    cfg = doc["scenario"]
    n = cfg["population"]
    tick_min = cfg["tick_minutes"]
    per_day = DAY_MIN // tick_min
    total = cfg["horizon_days"] * per_day
    p_threshold = cfg["p_threshold"]
    archs = agent_archetypes(doc)
    watts = {a["id"]: float(a["power_watts"]) for a in doc["appliances"]}

    with open(os.path.join(run_dir, "events.csv"), newline="") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["tick", "agent_id", "kind", "detail"]:
            return [f"{run_dir}: events.csv header"]
        events = [(int(t), int(a), kind, detail) for t, a, kind, detail in reader]

    influenced_logged = {a for _, a, kind, _ in events if kind == "Influenced"}
    seeded = [a for a in range(n) if a not in influenced_logged]
    if cfg["intervention_start_day"] == 0 and len(seeded) != seeded_count(doc, fraction):
        problems.append(f"{run_dir}: {len(seeded)} agents never influenced, "
                        f"expected {seeded_count(doc, fraction)} pre-seeded")

    trials: list[int | None] = [None] * n
    experienced = [False] * n
    for a in seeded:
        trials[a] = trials_needed(archs[a]["max_attainable_M"], archs[a]["learning_rate_k"],
                                  p_threshold)
        experienced[a] = True
    at_home = [True] * n
    bonus_today = [False] * n
    on: set[tuple[int, str]] = set()
    load = 0.0
    sums = [0.0] * (DAY_MIN // BUCKET_MIN)
    samples = [0] * (DAY_MIN // BUCKET_MIN)
    became_expected: set[tuple[int, int]] = set()
    became_logged: set[tuple[int, int]] = set()
    influenced_expected: set[tuple[int, int]] = set()
    influenced_seen: set[tuple[int, int]] = set()
    adoption: list[tuple[int, int, int, int]] = []

    def gain_trial(a: int, tick: int) -> None:
        trials[a] += 1
        if not experienced[a] and p_learn(archs[a]["max_attainable_M"],
                                          archs[a]["learning_rate_k"],
                                          trials[a]) >= p_threshold:
            experienced[a] = True
            became_expected.add((tick, a))

    i = 0
    for tick in range(total):
        day, in_day = divmod(tick, per_day)
        if in_day == 0:
            due = day >= cfg["intervention_start_day"]
            for a in range(n):
                bonus_today[a] = False
                if due and trials[a] is None:
                    trials[a] = 0
                    influenced_expected.add((tick, a))
                if trials[a] is not None and at_home[a]:
                    gain_trial(a, tick)
        snapshot = None
        while i < len(events) and events[i][0] == tick:
            _, a, kind, detail = events[i]
            i += 1
            if kind == "LeftHome":
                at_home[a] = False
            elif kind == "ReturnedHome":
                at_home[a] = True
            elif kind in ("SwitchedOn", "SwitchedOff"):
                key = (a, detail)
                if not at_home[a]:
                    problems.append(f"tick {tick}: agent {a} switched {detail} while out")
                if (kind == "SwitchedOn") == (key in on):
                    problems.append(f"tick {tick}: agent {a} {kind} {detail} twice")
                power = watts[detail.split("#")[0]]
                if kind == "SwitchedOn":
                    on.add(key)
                    load += power
                else:
                    on.discard(key)
                    load -= power
            elif kind == "Interacted":
                if snapshot is None:
                    snapshot = list(trials)  # donors are read at the start of the tick
                peer = int(detail)
                if trials[a] is None or snapshot[peer] is None:
                    problems.append(f"tick {tick}: chat {a}->{peer} with an uninfluenced side")
                elif not bonus_today[a] and snapshot[peer] > trials[a]:
                    bonus_today[a] = True
                    gain_trial(a, tick)
            elif kind == "Influenced":
                influenced_seen.add((tick, a))
            elif kind == "BecameExperienced":
                became_logged.add((tick, a))
            else:
                problems.append(f"tick {tick}: unknown event kind {kind}")
        bucket = in_day * tick_min // BUCKET_MIN
        sums[bucket] += load
        samples[bucket] += 1
        if in_day == per_day - 1:
            uninfluenced = sum(t is None for t in trials)
            done = sum(experienced)
            adoption.append((day, uninfluenced, n - uninfluenced - done, done))
    if i != len(events):
        problems.append(f"{run_dir}: {len(events) - i} events out of tick order or range")

    if became_logged != became_expected:
        problems.append(f"{run_dir}: BecameExperienced differs from the replay: "
                        f"{len(became_logged ^ became_expected)} mismatches")
    if influenced_seen != influenced_expected:
        problems.append(f"{run_dir}: Influenced events differ from the replay")
    if read_adoption(os.path.join(run_dir, "adoption.csv")) != adoption:
        problems.append(f"{run_dir}: adoption.csv differs from the replay")

    curve = read_curve(os.path.join(run_dir, "loadcurve.csv"))
    for b, (start, text) in enumerate(curve):
        mean = sums[b] / samples[b]
        if start != b * BUCKET_MIN or abs(float(text) - mean) > 5e-4 + 1e-12 * mean:
            problems.append(f"{run_dir}: bucket {start} is {text}, events give {mean:.3f}")
    return problems


def pearson(xs: list[float], ys: list[float]) -> float:
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    return sxy / math.sqrt(sxx * syy)


def window_mean(curve: list[tuple[int, str]], window: list[str]) -> float:
    lo, hi = (int(t[:2]) * 60 + int(t[3:]) for t in window)
    picked = [float(v) for start, v in curve if lo <= start < hi]
    return sum(picked) / len(picked)


def check_learning_compare(doc: dict, base_dir: str, seeded_dir: str,
                           compare_stdout: str) -> list[str]:
    problems = replay_run(doc, 0.0, base_dir) + replay_run(doc, 0.9, seeded_dir)

    with open(os.path.join(seeded_dir, "events.csv")) as fh:
        if not any(",BecameExperienced," in line for line in fh):
            problems.append("the 0.9 run has no BecameExperienced event; horizon too short")

    base = read_curve(os.path.join(base_dir, "loadcurve.csv"))
    seeded = read_curve(os.path.join(seeded_dir, "loadcurve.csv"))
    printed = parse_key_values(compare_stdout)
    window = doc["scenario"]["peak_window"]
    base_mean, seeded_mean = window_mean(base, window), window_mean(seeded, window)
    expected = {
        "correlation": pearson([float(v) for _, v in base], [float(v) for _, v in seeded]),
        "peak_reduction": 1.0 - seeded_mean / base_mean,
    }
    for key, value in expected.items():
        if key not in printed or abs(float(printed[key]) - value) > 5.1e-7:
            problems.append(f"compare printed {key}={printed.get(key)}, recomputed {value:.6f}")
    if not seeded_mean < base_mean:
        problems.append(f"0.9 run does not lower the {window[0]}-{window[1]} mean "
                        f"({seeded_mean:.3f} vs {base_mean:.3f})")
    return problems


# -- population_scale ---------------------------------------------------------

def check_population_scale(doc: dict, run_dir: str) -> list[str]:
    problems: list[str] = []
    cfg = doc["scenario"]
    n = cfg["population"]
    seeded = seeded_count(doc, cfg["initial_experienced_fraction"])
    fastest = min(trials_needed(a["max_attainable_M"], a["learning_rate_k"], cfg["p_threshold"])
                  for a in doc["archetypes"])
    rows = read_adoption(os.path.join(run_dir, "adoption.csv"))
    if [r[0] for r in rows] != list(range(cfg["horizon_days"])):
        problems.append(f"adoption.csv days {[r[0] for r in rows]}")
    for day, uninfluenced, inexperienced, experienced in rows:
        if uninfluenced + inexperienced + experienced != n:
            problems.append(f"day {day}: adoption counts do not sum to {n}")
        if day >= cfg["intervention_start_day"] and uninfluenced != 0:
            problems.append(f"day {day}: {uninfluenced} uninfluenced after the intervention")
        # at most one daily and one bonus trial a day
        if 2 * (day + 1) < fastest and experienced != seeded:
            problems.append(f"day {day}: {experienced} experienced, {seeded} were seeded "
                            f"and nobody can reach {fastest} trials yet")

    watts = {a["id"]: a["power_watts"] for a in doc["appliances"]}
    ceiling = n * max(sum(watts[app] * count for app, count in a["appliances"].items())
                      for a in doc["archetypes"])
    curve = read_curve(os.path.join(run_dir, "loadcurve.csv"))
    if len(curve) != DAY_MIN // BUCKET_MIN:
        problems.append(f"loadcurve.csv has {len(curve)} buckets")
    for start, text in curve:
        value = float(text)
        if not (math.isfinite(value) and 0.0 <= value <= ceiling):
            problems.append(f"bucket {start}: {text} W outside [0, {ceiling}]")
    return problems


# -- network_stats ------------------------------------------------------------

def check_network_stats(doc: dict, stdout: str, net) -> list[str]:
    """net is the program's graph for the same scenario and seed."""
    import numpy as np
    from scipy import sparse

    problems: list[str] = []
    lines = stdout.strip().splitlines()
    if len(lines) != 2 or lines[0] != "nodes,edges,mean_degree,clustering_coefficient,mean_path_length":
        return [f"network-stats printed {stdout!r}"]
    nodes, edges, degree, clustering, path = lines[1].split(",")
    cfg = doc["scenario"]
    n, k = cfg["population"], cfg["network_mean_degree_K"]
    if int(nodes) != n or int(edges) != n * k // 2:
        problems.append(f"nodes,edges = {nodes},{edges}; expected {n},{n * k // 2}")
    if float(degree) != k:
        problems.append(f"mean_degree {degree}, expected {k}")

    rows = np.repeat(np.arange(n), [len(nb) for nb in net.adjacency])
    cols = np.fromiter((j for nb in net.adjacency for j in nb), dtype=np.int64, count=rows.size)
    adj = sparse.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    if (adj != adj.T).nnz or adj.diagonal().any() or adj.nnz != n * k:
        problems.append("graph is not simple and undirected with N*K/2 edges")
    deg = np.asarray(adj.sum(axis=1)).ravel()
    triangles = np.asarray((adj @ adj).multiply(adj).sum(axis=1)).ravel() / 2
    pairs = deg * (deg - 1) / 2
    local = np.divide(triangles, pairs, out=np.zeros(n), where=pairs > 0)
    if abs(float(clustering) - local.mean()) > 5.1e-7:
        problems.append(f"clustering {clustering}, triangle count gives {local.mean():.6f}")

    lo, hi = math.log(n) / math.log(k), n / (2 * k)
    if not lo <= float(path) <= hi:
        problems.append(f"mean_path_length {path} outside [{lo:.3f}, {hi:.1f}]")
    return problems
