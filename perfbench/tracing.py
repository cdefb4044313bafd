"""Spans and counters around the calls between metersim's modules.

Nothing in metersim is edited.  While a Tracer is installed it replaces the
names one module uses to call another (``metersim.cli.load_scenario``,
``metersim.engine.appliance_tick``, ...) and a few public methods of
``Simulation`` with wrappers that time each call and count what it did.
Every ``*_s`` figure is self time: the span's duration minus the time of
the traced spans it called.  ``uninstall`` puts the original objects back.

A name the program no longer has is listed in ``missing``; the traced run
then reports itself not correct, so that a layer cannot silently read 0
after a refactor.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._open: list[float] = []  # child time of each open span
        self._totals: dict[str, list] = {}  # name -> [calls, self seconds]
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []  # names that could not be wrapped
        self._ticks_seen: dict[int, int] = {}  # id(Simulation) -> ticks run

    # -- spans -------------------------------------------------------------

    def span(self, name: str, fn, after=None):
        """Wrap fn in a span; after(args, result) may add counts.

        The wrapper runs millions of times a round, so it keeps its
        totals in a list of its own and touches no dict per call.
        """
        open_spans = self._open
        totals = self._totals.setdefault(name, [0, 0.0])

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                totals[0] += 1
                totals[1] += elapsed - open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
            if after is not None:
                after(args, result)
            return result

        return traced

    def root(self, name: str, fn, *args):
        """Run fn(*args) as a top level span and return its result."""
        return self.span(name, fn)(*args)

    def collect(self) -> None:
        """Move the per-wrapper totals into calls and self_s."""
        for name, (calls, seconds) in self._totals.items():
            self.calls[name] += calls
            self.self_s[name] += seconds
        self._totals.clear()

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        cli = importlib.import_module("metersim.cli")
        engine = importlib.import_module("metersim.engine")
        behavior = importlib.import_module("metersim.behavior")
        sim_cls = getattr(engine, "Simulation", None)

        def plain(name):
            return lambda fn: self.span(name, fn)

        # domain, metrics and network as the CLI calls them
        self._patch(cli, "load_scenario", plain("domain.load"))
        self._patch(cli, "aggregate_load", plain("metrics.aggregate"))
        for attr in ("read_load_curve", "pearson_correlation", "peak_reduction"):
            self._patch(cli, attr, plain("metrics.compare"))
        self._patch(cli, "generate_small_world", lambda fn: self.span(
            "network.generate", fn, self._count_edges))
        self._patch(cli, "clustering_coefficient", plain("network.clustering"))
        self._patch(cli, "mean_path_length_sampled", plain("network.path_length"))
        self._patch(cli, "cmd_run", plain("cli.run"))

        # engine
        if sim_cls is None:
            self.missing.append("metersim.engine.Simulation")
        else:
            self._patch(sim_cls, "__init__", self._wrap_init)
            self._patch(sim_cls, "tick", self._wrap_tick)
            self._patch(sim_cls, "run_all", plain("engine.output"))
        self._patch(engine, "generate_small_world", lambda fn: self.span(
            "network.generate", fn, self._count_edges))
        self._patch(engine, "trials_to_threshold", plain("learning"))

        # behaviour as the engine calls it
        self._patch(engine, "step_presence", plain("behavior.step_presence"))
        self._patch(engine, "appliance_tick", self._wrap_appliance_tick)
        self._patch(engine, "maybe_interact", self._wrap_maybe_interact)

        # learning as behaviour calls it
        self._patch(behavior, "record_trial", lambda fn: self.span(
            "learning", fn, self._after_record_trial))
        self._patch(behavior, "absorb_interaction", lambda fn: self.span(
            "learning", fn, self._after_absorb))

    def uninstall(self) -> None:
        self.collect()
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- wrappers that need more than a span -------------------------------

    def _count_edges(self, args, net) -> None:
        self.counts["network.edges"] += sum(len(n) for n in net.adjacency) // 2

    def _after_record_trial(self, args, after) -> None:
        self.counts["learning.record_trial_calls"] += 1
        if after.experienced and not args[0].experienced:
            self.counts["learning.became_experienced"] += 1

    def _after_absorb(self, args, after) -> None:
        self.counts["learning.absorb_interaction_calls"] += 1
        before = args[0]
        if after is not before:
            self.counts["learning.bonus_trials"] += 1
            if after.experienced and not before.experienced:
                self.counts["learning.became_experienced"] += 1

    def _wrap_init(self, init):
        span = self.span("engine.init", init)

        def traced(sim, *args, **kwargs):
            self._ticks_seen[id(sim)] = 0
            span(sim, *args, **kwargs)

        return traced

    def _wrap_tick(self, tick):
        day_start = self.span("engine.day_start_tick", tick)
        other = self.span("engine.tick", tick)

        def traced(sim):
            seen = self._ticks_seen.get(id(sim), 0)
            self._ticks_seen[id(sim)] = seen + 1
            self.counts["engine.agent_ticks"] += sim.scenario.config.population
            if seen % sim.scenario.config.ticks_per_day == 0:
                return day_start(sim)
            return other(sim)

        return traced

    def _wrap_appliance_tick(self, fn):
        span = self.span("behavior.appliance_tick", fn)
        counts = self.counts

        def traced(agent, *args):
            before = agent.appliance_on[:]
            delta = span(agent, *args)
            after = agent.appliance_on
            if after != before:
                counts["behavior.switch_events"] += sum(a != b for a, b in zip(before, after))
            return delta

        return traced

    def _wrap_maybe_interact(self, fn):
        span = self.span("behavior.maybe_interact", fn)
        kind = getattr(importlib.import_module("metersim.behavior"), "INTERACTED", "Interacted")
        counts = self.counts
        scratch: list = []

        def traced(agent, neighbor_ids, snapshot, rt, rng, tick, events):
            # a private event list shows whether a chat found a donor when
            # the run itself records no events
            log = events if events is not None else scratch
            first = len(log)
            result = span(agent, neighbor_ids, snapshot, rt, rng, tick, log)
            if len(log) != first:
                counts["behavior.interactions"] += sum(e.kind == kind for e in log[first:])
                scratch.clear()
            return result

        return traced

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures by metric name (seconds and counts)."""
        s, calls, counts = self.self_s, self.calls, self.counts
        maybe = calls["behavior.maybe_interact"]
        return {
            "domain.load_s": s["domain.load"],
            "engine.init_s": s["engine.init"],
            "network.generate_s": s["network.generate"],
            "engine.day_start_tick_s": s["engine.day_start_tick"],
            "engine.tick_s": s["engine.tick"],
            "engine.output_s": s["engine.output"],
            "engine.agent_ticks": counts["engine.agent_ticks"],
            "behavior.step_presence_s": s["behavior.step_presence"],
            "behavior.appliance_tick_calls": calls["behavior.appliance_tick"],
            "behavior.appliance_tick_s": s["behavior.appliance_tick"],
            "behavior.maybe_interact_calls": maybe,
            "behavior.maybe_interact_s": s["behavior.maybe_interact"],
            "behavior.switch_events": counts["behavior.switch_events"],
            "behavior.interactions": counts["behavior.interactions"],
            "behavior.chat_yield": counts["behavior.interactions"] / maybe if maybe else 0.0,
            "learning.record_trial_calls": counts["learning.record_trial_calls"],
            "learning.absorb_interaction_calls": counts["learning.absorb_interaction_calls"],
            "learning.bonus_trials": counts["learning.bonus_trials"],
            "learning.became_experienced": counts["learning.became_experienced"],
            "learning.s": s["learning"],
            "metrics.aggregate_s": s["metrics.aggregate"],
            "metrics.compare_s": s["metrics.compare"],
            "cli.write_s": s["cli.run"],
            "cli.events_rows": counts["cli.events_rows"],
            "cli.events_bytes": counts["cli.events_bytes"],
            "network.clustering_s": s["network.clustering"],
            "network.path_length_s": s["network.path_length"],
            "network.edges": counts["network.edges"],
        }

    def spans(self) -> dict[str, dict[str, float]]:
        return {
            name: {"calls": self.calls[name], "self_s": self.self_s[name]}
            for name in sorted(self.calls)
        }
