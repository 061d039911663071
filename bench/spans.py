"""Spans around ddakit's public entry points, recorded from outside the package.

A span is (name, start, end, parent, episode). Every span updates per-name
call counts, inclusive time and self time (its duration minus the time its
child spans cover) as it closes, so the per-layer table is exact for the
whole run. The raw spans themselves are kept in memory up to ``max_spans``
and written once at the end of the run; spans past the cap are still
counted and timed, only not stored.

Besides spans, the wrappers read the values the program returns to count
work: windows closed, samples accepted, drains gated, previews by method.
Nothing in ``src/`` is edited; every wrapper replaces a module or class
attribute and is put back by :meth:`Instruments.restore`.
"""

from __future__ import annotations

import json
import time

_now_ns = time.perf_counter_ns

ROOT = "bench.run"


class Tracer:
    """In-memory span recorder with per-name self-time accounting."""

    def __init__(self, max_spans: int = 100_000) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.counts: dict[str, float] = {}
        self.max_spans = max_spans
        self.spans: list[tuple | None] = []
        self.dropped = 0
        self.episode = 0
        self._episodes = 0
        # Open spans: [name id, start ns, child ns, stored index, parent index].
        self._stack: list[list[int]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return nid

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def push(self, nid: int) -> None:
        stack = self._stack
        parent = stack[-1][3] if stack else -1
        if len(self.spans) < self.max_spans:
            idx = len(self.spans)
            self.spans.append(None)
        else:
            idx = -1
            self.dropped += 1
        stack.append([nid, _now_ns(), 0, idx, parent])

    def pop(self) -> None:
        end = _now_ns()
        nid, start, child, idx, parent = self._stack.pop()
        dur = end - start
        self.calls[nid] += 1
        self.total_ns[nid] += dur
        self.self_ns[nid] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if idx >= 0:
            self.spans[idx] = (nid, start, end, parent, self.episode)

    def begin_episode(self) -> None:
        self._episodes += 1
        self.episode = self._episodes

    def end_episode(self) -> None:
        self.episode = 0

    def write(self, path: str) -> None:
        """Write the stored spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                if span is None:  # still open because the run raised
                    continue
                nid, start, end, parent, episode = span
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": self.names[nid],
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "episode": episode,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        return {
            name: {
                "calls": self.calls[nid],
                "s": self.total_ns[nid] / 1e9,
                "self_s": self.self_ns[nid] / 1e9,
            }
            for nid, name in enumerate(self.names)
        }


def layer_of(span_name: str) -> str:
    """``engine.on_tick`` -> ``engine``; ``models.dscript.on_encounter`` -> ``models.dscript``."""
    return span_name.rsplit(".", 1)[0]


class Instruments:
    """Attribute patches that can be undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original_function)``.

        Class methods are unwrapped and re-wrapped so the replacement still
        receives the class.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def _spanned(tracer: Tracer, name: str, after=None):
    """Return a factory wrapping a function in a span named *name*.

    ``after(result, args)`` runs once the span has closed, so its cost lands
    in the caller's self time, not in the layer being measured.
    """
    nid = tracer.name_id(name)
    push, pop = tracer.push, tracer.pop

    def make(fn):
        if after is None:

            def wrapper(*args, **kwargs):
                push(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    pop()

        else:

            def wrapper(*args, **kwargs):
                push(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    pop()
                after(result, args)
                return result

        return wrapper

    return make


def _effective_outcome_count(outcomes, evade_prob: float) -> int:
    """Outcomes per attack once evasion is folded in (misses and dodges merge)."""
    if evade_prob <= 0.0:
        return len(outcomes)
    return sum(1 for _, dmg in outcomes if dmg != 0.0) + 1


def closed_form_expectation(zone, player) -> float:
    """Expected zone damage, sum over groups of attacks * sum p * d, with evasion."""
    keep = 1.0 - player.evade_prob
    return sum(
        g.count * g.attacks_each * sum(p * d * keep for p, d in g.outcomes)
        for g in zone.groups
    )


def install_tracing(inst: Instruments, tracer: Tracer, ddakit_modules, ctx) -> None:
    """Wrap the public entry points of every ddakit layer in spans.

    *ddakit_modules* is a namespace holding the imported ddakit modules;
    *ctx* receives the per-preview closed-form checks.
    """
    m = ddakit_modules
    count = tracer.count

    def span(owner, attr, name, after=None):
        inst.replace(owner, attr, _spanned(tracer, name, after))

    # sim.arena: one span per episode; spans inside it share its episode id.
    run_nid = tracer.name_id("sim.arena.run_episode")

    def episode_span(fn):
        def wrapper(*args, **kwargs):
            tracer.begin_episode()
            tracer.push(run_nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.pop()
                tracer.end_episode()

        return wrapper

    for owner in (m.arena, m.experiment):
        inst.replace(owner, "run_episode", episode_span)

    # engine
    def after_on_tick(records, args):
        if records:
            count("engine.on_tick.windows")

    E = m.engine.DdaEngine
    span(E, "on_tick", "engine.on_tick", after_on_tick)
    for attr in ("on_wave_break", "on_player_dead", "on_scene_change", "on_encounter",
                 "next_script", "script_params"):
        span(E, attr, f"engine.{attr}")

    # telemetry
    def after_sample(result, args):
        if getattr(result, "name", None) == "ACCEPTED":
            count("telemetry.sample_permanent.accepted")

    T = m.telemetry.Tracker
    span(T, "sample_permanent", "telemetry.sample_permanent", after_sample)
    for attr in ("record_event", "close_window", "detect_spike"):
        span(T, attr, f"telemetry.{attr}")

    # assessment: the engine calls the name it imported.
    span(m.engine, "evaluate", "assessment.evaluate")

    # models
    span(m.engine.MetricsModel, "on_report", "models.metrics.on_report")
    for attr in ("next_script", "params_for", "on_encounter"):
        span(m.engine.ScriptingModel, attr, f"models.dscript.{attr}")

    def after_on_zone(result, args):
        expected = result[0]
        _, zone, player, _now = args
        method = getattr(expected, "method", "")
        if method == "monte_carlo":
            count("models.probabilistic.previews_monte_carlo")
        else:
            count("models.probabilistic.previews_enumerated")
            total = 1
            for g in zone.groups:
                total *= _effective_outcome_count(g.outcomes, player.evade_prob) ** (
                    g.count * g.attacks_each
                )
            count("models.probabilistic.outcomes_walked", total)
        with ctx.untimed(), ctx.operation(f"preview {zone.zone_id}") as op:
            exact = closed_form_expectation(zone, player)
            stderr = getattr(expected, "stderr", None)
            if method == "monte_carlo" and stderr is not None:
                op.expect(
                    abs(expected.value - exact) <= 4.0 * stderr,
                    f"Monte Carlo preview {expected.value} is more than 4 standard "
                    f"errors ({stderr}) from the closed form {exact}",
                )
            else:
                op.expect(
                    abs(expected.value - exact) <= 1e-9 * max(abs(exact), 1e-300),
                    f"exact preview {expected.value} != closed form {exact}",
                )

    span(m.engine.ProbabilisticModel, "on_zone", "models.probabilistic.on_zone", after_on_zone)

    # adjustment
    def after_drain(result, args):
        count("adjustment.drain.gated", 1 if result.gated else 0)
        count("adjustment.drain.applied", len(result.applied))
        count("adjustment.drain.dropped", len(result.dropped))

    Q = m.adjustment.ChangeQueue
    span(Q, "drain", "adjustment.drain", after_drain)
    enqueue_make = _spanned(tracer, "adjustment.enqueue")

    def enqueue_counting(fn):
        spanned = enqueue_make(fn)

        def wrapper(self, request):
            before = len(self)
            spanned(self, request)
            if len(self) == before:
                count("adjustment.enqueue.replaced")

        return wrapper

    inst.replace(Q, "enqueue", enqueue_counting)

    # sim.trace: dumps returns ASCII-only JSON, so characters are bytes.
    def after_dumps(text, args):
        count("sim.trace.bytes", len(text))

    TR = m.trace.EpisodeTrace
    span(TR, "dumps", "sim.trace.dumps", after_dumps)
    span(TR, "save", "sim.trace.save")
    span(TR, "load", "sim.trace.load")
    span(TR, "records_of_type", "sim.trace.records_of_type")

    # report, reference, experiment (and the names experiment imported)
    for attr in ("episode_metrics", "build_rows", "write_csv"):
        span(m.report, attr, f"report.{attr}")
    for attr in ("episode_metrics", "write_csv"):
        span(m.experiment, attr, f"report.{attr}")
    for attr in ("calibrate", "save_reference", "load_reference"):
        span(m.reference, attr, f"reference.{attr}")
    span(m.experiment, "load_reference", "reference.load_reference")
    span(m.experiment, "run_experiment", "experiment.run_experiment")
