"""The three benchmark workloads and the run context they report into.

Every workload is one closed loop driven by one client: the next episode
(or calibration, or experiment) starts when the previous one returns, in
one process with no extra threads. A run repeats whole *rounds* until its
time is up, so each run has the same mix of cells; round ``r`` of a run
with workload seed ``s`` always draws the same episode seeds.

Why each workload exists is written in ``bench/README.md``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import os
import sys
import time
import traceback

from ddakit import engine as engine_mod
from ddakit import experiment as experiment_mod
from ddakit import reference as reference_mod
from ddakit import report as report_mod
from ddakit.sim import arena as arena_mod
from ddakit.sim import trace as trace_mod
from ddakit.sim.config import load_config, resolve_bot

# Bound before any wrapper is installed, so the harness's own digests and
# reruns never show up in the sim.trace spans.
_dumps = trace_mod.EpisodeTrace.dumps

ARENA_BOTS = ("novice", "medium", "expert")
ARENA_MODELS = ("off", "metrics", "probabilistic", "dscript")
# arena-hard episodes in arena-grid are shortened (``ddakit run --waves``):
# 30 waves still give ~20 Monte Carlo previews per episode, while keeping
# arena-hard's slower ticks a small, steady share of each round.
ARENA_HARD_WAVES = 30
DUEL_BOTS = ("novice", "medium")
DUEL_MODELS = ("off", "metrics", "dscript")
BATCH_BOTS = ("novice", "medium", "expert")
BATCH_MODELS = ("off", "metrics", "dscript")
BATCH_SEEDS_PER_CELL = 2
BATCH_CALIBRATE_RUNS = {"arena-hard": 8, "duel": 2}


def derive(seed: int, label: str) -> int:
    """A 63-bit seed from the workload seed and a label."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class _Operation:
    def __init__(self) -> None:
        self.problems: list[str] = []

    def expect(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)


class Context:
    """What a run measures and checks, shared by the harness and the workloads."""

    def __init__(self, seed: int, workdir: str, tracer=None) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.round = 0
        self.excluded = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._ops: list[_Operation] = []
        # Per-round sums of named phases (calibrate_s, trace_save_s, ...).
        self.phases: dict[str, list[float]] = {}
        # Episodes reached through run_episode, wherever it was called from.
        self.episodes = 0
        self.ticks = 0
        self.records = 0
        self.digest = hashlib.sha256()
        self.digest_episodes = 0
        # Arguments of the run's first episode, and its trace bytes.
        self.first_episode: tuple | None = None
        self.first_dumps: str | None = None
        self.wave_break_s: list[float] = []

    # -- time --------------------------------------------------------------

    def now(self) -> float:
        """Host seconds, minus the time the harness spent checking outputs."""
        return time.perf_counter() - self.excluded

    @contextlib.contextmanager
    def untimed(self):
        start = time.perf_counter()
        tracer = self.tracer
        if tracer is not None:
            tracer.push(tracer.name_id("bench.check"))
        try:
            yield
        finally:
            if tracer is not None:
                tracer.pop()
            self.excluded += time.perf_counter() - start

    def add_phase(self, name: str, seconds: float) -> None:
        series = self.phases.setdefault(name, [])
        while len(series) <= self.round:
            series.append(0.0)
        series[self.round] += seconds

    # -- outcomes ----------------------------------------------------------

    @contextlib.contextmanager
    def operation(self, what: str):
        """Count one operation; it fails if it raises or a check inside fails."""
        op = _Operation()
        self.attempted += 1
        self._ops.append(op)
        try:
            yield op
        except Exception:
            traceback.print_exc(file=sys.stderr)
            op.problems.append("raised")
        finally:
            self._ops.pop()
        if op.problems:
            self.failed += 1
            self.failures.append(f"{what}: {'; '.join(op.problems)}")

    def expect(self, ok: bool, problem: str) -> None:
        """Record a check against the innermost open operation."""
        if self._ops:
            self._ops[-1].expect(ok, problem)
        elif not ok:
            self.attempted += 1
            self.failed += 1
            self.failures.append(problem)

    # -- hooks wrapped around the program -----------------------------------

    def wrap_run_episode(self, fn):
        """Count every episode, check it ends in an outcome, digest round 0."""

        def run_episode(config, bot, seed, engine=None, window_len=None):
            first = self.first_episode is None
            if first:
                model = None if engine is None else engine.model_name
                refs = None if engine is None else engine.references
                self.first_episode = (config, bot, seed, model, refs, window_len)
            trace = fn(config, bot, seed, engine=engine, window_len=window_len)
            with self.untimed():
                last = trace.records[-1] if trace.records else {}
                self.expect(
                    last.get("t") == "outcome",
                    f"episode {config.name}/{bot.name} seed {seed} does not end "
                    "in an outcome record",
                )
                self.episodes += 1
                self.ticks += int(last.get("tick", 0))
                self.records += len(trace.records)
                if first:
                    self.first_dumps = _dumps(trace)
                if self.round == 0:
                    self.digest.update(_dumps(trace).encode())
                    self.digest_episodes += 1
            return trace

        return run_episode

    def wrap_wave_break(self, fn):
        """Time on_wave_break of zone-previewing (probabilistic) engines."""
        samples = self.wave_break_s

        def on_wave_break(engine, now, zone, player):
            if engine.model_name != "probabilistic":
                return fn(engine, now, zone, player)
            start = time.perf_counter()
            records = fn(engine, now, zone, player)
            samples.append(time.perf_counter() - start)
            return records

        return on_wave_break

    def rerun_first_episode(self) -> None:
        """Rerun the run's first episode on a fresh engine; dumps must match."""
        if self.first_dumps is None:
            return
        config, bot, seed, model, refs, window_len = self.first_episode
        with self.operation("rerun of the first episode") as op:
            engine = None
            if model is not None:
                engine = engine_mod.DdaEngine.from_config(
                    config, model=model, references=refs
                )
                if window_len is not None:
                    engine.window_len = window_len
            trace = arena_mod.run_episode(
                config, bot, seed=seed, engine=engine, window_len=window_len
            )
            op.expect(
                _dumps(trace) == self.first_dumps,
                "rerunning the first episode gave different trace bytes",
            )


def _episode(ctx: Context, config, bot, model: str, refs, seed: int):
    """Run one episode the way ``ddakit run`` does; returns the trace or None."""
    with ctx.operation(f"episode {config.name}/{bot.name}/{model} seed {seed}"):
        engine = engine_mod.DdaEngine.from_config(config, model=model, references=refs)
        trace = arena_mod.run_episode(config, bot, seed=seed, engine=engine)
        report_mod.episode_metrics(trace)
        return trace
    return None


def _warm_up(config, seed: int) -> None:
    """One passive episode, so first-call costs land in set-up, not in round 0."""
    arena_mod.run_episode(config, resolve_bot("medium"), seed=derive(seed, "warm-up"))


class ArenaGrid:
    """arena x bots x models, plus arena-hard/expert/probabilistic."""

    name = "arena-grid"

    def setup(self, seed: int) -> None:
        medium = resolve_bot("medium")
        arena = load_config("arena")
        hard = load_config("arena-hard").replacing(waves=ARENA_HARD_WAVES)
        self.refs = {
            "arena": reference_mod.calibrate(
                arena, medium, n_runs=10, seed=derive(seed, "ref/arena")
            ),
            "arena-hard": reference_mod.calibrate(
                hard, medium, n_runs=4, seed=derive(seed, "ref/arena-hard")
            ),
        }
        self.cells = [
            (arena, resolve_bot(bot), model)
            for bot in ARENA_BOTS
            for model in ARENA_MODELS
        ]
        self.cells.append((hard, resolve_bot("expert"), "probabilistic"))
        _warm_up(arena, seed)

    def run_round(self, ctx: Context, r: int) -> None:
        for i, (config, bot, model) in enumerate(self.cells):
            seed = derive(ctx.seed, f"{self.name}/{r}/{i}")
            _episode(ctx, config, bot, model, self.refs[config.name], seed)


class DuelLadder:
    """duel (500 waves) x {novice, medium} x {off, metrics, dscript}, saved and reported."""

    name = "duel-ladder"

    def setup(self, seed: int) -> None:
        self.duel = load_config("duel")
        self.ref = reference_mod.calibrate(
            self.duel, resolve_bot("medium"), n_runs=2, seed=derive(seed, "ref/duel")
        )
        self.cells = [(resolve_bot(b), m) for b in DUEL_BOTS for m in DUEL_MODELS]
        _warm_up(self.duel.replacing(waves=50), seed)

    def run_round(self, ctx: Context, r: int) -> None:
        for i, (bot, model) in enumerate(self.cells):
            seed = derive(ctx.seed, f"{self.name}/{r}/{i}")
            trace = _episode(ctx, self.duel, bot, model, self.ref, seed)
            if trace is None:
                continue
            path = os.path.join(ctx.workdir, f"duel-{i}.jsonl")
            csv_path = os.path.join(ctx.workdir, f"duel-{i}.csv")
            with ctx.operation(f"save and report of duel/{bot.name}/{model}") as op:
                start = ctx.now()
                trace.save(path)
                saved = ctx.now()
                loaded = trace_mod.EpisodeTrace.load(path)
                columns, rows = report_mod.build_rows(loaded)
                report_mod.write_csv(csv_path, columns, rows)
                ctx.add_phase("trace_save_s", saved - start)
                ctx.add_phase("report_s", ctx.now() - saved)
                with ctx.untimed():
                    op.expect(
                        loaded.records == trace.records,
                        "trace did not round-trip through save and load",
                    )


class BatchCalibrate:
    """calibrate twice, reference save/load, then an arena-hard experiment grid."""

    name = "batch-calibrate"

    def setup(self, seed: int) -> None:
        self.configs = {name: load_config(name) for name in BATCH_CALIBRATE_RUNS}
        self.medium = resolve_bot("medium")
        _warm_up(self.configs["arena-hard"], seed)

    def run_round(self, ctx: Context, r: int) -> None:
        refs = {}
        for name, n_runs in BATCH_CALIBRATE_RUNS.items():
            with ctx.operation(f"calibrate {name}/medium"):
                start = ctx.now()
                refs[name] = reference_mod.calibrate(
                    self.configs[name],
                    self.medium,
                    n_runs=n_runs,
                    seed=derive(ctx.seed, f"{self.name}/{r}/calibrate/{name}"),
                )
                ctx.add_phase("calibrate_s", ctx.now() - start)
        if "arena-hard" not in refs:
            return
        paths = {}
        for name, ref in refs.items():
            path = os.path.join(ctx.workdir, f"ref-{name}.json")
            with ctx.operation(f"reference round-trip {name}") as op:
                reference_mod.save_reference(ref, path)
                loaded = reference_mod.load_reference(path)
                with ctx.untimed():
                    op.expect(
                        loaded.window_len == ref.window_len and loaded.curves == ref.curves,
                        f"reference {name} did not reload with the same curves",
                    )
                paths[name] = path
        if "arena-hard" not in paths:
            return
        seeds = [
            derive(ctx.seed, f"{self.name}/{r}/experiment/{k}")
            for k in range(BATCH_SEEDS_PER_CELL)
        ]
        spec = experiment_mod.ExperimentSpec(
            config="arena-hard",
            bots=list(BATCH_BOTS),
            models=list(BATCH_MODELS),
            seeds=seeds,
            ref=paths["arena-hard"],
            save_traces=False,
        )
        out_dir = os.path.join(ctx.workdir, "experiment")
        with ctx.operation("experiment arena-hard") as op:
            start = ctx.now()
            experiment_mod.run_experiment(spec, out_dir)
            ctx.add_phase("experiment_s", ctx.now() - start)
            with ctx.untimed():
                with open(os.path.join(out_dir, "runs.csv"), newline="") as fh:
                    n_rows = sum(1 for _ in csv.DictReader(fh))
                expected = len(BATCH_BOTS) * len(BATCH_MODELS) * len(seeds)
                op.expect(
                    n_rows == expected,
                    f"runs.csv has {n_rows} rows, expected one per run ({expected})",
                )


WORKLOADS = {w.name: w for w in (ArenaGrid, DuelLadder, BatchCalibrate)}
