"""Benchmark command for ddakit.

    python3 bench/run.py --workload arena-grid --seed 1 --seconds 30 --trace 0

Runs one workload (arena-grid, duel-ladder or batch-calibrate; see
bench/README.md) from the ``src/`` tree next to this directory, checks
the program's outputs, prints every metric by name with its unit, and
ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` measures the end-to-end metrics with only two thin wrappers
installed (one counts episodes, one times ``on_wave_break``) and reports
every timing at the reference host speed (``hostspeed.py``). ``--trace 1``
wraps every layer's public entry points in spans and reports per-layer
metrics instead; its spans are written to ``.bench_out/`` at the end.
The exit code is 0 when every check passed, 1 when one failed, 2 on bad
usage or when the ddakit sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
TAIL_BEYOND = 10

# name -> unit, in print order. The ones in BENCHMARK.json are the metrics
# every workload produces; the rest belong to one workload each.
END_TO_END = {
    "setup_s": "s",
    "episodes_per_s": "1/s",
    "sim_ticks_per_s": "1/s",
    "peak_rss_mb": "MB",
}
WORKLOAD_END_TO_END = {
    "arena-grid": {"wave_break_ms_p50": "ms", "wave_break_ms_tail": "ms"},
    "duel-ladder": {"trace_save_s": "s", "report_s": "s"},
    "batch-calibrate": {"calibrate_s": "s", "experiment_s": "s"},
}
# Per-layer metrics every workload produces (the JSON line under --trace 1).
PER_LAYER = {
    "sim.arena.self_s": "s",
    "sim.arena.ticks": "count",
    "sim.arena.records": "count",
    "engine.on_tick.calls": "count",
    "engine.on_tick.windows": "count",
    "engine.on_tick.useful_ratio": "ratio",
    "engine.on_tick.self_s": "s",
    "telemetry.sample_permanent.calls": "count",
    "telemetry.sample_permanent.accepted_ratio": "ratio",
    "telemetry.sample_permanent.s": "s",
    "telemetry.record_event.calls": "count",
    "telemetry.record_event.s": "s",
    "telemetry.close_window.s": "s",
    "assessment.evaluate.calls": "count",
    "assessment.evaluate.s": "s",
    "models.metrics.on_report.s": "s",
    "models.dscript.next_script.s": "s",
    "models.dscript.on_encounter.s": "s",
    "adjustment.drain.calls": "count",
    "adjustment.drain.gated": "count",
    "adjustment.drain.applied": "count",
    "adjustment.drain.s": "s",
    "trace_overhead": "x",
}
# Per-layer metrics of layers that run on one workload only.
WORKLOAD_PER_LAYER = {
    "arena-grid": {
        "models.probabilistic.on_zone.s": "s",
        "models.probabilistic.previews_enumerated": "count",
        "models.probabilistic.previews_monte_carlo": "count",
        "models.probabilistic.outcomes_walked": "count",
    },
    "duel-ladder": {
        "sim.trace.dumps.s": "s",
        "sim.trace.bytes": "bytes",
        "sim.trace.load.s": "s",
        "report.build_rows.s": "s",
    },
    "batch-calibrate": {
        "reference.calibrate.self_s": "s",
        "experiment.run_experiment.self_s": "s",
    },
}
# Counters printed on every workload that may legitimately stay at zero
# (only arena-grid replaces queued requests; nothing drops them today).
ZERO_OK = {"adjustment.enqueue.replaced": "count", "adjustment.drain.dropped": "count"}


def _import_ddakit():
    init = os.path.join(SRC, "ddakit", "__init__.py")
    if not os.path.isfile(init):
        print(
            f"error: ddakit sources not found at {os.path.relpath(init, os.getcwd())}; "
            "run the benchmark from a checkout of the repository",
            file=sys.stderr,
        )
        sys.exit(2)
    sys.path.insert(0, SRC)
    import ddakit

    if os.path.dirname(os.path.abspath(ddakit.__file__)) != os.path.join(SRC, "ddakit"):
        print(f"error: imported ddakit from {ddakit.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return ddakit


def machine(ddakit) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": _git_commit(),
        "ddakit": ddakit.__version__,
    }


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples above it: (value, percentile)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n


def _modules() -> SimpleNamespace:
    """The ddakit modules the wrappers patch."""
    from ddakit import adjustment, engine, experiment, reference, report, telemetry
    from ddakit.sim import arena, trace

    return SimpleNamespace(
        adjustment=adjustment,
        engine=engine,
        experiment=experiment,
        reference=reference,
        report=report,
        telemetry=telemetry,
        arena=arena,
        trace=trace,
    )


def _install_light(inst, ctx, modules) -> None:
    for owner in (modules.arena, modules.experiment):
        inst.replace(owner, "run_episode", ctx.wrap_run_episode)
    inst.replace(modules.engine.DdaEngine, "on_wave_break", ctx.wrap_wave_break)


@dataclass
class Round:
    """One round: host seconds, the part outside probabilistic on_wave_break
    calls, episodes, simulated ticks, the wave-break samples it added, and
    ``scale``, the factor that turns its timings into reference-speed ones."""

    seconds: float
    busy: float
    episodes: int
    ticks: int
    wave_breaks: range
    scale: float


def measure(workload, ctx, seconds: float, hostspeed) -> tuple[float, list[Round]]:
    """Run whole rounds until *seconds* have passed; returns (elapsed, rounds).

    The host-speed probe runs, untimed, before the first round and after
    each round; a round's scale comes from the probes on either side of it.
    """
    rounds: list[Round] = []
    with ctx.untimed():
        probe_before = hostspeed.probe()
    start = ctx.now()
    while True:
        ctx.round = len(rounds)
        t0, lat0, ep0, ticks0 = ctx.now(), len(ctx.wave_break_s), ctx.episodes, ctx.ticks
        workload.run_round(ctx, ctx.round)
        took = ctx.now() - t0
        with ctx.untimed():
            probe_after = hostspeed.probe()
        lat = range(lat0, len(ctx.wave_break_s))
        stall = sum(ctx.wave_break_s[i] for i in lat)
        scale = hostspeed.REFERENCE_S / ((probe_before + probe_after) / 2)
        rounds.append(Round(took, took - stall, ctx.episodes - ep0, ctx.ticks - ticks0,
                            lat, scale))
        probe_before = probe_after
        if ctx.now() - start >= seconds:
            return ctx.now() - start, rounds


def emit(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<44} {value:>16.6f} {unit:<6} {note}".rstrip())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ddakit = _import_ddakit()
    # Both import ddakit, so they load only once src/ is on the path.
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import hostspeed
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r} "
            f"(choose from {', '.join(workloads.WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        return _run(args, ddakit, hostspeed, spans, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass


def _run(args, ddakit, hostspeed, spans, workloads, workdir) -> int:
    traced = bool(args.trace)
    print(f"ddakit bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + json.dumps(machine(ddakit), sort_keys=True))

    workload = workloads.WORKLOADS[args.workload]()
    setup_times = []
    probes = [hostspeed.probe()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup(args.seed)
        setup_times.append(time.perf_counter() - start)
        probes.append(hostspeed.probe())
    setup_scales = [hostspeed.REFERENCE_S / ((a + b) / 2) for a, b in zip(probes, probes[1:])]

    modules = _modules()
    tracer = spans.Tracer() if traced else None
    ctx = workloads.Context(args.seed, workdir, tracer)
    inst = spans.Instruments()
    _install_light(inst, ctx, modules)
    if traced:
        spans.install_tracing(inst, tracer, modules, ctx)
        root = tracer.name_id(spans.ROOT)
        wall_start = time.perf_counter()
        tracer.push(root)
    try:
        elapsed, rounds = measure(workload, ctx, args.seconds, hostspeed)
    finally:
        if traced:
            tracer.pop()
            traced_wall = time.perf_counter() - wall_start
        inst.restore()

    if traced:
        # The same round 0, untraced, gives the tracing overhead.
        replay = workloads.Context(args.seed, workdir)
        _install_light(inst, replay, modules)
        try:
            probe_before = hostspeed.probe()
            start = replay.now()
            workload.run_round(replay, 0)
            untraced_round0 = replay.now() - start
            replay_scale = hostspeed.REFERENCE_S / ((probe_before + hostspeed.probe()) / 2)
        finally:
            inst.restore()
        ctx.attempted += replay.attempted
        ctx.failed += replay.failed
        ctx.failures += replay.failures

    ctx.rerun_first_episode()

    print(f"rounds: {len(rounds)} ({ctx.episodes} episodes) in {elapsed:.3f} s; "
          "per round: seconds/busy seconds/episodes/ticks/host speed "
          + " ".join(f"{r.seconds:.3f}/{r.busy:.4f}/{r.episodes}/{r.ticks}/{r.scale:.4f}"
                     for r in rounds))
    print(f"trace_digest: sha256:{ctx.digest.hexdigest()} "
          f"({ctx.digest_episodes} episodes of round 0)")

    metrics: dict[str, dict] = {}
    if not traced:
        # Time inside probabilistic on_wave_break calls is the wave-break
        # stall, reported on its own; the rates count the rest of the host
        # time. Every timing is scaled to the reference host speed
        # (hostspeed.py); the notes give the raw figures.
        busy = sum(r.busy for r in rounds)
        setup_raw = statistics.median(setup_times)
        eps_raw = statistics.median(r.episodes / r.busy for r in rounds)
        ticks_raw = statistics.median(r.ticks / r.busy for r in rounds)
        values = {
            "setup_s": statistics.median(t * k for t, k in zip(setup_times, setup_scales)),
            "episodes_per_s": statistics.median(r.episodes / (r.busy * r.scale) for r in rounds),
            "sim_ticks_per_s": statistics.median(r.ticks / (r.busy * r.scale) for r in rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        speed = statistics.median(r.scale for r in rounds)
        notes = {
            "setup_s": f"median of {SETUP_REPEATS}; raw {setup_raw:.3f} s",
            "episodes_per_s": f"median of {len(rounds)} rounds; raw {eps_raw:.4f}/s; "
            f"{ctx.episodes} episodes in {busy:.3f} s outside wave-break stalls, "
            f"raw {ctx.episodes / elapsed:.4f}/s over all {elapsed:.3f} s",
            "sim_ticks_per_s": f"median of {len(rounds)} rounds; raw {ticks_raw:.1f}/s; "
            f"{ctx.ticks} ticks, raw {ctx.ticks / elapsed:.1f}/s over all host time",
        }
        lat_raw = ctx.wave_break_s
        if lat_raw:
            lat = [lat_raw[i] * r.scale for r in rounds for i in r.wave_breaks]
            tail_s, tail_pct = tail(lat)
            values["wave_break_ms_p50"] = statistics.median(lat) * 1e3
            values["wave_break_ms_tail"] = tail_s * 1e3
            notes["wave_break_ms_p50"] = (f"{len(lat)} calls, probabilistic engines; "
                                          f"raw {statistics.median(lat_raw) * 1e3:.3f} ms")
            notes["wave_break_ms_tail"] = (f"p{tail_pct:.2f} of {len(lat)} calls; "
                                           f"raw {tail(lat_raw)[0] * 1e3:.3f} ms")
        for name, series in ctx.phases.items():
            values[name] = statistics.median(t * r.scale for t, r in zip(series, rounds))
            notes[name] = (f"median of {len(series)} per-round totals; "
                           f"raw {statistics.median(series):.3f} s")
        print(f"host speed: {speed:.3f} of reference (median over rounds; probe "
              f"{hostspeed.REFERENCE_S / speed:.4f} s, reference {hostspeed.REFERENCE_S} s)")
        print("end-to-end:")
        for name, unit in END_TO_END.items():
            emit(name, values[name], unit, notes.get(name, ""))
            metrics[name] = {"value": values[name], "unit": unit}
        for name, unit in WORKLOAD_END_TO_END[args.workload].items():
            if name in values:
                emit(name, values[name], unit, notes[name])
            else:
                ctx.expect(False, f"{name} was not measured")
        ratio = ctx.failed / ctx.attempted if ctx.attempted else math.nan
        emit("failed_ratio", ratio, "ratio", f"{ctx.failed} failed of {ctx.attempted} attempted")
    else:
        table = tracer.table()
        counts = tracer.counts

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        special = {
            "sim.arena.self_s": table["sim.arena.run_episode"]["self_s"],
            "sim.arena.ticks": ctx.ticks,
            "sim.arena.records": ctx.records,
            "engine.on_tick.useful_ratio": ratio(
                counts.get("engine.on_tick.windows", 0), table["engine.on_tick"]["calls"]
            ),
            "telemetry.sample_permanent.accepted_ratio": ratio(
                counts.get("telemetry.sample_permanent.accepted", 0),
                table["telemetry.sample_permanent"]["calls"],
            ),
            "trace_overhead": (rounds[0].seconds * rounds[0].scale)
            / (untraced_round0 * replay_scale),
        }

        def value(name: str) -> float:
            """A span's calls / s / self_s, else a counter, else a special."""
            if name in special:
                return special[name]
            span_name, _, field = name.rpartition(".")
            if span_name in table and field in ("calls", "s", "self_s"):
                return table[span_name][field]
            return counts.get(name, 0)

        values = {name: value(name) for name in
                  {**PER_LAYER, **WORKLOAD_PER_LAYER[args.workload], **ZERO_OK}}
        notes = {
            "trace_overhead": (f"round 0 at reference host speed; raw "
                               f"{rounds[0].seconds:.3f} s traced / "
                               f"{untraced_round0:.3f} s untraced"),
        }
        print("per-layer:")
        for name, unit in PER_LAYER.items():
            emit(name, values[name], unit, notes.get(name, ""))
            metrics[name] = {"value": values[name], "unit": unit}
        for name, unit in {**WORKLOAD_PER_LAYER[args.workload], **ZERO_OK}.items():
            emit(name, values[name], unit)

        print("spans (calls, inclusive s, self s):")
        layers: dict[str, float] = {}
        for name, row in sorted(table.items()):
            if not row["calls"]:
                continue
            print(f"  {name:<44} {row['calls']:>10d} {row['s']:>12.6f} {row['self_s']:>12.6f}")
            layer = spans.layer_of(name)
            layers[layer] = layers.get(layer, 0.0) + row["self_s"]
        total_self = sum(layers.values())
        print(f"layer self time (traced wall {traced_wall:.6f} s, "
              f"sum of self times {total_self:.6f} s):")
        for layer, value in sorted(layers.items(), key=lambda kv: -kv[1]):
            print(f"  {layer + '.self_s':<44} {value:>16.6f} s      "
                  f"{100 * value / traced_wall:5.1f}%")
        ctx.expect(
            abs(total_self - traced_wall) <= 0.05 * traced_wall,
            f"layer self times sum to {total_self:.3f} s, traced wall is {traced_wall:.3f} s",
        )
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        span_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(span_path)
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(span_path, ROOT)}, "
              f"{tracer.dropped} more counted but not stored")

    for failure in ctx.failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    correct = ctx.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
