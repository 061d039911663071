"""End-to-end acceptance checks for the toolkit.

Each test pins its tolerances and a wall-clock budget, and prints one
summary line with the measured numbers so a ``pytest -v -s`` run reads
as a checklist. The scenario thresholds (occupancy targets, win-rate
bands, seed pass counts) were tuned once against the stock presets and
are frozen here as contract.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
import time

import numpy as np
import pytest

from conftest import DictFactors
from ddakit.adjustment import (
    ChangeKind,
    ChangeQueue,
    ChangeRequest,
    DrainContext,
    QueuePolicy,
    Visibility,
    admits,
)
from ddakit.assessment import (
    DIFFICULTY_BAND,
    PERFORMANCE_BAND,
    FlowClass,
    classify_flow,
    difficulty_ratio,
    ease,
)
from ddakit.cli import main
from ddakit.engine import DdaEngine
from ddakit.models.dscript import (
    Regime,
    Rule,
    RuleBase,
    Script,
    generate_script,
    update_weights,
)
from ddakit.models.probabilistic import (
    AttackProfile,
    PlayerSnapshot,
    ZoneSpec,
    expected_outcome,
)
from ddakit.reference import calibrate
from ddakit.rng import Stream, derive_seed
from ddakit.sim.arena import run_episode
from ddakit.sim.config import arena, arena_hard, duel, resolve_bot
from ddakit.telemetry import Orientation


def report_line(label: str, detail: str, elapsed: float, budget: float) -> None:
    print(f"{label}: {detail} ({elapsed:.1f}s of {budget:.0f}s budget)")


# ---------------------------------------------------------------------------


def test_difficulty_identities_hold_on_random_inputs():
    budget, start = 1.0, time.perf_counter()
    rng = random.Random(2001)
    for _ in range(10_000):
        d = rng.uniform(1e-3, 2_000.0)
        z = rng.uniform(-500.0, 1_500.0)
        n = rng.uniform(-500.0, 2_500.0)
        dv = difficulty_ratio(n, z, d)
        assert 0.0 <= dv.value <= 1.0
        assert dv.value + ease(dv.value) == 1.0  # exact, not approx

    assert DIFFICULTY_BAND.lower == 0.4 and DIFFICULTY_BAND.upper == 0.6
    assert PERFORMANCE_BAND.lower == 0.8 and PERFORMANCE_BAND.upper == 1.2
    harder, easier = Orientation.HIGHER_IS_HARDER, Orientation.HIGHER_IS_EASIER
    diff_calls = [
        (0.39, FlowClass.TOO_EASY),
        (0.4, FlowClass.IN_FLOW),
        (0.6, FlowClass.IN_FLOW),
        (0.61, FlowClass.TOO_HARD),
    ]
    for value, expected in diff_calls:
        assert classify_flow(value, DIFFICULTY_BAND, harder) is expected
    ratio_calls = [
        (0.79, FlowClass.TOO_HARD),
        (0.8, FlowClass.IN_FLOW),
        (1.2, FlowClass.IN_FLOW),
        (1.21, FlowClass.TOO_EASY),
    ]
    for value, expected in ratio_calls:
        assert classify_flow(value, PERFORMANCE_BAND, easier) is expected

    elapsed = time.perf_counter() - start
    assert elapsed < budget
    report_line(
        "identities", "10000 random triples, 8 band edge checks", elapsed, budget
    )


# ---------------------------------------------------------------------------


def _random_zone(rng: random.Random, index: int) -> tuple[ZoneSpec, PlayerSnapshot]:
    """A zone whose joint outcome space stays walkable (<= 1e4 combos)."""
    while True:
        groups = []
        for _ in range(rng.randint(1, 2)):
            n_out = rng.randint(2, 3)
            raw = [rng.uniform(0.05, 1.0) for _ in range(n_out)]
            total = sum(raw)
            probs = [r / total for r in raw]
            probs[-1] = 1.0 - sum(probs[:-1])
            dmgs = rng.sample(range(0, 30), n_out)
            groups.append(
                AttackProfile(
                    rng.randint(1, 2),
                    rng.randint(1, 3),
                    tuple((probs[k], float(dmgs[k])) for k in range(n_out)),
                )
            )
        player = PlayerSnapshot(
            80.0, 100.0, evade_prob=rng.choice([0.0, 0.0, 0.25, 0.4])
        )
        combos = math.prod(
            len(_fold_evasion(g, player.evade_prob)) ** (g.count * g.attacks_each)
            for g in groups
        )
        if combos <= 10_000:
            return ZoneSpec(f"zone{index}", tuple(groups)), player


def _fold_evasion(group: AttackProfile, evade: float) -> list[tuple[float, float]]:
    """One attack's (probability, damage) pairs with evasion moved to a miss."""
    if evade <= 0.0:
        return list(group.outcomes)
    folded: list[tuple[float, float]] = []
    dodged = 0.0
    for p, dmg in group.outcomes:
        if dmg == 0.0:
            dodged += p
        else:
            folded.append((p * (1.0 - evade), dmg))
            dodged += p * evade
    folded.append((dodged, 0.0))
    return folded


def _literal_expectation(zone: ZoneSpec, player: PlayerSnapshot) -> float:
    """Walk every joint outcome with plain loops; nothing shared with ddakit."""
    slots: list[list[tuple[float, float]]] = []
    for group in zone.groups:
        folded = _fold_evasion(group, player.evade_prob)
        for _ in range(group.count * group.attacks_each):
            slots.append(folded)
    terms = []
    for combo in itertools.product(*slots):
        prob = 1.0
        damage = 0.0
        for p, dmg in combo:
            prob *= p
            damage += dmg
        terms.append(prob * damage)
    # The walk is the oracle; the final reduction just has to be exact.
    return math.fsum(terms)


def _monte_carlo_expectation(
    zone: ZoneSpec, player: PlayerSnapshot, n_samples: int, seed: int
) -> tuple[float, float]:
    """Sample each group's outcome histogram; return (mean, standard error)."""
    rng = np.random.default_rng(seed)
    totals = np.zeros(n_samples)
    for group in zone.groups:
        folded = _fold_evasion(group, player.evade_prob)
        probs = np.array([p for p, _ in folded])
        dmgs = np.array([d for _, d in folded])
        counts = rng.multinomial(
            group.count * group.attacks_each, probs / probs.sum(), size=n_samples
        )
        totals += counts @ dmgs
    return float(totals.mean()), float(totals.std(ddof=1) / math.sqrt(n_samples))


def test_enumeration_matches_brute_force_and_monte_carlo():
    budget, start = 60.0, time.perf_counter()
    rng = random.Random(909)
    worst_gap = 0.0
    worst_pull = 0.0
    for i in range(50):
        zone, player = _random_zone(rng, i)
        exact = expected_outcome(zone, player)
        literal = _literal_expectation(zone, player)
        gap = abs(exact.value - literal)
        assert gap <= 1e-12
        worst_gap = max(worst_gap, gap)

        mc_mean, mc_stderr = _monte_carlo_expectation(
            zone, player, 1_000_000, derive_seed(909, f"zone/{i}")
        )
        assert mc_stderr > 0.0
        pull = abs(mc_mean - exact.value) / mc_stderr
        assert pull <= 3.0
        worst_pull = max(worst_pull, pull)

    elapsed = time.perf_counter() - start
    assert elapsed < budget
    report_line(
        "expectation",
        f"50 zones, worst |closed-brute|={worst_gap:.2e}, "
        f"worst MC pull={worst_pull:.2f} stderr",
        elapsed,
        budget,
    )


# ---------------------------------------------------------------------------


def test_weight_updates_conserve_mass_and_respect_bounds():
    budget, start = 30.0, time.perf_counter()
    rng = random.Random(31)
    floor = 0.05
    for _ in range(10_000):
        k = rng.randint(4, 12)
        cap = rng.choice([2.0, 5.0])
        ids = [f"r{j}" for j in range(k)]
        weights = {rid: rng.uniform(floor, cap) for rid in ids}
        base = RuleBase(
            "squad", tuple(Rule(rid) for rid in ids), weights, floor, cap
        )
        script = Script("squad", tuple(rng.sample(ids, rng.randint(1, k - 1))))
        updated = update_weights(
            base,
            script,
            rng.random(),
            learning_limit=rng.uniform(0.05, 1.0),
            regime=Regime.CLIPPING,
        )
        before = sum(weights.values())
        after = sum(updated.weights.values())
        assert abs(after - before) <= 1e-9
        for w in updated.weights.values():
            assert floor - 1e-12 <= w <= cap + 1e-12

    hot = {"hot_a": 6.0, "hot_b": 7.5}
    cool = {f"cool{j}": 1.0 for j in range(6)}
    culling_base = RuleBase(
        "squad",
        tuple(Rule(rid) for rid in [*hot, *cool]),
        {**hot, **cool},
        floor,
        5.0,
    )
    stream = Stream(13, "culling")
    over_cap_draws = 0
    for _ in range(100_000):
        script = generate_script(culling_base, 3, Regime.TOP_CULLING, stream)
        over_cap_draws += sum(1 for rid in script.rule_ids if rid in hot)
    assert over_cap_draws == 0

    elapsed = time.perf_counter() - start
    assert elapsed < budget
    report_line(
        "weight updates",
        "10000 random updates conserved, 100000 culled draws clean",
        elapsed,
        budget,
    )


# ---------------------------------------------------------------------------

ALL_CONTEXTS = (
    DrainContext.SUBTLE_WINDOW,
    DrainContext.UNSEEN_ZONE,
    DrainContext.SCENE_CHANGE,
    DrainContext.PLAYER_DEAD,
)

ADMISSION = {
    Visibility.SUBTLE_ANYTIME: set(ALL_CONTEXTS),
    Visibility.UNSEEN_ZONE: {
        DrainContext.UNSEEN_ZONE,
        DrainContext.SCENE_CHANGE,
        DrainContext.PLAYER_DEAD,
    },
    Visibility.REQUIRES_BREAK: {
        DrainContext.SCENE_CHANGE,
        DrainContext.PLAYER_DEAD,
    },
}


def test_admission_table_and_queue_operations():
    budget, start = 10.0, time.perf_counter()
    checks = 0
    for visibility, allowed in ADMISSION.items():
        for context in ALL_CONTEXTS:
            assert admits(visibility, context) is (context in allowed)
            checks += 1
    assert checks == 12

    policy = QueuePolicy(
        min_ticks_between_executions=50,
        max_changes_per_update=3,
        max_changes_per_stage=7,
    )
    queue = ChangeQueue()
    factors = DictFactors({f"f{j}": 1.0 for j in range(6)})
    rng = random.Random(747)
    visibility_of: dict[str, Visibility] = {}
    stage_used = 0
    last_apply: int | None = None
    now = 0
    applied_total = 0
    for _ in range(10_000):
        roll = rng.random()
        if roll < 0.55:
            tag = f"tag{rng.randint(0, 9)}"
            visibility = rng.choice(list(ADMISSION))
            queue.enqueue(
                ChangeRequest(
                    tag,
                    f"f{rng.randint(0, 5)}",
                    rng.choice((ChangeKind.SET, ChangeKind.ADDITIVE)),
                    rng.uniform(-0.5, 2.0),
                    (0.0, 5.0),
                    visibility,
                    now,
                )
            )
            visibility_of[tag] = visibility
        elif roll < 0.93:
            now += rng.randint(0, 40)
            context = rng.choice(ALL_CONTEXTS)
            result = queue.drain(context, now, policy, factors)
            if result.gated:
                assert not result.applied and not result.dropped
                continue
            assert len(result.applied) <= policy.max_changes_per_update
            tags = [a.tag for a in result.applied]
            assert len(tags) == len(set(tags))  # one pending change per tag
            for applied in result.applied:
                assert admits(visibility_of[applied.tag], context)
            if result.applied:
                assert last_apply is None or (
                    now - last_apply >= policy.min_ticks_between_executions
                )
                last_apply = now
            stage_used += len(result.applied)
            applied_total += len(result.applied)
            assert stage_used <= policy.max_changes_per_stage
        else:
            queue.reset_stage()
            stage_used = 0

    elapsed = time.perf_counter() - start
    assert elapsed < budget
    report_line(
        "queue contract",
        f"12 admission rows, 10000 random ops, {applied_total} applies",
        elapsed,
        budget,
    )


# ---------------------------------------------------------------------------


def test_traces_are_byte_identical_across_reruns(tmp_path):
    budget, start = 30.0, time.perf_counter()
    import json

    cfg = arena().replacing(waves=2, wave_interval=60, window_len=120, max_ticks=20_000)
    cfg_path = tmp_path / "small.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    ref_path = tmp_path / "ref.json"
    assert main(
        ["calibrate", "--config", str(cfg_path), "--bot", "medium", "--runs", "2",
         "--seed", "1", "--out", str(ref_path)]
    ) == 0

    pairs = 0
    for model in ("off", "metrics", "probabilistic", "dscript"):
        for seed in (0, 1, 2):
            blobs = []
            for attempt in ("a", "b"):
                out = tmp_path / f"{model}_{seed}_{attempt}.jsonl"
                code = main(
                    ["run", "--config", str(cfg_path), "--bot", "medium",
                     "--model", model, "--ref", str(ref_path),
                     "--seed", str(seed), "--out", str(out)]
                )
                assert code == 0
                blobs.append(out.read_bytes())
            assert blobs[0] and blobs[0] == blobs[1]
            pairs += 1

    elapsed = time.perf_counter() - start
    assert elapsed < budget
    report_line(
        "determinism", f"{pairs} model/seed pairs byte-identical", elapsed, budget
    )


# ---------------------------------------------------------------------------


def test_medium_bot_calibration_centers_performance():
    budget, start = 300.0, time.perf_counter()
    config = arena()
    bot = resolve_bot("medium")
    references = calibrate(config, bot, n_runs=200, seed=77)

    episode_means = []
    for seed in range(1000, 1020):
        engine = DdaEngine.from_config(config, references=references)
        trace = run_episode(config, bot, seed=seed, engine=engine)
        values = [
            a["mean_performance"]
            for a in trace.records_of_type("assessment")
            if a["mean_performance"] is not None
        ]
        assert values, f"seed {seed}: no assessed windows"
        episode_means.append(sum(values) / len(values))
    grand = sum(episode_means) / len(episode_means)
    assert 0.9 <= grand <= 1.1

    elapsed = time.perf_counter() - start
    assert elapsed < budget
    report_line(
        "calibration",
        f"grand mean performance {grand:.3f} over 20 fresh seeds",
        elapsed,
        budget,
    )


# ---------------------------------------------------------------------------


def _occupancy(trace, warmup: int = 10) -> float:
    diffs = [
        a["global_difficulty"] for a in trace.records_of_type("assessment")
    ][warmup:]
    assert diffs, "episode too short for post-warm-up windows"
    inside = sum(1 for d in diffs if 0.4 <= d <= 0.6)
    return inside / len(diffs)


def test_adjustment_recovers_flow_for_novice_on_hard_config():
    budget, start = 300.0, time.perf_counter()
    references = calibrate(
        arena_hard().replacing(waves=40), resolve_bot("medium"), n_runs=30, seed=2026
    )
    config = arena_hard().replacing(waves=600, max_ticks=300_000)
    novice = resolve_bot("novice")

    passes = 0
    cells = []
    for seed in range(10):
        occ = {}
        for model in ("off", "metrics"):
            engine = DdaEngine.from_config(config, model=model, references=references)
            trace = run_episode(config, novice, seed=seed, engine=engine)
            occ[model] = _occupancy(trace)
        ok = occ["metrics"] >= 0.5 and occ["metrics"] >= 2 * occ["off"]
        passes += ok
        cells.append(f"{occ['off']:.2f}->{occ['metrics']:.2f}")
    assert passes >= 8, f"only {passes}/10 seeds improved: {cells}"

    elapsed = time.perf_counter() - start
    assert elapsed < budget
    report_line(
        "flow recovery", f"{passes}/10 seeds, off->on occupancy {cells}",
        elapsed, budget,
    )


# ---------------------------------------------------------------------------


def _win_series(trace) -> list[int]:
    return [1 if r["win"] else 0 for r in trace.records_of_type("encounter")]


def test_scripting_difference_min_balances_win_rate():
    budget, start = 600.0, time.perf_counter()
    config = duel()
    medium = resolve_bot("medium")

    balanced = 0
    for seed in range(20):
        engine = DdaEngine.from_config(config, model="dscript")
        wins = _win_series(run_episode(config, medium, seed=seed, engine=engine))
        assert len(wins) == config.waves
        sums = list(itertools.accumulate(wins, initial=0))
        rolls = [
            (sums[i] - sums[i - 100]) / 100 for i in range(300, len(wins) + 1)
        ]
        if all(0.4 <= r <= 0.6 for r in rolls):
            balanced += 1
    assert balanced >= 16, f"only {balanced}/20 seeds stayed in [0.4, 0.6]"

    # With a maximizing fitness and the cap effectively removed, the squad
    # runs away with it instead of holding the balance.
    runaway = dataclasses.replace(
        config.dda, dscript=dataclasses.replace(config.dda.dscript, weight_cap=1e9)
    )
    harsh = config.replacing(dda=runaway)
    finals = []
    for seed in range(5):
        engine = DdaEngine.from_config(harsh, model="dscript", fitness="maximize")
        wins = _win_series(run_episode(harsh, medium, seed=seed, engine=engine))
        finals.append(sum(wins[-100:]) / 100)
    assert all(f < 0.4 for f in finals), finals

    elapsed = time.perf_counter() - start
    assert elapsed < budget
    report_line(
        "script balance",
        f"{balanced}/20 balanced seeds; maximize finals {finals}",
        elapsed,
        budget,
    )


# ---------------------------------------------------------------------------


def test_plateau_decay_freezes_weight_churn():
    budget, start = 60.0, time.perf_counter()
    base = duel()
    floor = 0.02
    scripted = dataclasses.replace(
        base.dda,
        dscript=dataclasses.replace(
            base.dda.dscript, adrenaline=True, limit_floor=floor
        ),
    )
    config = base.replacing(waves=300, dda=scripted)
    engine = DdaEngine.from_config(config, model="dscript")
    trace = run_episode(config, resolve_bot("pacifist"), seed=0, engine=engine)

    records = trace.records_of_type("weights")
    assert len(records) == 300
    limits = [r["limit"] for r in records]
    assert limits[0] == 1.0 and limits[1] == 1.0  # decay needs a delta to compare
    for prev, nxt in zip(limits[1:], limits[2:]):
        assert nxt == pytest.approx(max(floor, prev * 0.9), rel=1e-6)
    assert limits[-1] == pytest.approx(floor)
    assert all(b <= a + 1e-12 for a, b in zip(limits, limits[1:]))

    previous = {rid: 1.0 for rid in records[0]["values"]}
    churn = []
    for record in records:
        values = record["values"]
        churn.append(max(abs(values[r] - previous[r]) for r in values))
        previous = values
    early = max(churn[1:21])
    late = max(churn[-50:])
    assert late < 0.1 * early, f"late churn {late:.4f} vs early max {early:.4f}"

    elapsed = time.perf_counter() - start
    assert elapsed < budget
    report_line(
        "plateau decay",
        f"limit {limits[0]:.2f}->{limits[-1]:.2f} geometric, "
        f"churn {early:.3f}->{late:.4f}",
        elapsed,
        budget,
    )
