"""The engine facade: wiring, window cadence, model hookups, drains."""

from __future__ import annotations

import pytest

from conftest import DictFactors
from ddakit.adjustment import ChangeRequest, ChangeKind, QueuePolicy, Visibility
from ddakit.engine import DdaEngine, ScriptingModel
from ddakit.errors import ConfigError
from ddakit.models.dscript import EncounterResult, FitnessMode, Regime
from ddakit.models.probabilistic import AttackProfile, PlayerSnapshot, ZoneSpec
from ddakit.reference import CurveSource, ReferenceCurve, ReferenceSet
from ddakit.sim.config import DdaSection, arena, default_weights, duel


def damage_refs(z=50.0, expected_at_600=50.0):
    curve = ReferenceCurve(
        var_id="damage_taken",
        points=((0, 0.0), (600, expected_at_600)),
        dispersion=(0.0, 0.0),
        z_per_window=z,
        source=CurveSource(kind="manual"),
    )
    return ReferenceSet(window_len=600, curves={"damage_taken": curve})


def bound_engine(model="off", references=None, config=None):
    config = config if config is not None else arena()
    engine = DdaEngine.from_config(config, model=model, references=references)
    factors = DictFactors({fid: spec.initial for fid, spec in config.factors.items()})
    engine.bind(factors, seed=0)
    return engine, factors


# -- construction ------------------------------------------------------------


def test_from_config_model_wiring():
    for model in ("off", "metrics", "probabilistic", "dscript"):
        engine = DdaEngine.from_config(arena(), model=model)
        assert engine.model_name == model
    with pytest.raises(ConfigError, match="unknown model"):
        DdaEngine.from_config(arena(), model="psychic")


def test_from_config_requires_model_sections():
    bare = arena().replacing(dda=DdaSection(weights=default_weights()))
    with pytest.raises(ConfigError, match="no metrics section"):
        DdaEngine.from_config(bare, model="metrics")
    with pytest.raises(ConfigError, match="no dscript section"):
        DdaEngine.from_config(bare, model="dscript")


def test_from_config_maps_fitness_and_regime():
    engine = DdaEngine.from_config(
        duel(), model="dscript", fitness="maximize", regime="topculling"
    )
    model = engine.model
    assert isinstance(model, ScriptingModel)
    assert model.fitness_mode is FitnessMode.MAXIMIZE
    assert model.regime is Regime.TOP_CULLING
    assert model.rulebase.weight_cap == duel().dda.dscript.weight_cap

    default = DdaEngine.from_config(duel(), model="dscript").model
    assert default.fitness_mode is FitnessMode.DIFFERENCE_MIN
    assert default.regime is Regime.CLIPPING


def test_from_config_copies_queue_policy():
    dda = arena().dda
    engine = DdaEngine.from_config(arena())
    assert engine.policy == QueuePolicy(
        dda.min_ticks_between_executions,
        dda.max_changes_per_update,
        dda.max_changes_per_stage,
    )


def test_bind_is_single_use():
    engine, factors = bound_engine()
    with pytest.raises(ConfigError, match="already bound"):
        engine.bind(factors, seed=1)


def test_unbound_engine_refuses_to_drain():
    engine = DdaEngine.from_config(arena())
    with pytest.raises(ConfigError, match="not bound"):
        engine.on_tick(600)


# -- window cadence and assessment ------------------------------------------


def test_on_tick_only_fires_on_the_window_boundary():
    engine, _ = bound_engine()
    assert engine.on_tick(0) == []
    assert engine.on_tick(599) == []
    records = engine.on_tick(600)
    assert [r["t"] for r in records] == ["window"]  # no references: no assessment


def test_observe_only_assesses_without_adjusting():
    engine, factors = bound_engine(references=damage_refs())
    engine.tracker.record_event("damage_taken", 470.0, 100)
    records = engine.on_tick(600)
    assert [r["t"] for r in records] == ["window", "assessment"]
    assessment = records[1]
    # (470 - 50) / 600 = 0.7 on the only weighted variable.
    assert assessment["global_difficulty"] == pytest.approx(0.7)
    assert assessment["vars"]["damage_taken"]["class"] == "too_hard"
    assert assessment["vars"]["damage_taken"]["performance"] == pytest.approx(470.0 / 50.0)
    assert factors.set_calls == []
    assert engine.last_proficiency == pytest.approx(0.3)
    assert engine.last_report is not None


def test_metrics_model_closes_the_loop():
    engine, factors = bound_engine(model="metrics", references=damage_refs())
    engine.tracker.record_event("damage_taken", 470.0, 100)
    records = engine.on_tick(600)
    kinds = [r["t"] for r in records]
    assert kinds == ["window", "assessment", "change_applied", "change_applied"]
    by_factor = {r["factor"]: r for r in records[2:]}
    # Too hard: enemy damage eases off, potions flow a little more.
    assert by_factor["enemy_damage"]["new"] == pytest.approx(0.94)
    assert by_factor["potion_drop_prob"]["new"] == pytest.approx(1.08)
    assert factors.values["enemy_damage"] == pytest.approx(0.94)
    assert factors.values["potion_drop_prob"] == pytest.approx(1.08)

    # A comfortable second window leaves the multipliers alone.
    engine.tracker.record_event("damage_taken", 320.0, 700)
    records = engine.on_tick(1200)
    assert [r["t"] for r in records] == ["window", "assessment"]
    assert records[1]["vars"]["damage_taken"]["class"] == "in_flow"


def test_probabilistic_model_previews_the_next_wave():
    engine, factors = bound_engine(model="probabilistic")
    zone = ZoneSpec(
        zone_id="wave1",
        groups=(AttackProfile(2, 2, ((0.5, 10.0), (0.5, 0.0))),),
    )
    player = PlayerSnapshot(health=100.0, max_health=100.0)
    records = engine.on_wave_break(500, zone, player)
    preview = records[0]
    assert preview.keys() == {"t", "tick", "zone", "expected", "survival"}
    assert preview["t"] == "zone_preview"
    assert preview["expected"] == pytest.approx(20.0)
    assert preview["survival"] == pytest.approx(0.8)
    # Survival 0.8 is far above the 0.4 band edge: harden both knobs.
    applied = {r["factor"]: r["new"] for r in records if r["t"] == "change_applied"}
    scale = 1.0 + 0.6 * (0.8 - 0.25)
    assert applied["enemy_damage"] == pytest.approx(scale)
    assert applied["enemy_count"] == pytest.approx(scale)
    assert factors.values["enemy_damage"] == pytest.approx(scale)


def test_wave_break_without_zone_just_drains():
    engine, _ = bound_engine(model="probabilistic")
    assert engine.on_wave_break(100, None, None) == []


def test_off_engine_has_no_scripts():
    engine, _ = bound_engine()
    assert engine.next_script() is None
    assert engine.on_encounter(EncounterResult(0.5, 0.5), None, 0, 0) == []


# -- scripting hooks -----------------------------------------------------------


def test_scripting_round_trip_and_weights_record():
    engine, _ = bound_engine(model="dscript", config=duel())
    script = engine.next_script()
    assert script is not None
    assert len(script.rule_ids) == duel().dda.dscript.script_size
    params = engine.script_params(script)
    assert len(params) == len(script.rule_ids)
    assert all("damage_mult" in p for p in params)

    records = engine.on_encounter(EncounterResult(1.0, 0.0), script, now=40, wave=0)
    (rec,) = records
    assert rec["t"] == "weights"
    assert rec["wave"] == 0
    assert rec["fitness"] == 0.0  # a rout is the worst balance score
    assert rec["limit"] == 1.0
    assert sum(rec["values"].values()) == pytest.approx(12.0)


def test_script_draws_are_seed_stable():
    e1, _ = bound_engine(model="dscript", config=duel())
    e2, _ = bound_engine(model="dscript", config=duel())
    assert e1.next_script() == e2.next_script()


def test_adrenaline_follows_the_config_switch():
    # duel disables the decay: the limit never moves.
    frozen, _ = bound_engine(model="dscript", config=duel())
    for _ in range(3):
        s = frozen.next_script()
        (rec,) = frozen.on_encounter(EncounterResult(1.0, 0.0), s, 0, 0)
        assert rec["limit"] == 1.0

    # arena keeps it: the second plateau starts the decay.
    engine, _ = bound_engine(model="dscript", config=arena())
    limits = []
    for _ in range(3):
        s = engine.next_script()
        (rec,) = engine.on_encounter(EncounterResult(0.9, 0.3), s, 0, 0)
        limits.append(rec["limit"])
    assert limits == [1.0, 1.0, pytest.approx(0.9)]


# -- drains at safe moments ------------------------------------------------------


def subtle(tag, amount):
    return ChangeRequest(
        tag, "enemy_damage", ChangeKind.SET, amount, (0.0, 5.0),
        Visibility.SUBTLE_ANYTIME, 0,
    )


def test_scene_change_resets_the_stage_budget():
    engine, _ = bound_engine()
    engine.policy = QueuePolicy(
        min_ticks_between_executions=0,
        max_changes_per_update=4,
        max_changes_per_stage=2,
    )
    for i in range(3):
        engine.queue.enqueue(subtle(f"t{i}", 1.0 + i))

    applied = engine.on_player_dead(10)
    assert len(applied) == 2  # stage budget caps the first drain

    # The scene change drains first (finding the stage spent)...
    assert engine.on_scene_change(11) == []
    # ...then opens a new stage for the leftover request.
    assert len(engine.on_player_dead(12)) == 1
