"""Arena simulator: deterministic timelines, factor table, traces.

The timeline tests pin the tick arithmetic with probability-1 configs,
where every roll is forced and the whole battle can be computed by hand.
"""

from __future__ import annotations

import pytest

from ddakit.errors import ConfigError
from ddakit.sim.arena import FactorTable, run_episode
from ddakit.sim.config import (
    BOTS,
    BotProfile,
    DdaSection,
    EnemyTemplate,
    GameConfig,
    arena,
    default_factors,
    default_weights,
    duel,
)
from ddakit.sim.trace import EpisodeTrace


def sure_config(**kw):
    """A config with no randomness left: hit chances 0 or 1, no drops."""
    kw.setdefault("name", "sure")
    kw.setdefault("waves", 1)
    kw.setdefault("wave_interval", 5)
    kw.setdefault("respawn_delay", 10)
    kw.setdefault("player_max_hp", 35.0)
    kw.setdefault("player_damage", 10.0)
    kw.setdefault("potion_drop_prob", 0.0)
    kw.setdefault("crit_prob", 0.0)
    kw.setdefault("max_ticks", 5_000)
    kw.setdefault("window_len", 1_000)
    kw.setdefault(
        "enemies",
        (EnemyTemplate("dummy", 1000.0, 10.0, 5, 1.0, 1),),
    )
    kw.setdefault("dda", DdaSection(weights=default_weights()))
    return GameConfig(**kw)


IDLER = BotProfile("idler", accuracy=0.0, evade_prob=0.0, attack_interval=7, potion_threshold=0.0)
SLAYER = BotProfile("slayer", accuracy=1.0, evade_prob=0.0, attack_interval=3, potion_threshold=0.0)


# -- factor table ----------------------------------------------------------


def test_factor_table_clamps_and_flags():
    table = FactorTable(default_factors())
    assert table.get("enemy_damage") == 1.0
    table.set("enemy_damage", 99.0)
    assert table.get("enemy_damage") == 3.0  # upper bound

    assert table.consume_flag("potion_next_kill") is False
    table.set("potion_next_kill", 1.0)
    assert table.consume_flag("potion_next_kill") is True
    assert table.get("potion_next_kill") == 0.0  # one-shot resets itself

    table.set("potion_drop_prob", 2.0)
    snap = table.snapshot()
    snap["potion_drop_prob"] = 0.0
    assert table.get("potion_drop_prob") == 2.0  # snapshot is a copy

    with pytest.raises(KeyError):
        table.get("nope")


def test_flag_without_one_shot_persists():
    specs = default_factors()
    table = FactorTable(specs)
    table.set("enemy_damage", 1.0)  # not a flag, but exercise >= 0.5 path
    assert table.consume_flag("enemy_damage") is True
    assert table.get("enemy_damage") == 1.0  # one_shot is False: no reset


# -- hand-computed timelines --------------------------------------------------


def test_enemy_first_attack_lands_interval_after_spawn():
    """35 hp facing a sure-hit 10-damage enemy swinging every 5 ticks.

    Spawn at 0, attacks at 5/10/15/20, death on the fourth hit.
    """
    trace = run_episode(sure_config(), IDLER, seed=0)
    hits = trace.records_of_type("hit")
    assert [h["tick"] for h in hits] == [5, 10, 15, 20]
    assert all(h["amount"] == 10.0 for h in hits)
    (death,) = trace.records_of_type("death")
    assert death["tick"] == 20
    assert death["by"] == "dummy#0.0"

    (enc,) = trace.records_of_type("encounter")
    # The idler never scratched the wave: a decisive loss.
    assert enc["win"] is False
    assert enc["p"] == 0.0
    assert enc["a"] == 1.0
    assert enc["ticks"] is None

    (outcome,) = trace.records_of_type("outcome")
    assert outcome["deaths"] == 1
    assert outcome["cleared"] == 0
    assert outcome["encounters"] == 1
    assert outcome["truncated"] is False


def test_respawn_and_second_wave_timing():
    # Death at 20; respawn delay 10 and wave interval 5 mean the player
    # returns at tick 30 and the fresh wave spawns the same tick.
    trace = run_episode(sure_config(waves=2), IDLER, seed=0)
    (respawn,) = trace.records_of_type("respawn")
    assert respawn["tick"] == 30
    spawns = trace.records_of_type("spawn")
    assert [s["tick"] for s in spawns] == [0, 30]
    deaths = trace.records_of_type("death")
    assert [d["tick"] for d in deaths] == [20, 50]


def test_player_attack_cadence_and_wave_clear_score():
    # Slayer hits every 3 ticks for 10; two 10-hp enemies die at ticks 3
    # and 6, before the hunters (interval 5... the first enemy swing at 5
    # is rolled only if someone is alive; enemy 2 still is, and it misses
    # never: hit_prob 1 means the player takes one 10-point hit at 5).
    config = sure_config(
        enemies=(EnemyTemplate("pair", 10.0, 10.0, 5, 1.0, 2),),
        player_max_hp=100.0,
    )
    trace = run_episode(config, SLAYER, seed=0)
    kills = trace.records_of_type("kill")
    assert [k["tick"] for k in kills] == [3, 6]
    enemy_hits = [h for h in trace.records_of_type("hit") if h["src"] != "player"]
    assert [h["tick"] for h in enemy_hits] == [5]

    (clear,) = trace.records_of_type("wave_clear")
    assert clear["tick"] == 6
    assert clear["ticks"] == 6
    (enc,) = trace.records_of_type("encounter")
    assert enc["win"] is True
    # 90/100 health left: p = 0.5 + 0.5 * 0.9.
    assert enc["p"] == pytest.approx(0.95)
    assert enc["a"] == pytest.approx(0.05)
    assert enc["ticks"] == 6
    (outcome,) = trace.records_of_type("outcome")
    assert outcome["final_hp"] == 90.0


def test_death_scores_partial_wave_damage():
    # Two sure-hit tanks volley 20 damage at ticks 5 and 10, killing the
    # 35-hp slayer on the second volley after it landed hits at 3, 6, 9.
    config = sure_config(
        enemies=(EnemyTemplate("tank", 1000.0, 10.0, 5, 1.0, 2),),
        player_max_hp=35.0,
    )
    trace = run_episode(config, SLAYER, seed=0)
    (death,) = trace.records_of_type("death")
    assert death["tick"] == 10
    (enc,) = trace.records_of_type("encounter")
    destroyed = 30.0 / 2000.0
    assert enc["p"] == pytest.approx(0.5 * destroyed)
    assert enc["a"] == pytest.approx(1.0 - 0.5 * destroyed)


def test_potion_drop_and_use():
    # First kill at tick 3 stocks one potion (drop chance 1). The second
    # enemy's hit at tick 4 drags the drinker to 16 hp, under its 50%
    # threshold, so it drinks the same tick and heals to full (capped 24).
    config = sure_config(
        enemies=(EnemyTemplate("soft", 10.0, 8.0, 2, 1.0, 2),),
        player_max_hp=40.0,
        potion_drop_prob=1.0,
        potion_heal=30.0,
        waves=1,
    )
    drinker = BotProfile("drinker", 1.0, 0.0, 3, potion_threshold=0.5)
    trace = run_episode(config, drinker, seed=0)
    drops = trace.records_of_type("potion_drop")
    assert len(drops) == 2, "guaranteed drop on every kill"
    (used,) = trace.records_of_type("potion_used")
    assert used["tick"] == 4
    assert used["heal"] == 24.0
    (outcome,) = trace.records_of_type("outcome")
    # Conservation: every drop is either drunk or still in the stash.
    assert len(drops) == 1 + outcome["potions_left"]
    assert outcome["potions_left"] == 1


def test_potion_stash_is_lost_on_death():
    # Wave 0 is a free kill with a guaranteed drop; wave 1 is unwinnable.
    # The non-drinking bot must not carry the potion through death.
    config = sure_config(
        waves=2,
        potion_drop_prob=1.0,
        enemies=(
            EnemyTemplate("gift", 10.0, 0.0, 50, 0.0, 1),
            EnemyTemplate("wall", 100000.0, 35.0, 2, 1.0, 1),
        ),
    )
    trace = run_episode(config, SLAYER, seed=0)
    assert len(trace.records_of_type("potion_drop")) == 1
    assert trace.records_of_type("potion_used") == []
    (outcome,) = trace.records_of_type("outcome")
    assert outcome["deaths"] == 1
    assert outcome["potions_left"] == 0


def test_pacifist_never_attacks():
    trace = run_episode(sure_config(), BOTS["pacifist"], seed=4)
    assert not any(
        h["src"] == "player" for h in trace.records_of_type("hit")
    )
    assert trace.records_of_type("kill") == []


def test_truncation_at_max_ticks():
    config = sure_config(max_ticks=12, window_len=2_000)
    trace = run_episode(config, IDLER, seed=0)
    (outcome,) = trace.records_of_type("outcome")
    assert outcome["truncated"] is True
    assert outcome["tick"] == 12


# -- trace mechanics -----------------------------------------------------------


def test_trace_structure_and_window_cadence():
    config = sure_config(waves=3, window_len=25)
    trace = run_episode(config, IDLER, seed=1)
    assert trace.records[0]["t"] == "header"
    assert trace.records[-1]["t"] == "outcome"
    header = trace.header
    assert header["seed"] == 1
    assert header["model"] == "off"
    assert header["bot"]["name"] == "idler"
    assert header["config"]["name"] == "sure"

    windows = trace.records_of_type("window")
    assert windows, "windows close during the episode"
    assert all(w["tick"] % 25 == 0 for w in windows)
    ticks = [w["tick"] for w in windows]
    assert ticks == sorted(set(ticks))
    assert set(windows[0]["vars"]) == {v.var_id for v in config.variables}


def test_trace_round_trip_and_errors(tmp_path):
    trace = run_episode(sure_config(), IDLER, seed=2)
    path = tmp_path / "episode.jsonl"
    trace.save(path)
    loaded = EpisodeTrace.load(path)
    assert loaded.records == trace.records

    with pytest.raises(ConfigError, match="not found"):
        EpisodeTrace.load(tmp_path / "missing.jsonl")

    mangled = tmp_path / "mangled.jsonl"
    mangled.write_text('{"t": "header", "v": 1}\nnot json\n')
    with pytest.raises(ConfigError, match="not valid JSON"):
        EpisodeTrace.load(mangled)

    wrong = tmp_path / "wrong.jsonl"
    wrong.write_text('{"t": "header", "v": 999}\n')
    with pytest.raises(ConfigError, match="unsupported trace schema"):
        EpisodeTrace.load(wrong)

    headless = tmp_path / "headless.jsonl"
    headless.write_text('{"t": "outcome"}\n')
    with pytest.raises(ConfigError, match="no header"):
        EpisodeTrace.load(headless)


def test_same_seed_same_bytes_different_seed_differs():
    config = arena().replacing(waves=2, max_ticks=30_000)
    bot = BOTS["medium"]
    a = run_episode(config, bot, seed=42).dumps()
    b = run_episode(config, bot, seed=42).dumps()
    c = run_episode(config, bot, seed=43).dumps()
    assert a == b
    assert a != c


def test_engine_window_mismatch_is_refused():
    from ddakit.engine import DdaEngine

    config = sure_config()
    engine = DdaEngine.from_config(config, model="off")
    engine.window_len = 123
    with pytest.raises(ConfigError, match="window_len"):
        run_episode(config, IDLER, seed=0, engine=engine)


def test_engine_cannot_be_reused_across_episodes():
    from ddakit.engine import DdaEngine

    config = sure_config()
    engine = DdaEngine.from_config(config, model="off")
    engine.window_len = config.window_len
    run_episode(config, IDLER, seed=0, engine=engine)
    with pytest.raises(ConfigError, match="already bound"):
        run_episode(config, IDLER, seed=0, engine=engine)


def test_reference_window_mismatch_is_refused():
    from ddakit.engine import DdaEngine
    from ddakit.reference import ReferenceSet

    config = sure_config()
    refs = ReferenceSet(window_len=500)
    engine = DdaEngine.from_config(config, model="off", references=refs)
    with pytest.raises(ConfigError, match="reference window_len 500"):
        run_episode(config, IDLER, seed=0, engine=engine)


# -- next-event advance ---------------------------------------------------------


def test_quiet_ticks_are_skipped():
    """Engine and health sampler are only called on ticks where something happens."""
    from ddakit.engine import DdaEngine

    config = duel().replacing(waves=60)
    engine = DdaEngine.from_config(config, model="off")
    calls = {"on_tick": 0, "sample_permanent": 0}

    def counting(obj, name):
        inner = getattr(obj, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        setattr(obj, name, wrapper)

    counting(engine, "on_tick")
    counting(engine.tracker, "sample_permanent")
    trace = run_episode(config, BOTS["medium"], seed=1, engine=engine)
    (outcome,) = trace.records_of_type("outcome")
    assert outcome["truncated"] is False
    assert 0 < calls["on_tick"] <= outcome["tick"] / 10
    assert 0 < calls["sample_permanent"] <= outcome["tick"] / 10
