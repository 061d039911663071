"""Wave-based arena combat driven by integer ticks and seeded streams.

One episode runs a bot player against successive enemy waves. Everything
random comes from per-purpose streams derived from the episode seed
(player rolls, enemy rolls, drops; the engine derives its own), so a rerun
with the same inputs reproduces the trace byte for byte. An encounter is
one wave and ends when the wave dies or the player does; the player's
death despawns the wave, so factor changes and new scripts always find a
fresh squad to apply to.

Time advances by next-event jumps rather than one tick at a time. After
each visited tick the loop computes the earliest tick where anything can
happen (a cooldown running out, a respawn or wave timer, an accepted
health sample, a potion due, a window boundary, ``max_ticks``), winds the
cooldowns over the quiet ticks in between and runs the same tick body
there. State changes and random draws happen only on visited ticks, so
the trace and the order of draws from every stream are exactly those of
stepping every tick.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine import DdaEngine
from ..errors import ConfigError
from ..models.dscript import EncounterResult, Script
from ..models.probabilistic import AttackProfile, PlayerSnapshot, ZoneSpec
from ..rng import Stream
from .config import BotProfile, FactorSpec, GameConfig
from .trace import TRACE_SCHEMA, EpisodeTrace

__all__ = ["FactorTable", "run_episode"]


def _r9(x: float) -> float:
    return round(float(x), 9)


def _clamp01(x: float) -> float:
    return min(max(x, 0.0), 1.0)


class FactorTable:
    """Live factor values for one episode, clamped to registry bounds."""

    def __init__(self, specs: dict[str, FactorSpec]) -> None:
        self._specs = specs
        self._values = {fid: spec.initial for fid, spec in specs.items()}

    def get(self, factor_id: str) -> float:
        return self._values[factor_id]

    def set(self, factor_id: str, value: float) -> None:
        spec = self._specs[factor_id]
        lo, hi = spec.bounds
        self._values[factor_id] = min(max(value, lo), hi)

    def consume_flag(self, factor_id: str) -> bool:
        """Read a gift flag; one-shot flags reset themselves when taken."""
        value = self._values.get(factor_id, 0.0)
        if value >= 0.5:
            if self._specs[factor_id].one_shot:
                self._values[factor_id] = 0.0
            return True
        return False

    def snapshot(self) -> dict[str, float]:
        return dict(self._values)


@dataclass(slots=True)
class _Enemy:
    tag: str
    hp: float
    damage: float
    attack_interval: int
    hit_prob: float
    skip_prob: float
    cooldown: int
    spawn_tick: int
    alive: bool = True


def run_episode(
    config: GameConfig,
    bot: BotProfile,
    seed: int,
    engine: DdaEngine | None = None,
    window_len: int | None = None,
) -> EpisodeTrace:
    """Run one seeded episode and return its trace.

    Without an explicit engine a passive one is built: telemetry windows
    still close and land in the trace, but nothing assesses or adjusts.
    Entities act starting the tick after they spawn, so a unit with attack
    interval k lands its first attack exactly k ticks after spawning.
    """
    wlen = window_len if window_len is not None else config.window_len
    if engine is None:
        engine = DdaEngine.from_config(config, model="off")
        engine.window_len = wlen
    elif engine.window_len != wlen:
        raise ConfigError(
            f"engine window_len {engine.window_len} != episode window_len {wlen}"
        )
    if engine.references is not None and engine.references.window_len != wlen:
        raise ConfigError(
            f"reference window_len {engine.references.window_len} != "
            f"episode window_len {wlen}; recalibrate at window {wlen}"
        )

    player_rng = Stream(seed, "player")
    enemy_rng = Stream(seed, "enemy")
    drops_rng = Stream(seed, "drops")
    factors = FactorTable(config.factors)
    engine.bind(factors, seed)
    tracker = engine.tracker

    trace = EpisodeTrace()
    trace.add(
        {
            "t": "header",
            "v": TRACE_SCHEMA,
            "seed": seed,
            "model": engine.model_name,
            "window_len": wlen,
            "bot": bot.to_dict(),
            "config": config.to_dict(),
        }
    )

    max_hp = config.player_max_hp
    hp = max_hp
    potions = 0
    alive = True
    respawn_at: int | None = None
    player_cd = bot.attack_interval

    wave_index = 0
    current_wave: int | None = None
    enemies: list[_Enemy] = []
    next_wave_at = 0
    script: Script | None = None
    wave_spawn_tick = 0
    wave_enemy_total_hp = 0.0
    wave_enemy_hp_lost = 0.0

    deaths = 0
    wins = 0
    encounters = 0
    truncated = False

    track_health = "health" in tracker.variables

    def wave_interval_eff() -> int:
        return max(0, round(config.wave_interval * factors.get("wave_interval")))

    def blend_params(s: Script) -> dict[str, float]:
        """A squad plays its script as the mean of the rules' parameters."""
        param_sets = engine.script_params(s)
        if not param_sets:
            return {}
        keys = sorted({k for p in param_sets for k in p})
        return {
            k: sum(p.get(k, _NEUTRAL_PARAMS.get(k, 0.0)) for p in param_sets)
            / len(param_sets)
            for k in keys
        }

    def build_zone(next_index: int) -> ZoneSpec:
        template = config.template_for_wave(next_index)
        count = max(1, round(template.count * factors.get("enemy_count")))
        dmg = template.damage * factors.get("enemy_damage")
        hit = _clamp01(template.hit_prob * factors.get("enemy_hit_prob"))
        profile = AttackProfile(
            count=count,
            attacks_each=config.zone_attack_horizon,
            outcomes=((hit, dmg), (1.0 - hit, 0.0)),
        )
        return ZoneSpec(zone_id=f"wave{next_index}", groups=(profile,))

    def spawn_wave(tick: int) -> None:
        nonlocal current_wave, enemies, script, wave_spawn_tick
        nonlocal wave_enemy_total_hp, wave_enemy_hp_lost
        current_wave = wave_index
        template = config.template_for_wave(current_wave)
        script = engine.next_script()
        blend = blend_params(script) if script is not None else {}
        count = max(1, round(template.count * factors.get("enemy_count")))
        ehp = template.hp * factors.get("enemy_hp")
        dmg = (
            template.damage
            * factors.get("enemy_damage")
            * blend.get("damage_mult", 1.0)
        )
        interval = max(
            1,
            round(
                template.attack_interval
                * factors.get("enemy_attack_interval")
                * blend.get("interval_mult", 1.0)
            ),
        )
        hit = _clamp01(
            template.hit_prob * factors.get("enemy_hit_prob")
            + blend.get("hit_bonus", 0.0)
        )
        skip = _clamp01(blend.get("skip_prob", 0.0))
        enemies = [
            _Enemy(
                tag=f"{template.agent_type}#{current_wave}.{i}",
                hp=ehp,
                damage=dmg,
                attack_interval=interval,
                hit_prob=hit,
                skip_prob=skip,
                cooldown=interval,
                spawn_tick=tick,
            )
            for i in range(count)
        ]
        wave_spawn_tick = tick
        wave_enemy_total_hp = ehp * count
        wave_enemy_hp_lost = 0.0
        trace.add(
            {
                "t": "spawn",
                "tick": tick,
                "wave": current_wave,
                "agent": template.agent_type,
                "count": count,
                "hp": _r9(ehp),
                "damage": _r9(dmg),
                "interval": interval,
                "hit_prob": _r9(hit),
                "skip_prob": _r9(skip),
            }
        )
        if script is not None:
            trace.add(
                {
                    "t": "script",
                    "tick": tick,
                    "wave": current_wave,
                    "agent": script.agent_id,
                    "rules": list(script.rule_ids),
                }
            )

    def finish_encounter(tick: int, win: bool, a: float, p: float, ticks) -> None:
        nonlocal encounters, wave_index, current_wave, script, enemies
        encounters += 1
        trace.add(
            {
                "t": "encounter",
                "tick": tick,
                "wave": current_wave,
                "win": win,
                "a": _r9(a),
                "p": _r9(p),
                "ticks": ticks,
            }
        )
        trace.extend(
            engine.on_encounter(EncounterResult(a, p), script, tick, current_wave)
        )
        enemies = []
        wave_index += 1
        current_wave = None
        script = None

    tick = 0
    if track_health:
        tracker.sample_permanent("health", hp, tick)

    while True:
        if tick >= config.max_ticks:
            truncated = True
            break
        if not alive and respawn_at is not None and tick >= respawn_at:
            alive = True
            hp = max_hp
            respawn_at = None
            player_cd = bot.attack_interval
            trace.add({"t": "respawn", "tick": tick})
        if (
            alive
            and not enemies
            and wave_index < config.waves
            and tick >= next_wave_at
        ):
            spawn_wave(tick)

        if alive and enemies and tick > 0:
            for enemy in enemies:
                if not alive:
                    break
                if not enemy.alive or enemy.spawn_tick >= tick:
                    continue
                enemy.cooldown -= 1
                if enemy.cooldown > 0:
                    continue
                enemy.cooldown = enemy.attack_interval
                if enemy.skip_prob > 0.0 and enemy_rng.random() < enemy.skip_prob:
                    continue
                if enemy_rng.random() >= enemy.hit_prob:
                    continue
                if bot.evade_prob > 0.0 and player_rng.random() < bot.evade_prob:
                    continue
                hp -= enemy.damage
                tracker.record_event(
                    "damage_taken", enemy.damage, tick, cause_tag=enemy.tag
                )
                trace.add(
                    {
                        "t": "hit",
                        "tick": tick,
                        "src": enemy.tag,
                        "dst": "player",
                        "amount": _r9(enemy.damage),
                    }
                )
                if hp <= 0:
                    hp = 0.0
                    alive = False
                    deaths += 1
                    tracker.record_event("deaths", 1, tick)
                    if track_health:
                        tracker.sample_permanent("health", 0.0, tick)
                    trace.add(
                        {
                            "t": "death",
                            "tick": tick,
                            "wave": current_wave,
                            "by": enemy.tag,
                        }
                    )
                    # Margin-coded scores: the winning side lands in
                    # [0.5, 1], the loser mirrors it, and the distance
                    # from 0.5 is how decisive the fight was.
                    destroyed = (
                        min(1.0, wave_enemy_hp_lost / wave_enemy_total_hp)
                        if wave_enemy_total_hp > 0
                        else 0.0
                    )
                    p = 0.5 * destroyed
                    finish_encounter(tick, win=False, a=1.0 - p, p=p, ticks=None)
                    potions = 0  # stash is lost on death
                    respawn_at = tick + config.respawn_delay
                    next_wave_at = tick + wave_interval_eff()
                    trace.extend(engine.on_player_dead(tick))

        if alive and enemies and tick > 0:
            player_cd -= 1
            if player_cd <= 0:
                player_cd = bot.attack_interval
                if bot.attacks and player_rng.random() < bot.accuracy:
                    target = next(e for e in enemies if e.alive)
                    crit = factors.consume_flag("crit_next_hit") or (
                        player_rng.random()
                        < _clamp01(config.crit_prob * factors.get("crit_prob"))
                    )
                    dmg = config.player_damage * (config.crit_mult if crit else 1.0)
                    wave_enemy_hp_lost += min(dmg, target.hp)
                    target.hp -= dmg
                    trace.add(
                        {
                            "t": "hit",
                            "tick": tick,
                            "src": "player",
                            "dst": target.tag,
                            "amount": _r9(dmg),
                            "crit": crit,
                        }
                    )
                    if target.hp <= 0:
                        target.alive = False
                        trace.add({"t": "kill", "tick": tick, "target": target.tag})
                        dropped = factors.consume_flag("potion_next_kill") or (
                            drops_rng.random()
                            < _clamp01(
                                config.potion_drop_prob
                                * factors.get("potion_drop_prob")
                            )
                        )
                        if dropped:
                            potions += 1
                            trace.add({"t": "potion_drop", "tick": tick})
                        if all(not e.alive for e in enemies):
                            clear_ticks = tick - wave_spawn_tick
                            tracker.record_event(
                                "wave_clear_time", clear_ticks, tick
                            )
                            wins += 1
                            trace.add(
                                {
                                    "t": "wave_clear",
                                    "tick": tick,
                                    "wave": current_wave,
                                    "ticks": clear_ticks,
                                }
                            )
                            health_left = min(1.0, max(0.0, hp / max_hp))
                            p = 0.5 + 0.5 * health_left
                            finish_encounter(
                                tick, win=True, a=1.0 - p, p=p, ticks=clear_ticks
                            )
                            next_wave_at = tick + wave_interval_eff()
                            zone = (
                                build_zone(wave_index)
                                if wave_index < config.waves
                                else None
                            )
                            snap = PlayerSnapshot(
                                health=hp,
                                max_health=max_hp,
                                proficiency=engine.last_proficiency,
                                evade_prob=bot.evade_prob,
                            )
                            trace.extend(engine.on_wave_break(tick, zone, snap))

        if (
            alive
            and potions > 0
            and 0.0 < hp <= bot.potion_threshold * max_hp
        ):
            potions -= 1
            heal = min(config.potion_heal, max_hp - hp)
            hp += heal
            tracker.record_event("potions_used", 1, tick)
            trace.add({"t": "potion_used", "tick": tick, "heal": _r9(heal)})

        if track_health and tick > 0:
            tracker.sample_permanent("health", max(hp, 0.0), tick)

        trace.extend(engine.on_tick(tick))

        if current_wave is None and wave_index >= config.waves:
            break

        # Next-event advance: land on the earliest tick where a cooldown
        # runs out, a timer fires, a health sample is accepted, a potion is
        # due or a window closes. The ticks in between would change nothing
        # but the cooldowns, so those are wound forward instead.
        nxt = min(config.max_ticks, (tick // wlen + 1) * wlen)
        if track_health:
            nxt = min(nxt, max(tick + 1, tracker.next_sample_tick("health")))
        if not alive:
            nxt = min(nxt, max(tick + 1, respawn_at))
        elif enemies:
            due = player_cd
            for enemy in enemies:
                if enemy.alive and enemy.cooldown < due:
                    due = enemy.cooldown
            nxt = min(nxt, tick + due)
        elif wave_index < config.waves:
            nxt = min(nxt, max(tick + 1, next_wave_at))
        if alive and potions > 0 and 0.0 < hp <= bot.potion_threshold * max_hp:
            nxt = tick + 1
        skipped = nxt - tick - 1
        if skipped and alive and enemies:
            player_cd -= skipped
            for enemy in enemies:
                if enemy.alive:
                    enemy.cooldown -= skipped
        tick = nxt

    trace.extend(engine.on_scene_change(tick))
    trace.add(
        {
            "t": "outcome",
            "tick": tick,
            "waves": config.waves,
            "cleared": wins,
            "deaths": deaths,
            "wins": wins,
            "encounters": encounters,
            "potions_left": potions,
            "final_hp": _r9(max(hp, 0.0)),
            "truncated": truncated,
        }
    )
    return trace


_NEUTRAL_PARAMS = {
    "interval_mult": 1.0,
    "hit_bonus": 0.0,
    "damage_mult": 1.0,
    "skip_prob": 0.0,
}
