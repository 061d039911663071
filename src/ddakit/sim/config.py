"""Arena configuration: game rules, factor registry, bots, and presets.

A config is a plain frozen dataclass tree that round-trips through JSON,
so runs can be reproduced from the config snapshot embedded in a trace.
Presets cover the shipped scenarios; custom configs load from files of
the same shape.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace

from ..errors import ConfigError, ValidationError
from ..telemetry import (
    Orientation,
    PermanentSummary,
    TrackedVariable,
    TrackingMode,
)

__all__ = [
    "EnemyTemplate",
    "FactorSpec",
    "BotProfile",
    "SpikeSection",
    "MetricsSection",
    "ChallengeSection",
    "DscriptSection",
    "DdaSection",
    "GameConfig",
    "PRESETS",
    "BOTS",
    "load_config",
    "resolve_bot",
]

CONFIG_SCHEMA = 1


@dataclass(frozen=True, slots=True)
class EnemyTemplate:
    agent_type: str
    hp: float
    damage: float
    attack_interval: int
    hit_prob: float
    count: int

    def to_dict(self) -> dict:
        return {
            "agent_type": self.agent_type,
            "hp": self.hp,
            "damage": self.damage,
            "attack_interval": self.attack_interval,
            "hit_prob": self.hit_prob,
            "count": self.count,
        }


@dataclass(frozen=True, slots=True)
class FactorSpec:
    """Registry entry for one adjustable factor.

    Continuous factors are multipliers around 1.0 applied to the config's
    base numbers; flags are 0/1 one-shot gifts. ``applies`` says whether a
    new value affects already-spawned units ("immediate") or only units
    spawned afterwards ("next_spawn").
    """

    factor_id: str
    initial: float
    bounds: tuple[float, float]
    applies: str = "next_spawn"
    one_shot: bool = False

    def __post_init__(self) -> None:
        if self.applies not in ("next_spawn", "immediate"):
            raise ValidationError(
                f"{self.factor_id}: applies must be next_spawn or immediate"
            )
        lo, hi = self.bounds
        if not lo <= self.initial <= hi:
            raise ValidationError(
                f"{self.factor_id}: initial {self.initial} outside bounds ({lo}, {hi})"
            )

    def to_dict(self) -> dict:
        return {
            "factor_id": self.factor_id,
            "initial": self.initial,
            "bounds": list(self.bounds),
            "applies": self.applies,
            "one_shot": self.one_shot,
        }


@dataclass(frozen=True, slots=True)
class BotProfile:
    """A deterministic-policy player stand-in with seeded dice."""

    name: str
    accuracy: float
    evade_prob: float
    attack_interval: int
    potion_threshold: float
    attacks: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValidationError(f"{self.name}: accuracy must be in [0, 1]")
        if not 0.0 <= self.evade_prob < 1.0:
            raise ValidationError(f"{self.name}: evade_prob must be in [0, 1)")
        if self.attack_interval < 1:
            raise ValidationError(f"{self.name}: attack_interval must be >= 1")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "accuracy": self.accuracy,
            "evade_prob": self.evade_prob,
            "attack_interval": self.attack_interval,
            "potion_threshold": self.potion_threshold,
            "attacks": self.attacks,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BotProfile":
        return cls(
            name=data["name"],
            accuracy=float(data["accuracy"]),
            evade_prob=float(data["evade_prob"]),
            attack_interval=int(data["attack_interval"]),
            potion_threshold=float(data["potion_threshold"]),
            attacks=bool(data.get("attacks", True)),
        )


@dataclass(frozen=True, slots=True)
class SpikeSection:
    variables: tuple[str, ...] = ("health",)
    drop_fraction: float = 0.5
    quorum: float = 0.75


@dataclass(frozen=True, slots=True)
class MetricsSection:
    # (variable, factor, weight) couplings.
    entries: tuple[tuple[str, str, float], ...]
    mode: str = "threshold"
    composition: str = "additive"


@dataclass(frozen=True, slots=True)
class ChallengeSection:
    target: float = 0.25
    margin: float = 0.15
    gain: float = 0.6
    scale_limits: tuple[float, float] = (0.6, 1.4)
    potion_health_gate: float = 0.4
    crit_proficiency_gate: float = 0.45


@dataclass(frozen=True, slots=True)
class DscriptSection:
    # (rule_id, params) tactic descriptors shared by every enemy squad.
    rules: tuple[tuple[str, dict], ...]
    script_size: int = 4
    initial_weight: float = 1.0
    weight_cap: float = 5.0
    weight_floor: float = 0.05
    break_even: float = 0.5
    max_reward: float = 0.3
    max_penalty: float = 0.3
    plateau_threshold: float = 0.05
    decay: float = 0.9
    limit_floor: float = 0.1
    adrenaline: bool = True


@dataclass(frozen=True, slots=True)
class DdaSection:
    weights: dict[str, float]
    # var -> (target, margin, semantics); semantics is "difficulty" or "ratio".
    bands: dict[str, tuple[float, float, str]] = field(default_factory=dict)
    global_band: tuple[float, float] = (0.5, 0.1)
    min_ticks_between_executions: int = 300
    max_changes_per_update: int = 4
    max_changes_per_stage: int = 10_000
    spike: SpikeSection = field(default_factory=SpikeSection)
    metrics: MetricsSection | None = None
    challenge: ChallengeSection = field(default_factory=ChallengeSection)
    dscript: DscriptSection | None = None


@dataclass(frozen=True, slots=True)
class GameConfig:
    name: str
    waves: int
    wave_interval: int
    respawn_delay: int
    player_max_hp: float
    player_damage: float
    enemies: tuple[EnemyTemplate, ...]
    dda: DdaSection
    ticks_per_second: int = 60
    max_ticks: int = 600_000
    potion_drop_prob: float = 0.3
    potion_heal: float = 30.0
    crit_prob: float = 0.05
    crit_mult: float = 2.0
    zone_attack_horizon: int = 6
    window_len: int = 600
    variables: tuple[TrackedVariable, ...] = ()
    factors: dict[str, FactorSpec] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.waves < 1:
            raise ValidationError("waves must be >= 1")
        if not self.enemies:
            raise ValidationError("config needs at least one enemy template")
        if self.window_len < 1:
            raise ValidationError("window_len must be >= 1")
        if not self.variables:
            object.__setattr__(
                self, "variables", default_variables(self.player_max_hp)
            )
        if not self.factors:
            object.__setattr__(self, "factors", default_factors())
        weights = self.dda.weights
        var_ids = {v.var_id for v in self.variables}
        if set(weights) != var_ids:
            raise ValidationError(
                "dda.weights must cover exactly the tracked variables; "
                f"got {sorted(weights)} vs {sorted(var_ids)}"
            )

    def replacing(self, **kw) -> "GameConfig":
        return replace(self, **kw)

    def template_for_wave(self, wave_index: int) -> EnemyTemplate:
        return self.enemies[wave_index % len(self.enemies)]

    # -- serialization ------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "config_schema": CONFIG_SCHEMA,
            "name": self.name,
            "ticks_per_second": self.ticks_per_second,
            "waves": self.waves,
            "wave_interval": self.wave_interval,
            "respawn_delay": self.respawn_delay,
            "max_ticks": self.max_ticks,
            "player_max_hp": self.player_max_hp,
            "player_damage": self.player_damage,
            "potion_drop_prob": self.potion_drop_prob,
            "potion_heal": self.potion_heal,
            "crit_prob": self.crit_prob,
            "crit_mult": self.crit_mult,
            "zone_attack_horizon": self.zone_attack_horizon,
            "window_len": self.window_len,
            "enemies": [t.to_dict() for t in self.enemies],
            "variables": [_var_to_dict(v) for v in self.variables],
            "factors": {fid: f.to_dict() for fid, f in sorted(self.factors.items())},
            "dda": _dda_to_dict(self.dda),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GameConfig":
        if data.get("config_schema", CONFIG_SCHEMA) != CONFIG_SCHEMA:
            raise ConfigError(
                f"unsupported config schema {data.get('config_schema')!r}"
            )
        try:
            return cls(
                name=data["name"],
                ticks_per_second=int(data.get("ticks_per_second", 60)),
                waves=int(data["waves"]),
                wave_interval=int(data["wave_interval"]),
                respawn_delay=int(data["respawn_delay"]),
                max_ticks=int(data.get("max_ticks", 600_000)),
                player_max_hp=float(data["player_max_hp"]),
                player_damage=float(data["player_damage"]),
                potion_drop_prob=float(data.get("potion_drop_prob", 0.3)),
                potion_heal=float(data.get("potion_heal", 30.0)),
                crit_prob=float(data.get("crit_prob", 0.05)),
                crit_mult=float(data.get("crit_mult", 2.0)),
                zone_attack_horizon=int(data.get("zone_attack_horizon", 6)),
                window_len=int(data.get("window_len", 600)),
                enemies=tuple(
                    EnemyTemplate(
                        agent_type=e["agent_type"],
                        hp=float(e["hp"]),
                        damage=float(e["damage"]),
                        attack_interval=int(e["attack_interval"]),
                        hit_prob=float(e["hit_prob"]),
                        count=int(e["count"]),
                    )
                    for e in data["enemies"]
                ),
                variables=tuple(
                    _var_from_dict(v) for v in data.get("variables", [])
                ),
                factors={
                    fid: FactorSpec(
                        factor_id=f["factor_id"],
                        initial=float(f["initial"]),
                        bounds=(float(f["bounds"][0]), float(f["bounds"][1])),
                        applies=f.get("applies", "next_spawn"),
                        one_shot=bool(f.get("one_shot", False)),
                    )
                    for fid, f in data.get("factors", {}).items()
                },
                dda=_dda_from_dict(data["dda"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad config structure: {exc!r}") from None


def _var_to_dict(v: TrackedVariable) -> dict:
    return {
        "var_id": v.var_id,
        "name": v.name,
        "mode": v.mode.value,
        "orientation": v.orientation.value,
        "reference_z": v.reference_z,
        "min_sample_interval": v.min_sample_interval,
        "summary": v.summary.value,
        "value_range": None if v.value_range is None else list(v.value_range),
    }


def _var_from_dict(data: dict) -> TrackedVariable:
    vr = data.get("value_range")
    return TrackedVariable(
        var_id=data["var_id"],
        name=data["name"],
        mode=TrackingMode(data["mode"]),
        orientation=Orientation(data.get("orientation", "higher_is_harder")),
        reference_z=float(data.get("reference_z", 0.0)),
        min_sample_interval=int(data.get("min_sample_interval", 1)),
        summary=PermanentSummary(data.get("summary", "depletion")),
        value_range=None if vr is None else (float(vr[0]), float(vr[1])),
    )


def _dda_to_dict(d: DdaSection) -> dict:
    return {
        "weights": dict(sorted(d.weights.items())),
        "bands": {k: list(v) for k, v in sorted(d.bands.items())},
        "global_band": list(d.global_band),
        "min_ticks_between_executions": d.min_ticks_between_executions,
        "max_changes_per_update": d.max_changes_per_update,
        "max_changes_per_stage": d.max_changes_per_stage,
        "spike": {
            "variables": list(d.spike.variables),
            "drop_fraction": d.spike.drop_fraction,
            "quorum": d.spike.quorum,
        },
        "metrics": None
        if d.metrics is None
        else {
            "entries": [list(e) for e in d.metrics.entries],
            "mode": d.metrics.mode,
            "composition": d.metrics.composition,
        },
        "challenge": {
            "target": d.challenge.target,
            "margin": d.challenge.margin,
            "gain": d.challenge.gain,
            "scale_limits": list(d.challenge.scale_limits),
            "potion_health_gate": d.challenge.potion_health_gate,
            "crit_proficiency_gate": d.challenge.crit_proficiency_gate,
        },
        "dscript": None
        if d.dscript is None
        else {
            "rules": [[rid, dict(sorted(params.items()))] for rid, params in d.dscript.rules],
            "script_size": d.dscript.script_size,
            "initial_weight": d.dscript.initial_weight,
            "weight_cap": d.dscript.weight_cap,
            "weight_floor": d.dscript.weight_floor,
            "break_even": d.dscript.break_even,
            "max_reward": d.dscript.max_reward,
            "max_penalty": d.dscript.max_penalty,
            "plateau_threshold": d.dscript.plateau_threshold,
            "decay": d.dscript.decay,
            "limit_floor": d.dscript.limit_floor,
            "adrenaline": d.dscript.adrenaline,
        },
    }


def _dda_from_dict(data: dict) -> DdaSection:
    metrics = data.get("metrics")
    dscript = data.get("dscript")
    spike = data.get("spike", {})
    challenge = data.get("challenge", {})
    return DdaSection(
        weights={k: float(v) for k, v in data["weights"].items()},
        bands={
            k: (float(v[0]), float(v[1]), str(v[2]))
            for k, v in data.get("bands", {}).items()
        },
        global_band=tuple(data.get("global_band", (0.5, 0.1))),  # type: ignore[arg-type]
        min_ticks_between_executions=int(
            data.get("min_ticks_between_executions", 300)
        ),
        max_changes_per_update=int(data.get("max_changes_per_update", 4)),
        max_changes_per_stage=int(data.get("max_changes_per_stage", 10_000)),
        spike=SpikeSection(
            variables=tuple(spike.get("variables", ("health",))),
            drop_fraction=float(spike.get("drop_fraction", 0.5)),
            quorum=float(spike.get("quorum", 0.75)),
        ),
        metrics=None
        if metrics is None
        else MetricsSection(
            entries=tuple(
                (str(v), str(f), float(w)) for v, f, w in metrics["entries"]
            ),
            mode=metrics.get("mode", "threshold"),
            composition=metrics.get("composition", "additive"),
        ),
        challenge=ChallengeSection(
            target=float(challenge.get("target", 0.25)),
            margin=float(challenge.get("margin", 0.15)),
            gain=float(challenge.get("gain", 0.6)),
            scale_limits=tuple(challenge.get("scale_limits", (0.6, 1.4))),  # type: ignore[arg-type]
            potion_health_gate=float(challenge.get("potion_health_gate", 0.4)),
            crit_proficiency_gate=float(challenge.get("crit_proficiency_gate", 0.45)),
        ),
        dscript=None
        if dscript is None
        else DscriptSection(
            rules=tuple((str(rid), dict(params)) for rid, params in dscript["rules"]),
            script_size=int(dscript.get("script_size", 4)),
            initial_weight=float(dscript.get("initial_weight", 1.0)),
            weight_cap=float(dscript.get("weight_cap", 5.0)),
            weight_floor=float(dscript.get("weight_floor", 0.05)),
            break_even=float(dscript.get("break_even", 0.5)),
            max_reward=float(dscript.get("max_reward", 0.3)),
            max_penalty=float(dscript.get("max_penalty", 0.3)),
            plateau_threshold=float(dscript.get("plateau_threshold", 0.05)),
            decay=float(dscript.get("decay", 0.9)),
            limit_floor=float(dscript.get("limit_floor", 0.1)),
            adrenaline=bool(dscript.get("adrenaline", True)),
        ),
    )


# -- defaults ----------------------------------------------------------


def default_variables(max_hp: float) -> tuple[TrackedVariable, ...]:
    """The five stock variables every preset tracks.

    Health is permanent with a depletion summary, so its per-window figure
    is net loss and grows with difficulty like the others.
    """
    ev = TrackingMode.EVENT_TRIGGERED
    return (
        TrackedVariable("deaths", "player deaths", ev),
        TrackedVariable("damage_taken", "damage taken", ev),
        TrackedVariable("wave_clear_time", "wave clear time", ev),
        TrackedVariable(
            "health",
            "player health",
            TrackingMode.PERMANENT,
            orientation=Orientation.HIGHER_IS_HARDER,
            min_sample_interval=30,
            summary=PermanentSummary.DEPLETION,
            value_range=(0.0, max_hp),
        ),
        TrackedVariable("potions_used", "potions used", ev),
    )


def default_factors() -> dict[str, FactorSpec]:
    mult = lambda fid, lo, hi, applies="next_spawn": FactorSpec(  # noqa: E731
        fid, 1.0, (lo, hi), applies
    )
    return {
        "enemy_damage": mult("enemy_damage", 0.2, 3.0),
        "enemy_hp": mult("enemy_hp", 0.3, 3.0),
        "enemy_attack_interval": mult("enemy_attack_interval", 0.4, 2.5),
        "enemy_hit_prob": mult("enemy_hit_prob", 0.2, 1.5),
        "enemy_count": mult("enemy_count", 0.4, 2.5),
        "wave_interval": mult("wave_interval", 0.5, 3.0),
        "potion_drop_prob": mult("potion_drop_prob", 0.0, 3.0, "immediate"),
        "crit_prob": mult("crit_prob", 0.0, 5.0, "immediate"),
        "potion_next_kill": FactorSpec(
            "potion_next_kill", 0.0, (0.0, 1.0), "immediate", one_shot=True
        ),
        "crit_next_hit": FactorSpec(
            "crit_next_hit", 0.0, (0.0, 1.0), "immediate", one_shot=True
        ),
    }


def default_weights() -> dict[str, float]:
    # Damage intake is the one stock variable whose per-window magnitude is
    # commensurate with the window length, so it carries the aggregate;
    # the others still feed per-variable assessments and reports.
    return {
        "deaths": 0.0,
        "damage_taken": 1.0,
        "wave_clear_time": 0.0,
        "health": 0.0,
        "potions_used": 0.0,
    }


def default_rules() -> tuple[tuple[str, dict], ...]:
    """Twelve squad tactics from reckless pressure to outright stalling."""
    mk = lambda i, h, d, s: {  # noqa: E731
        "interval_mult": i,
        "hit_bonus": h,
        "damage_mult": d,
        "skip_prob": s,
    }
    return (
        ("frenzy", mk(0.60, 0.10, 1.30, 0.00)),
        ("flank", mk(0.70, 0.08, 1.20, 0.00)),
        ("focus_fire", mk(0.80, 0.06, 1.12, 0.00)),
        ("press", mk(0.90, 0.03, 1.05, 0.02)),
        ("standard", mk(1.00, 0.00, 1.00, 0.05)),
        ("probe", mk(1.05, -0.01, 0.95, 0.08)),
        ("harass", mk(1.10, -0.03, 0.90, 0.12)),
        ("skirmish", mk(1.15, -0.05, 0.85, 0.16)),
        ("cautious", mk(1.20, -0.07, 0.80, 0.20)),
        ("guard", mk(1.25, -0.09, 0.75, 0.24)),
        ("feint", mk(1.30, -0.11, 0.70, 0.28)),
        ("retreat", mk(1.35, -0.13, 0.65, 0.32)),
    )


def _default_metrics() -> MetricsSection:
    return MetricsSection(
        entries=(
            ("damage_taken", "enemy_damage", 0.06),
            ("damage_taken", "potion_drop_prob", -0.08),
        )
    )


def _base_dda(**kw) -> DdaSection:
    defaults = dict(
        weights=default_weights(),
        metrics=_default_metrics(),
        dscript=DscriptSection(rules=default_rules()),
    )
    defaults.update(kw)
    return DdaSection(**defaults)


def arena() -> GameConfig:
    """A fair mixed-wave arena for a mid-skill player."""
    return GameConfig(
        name="arena",
        waves=12,
        wave_interval=180,
        respawn_delay=120,
        max_ticks=120_000,
        player_max_hp=100.0,
        player_damage=12.0,
        enemies=(
            EnemyTemplate("grunt", 26.0, 8.0, 55, 0.65, 3),
            EnemyTemplate("raider", 30.0, 9.0, 50, 0.70, 3),
            EnemyTemplate("brute", 44.0, 12.0, 75, 0.75, 2),
        ),
        dda=_base_dda(),
    )


def arena_hard() -> GameConfig:
    """Relentless fragile squads; punishing for anyone below medium skill.

    Enemies die to one solid hit but keep up sustained pressure, so a
    skilled player sheds the squad quickly while a weak one faces the
    full barrage for their whole (tall) health pool.
    """
    return GameConfig(
        name="arena-hard",
        waves=150,
        wave_interval=10,
        respawn_delay=15,
        max_ticks=200_000,
        window_len=1200,
        player_max_hp=240.0,
        player_damage=25.0,
        potion_drop_prob=0.40,
        zone_attack_horizon=4,
        enemies=(EnemyTemplate("horde", 20.0, 8.0, 25, 0.90, 6),),
        dda=_base_dda(),
    )


def duel() -> GameConfig:
    """Long scripted-squad ladder for dynamic-scripting experiments.

    Tuned for a near-even fight against the medium bot so the weight
    learner has room to steer in both directions. No potion drops: pickup
    luck swamps the tactic signal over a 500-wave ladder. Adrenaline
    decay is off for the same reason; we want the learner correcting all
    the way to the end, not freezing once the early game settles. Gentler
    reward steps and a low weight cap keep the learned mixture from
    sloshing around its equilibrium.
    """
    base = _base_dda()
    dda = replace(
        base,
        dscript=replace(
            base.dscript,
            adrenaline=False,
            max_reward=0.15,
            max_penalty=0.15,
            weight_cap=2.5,
        ),
    )
    return GameConfig(
        name="duel",
        waves=500,
        wave_interval=30,
        respawn_delay=30,
        max_ticks=600_000,
        player_max_hp=100.0,
        player_damage=12.0,
        potion_drop_prob=0.0,
        enemies=(EnemyTemplate("duelist", 30.0, 10.0, 45, 0.75, 3),),
        dda=dda,
    )


PRESETS = {
    "arena": arena,
    "arena-hard": arena_hard,
    "duel": duel,
}

BOTS = {
    "novice": BotProfile("novice", 0.45, 0.00, 55, 0.35),
    "medium": BotProfile("medium", 0.65, 0.42, 45, 0.50),
    "expert": BotProfile("expert", 0.85, 0.55, 36, 0.60),
    "pacifist": BotProfile("pacifist", 0.0, 0.0, 60, 0.0, attacks=False),
}


def load_config(name_or_path: str) -> GameConfig:
    """Resolve a preset name or read a config JSON file."""
    if name_or_path in PRESETS:
        return PRESETS[name_or_path]()
    if os.path.exists(name_or_path):
        try:
            with open(name_or_path, "r", encoding="utf-8") as fh:
                return GameConfig.from_dict(json.load(fh))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{name_or_path} is not valid JSON: {exc}") from None
    raise ConfigError(
        f"unknown config {name_or_path!r} "
        f"(presets: {', '.join(sorted(PRESETS))}, or a JSON file path)"
    )


def resolve_bot(name_or_path: str) -> BotProfile:
    """Resolve a bot preset name or read a bot JSON file."""
    if name_or_path in BOTS:
        return BOTS[name_or_path]
    if os.path.exists(name_or_path):
        try:
            with open(name_or_path, "r", encoding="utf-8") as fh:
                return BotProfile.from_dict(json.load(fh))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad bot file {name_or_path}: {exc!r}") from None
    raise ConfigError(
        f"unknown bot {name_or_path!r} "
        f"(presets: {', '.join(sorted(BOTS))}, or a JSON file path)"
    )
