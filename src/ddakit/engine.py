"""The adjustment engine: one object the game talks to.

The game feeds telemetry through ``tracker``, calls ``on_tick`` every
tick, and reports the safe moments (wave breaks, player death, scene
changes). The engine closes windows on cadence, assesses them against
references when it has any, lets its model enqueue change requests, and
drains the queue into the game's factor store under the visibility rules.
Every hook returns plain trace records; the engine never writes files.
"""

from __future__ import annotations

from typing import Mapping

from .adjustment import ChangeQueue, DrainContext, DrainResult, QueuePolicy
from .assessment import (
    DIFFICULTY_BAND,
    AssessmentReport,
    FlowBand,
    FlowSemantics,
    evaluate,
)
from .errors import ConfigError
from .models.dscript import (
    EncounterResult,
    FitnessMode,
    LearningState,
    Regime,
    Rule,
    RuleBase,
    Script,
    adrenaline_rush_step,
    encounter_fitness,
    generate_script,
    update_weights,
)
from .models.metrics import (
    Composition,
    Multipliers,
    SignalMode,
    WeightMatrix,
    metrics_update,
)
from .models.probabilistic import (
    ChallengeSettings,
    ExpectedOutcome,
    PlayerSnapshot,
    ZoneSpec,
    challenge_adjust,
    expected_outcome,
)
from .reference import ReferenceSet
from .rng import Stream
from .telemetry import TrackedVariable, Tracker, TrackingMode

__all__ = [
    "MetricsModel",
    "ProbabilisticModel",
    "ScriptingModel",
    "DdaEngine",
]


class MetricsModel:
    """Weight-matrix model: assessment in, multiplier Set requests out."""

    name = "metrics"

    def __init__(
        self,
        matrix: WeightMatrix,
        multipliers: Multipliers,
        composition: Composition = Composition.ADDITIVE,
    ) -> None:
        self.matrix = matrix
        self.multipliers = multipliers
        self.composition = composition

    def bind(self, seed: int) -> None:  # stateless w.r.t. randomness
        pass

    def on_report(self, report: AssessmentReport, now: int):
        self.multipliers, requests = metrics_update(
            report, self.matrix, self.multipliers, now, self.composition
        )
        return requests


class ProbabilisticModel:
    """Zone-preview model built on expected-outcome estimation."""

    name = "probabilistic"

    def __init__(self, settings: ChallengeSettings) -> None:
        self.settings = settings

    def bind(self, seed: int) -> None:  # stateless w.r.t. randomness
        pass

    def on_zone(
        self, zone: ZoneSpec, player: PlayerSnapshot, now: int
    ) -> tuple[ExpectedOutcome, float, list]:
        expected = expected_outcome(zone, player)
        survival, requests = challenge_adjust(expected, player, self.settings, now)
        return expected, survival, requests


class ScriptingModel:
    """Dynamic-scripting model: per-encounter weight learning."""

    name = "dscript"

    def __init__(
        self,
        rulebase: RuleBase,
        script_size: int,
        fitness_mode: FitnessMode,
        regime: Regime,
        *,
        break_even: float = 0.5,
        max_reward: float = 0.3,
        max_penalty: float = 0.3,
        learning: LearningState | None = None,
    ) -> None:
        self.rulebase = rulebase
        self.script_size = script_size
        self.fitness_mode = fitness_mode
        self.regime = regime
        self.break_even = break_even
        self.max_reward = max_reward
        self.max_penalty = max_penalty
        self.learning = learning
        self._rng: Stream | None = None

    def bind(self, seed: int) -> None:
        self._rng = Stream(seed, "scripts")

    @property
    def learning_limit(self) -> float:
        return self.learning.learning_limit if self.learning is not None else 1.0

    def next_script(self) -> Script:
        if self._rng is None:
            raise ConfigError("scripting model used before bind()")
        return generate_script(
            self.rulebase,
            self.script_size,
            self.regime,
            self._rng,
            agent_id=self.rulebase.agent_type,
        )

    def params_for(self, script: Script) -> list[dict]:
        return [dict(self.rulebase.rule(rid).params) for rid in script.rule_ids]

    def on_encounter(self, result: EncounterResult, script: Script) -> dict:
        fitness = encounter_fitness(result, self.fitness_mode)
        limit = self.learning_limit
        self.rulebase = update_weights(
            self.rulebase,
            script,
            fitness,
            break_even=self.break_even,
            max_reward=self.max_reward,
            max_penalty=self.max_penalty,
            learning_limit=limit,
            regime=self.regime,
        )
        if self.learning is not None:
            self.learning = adrenaline_rush_step(
                self.learning, result.player_performance
            )
        return {
            "fitness": round(fitness, 9),
            "limit": round(limit, 9),
            "values": {
                rid: round(w, 9) for rid, w in sorted(self.rulebase.weights.items())
            },
        }


class DdaEngine:
    """Ties tracking, assessment, one model, and the change queue together.

    An engine instance serves exactly one episode: construct, ``bind`` to
    the episode's factor store and seed, then feed it. Assessments only
    happen when reference curves were provided; without them the engine
    still closes windows and drains whatever its model enqueues.
    """

    def __init__(
        self,
        variables: tuple[TrackedVariable, ...],
        *,
        window_len: int,
        references: ReferenceSet | None = None,
        bands: Mapping[str, FlowBand] | None = None,
        weights: Mapping[str, float] | None = None,
        default_band: FlowBand = DIFFICULTY_BAND,
        policy: QueuePolicy | None = None,
        model: MetricsModel | ProbabilisticModel | ScriptingModel | None = None,
        spike_variables: tuple[str, ...] = (),
        spike_drop_fraction: float = 0.5,
        spike_quorum: float = 0.75,
    ) -> None:
        self.tracker = Tracker()
        for var in variables:
            self.tracker.register_variable(var)
        self.window_len = window_len
        self.references = references
        self.bands = dict(bands) if bands else {}
        self.weights = dict(weights) if weights else {}
        self.default_band = default_band
        self.policy = policy if policy is not None else QueuePolicy()
        self.model = model
        self.queue = ChangeQueue()
        self.spike_variables = spike_variables
        self.spike_drop_fraction = spike_drop_fraction
        self.spike_quorum = spike_quorum
        self.factors = None
        self.last_proficiency = 0.5  # medium prior until the first report
        self.last_report: AssessmentReport | None = None
        self._rank = 0.0
        self._windows = 0

    # -- setup ----------------------------------------------------------

    @property
    def model_name(self) -> str:
        return self.model.name if self.model is not None else "off"

    def bind(self, factors, seed: int) -> None:
        if self.factors is not None:
            raise ConfigError("engine already bound; one engine per episode")
        self.factors = factors
        if self.model is not None:
            self.model.bind(seed)

    @classmethod
    def from_config(
        cls,
        config,
        model: str = "off",
        references: ReferenceSet | None = None,
        fitness: str = "difference",
        regime: str = "clipping",
        rulebase: RuleBase | None = None,
    ) -> "DdaEngine":
        """Build an engine from a game config's adjustment section."""
        dda = config.dda
        bands: dict[str, FlowBand] = {}
        for var_id, (target, margin, semantics) in dda.bands.items():
            sem = (
                FlowSemantics.RATIO_CENTERED
                if semantics == "ratio"
                else FlowSemantics.DIFFICULTY_CENTERED
            )
            bands[var_id] = FlowBand(target, margin, sem)
        policy = QueuePolicy(
            min_ticks_between_executions=dda.min_ticks_between_executions,
            max_changes_per_update=dda.max_changes_per_update,
            max_changes_per_stage=dda.max_changes_per_stage,
        )
        model_obj: MetricsModel | ProbabilisticModel | ScriptingModel | None
        if model == "off":
            model_obj = None
        elif model == "metrics":
            if dda.metrics is None:
                raise ConfigError(f"config {config.name!r} has no metrics section")
            entries = {(v, f): w for v, f, w in dda.metrics.entries}
            matrix = WeightMatrix(
                entries,
                SignalMode.RATIO
                if dda.metrics.mode == "ratio"
                else SignalMode.THRESHOLD,
            )
            values: dict[str, float] = {}
            bounds: dict[str, tuple[float, float]] = {}
            for factor_id in sorted(matrix.factors):
                try:
                    spec = config.factors[factor_id]
                except KeyError:
                    raise ConfigError(
                        f"metrics matrix adjusts unknown factor {factor_id!r}"
                    ) from None
                values[factor_id] = spec.initial
                bounds[factor_id] = spec.bounds
            model_obj = MetricsModel(
                matrix,
                Multipliers(values, bounds),
                Composition.MULTIPLICATIVE
                if dda.metrics.composition == "multiplicative"
                else Composition.ADDITIVE,
            )
        elif model == "probabilistic":
            ch = dda.challenge
            settings = ChallengeSettings(
                band=FlowBand(ch.target, ch.margin, FlowSemantics.RATIO_CENTERED),
                gain=ch.gain,
                damage_bounds=config.factors["enemy_damage"].bounds,
                count_bounds=config.factors["enemy_count"].bounds,
                scale_limits=ch.scale_limits,
                potion_health_gate=ch.potion_health_gate,
                crit_proficiency_gate=ch.crit_proficiency_gate,
            )
            model_obj = ProbabilisticModel(settings)
        elif model == "dscript":
            ds = dda.dscript
            if ds is None:
                raise ConfigError(f"config {config.name!r} has no dscript section")
            if rulebase is None:
                rules = tuple(Rule(rid, dict(params)) for rid, params in ds.rules)
                rulebase = RuleBase(
                    agent_type="squad",
                    rules=rules,
                    weights={r.rule_id: ds.initial_weight for r in rules},
                    weight_floor=ds.weight_floor,
                    weight_cap=ds.weight_cap,
                )
            learning = (
                LearningState(
                    plateau_threshold=ds.plateau_threshold,
                    decay=ds.decay,
                    limit_floor=ds.limit_floor,
                )
                if ds.adrenaline
                else None
            )
            model_obj = ScriptingModel(
                rulebase,
                ds.script_size,
                FitnessMode.MAXIMIZE
                if fitness == "maximize"
                else FitnessMode.DIFFERENCE_MIN,
                Regime.TOP_CULLING if regime == "topculling" else Regime.CLIPPING,
                break_even=ds.break_even,
                max_reward=ds.max_reward,
                max_penalty=ds.max_penalty,
                learning=learning,
            )
        else:
            raise ConfigError(f"unknown model {model!r}")
        return cls(
            config.variables,
            window_len=config.window_len,
            references=references,
            bands=bands,
            weights=dda.weights,
            policy=policy,
            model=model_obj,
            spike_variables=dda.spike.variables,
            spike_drop_fraction=dda.spike.drop_fraction,
            spike_quorum=dda.spike.quorum,
        )

    # -- per-tick -------------------------------------------------------

    def on_tick(self, now: int) -> list[dict]:
        """Close a window if one is due; assess, adjust, drain."""
        if now <= 0 or now % self.window_len != 0:
            return []
        records: list[dict] = []
        windows = self.tracker.close_window(self.window_len, now=now)
        records.append(
            {
                "t": "window",
                "tick": now,
                "vars": {
                    w.var_id: {
                        "n": round(w.value, 9),
                        "cum": round(w.cumulative, 9),
                    }
                    for w in windows
                },
            }
        )
        for w in windows:
            if w.var_id not in self.spike_variables:
                continue
            spec = self.tracker.variables[w.var_id]
            if spec.mode is not TrackingMode.PERMANENT or spec.value_range is None:
                continue
            spike = self.tracker.detect_spike(
                w.var_id, w, self.spike_drop_fraction, self.spike_quorum
            )
            if spike is not None:
                records.append(
                    {
                        "t": "spike",
                        "tick": now,
                        "var": spike.var_id,
                        "magnitude": round(spike.magnitude, 9),
                        "attribution": spike.attribution,
                        "source": spike.source_tag,
                    }
                )
        if self.references is not None:
            report = evaluate(
                windows,
                self.references.curves,
                self.bands,
                self.weights,
                variables=self.tracker.variables,
                default_band=self.default_band,
                prev_rank=self._rank,
                prev_windows=self._windows,
            )
            self._rank = report.cumulative_rank
            self._windows = report.windows_seen
            self.last_proficiency = report.global_proficiency
            self.last_report = report
            records.append({"t": "assessment", "tick": now, **report.to_record()})
            if isinstance(self.model, MetricsModel):
                for request in self.model.on_report(report, now):
                    self.queue.enqueue(request)
        records.extend(self._drain(DrainContext.SUBTLE_WINDOW, now))
        return records

    # -- safe-moment hooks ------------------------------------------------

    def on_wave_break(
        self, now: int, zone: ZoneSpec | None, player: PlayerSnapshot | None
    ) -> list[dict]:
        """The pause between waves: an unseen-zone moment.

        With the probabilistic model and a zone preview this also runs the
        expected-outcome adjustment for the upcoming wave.
        """
        records: list[dict] = []
        if (
            isinstance(self.model, ProbabilisticModel)
            and zone is not None
            and player is not None
        ):
            expected, survival, requests = self.model.on_zone(zone, player, now)
            records.append(
                {
                    "t": "zone_preview",
                    "tick": now,
                    "zone": zone.zone_id,
                    "expected": round(expected.value, 9),
                    "survival": round(survival, 9),
                }
            )
            for request in requests:
                self.queue.enqueue(request)
        records.extend(self._drain(DrainContext.UNSEEN_ZONE, now))
        return records

    def on_player_dead(self, now: int) -> list[dict]:
        return self._drain(DrainContext.PLAYER_DEAD, now)

    def on_scene_change(self, now: int) -> list[dict]:
        records = self._drain(DrainContext.SCENE_CHANGE, now)
        self.queue.reset_stage()
        return records

    def _drain(self, context: DrainContext, now: int) -> list[dict]:
        if self.factors is None:
            raise ConfigError("engine not bound to a factor store")
        result: DrainResult = self.queue.drain(context, now, self.policy, self.factors)
        records = [a.to_record() for a in result.applied]
        records.extend(d.to_record() for d in result.dropped)
        return records

    # -- encounters -------------------------------------------------------

    def next_script(self) -> Script | None:
        if isinstance(self.model, ScriptingModel):
            return self.model.next_script()
        return None

    def script_params(self, script: Script) -> list[dict]:
        if not isinstance(self.model, ScriptingModel):
            return []
        return self.model.params_for(script)

    def on_encounter(
        self, result: EncounterResult, script: Script | None, now: int, wave: int
    ) -> list[dict]:
        if not isinstance(self.model, ScriptingModel) or script is None:
            return []
        update = self.model.on_encounter(result, script)
        return [{"t": "weights", "tick": now, "wave": wave, **update}]
