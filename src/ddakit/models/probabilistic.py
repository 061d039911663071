"""Probabilistic model: expected damage of an upcoming zone, then a nudge.

Before the player enters a zone (here: the next enemy wave), the model
computes the expected total damage the zone will deal. Damage adds up over
attacks, so the expectation is exact by linearity: each group contributes
its attack count times the mean damage of one attack. The expected damage
is turned into a survival ratio, compared against a band, and out-of-band
ratios become zone-scaling change requests, optionally sweetened with
one-shot gift events for a struggling player.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..adjustment import ChangeKind, ChangeRequest, Visibility
from ..assessment import FlowBand
from ..errors import DomainError, ValidationError

__all__ = [
    "AttackProfile",
    "ZoneSpec",
    "PlayerSnapshot",
    "ExpectedOutcome",
    "ChallengeSettings",
    "expected_outcome",
    "challenge_adjust",
]


@dataclass(frozen=True, slots=True)
class AttackProfile:
    """A homogeneous group of attackers inside a zone.

    ``outcomes`` is the per-attack damage distribution as (probability,
    damage) pairs, misses included as zero-damage mass.
    """

    count: int
    attacks_each: int
    outcomes: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if self.count < 1:
            raise DomainError(f"group count must be >= 1, got {self.count}")
        if self.attacks_each < 1:
            raise DomainError(
                f"attacks_each must be >= 1, got {self.attacks_each}"
            )
        if not self.outcomes:
            raise ValidationError("an attack needs at least one outcome")
        total = math.fsum(p for p, _ in self.outcomes)
        for p, _ in self.outcomes:
            if p < 0:
                raise DomainError(f"outcome probability {p} is negative")
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(
                f"outcome probabilities must sum to 1, got {total}"
            )

    @property
    def attacks(self) -> int:
        return self.count * self.attacks_each


@dataclass(frozen=True, slots=True)
class ZoneSpec:
    zone_id: str
    groups: tuple[AttackProfile, ...]

    def __post_init__(self) -> None:
        if not self.groups:
            raise ValidationError(f"zone {self.zone_id!r} has no attacker groups")


@dataclass(frozen=True, slots=True)
class PlayerSnapshot:
    health: float
    max_health: float
    proficiency: float = 0.5
    evade_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.max_health <= 0:
            raise DomainError(f"max_health must be > 0, got {self.max_health}")
        if not 0.0 <= self.evade_prob < 1.0:
            raise DomainError(f"evade_prob must be in [0, 1), got {self.evade_prob}")

    @property
    def health_fraction(self) -> float:
        return self.health / self.max_health


@dataclass(frozen=True, slots=True)
class ExpectedOutcome:
    value: float


def _effective_outcomes(
    profile: AttackProfile, evade_prob: float
) -> list[tuple[float, float]]:
    """Fold the player's evasion into the per-attack distribution."""
    if evade_prob <= 0.0:
        return list(profile.outcomes)
    eff: list[tuple[float, float]] = []
    dodged = 0.0
    for p, dmg in profile.outcomes:
        if dmg == 0.0:
            dodged += p
        else:
            eff.append((p * (1.0 - evade_prob), dmg))
            dodged += p * evade_prob
    eff.append((dodged, 0.0))
    return eff


def expected_outcome(zone: ZoneSpec, player: PlayerSnapshot) -> ExpectedOutcome:
    """Expected total damage the zone deals to this player.

    By linearity of expectation this is the sum over groups of the group's
    attack count times the mean damage of one (evasion-folded) attack.
    """
    value = math.fsum(
        g.attacks
        * math.fsum(p * d for p, d in _effective_outcomes(g, player.evade_prob))
        for g in zone.groups
    )
    return ExpectedOutcome(value=value)


@dataclass(frozen=True, slots=True)
class ChallengeSettings:
    """Knobs for turning a survival ratio into zone adjustments."""

    band: FlowBand
    gain: float = 0.6
    damage_factor: str = "enemy_damage"
    count_factor: str = "enemy_count"
    damage_bounds: tuple[float, float] = (0.2, 3.0)
    count_bounds: tuple[float, float] = (0.4, 2.5)
    scale_limits: tuple[float, float] = (0.6, 1.4)
    # One-shot gifts for a player who is both hurt and underperforming.
    potion_factor: str | None = "potion_next_kill"
    potion_health_gate: float = 0.4
    crit_factor: str | None = "crit_next_hit"
    crit_proficiency_gate: float = 0.45

    def __post_init__(self) -> None:
        if self.gain < 0:
            raise DomainError(f"gain must be >= 0, got {self.gain}")


def challenge_adjust(
    expected: ExpectedOutcome,
    player: PlayerSnapshot,
    settings: ChallengeSettings,
    now: int,
) -> tuple[float, list[ChangeRequest]]:
    """Turn an expected-outcome estimate into change requests.

    The survival ratio ``r = (health - expected_damage) / max_health``
    says how much of the health bar should survive the zone. Below the
    band the zone is softened, at or above the band's upper edge it is
    hardened; the multiplier moves away from 1 in proportion to the
    distance between r and the band target. Returns (r, requests).
    """
    r = (player.health - expected.value) / player.max_health
    band = settings.band
    requests: list[ChangeRequest] = []

    def scale_request(factor: str, bounds: tuple[float, float], scale: float) -> None:
        lo, hi = settings.scale_limits
        scale = min(max(scale, lo), hi)
        requests.append(
            ChangeRequest(
                tag=f"prob:{factor}",
                factor_id=factor,
                kind=ChangeKind.MULTIPLICATIVE,
                amount=scale,
                bounds=bounds,
                visibility=Visibility.UNSEEN_ZONE,
                issued_tick=now,
            )
        )

    def gift_request(factor: str) -> None:
        requests.append(
            ChangeRequest(
                tag=f"prob:{factor}",
                factor_id=factor,
                kind=ChangeKind.SET,
                amount=1.0,
                bounds=(0.0, 1.0),
                visibility=Visibility.SUBTLE_ANYTIME,
                issued_tick=now,
            )
        )

    if r < band.lower:
        scale = 1.0 - settings.gain * (band.target - r)
        scale_request(settings.damage_factor, settings.damage_bounds, scale)
        scale_request(settings.count_factor, settings.count_bounds, scale)
        if (
            settings.potion_factor is not None
            and player.health_fraction <= settings.potion_health_gate
        ):
            gift_request(settings.potion_factor)
        if (
            settings.crit_factor is not None
            and player.proficiency <= settings.crit_proficiency_gate
        ):
            gift_request(settings.crit_factor)
    elif r >= band.upper:
        scale = 1.0 + settings.gain * (r - band.target)
        scale_request(settings.damage_factor, settings.damage_bounds, scale)
        scale_request(settings.count_factor, settings.count_bounds, scale)
    return r, requests
