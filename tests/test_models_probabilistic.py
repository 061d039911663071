"""Expected-outcome estimation and the challenge adjustment around it."""

from __future__ import annotations

import itertools
import random

import pytest

from ddakit.adjustment import ChangeKind, Visibility
from ddakit.assessment import FlowBand, FlowSemantics
from ddakit.errors import DomainError, ValidationError
from ddakit.models.probabilistic import (
    AttackProfile,
    ChallengeSettings,
    PlayerSnapshot,
    ZoneSpec,
    challenge_adjust,
    expected_outcome,
)

BAND = FlowBand(0.25, 0.15, FlowSemantics.RATIO_CENTERED)


def player(health=100.0, max_health=100.0, proficiency=0.5, evade=0.0):
    return PlayerSnapshot(health, max_health, proficiency, evade)


def zone(*groups, zone_id="z"):
    return ZoneSpec(zone_id=zone_id, groups=tuple(groups))


# -- validation ---------------------------------------------------------------


def test_attack_profile_validation():
    ok = ((0.5, 10.0), (0.5, 0.0))
    with pytest.raises(DomainError):
        AttackProfile(0, 1, ok)
    with pytest.raises(DomainError):
        AttackProfile(1, 0, ok)
    with pytest.raises(ValidationError, match="at least one outcome"):
        AttackProfile(1, 1, ())
    with pytest.raises(ValidationError, match="sum to 1"):
        AttackProfile(1, 1, ((0.5, 10.0),))
    with pytest.raises(DomainError, match="negative"):
        AttackProfile(1, 1, ((1.5, 10.0), (-0.5, 0.0)))
    assert AttackProfile(3, 4, ok).attacks == 12


def test_zone_and_player_validation():
    with pytest.raises(ValidationError, match="no attacker groups"):
        ZoneSpec("empty", ())
    with pytest.raises(DomainError):
        PlayerSnapshot(10.0, 0.0)
    with pytest.raises(DomainError):
        PlayerSnapshot(10.0, 100.0, evade_prob=1.0)
    assert player(health=30.0).health_fraction == pytest.approx(0.3)


# -- expectation --------------------------------------------------------------


def test_enumeration_matches_linearity_of_expectation():
    # E[total] = sum over attacks of E[one attack]; exact, so 1e-12 holds.
    g1 = AttackProfile(2, 3, ((0.5, 10.0), (0.5, 0.0)))  # mean 5 per attack
    g2 = AttackProfile(1, 2, ((0.25, 8.0), (0.75, 0.0)))  # mean 2 per attack
    out = expected_outcome(zone(g1, g2), player())
    assert out.value == pytest.approx(6 * 5.0 + 2 * 2.0, abs=1e-12)


def test_evasion_scales_expected_damage():
    g = AttackProfile(2, 2, ((0.8, 10.0), (0.2, 0.0)))
    base = expected_outcome(zone(g), player()).value
    evaded = expected_outcome(zone(g), player(evade=0.25)).value
    assert base == pytest.approx(32.0, abs=1e-12)
    assert evaded == pytest.approx(24.0, abs=1e-12)


def brute_force_expectation(groups, evade):
    """Literal walk of the joint outcome space, written from scratch."""
    slots = []
    for g in groups:
        if evade > 0.0:
            eff = []
            miss = 0.0
            for p, d in g.outcomes:
                if d == 0.0:
                    miss += p
                else:
                    eff.append((p * (1.0 - evade), d))
                    miss += p * evade
            eff.append((miss, 0.0))
        else:
            eff = list(g.outcomes)
        slots.extend([eff] * (g.count * g.attacks_each))
    total = 0.0
    for combo in itertools.product(*slots):
        prob = 1.0
        dmg = 0.0
        for p, d in combo:
            prob *= p
            dmg += d
        total += prob * dmg
    return total


def test_enumeration_matches_brute_force_on_random_zones():
    rng = random.Random(1234)
    for _ in range(10):
        n_outcomes = rng.randint(2, 3)
        raw = [rng.uniform(0.1, 1.0) for _ in range(n_outcomes)]
        s = sum(raw)
        probs = [x / s for x in raw]
        outcomes = tuple(
            (p, 0.0 if i == 0 else rng.uniform(1.0, 12.0))
            for i, p in enumerate(probs)
        )
        g = AttackProfile(rng.randint(1, 2), rng.randint(1, 3), outcomes)
        evade = rng.choice([0.0, 0.3])
        got = expected_outcome(zone(g), player(evade=evade))
        want = brute_force_expectation([g], evade)
        assert got.value == pytest.approx(want, abs=1e-12)


def test_zone_above_the_walkable_size_is_exact():
    # 6 raiders x 4 attacks x 2 outcomes: 2^24 joint outcomes, still exact.
    raiders = AttackProfile(6, 4, ((0.7, 9.0), (0.3, 0.0)))
    assert expected_outcome(zone(raiders), player()).value == pytest.approx(
        24 * 0.7 * 9.0, abs=1e-12
    )
    evaded = expected_outcome(zone(raiders), player(evade=0.25)).value
    assert evaded == pytest.approx(24 * 0.7 * 0.75 * 9.0, abs=1e-12)


# -- challenge adjustment -------------------------------------------------------


class FakeOutcome:
    def __init__(self, value):
        self.value = value


def settings(**kw):
    kw.setdefault("band", BAND)
    kw.setdefault("gain", 0.6)
    return ChallengeSettings(**kw)


def test_soften_below_the_band():
    # r = (30 - 25) / 100 = 0.05, under the 0.10 lower edge.
    r, requests = challenge_adjust(FakeOutcome(25.0), player(health=30.0), settings(), now=7)
    assert r == pytest.approx(0.05)
    scale = 1.0 - 0.6 * (0.25 - 0.05)
    by_tag = {q.tag: q for q in requests}
    for factor in ("enemy_damage", "enemy_count"):
        q = by_tag[f"prob:{factor}"]
        assert q.kind is ChangeKind.MULTIPLICATIVE
        assert q.amount == pytest.approx(scale)
        assert q.visibility is Visibility.UNSEEN_ZONE
        assert q.issued_tick == 7
    # health 30% gates the potion gift; proficiency 0.5 blocks the crit one.
    assert "prob:potion_next_kill" in by_tag
    gift = by_tag["prob:potion_next_kill"]
    assert gift.kind is ChangeKind.SET and gift.amount == 1.0
    assert gift.visibility is Visibility.SUBTLE_ANYTIME
    assert "prob:crit_next_hit" not in by_tag


def test_crit_gift_gated_on_proficiency():
    r, requests = challenge_adjust(
        FakeOutcome(25.0), player(health=60.0, proficiency=0.40), settings(), now=0
    )
    assert r == pytest.approx(0.35)  # in the band: no scaling requests...
    assert requests == []
    # ...so push it below the band to see the crit gift appear.
    _, requests = challenge_adjust(
        FakeOutcome(55.0), player(health=60.0, proficiency=0.40), settings(), now=0
    )
    tags = {q.tag for q in requests}
    assert "prob:crit_next_hit" in tags
    assert "prob:potion_next_kill" not in tags  # health 60% is comfortable


def test_harden_at_and_above_the_upper_edge():
    # Exactly on the edge counts as ahead-of-the-curve.
    r, requests = challenge_adjust(FakeOutcome(25.0), player(health=65.0), settings(), now=0)
    assert r == pytest.approx(0.40)
    assert {q.tag for q in requests} == {"prob:enemy_damage", "prob:enemy_count"}
    assert requests[0].amount == pytest.approx(1.0 + 0.6 * (0.40 - 0.25))

    r2, requests2 = challenge_adjust(FakeOutcome(20.0), player(health=90.0), settings(), now=0)
    assert r2 == pytest.approx(0.70)
    assert requests2[0].amount == pytest.approx(1.0 + 0.6 * 0.45)


def test_inside_the_band_no_requests():
    r, requests = challenge_adjust(FakeOutcome(75.0), player(), settings(), now=0)
    assert r == pytest.approx(0.25)
    assert requests == []


def test_scale_clamped_to_limits():
    # Massive overkill: raw scale would go negative.
    r, requests = challenge_adjust(FakeOutcome(175.0), player(health=25.0), settings(), now=0)
    assert r == pytest.approx(-1.5)
    scaling = [q for q in requests if q.kind is ChangeKind.MULTIPLICATIVE]
    assert all(q.amount == 0.6 for q in scaling)

    # And a huge advantage clamps at the top.
    _, requests = challenge_adjust(FakeOutcome(-400.0), player(health=100.0), settings(), now=0)
    assert all(q.amount == 1.4 for q in requests)


def test_gifts_can_be_disabled():
    s = settings(potion_factor=None, crit_factor=None)
    _, requests = challenge_adjust(FakeOutcome(95.0), player(health=20.0, proficiency=0.1), s, now=0)
    assert all(q.kind is ChangeKind.MULTIPLICATIVE for q in requests)


def test_settings_validation():
    with pytest.raises(DomainError):
        settings(gain=-0.1)
