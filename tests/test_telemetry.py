"""Telemetry tracker: windows, summaries, throttling, spikes."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ddakit.errors import (
    DomainError,
    ModeMismatchError,
    UnknownVariableError,
    ValidationError,
    WindowNotReadyError,
)
from ddakit.telemetry import (
    PermanentSummary,
    SampleResult,
    TrackedVariable,
    Tracker,
    TrackingMode,
)

EV = TrackingMode.EVENT_TRIGGERED
PERM = TrackingMode.PERMANENT


def event_var(var_id="dmg", **kw):
    return TrackedVariable(var_id, var_id, EV, **kw)


def health_var(var_id="health", **kw):
    kw.setdefault("min_sample_interval", 1)
    kw.setdefault("value_range", (0.0, 100.0))
    return TrackedVariable(var_id, var_id, PERM, **kw)


# -- registration and feeding guards ------------------------------------


def test_duplicate_registration_rejected():
    tr = Tracker()
    tr.register_variable(event_var())
    with pytest.raises(ValidationError, match="already registered"):
        tr.register_variable(event_var())


def test_unknown_variable_reports_known_ids():
    tr = Tracker()
    tr.register_variable(event_var("a"))
    with pytest.raises(UnknownVariableError, match="'b'"):
        tr.record_event("b", 1.0, 0)


def test_mode_mismatch_both_directions():
    tr = Tracker()
    tr.register_variable(event_var("e"))
    tr.register_variable(health_var("h"))
    with pytest.raises(ModeMismatchError):
        tr.sample_permanent("e", 1.0, 0)
    with pytest.raises(ModeMismatchError):
        tr.record_event("h", 1.0, 0)


def test_ticks_must_not_go_backwards():
    tr = Tracker()
    tr.register_variable(event_var())
    tr.record_event("dmg", 1.0, 10)
    tr.record_event("dmg", 1.0, 10)  # same tick is fine
    with pytest.raises(ValidationError, match="earlier"):
        tr.record_event("dmg", 1.0, 9)
    with pytest.raises(DomainError):
        tr.record_event("dmg", 1.0, -1)


def test_variable_spec_validation():
    with pytest.raises(ValidationError):
        TrackedVariable("", "x", EV).validate()
    with pytest.raises(DomainError):
        event_var(min_sample_interval=0).validate()
    with pytest.raises(DomainError):
        health_var(value_range=(5.0, 5.0)).validate()


# -- event windows -------------------------------------------------------


def test_event_window_sums_deltas_and_accumulates():
    tr = Tracker()
    tr.register_variable(event_var())
    for tick, delta in [(0, 3.0), (4, 2.5), (9, 4.5)]:
        tr.record_event("dmg", delta, tick)
    (w,) = tr.close_window(10)
    assert w.value == 10.0
    assert w.cumulative == 10.0
    assert w.window_start == 0 and w.window_len == 10
    assert w.samples == [(0, 3.0), (4, 2.5), (9, 4.5)]

    tr.record_event("dmg", 7.0, 12)
    (w2,) = tr.close_window(10)
    assert w2.window_start == 10
    assert w2.value == 7.0
    assert w2.cumulative == 17.0


def test_event_on_boundary_belongs_to_next_window():
    tr = Tracker()
    tr.register_variable(event_var())
    tr.record_event("dmg", 1.0, 9)
    tr.record_event("dmg", 5.0, 10)  # exactly on the boundary
    (w1,) = tr.close_window(10)
    assert w1.value == 1.0
    (w2,) = tr.close_window(10)
    assert w2.value == 5.0


def test_close_window_before_boundary_raises_with_remaining():
    tr = Tracker()
    tr.register_variable(event_var())
    with pytest.raises(WindowNotReadyError) as exc:
        tr.close_window(10, now=7)
    assert exc.value.ticks_remaining == 3
    # At the boundary it goes through.
    assert len(tr.close_window(10, now=10)) == 1
    with pytest.raises(DomainError):
        tr.close_window(0)


def test_empty_window_value_is_zero():
    tr = Tracker()
    tr.register_variable(event_var())
    (w,) = tr.close_window(10)
    assert w.value == 0.0
    assert w.cumulative == 0.0
    assert w.samples == []


# -- permanent windows ---------------------------------------------------


def test_depletion_is_open_minus_last_inside():
    tr = Tracker()
    tr.register_variable(health_var())
    tr.sample_permanent("health", 100.0, 0)
    tr.sample_permanent("health", 80.0, 3)
    tr.sample_permanent("health", 70.0, 8)
    (w,) = tr.close_window(10)
    assert w.value == 30.0  # 100 at open, 70 at close
    assert w.cumulative == 30.0

    # No samples in the next window: nothing depleted.
    (w2,) = tr.close_window(10)
    assert w2.value == 0.0
    assert w2.cumulative == 30.0

    # Carry survives the quiet window: open is still 70.
    tr.sample_permanent("health", 40.0, 25)
    (w3,) = tr.close_window(10)
    assert w3.value == 30.0
    assert w3.cumulative == 60.0


def test_depletion_with_no_samples_ever_is_zero():
    tr = Tracker()
    tr.register_variable(health_var())
    (w,) = tr.close_window(10)
    assert w.value == 0.0


def test_mean_summary_averages_accepted_samples():
    tr = Tracker()
    tr.register_variable(health_var(summary=PermanentSummary.MEAN))
    tr.sample_permanent("health", 90.0, 0)
    tr.sample_permanent("health", 60.0, 5)
    (w,) = tr.close_window(10)
    assert w.value == 75.0
    # A window without samples reports the carried last value.
    (w2,) = tr.close_window(10)
    assert w2.value == 60.0


def test_min_sample_interval_throttles():
    tr = Tracker()
    tr.register_variable(health_var(min_sample_interval=30))
    assert tr.sample_permanent("health", 100.0, 0) is SampleResult.ACCEPTED
    assert tr.sample_permanent("health", 95.0, 10) is SampleResult.THROTTLED
    assert tr.sample_permanent("health", 90.0, 29) is SampleResult.THROTTLED
    assert tr.sample_permanent("health", 85.0, 30) is SampleResult.ACCEPTED
    (w,) = tr.close_window(40)
    assert w.samples == [(0, 100.0), (30, 85.0)]
    assert w.value == 15.0  # throttled samples never count


@given(
    ticks=st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=60),
    interval=st.integers(min_value=1, max_value=50),
)
def test_throttle_property_gap_at_least_interval(ticks, interval):
    tr = Tracker()
    tr.register_variable(health_var(min_sample_interval=interval))
    accepted = []
    for t in sorted(ticks):
        if tr.sample_permanent("health", 1.0, t) is SampleResult.ACCEPTED:
            accepted.append(t)
    assert accepted, "the first sample is always accepted"
    assert accepted[0] == sorted(ticks)[0]
    for a, b in zip(accepted, accepted[1:]):
        assert b - a >= interval


def test_next_sample_tick_before_and_after_samples():
    tr = Tracker()
    tr.register_variable(health_var(min_sample_interval=30))
    assert tr.next_sample_tick("health") == 0  # before any sample
    assert tr.sample_permanent("health", 100.0, 5) is SampleResult.ACCEPTED
    assert tr.next_sample_tick("health") == 35  # right after an accepted one
    assert tr.sample_permanent("health", 90.0, 34) is SampleResult.THROTTLED
    assert tr.next_sample_tick("health") == 35  # a throttled call moves nothing
    assert tr.sample_permanent("health", 80.0, 35) is SampleResult.ACCEPTED
    assert tr.next_sample_tick("health") == 65


def test_next_sample_tick_with_unit_interval():
    tr = Tracker()
    tr.register_variable(health_var(min_sample_interval=1))
    tr.sample_permanent("health", 100.0, 0)
    assert tr.next_sample_tick("health") == 1
    tr.sample_permanent("health", 100.0, 1)
    assert tr.next_sample_tick("health") == 2


def test_next_sample_tick_guards():
    tr = Tracker()
    tr.register_variable(event_var("e"))
    with pytest.raises(ModeMismatchError):
        tr.next_sample_tick("e")
    with pytest.raises(UnknownVariableError):
        tr.next_sample_tick("ghost")


@given(
    ticks=st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=60),
    interval=st.integers(min_value=1, max_value=50),
)
def test_next_sample_tick_predicts_acceptance(ticks, interval):
    tr = Tracker()
    tr.register_variable(health_var(min_sample_interval=interval))
    for t in sorted(ticks):
        due = tr.next_sample_tick("health")
        result = tr.sample_permanent("health", 1.0, t)
        assert (result is SampleResult.ACCEPTED) == (t >= due)


@given(
    events=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=99),
            st.floats(min_value=-50, max_value=50, allow_nan=False),
        ),
        max_size=80,
    ),
    window_len=st.integers(min_value=1, max_value=40),
)
def test_windows_conserve_event_mass(events, window_len):
    """Slicing a run into windows never loses or duplicates deltas."""
    tr = Tracker()
    tr.register_variable(event_var())
    for tick, delta in sorted(events, key=lambda e: e[0]):
        tr.record_event("dmg", delta, tick)
    total = 0.0
    cumulative = 0.0
    n_samples = 0
    for _ in range(0, 100 + window_len, window_len):
        (w,) = tr.close_window(window_len)
        total += w.value
        cumulative = w.cumulative
        n_samples += len(w.samples)
    expected = math.fsum(d for _, d in events)
    assert total == pytest.approx(expected, abs=1e-9)
    assert cumulative == pytest.approx(expected, abs=1e-9)
    assert n_samples == len(events)


# -- spike detection ------------------------------------------------------


def _spike_setup():
    tr = Tracker()
    tr.register_variable(health_var())
    tr.register_variable(event_var("dmg"))
    return tr


def test_spike_magnitude_is_max_peak_to_trough():
    tr = _spike_setup()
    # Recovery to a new peak resets the descent: 50->20 is 30, 80->30 is 50.
    for tick, v in [(0, 50.0), (1, 20.0), (2, 80.0), (3, 30.0)]:
        tr.sample_permanent("health", v, tick)
    win = next(w for w in tr.close_window(10) if w.var_id == "health")
    spike = tr.detect_spike("health", win, drop_fraction=0.5, attribution_quorum=0.75)
    assert spike is not None
    assert spike.magnitude == 50.0
    assert spike.attribution == "group"  # no tagged events at all


def test_drop_below_fraction_is_not_a_spike():
    tr = _spike_setup()
    tr.sample_permanent("health", 100.0, 0)
    tr.sample_permanent("health", 60.0, 5)
    win = next(w for w in tr.close_window(10) if w.var_id == "health")
    # Range is (0, 100): a 40-point drop misses the 0.5 threshold...
    assert tr.detect_spike("health", win, 0.5, 0.75) is None
    # ...but meets a 0.4 one exactly (inclusive).
    spike = tr.detect_spike("health", win, 0.4, 0.75)
    assert spike is not None and spike.magnitude == 40.0


def test_spike_single_source_attribution():
    tr = _spike_setup()
    tr.sample_permanent("health", 100.0, 0)
    tr.record_event("dmg", 60.0, 2, cause_tag="boss")
    tr.record_event("dmg", 10.0, 3, cause_tag="minion")
    tr.sample_permanent("health", 30.0, 4)
    win = next(w for w in tr.close_window(10) if w.var_id == "health")
    spike = tr.detect_spike("health", win, 0.5, 0.75)
    assert spike is not None
    assert spike.magnitude == 70.0
    # boss explains 60/70 = 0.857 of the drop.
    assert spike.source_tag == "boss"
    assert spike.attribution == "single_source"


def test_spike_split_blame_is_a_group_effect():
    tr = _spike_setup()
    tr.sample_permanent("health", 100.0, 0)
    tr.record_event("dmg", 35.0, 2, cause_tag="a")
    tr.record_event("dmg", 35.0, 3, cause_tag="b")
    tr.sample_permanent("health", 30.0, 4)
    win = next(w for w in tr.close_window(10) if w.var_id == "health")
    spike = tr.detect_spike("health", win, 0.5, 0.75)
    assert spike is not None
    assert spike.source_tag is None
    assert spike.attribution == "group"


def test_spike_argument_domains():
    tr = _spike_setup()
    tr.sample_permanent("health", 100.0, 0)
    win = next(w for w in tr.close_window(10) if w.var_id == "health")
    for bad in (0.0, 1.5):
        with pytest.raises(DomainError):
            tr.detect_spike("health", win, bad, 0.75)
    for bad in (0.4, 1.1):
        with pytest.raises(DomainError):
            tr.detect_spike("health", win, 0.5, bad)


def test_spike_needs_permanent_variable_with_range():
    tr = Tracker()
    tr.register_variable(event_var("e"))
    tr.register_variable(TrackedVariable("h", "h", PERM))  # no value_range
    wins = tr.close_window(10)
    ew = next(w for w in wins if w.var_id == "e")
    hw = next(w for w in wins if w.var_id == "h")
    with pytest.raises(ModeMismatchError):
        tr.detect_spike("e", ew, 0.5, 0.75)
    with pytest.raises(ValidationError, match="value_range"):
        tr.detect_spike("h", hw, 0.5, 0.75)
