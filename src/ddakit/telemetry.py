"""Gameplay telemetry: tracked variables, windows, and spike detection.

Two tracking modes exist. Event-triggered variables are fed by explicit
game events (a death, a hit taken) and cost nothing between events.
Permanent variables are continuous signals (health) sampled through a
throttle so that a chatty caller cannot flood the tracker.

Time is integer ticks supplied by the caller; the tracker never reads a
clock. Windows close on demand, normally every ``window_len`` ticks, and
closing returns one :class:`VariableWindow` per registered variable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import (
    DomainError,
    ModeMismatchError,
    UnknownVariableError,
    ValidationError,
    WindowNotReadyError,
)

__all__ = [
    "TrackingMode",
    "Orientation",
    "PermanentSummary",
    "SampleResult",
    "TrackedVariable",
    "RecordedEvent",
    "VariableWindow",
    "SpikeReport",
    "Tracker",
]


class TrackingMode(Enum):
    EVENT_TRIGGERED = "event_triggered"
    PERMANENT = "permanent"


class Orientation(Enum):
    """How raw growth of the variable relates to perceived difficulty."""

    HIGHER_IS_HARDER = "higher_is_harder"
    HIGHER_IS_EASIER = "higher_is_easier"


class PermanentSummary(Enum):
    """How a permanent variable is reduced to one number per window.

    DEPLETION reports window-open value minus window-close value, so the
    per-window figures telescope to the total loss over an episode. MEAN
    reports the average of the accepted samples.
    """

    DEPLETION = "depletion"
    MEAN = "mean"


class SampleResult(Enum):
    ACCEPTED = "accepted"
    THROTTLED = "throttled"


@dataclass(frozen=True, slots=True)
class TrackedVariable:
    """Registration record for one telemetry variable."""

    var_id: str
    name: str
    mode: TrackingMode
    orientation: Orientation = Orientation.HIGHER_IS_HARDER
    reference_z: float = 0.0
    min_sample_interval: int = 1
    summary: PermanentSummary = PermanentSummary.DEPLETION
    value_range: tuple[float, float] | None = None

    def validate(self) -> None:
        if not self.var_id:
            raise ValidationError("var_id must be non-empty")
        if self.min_sample_interval < 1:
            raise DomainError(
                f"{self.var_id}: min_sample_interval must be >= 1, "
                f"got {self.min_sample_interval}"
            )
        if self.value_range is not None:
            lo, hi = self.value_range
            if not lo < hi:
                raise DomainError(
                    f"{self.var_id}: value_range must satisfy lo < hi, "
                    f"got ({lo}, {hi})"
                )


@dataclass(frozen=True, slots=True)
class RecordedEvent:
    var_id: str
    tick: int
    delta: float
    cause_tag: str | None = None


@dataclass(slots=True)
class VariableWindow:
    """One variable's summary for one closed window.

    ``value`` is the per-window figure N (event sum, depletion, or mean).
    ``cumulative`` is the running total of N since tracking began, which is
    what the performance ratio compares against a reference curve.
    ``samples`` holds (tick, delta) pairs for event variables and
    (tick, value) pairs of accepted samples for permanent ones.
    """

    var_id: str
    window_start: int
    window_len: int
    value: float
    cumulative: float
    samples: list[tuple[int, float]] = field(default_factory=list)

    @property
    def window_end(self) -> int:
        return self.window_start + self.window_len


@dataclass(frozen=True, slots=True)
class SpikeReport:
    """A sharp drop of a permanent variable within one window."""

    var_id: str
    magnitude: float
    source_tag: str | None

    @property
    def attribution(self) -> str:
        return "single_source" if self.source_tag is not None else "group"


class _VarState:
    __slots__ = (
        "spec",
        "last_tick",
        "open_events",
        "open_samples",
        "last_accepted_tick",
        "carry",
        "cumulative",
    )

    def __init__(self, spec: TrackedVariable) -> None:
        self.spec = spec
        self.last_tick: int | None = None
        self.open_events: list[RecordedEvent] = []
        self.open_samples: list[tuple[int, float]] = []
        self.last_accepted_tick: int | None = None
        # Value of the variable at the start of the open window; None until
        # the first sample arrives.
        self.carry: float | None = None
        self.cumulative = 0.0


class Tracker:
    """Registry plus accumulation state for all tracked variables."""

    def __init__(self) -> None:
        self._vars: dict[str, _VarState] = {}
        self.window_start = 0
        # Events of the most recently closed window, kept for spike
        # attribution until the next close (a ring of exactly two windows:
        # the open one plus the last closed one).
        self._prev_events: dict[str, list[RecordedEvent]] = {}

    # -- registration -------------------------------------------------

    def register_variable(self, spec: TrackedVariable) -> str:
        spec.validate()
        if spec.var_id in self._vars:
            raise ValidationError(f"variable {spec.var_id!r} already registered")
        self._vars[spec.var_id] = _VarState(spec)
        return spec.var_id

    @property
    def variables(self) -> dict[str, TrackedVariable]:
        return {vid: st.spec for vid, st in self._vars.items()}

    def _state(self, var_id: str) -> _VarState:
        try:
            return self._vars[var_id]
        except KeyError:
            raise UnknownVariableError(var_id, list(self._vars)) from None

    def _check_tick(self, state: _VarState, tick: int) -> None:
        if tick < 0:
            raise DomainError(f"tick must be >= 0, got {tick}")
        if state.last_tick is not None and tick < state.last_tick:
            raise ValidationError(
                f"{state.spec.var_id}: tick {tick} is earlier than "
                f"previously seen tick {state.last_tick}"
            )
        state.last_tick = tick

    # -- feeding ------------------------------------------------------

    def record_event(
        self,
        var_id: str,
        delta: float,
        tick: int,
        cause_tag: str | None = None,
    ) -> None:
        state = self._state(var_id)
        if state.spec.mode is not TrackingMode.EVENT_TRIGGERED:
            raise ModeMismatchError(
                f"{var_id} is tracked as permanent; use sample_permanent"
            )
        self._check_tick(state, tick)
        state.open_events.append(RecordedEvent(var_id, tick, delta, cause_tag))

    def sample_permanent(self, var_id: str, value: float, tick: int) -> SampleResult:
        state = self._state(var_id)
        if state.spec.mode is not TrackingMode.PERMANENT:
            raise ModeMismatchError(
                f"{var_id} is event-triggered; use record_event"
            )
        self._check_tick(state, tick)
        last = state.last_accepted_tick
        if last is not None and tick - last < state.spec.min_sample_interval:
            return SampleResult.THROTTLED
        state.last_accepted_tick = tick
        state.open_samples.append((tick, value))
        if state.carry is None:
            state.carry = value
        return SampleResult.ACCEPTED

    def next_sample_tick(self, var_id: str) -> int:
        """Earliest tick at which ``sample_permanent`` would accept a sample.

        Every call before that tick is throttled, so a caller that only
        samples on ticks where something happens can skip the others.
        """
        state = self._state(var_id)
        if state.spec.mode is not TrackingMode.PERMANENT:
            raise ModeMismatchError(f"{var_id} is event-triggered; it has no samples")
        last = state.last_accepted_tick
        if last is None:
            return 0
        return last + state.spec.min_sample_interval

    # -- windows ------------------------------------------------------

    def close_window(
        self, window_len: int, *, now: int | None = None
    ) -> list[VariableWindow]:
        """Close the current window and return one summary per variable.

        ``now`` is the closing tick; when given it must be at least one full
        window past the previous close. Records that arrived with ticks past
        the boundary are held back for the next window.
        """
        if window_len < 1:
            raise DomainError(f"window_len must be >= 1, got {window_len}")
        boundary = self.window_start + window_len
        if now is not None and now < boundary:
            raise WindowNotReadyError(boundary - now)

        windows: list[VariableWindow] = []
        prev_events: dict[str, list[RecordedEvent]] = {}
        for var_id, state in self._vars.items():
            spec = state.spec
            if spec.mode is TrackingMode.EVENT_TRIGGERED:
                inside = [ev for ev in state.open_events if ev.tick < boundary]
                state.open_events = [
                    ev for ev in state.open_events if ev.tick >= boundary
                ]
                prev_events[var_id] = inside
                value = float(sum(ev.delta for ev in inside))
                samples = [(ev.tick, ev.delta) for ev in inside]
            else:
                inside_s = [s for s in state.open_samples if s[0] < boundary]
                state.open_samples = [
                    s for s in state.open_samples if s[0] >= boundary
                ]
                samples = inside_s
                open_value = state.carry
                if spec.summary is PermanentSummary.DEPLETION:
                    if open_value is None or not inside_s:
                        close_value = open_value
                        value = 0.0
                    else:
                        close_value = inside_s[-1][1]
                        value = open_value - close_value
                    if inside_s:
                        state.carry = inside_s[-1][1]
                else:  # MEAN
                    if inside_s:
                        value = sum(v for _, v in inside_s) / len(inside_s)
                        state.carry = inside_s[-1][1]
                    elif open_value is not None:
                        value = open_value
                    else:
                        value = 0.0
            state.cumulative += value
            windows.append(
                VariableWindow(
                    var_id=var_id,
                    window_start=self.window_start,
                    window_len=window_len,
                    value=value,
                    cumulative=state.cumulative,
                    samples=samples,
                )
            )
        self._prev_events = prev_events
        self.window_start = boundary
        return windows

    # -- spike detection ----------------------------------------------

    def detect_spike(
        self,
        var_id: str,
        window: VariableWindow,
        drop_fraction: float,
        attribution_quorum: float,
    ) -> SpikeReport | None:
        """Check a closed permanent-variable window for a sharp drop.

        The drop is the maximum peak-to-trough descent within the window's
        accepted samples. It counts as a spike when it reaches
        ``drop_fraction`` of the variable's declared full range. Attribution
        scans the cause-tagged events retained from the same window: if one
        tag alone explains at least ``attribution_quorum`` of the drop the
        spike is pinned on that source, otherwise it is a group effect.
        """
        state = self._state(var_id)
        if state.spec.mode is not TrackingMode.PERMANENT:
            raise ModeMismatchError(f"{var_id}: spike detection needs a permanent variable")
        if state.spec.value_range is None:
            raise ValidationError(
                f"{var_id}: spike detection needs value_range on the variable"
            )
        if not 0.0 < drop_fraction <= 1.0:
            raise DomainError(
                f"drop_fraction must be in (0, 1], got {drop_fraction}"
            )
        if not 0.5 <= attribution_quorum <= 1.0:
            raise DomainError(
                f"attribution_quorum must be in [0.5, 1], got {attribution_quorum}"
            )

        values = [v for _, v in window.samples]
        drop = 0.0
        peak: float | None = None
        for v in values:
            if peak is None or v > peak:
                peak = v
            elif peak - v > drop:
                drop = peak - v
        lo, hi = state.spec.value_range
        if drop < drop_fraction * (hi - lo) or drop <= 0.0:
            return None

        shares: dict[str, float] = {}
        for events in self._prev_events.values():
            for ev in events:
                if ev.cause_tag is None or ev.delta <= 0:
                    continue
                if window.window_start <= ev.tick < window.window_end:
                    shares[ev.cause_tag] = shares.get(ev.cause_tag, 0.0) + ev.delta
        source: str | None = None
        if shares:
            tag, total = max(shares.items(), key=lambda kv: (kv[1], kv[0]))
            if total / drop >= attribution_quorum:
                source = tag
        return SpikeReport(var_id=var_id, magnitude=drop, source_tag=source)
