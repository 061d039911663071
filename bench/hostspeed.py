"""How fast the host is running right now, measured with fixed Python work.

Shared virtual machines can change speed by a factor of up to 1.4 for
minutes at a time (CPU time equals wall time and there is no steal; the
host's cores simply run slower). Raw timings of the same code then differ
more between two sets of runs than any useful regression bound. The probe
below is interpreter-bound work shaped like a tick loop (slotted objects,
attribute updates, seeded random draws, dict and list churn) that shares no
code with ddakit, so a ddakit change cannot move it. Timed just before and
after the work it brackets, it tracks the host's speed. Dividing a timing
by it cancels the drift: on a 2-core Intel Xeon virtual machine, raw
half-minute averages of a fixed workload moved by ±14%, normalised ones by
±3%.

``REFERENCE_S`` is the probe's typical duration on that machine. A timing ``t``
measured while the probe takes ``p`` seconds is reported as
``t * REFERENCE_S / p``: what it would have taken at the reference speed.
"""

from __future__ import annotations

import gc
import random
import time

REFERENCE_S = 0.100


class _Unit:
    __slots__ = ("hp", "cooldown", "interval")

    def __init__(self, hp: float, interval: int) -> None:
        self.hp = hp
        self.cooldown = interval
        self.interval = interval


def probe(ticks: int = 100_000) -> float:
    """Seconds the fixed probe work takes now, with the collector paused.

    Pausing the collector keeps the probe's time independent of how many
    objects the program under test holds; the probe itself makes no cycles.
    """
    rng = random.Random(12345)
    units = [_Unit(30.0, 5 + i) for i in range(6)]
    log: list[dict] = []
    totals: dict[int, float] = {}
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for tick in range(ticks):
            for u in units:
                u.cooldown -= 1
                if u.cooldown > 0:
                    continue
                u.cooldown = u.interval
                if rng.random() < 0.7:
                    u.hp -= 1.5
                    log.append({"t": "hit", "tick": tick, "amount": round(u.hp, 9)})
                    totals[tick % 17] = totals.get(tick % 17, 0.0) + u.hp
            if len(log) > 200:
                log = log[100:]
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
