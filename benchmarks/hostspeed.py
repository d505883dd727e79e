"""Host-speed reference: a fixed piece of work that does not use the package.

On a shared host the same item can take 1.6 times longer for seconds or
minutes at a time, as neighbours load the machine; that drift is far wider
than any bound worth setting. The benchmark therefore times this reference
right around every item and reports each item time scaled by
``REF_S / reference time``: the time the item would take on a host where the
reference takes REF_S seconds. The reference mixes the same kinds of work as
the package's hot paths (small-object churn, JSON encoding, small numpy
reshapes and matmuls), so both slow down alike. It lives in the benchmark,
so a change to the package cannot move it. Raw times are kept beside the
adjusted ones in every run's detail line.
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np

#: Nominal duration of one reference call; the scale adjusted times are quoted at.
REF_S = 0.004

_GATE = np.array([[0, 1], [1, 0]], dtype=complex)


def _reference_work() -> int:
    rows = [{"tick": i, "row": 3 * i, "lane": i & 3, "obstacles": [i, i + 1]} for i in range(1500)]
    text = "\n".join(json.dumps(row, separators=(",", ":")) for row in rows[:300])
    amps = np.ones(32, dtype=complex)
    for q in range(150):
        psi = np.moveaxis(amps.reshape((2,) * 5), q % 5, 0)
        amps = np.moveaxis((_GATE @ psi.reshape(2, -1)).reshape((2,) * 5), 0, q % 5).reshape(-1)
    return len(text) + int(amps.real.sum())


def reference_seconds(repeats: int = 2) -> float:
    """Fastest of ``repeats`` timed reference calls."""
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        _reference_work()
        best = min(best, perf_counter() - start)
    return best


class Clock:
    """Turns raw item times into adjusted ones, using references on both sides."""

    def __init__(self) -> None:
        self.last_reference = reference_seconds()

    def adjust(self, raw_s: float) -> float:
        """Scale a time just measured; call right after the timed work ends."""
        after = reference_seconds()
        speed = REF_S / ((self.last_reference + after) / 2)
        self.last_reference = after
        return raw_s * speed
