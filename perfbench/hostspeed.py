"""Host-speed yardstick: a fixed pure-Python loop timed right after every op.

The host this benchmark was written on changes speed by up to 40% from one
tenth of a second to the next, and can stay fast or slow for minutes
(``noise.md``).  No run length averages that out.  An op and a yardstick
timed back to back on the same CPU see the same speed, though, so every
host-time metric is reported in *reference seconds*:

    reference seconds = measured seconds * YARDSTICK_S / yardstick seconds

that is, what the op would have taken at the host speed at which the
yardstick takes ``YARDSTICK_S``.  The yardstick is frozen benchmark code and
never calls the program: a change to the program moves op times, not the
yardstick, so it shows in full.
"""

from __future__ import annotations

import gc
import time

# The yardstick's time on the 2-vCPU Xeon VM this benchmark was written on,
# in its usual (slow) mode; it only scales the reported numbers.
YARDSTICK_S = 0.001
_ROUNDS = 40


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x = x
        self.y = y

    def step(self, value: int) -> int:
        return (self.x * value + self.y) & 0xFFFF


def yardstick() -> float:
    """Seconds a fixed mix of calls, attribute reads, dict and list work takes now.

    The collector is held off so that collecting the program's heap is never
    charged to the yardstick.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for _ in range(_ROUNDS):
            table = {}
            items = []
            point = _Point(3, 5)
            for index in range(100):
                value = point.step(index)
                table[value] = index
                items.append(value ^ index)
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


def reference_seconds(seconds: float, yardstick_s: float) -> float:
    """``seconds`` measured next to a yardstick run of ``yardstick_s``."""
    return seconds * YARDSTICK_S / yardstick_s
