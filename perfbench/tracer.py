"""In-memory span tracer that wraps layer entry points from outside the program.

A :class:`Tracer` keeps a stack of open spans.  When a span closes, its
duration is charged to its layer's *inclusive* time (outermost span of that
layer only, so a layer re-entered below itself is not counted twice), and its
duration minus the time of its child spans is charged to the layer's *self*
time.  Self times therefore partition the traced wall time: they nest, and
their sum can never exceed it.

:class:`Instrumentation` patches the public methods named in a layer table
for the duration of a ``with`` block and restores the originals on exit, so
a traced round and an untraced round run the same program code.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class LayerStats:
    """Aggregates of one layer's spans."""

    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0
    durations: List[float] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=lambda: defaultdict(float))


class Tracer:
    """Span stack plus per-layer aggregates; ``clock`` is injectable for tests."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.layers: Dict[str, LayerStats] = defaultdict(LayerStats)
        # Open spans: [layer, start, child_seconds].
        self._stack: List[list] = []
        self._open_depth: Dict[str, int] = defaultdict(int)

    def begin(self, layer: str) -> None:
        self._open_depth[layer] += 1
        self._stack.append([layer, self.clock(), 0.0])

    def end(self) -> None:
        """Close the innermost span."""
        layer, start, child_seconds = self._stack.pop()
        duration = self.clock() - start
        self._open_depth[layer] -= 1
        stats = self.layers[layer]
        stats.calls += 1
        stats.self_s += duration - child_seconds
        stats.durations.append(duration)
        if self._open_depth[layer] == 0:
            stats.inclusive_s += duration
        if self._stack:
            self._stack[-1][2] += duration

    def count(self, layer: str, name: str, amount: float = 1) -> None:
        self.layers[layer].counts[name] += amount

    def total_self_s(self) -> float:
        return sum(stats.self_s for stats in self.layers.values())


# observe(tracer, result) records counts after a wrapped call returns.
Observer = Callable[[Tracer, object], None]


@dataclass(frozen=True)
class Probe:
    """One wrapped entry point: ``owner.method`` charged to ``layer``."""

    owner: type
    method: str
    layer: str
    observe: Optional[Observer] = None


def wrap(tracer: Tracer, function: Callable, layer: str, observe: Optional[Observer]):
    @functools.wraps(function)
    def traced(*args, **kwargs):
        tracer.begin(layer)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.end()
        if observe is not None:
            observe(tracer, result)
        return result

    return traced


class Instrumentation:
    """Context manager that wraps every probe's method and restores it on exit."""

    def __init__(self, tracer: Tracer, probes: Sequence[Probe]) -> None:
        self.tracer = tracer
        self.probes = list(probes)
        self._saved: List[Tuple[type, str, object]] = []

    def __enter__(self) -> Tracer:
        for probe in self.probes:
            # The class's own attribute, not getattr's bound view, so that
            # exit restores exactly what was there.
            original = probe.owner.__dict__[probe.method]
            self._saved.append((probe.owner, probe.method, original))
            setattr(
                probe.owner,
                probe.method,
                wrap(self.tracer, original, probe.layer, probe.observe),
            )
        return self.tracer

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, method, original = self._saved.pop()
            setattr(owner, method, original)
