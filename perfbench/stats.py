"""Order statistics and metric naming rules shared by the benchmark."""

from __future__ import annotations

import math
import re
import statistics
from typing import List, Sequence

# Tail percentiles are only reported with at least this many samples beyond.
MIN_BEYOND_TAIL = 10
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def check_metric_name(name: str) -> str:
    if not METRIC_NAME.fullmatch(name):
        raise ValueError(f"metric name {name!r} is outside [A-Za-z0-9_.-]{{1,64}}")
    return name


def nearest_rank(samples: Sequence[float], quantile: float) -> float:
    """The nearest-rank ``quantile`` of ``samples`` (0 < quantile <= 1)."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(quantile * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, quantile: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``quantile``."""
    return max(0, count - max(1, math.ceil(quantile * count)))


def tail_percentile(samples: Sequence[float], quantile: float) -> float:
    """``nearest_rank`` that refuses a tail resting on fewer than ten samples."""
    beyond = samples_beyond(len(samples), quantile)
    if beyond < MIN_BEYOND_TAIL:
        raise ValueError(
            f"p{quantile * 100:g} of {len(samples)} samples has only {beyond} "
            f"beyond it; need {MIN_BEYOND_TAIL}"
        )
    return nearest_rank(samples, quantile)


def median_of_parts(parts: List[List[float]]) -> float:
    """Sum over parts of each part's median across repeats.

    ``parts[k]`` holds the wall times of part ``k`` in every repeat of a unit;
    taking each part's median before summing rejects a slow burst of the
    host without mixing parts of different sizes.
    """
    return sum(statistics.median(repeats) for repeats in parts)
