"""The benchmark's percentile rule."""

from __future__ import annotations

import math
from typing import Sequence

#: a percentile is reported only with this many samples beyond it
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q < 1``) of ``samples``.

    The value at rank ``ceil(q·n)`` is returned only when at least
    :data:`MIN_BEYOND` samples lie beyond that rank; otherwise the
    percentile rests on too few observations and ``ValueError`` is
    raised.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    n = len(samples)
    rank = max(1, math.ceil(q * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has {beyond} beyond it; "
            f"at least {MIN_BEYOND} are required"
        )
    return sorted(samples)[rank - 1]
