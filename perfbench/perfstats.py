"""Pure helpers of the benchmark: percentiles with their tail count, span
self time, control-tick gaps and failure accounting.

Nothing here imports exoassist, so the self-tests run without it.
"""
from __future__ import annotations

import numpy as np

MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked for with fewer than MIN_BEYOND samples above it."""


def percentile(values, q: float, min_beyond: int = MIN_BEYOND) -> tuple[float, int, int]:
    """The q-th percentile of ``values`` (numpy's linear rule), the sample
    count and the number of samples strictly above the percentile.

    Raises TooFewSamples when fewer than ``min_beyond`` samples lie above
    it: a tail percentile with less support than that does not repeat.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise TooFewSamples(f"p{q:g} of an empty sample")
    value = float(np.percentile(arr, q))
    beyond = int(np.count_nonzero(arr > value))
    if beyond < min_beyond:
        raise TooFewSamples(f"p{q:g} of {arr.size} samples has {beyond} beyond it, "
                            f"fewer than {min_beyond}")
    return value, int(arr.size), beyond


def self_times(starts, ends, parents) -> np.ndarray:
    """Each span's duration minus the part of it that its child spans cover.

    ``parents[i]`` is the index of span i's parent, or -1 for a root.
    Overlapping children are merged first, and children are clipped to
    their parent's interval, so no time is subtracted twice.
    """
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    out = ends - starts
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(int(p), []).append(i)
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        covered = 0.0
        cur_s = cur_e = None
        for k in sorted(kids, key=lambda k: starts[k]):
            s, e = max(starts[k], lo), min(ends[k], hi)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


def tick_gaps(starts, ends, substeps: int) -> np.ndarray:
    """Control-path time between consecutive ticks of one closed loop.

    ``starts``/``ends`` time every physics substep of the loop in order,
    ``substeps`` per tick. The gap after tick k runs from the end of its
    last substep to the start of the first substep of tick k + 1, so it
    holds everything but the plant.
    """
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    if starts.shape != ends.shape or starts.ndim != 1:
        raise ValueError("starts and ends must be 1-d and of equal length")
    if starts.size % substeps:
        raise ValueError(f"{starts.size} substeps is not a whole number of "
                         f"{substeps}-substep ticks")
    return starts[substeps::substeps] - ends[substeps - 1:-1:substeps]


class Tally:
    """Operations attempted and failed; a failure is never retried."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, op: str, problems: list[str]) -> bool:
        """Count one attempted operation; it failed if it has any problem."""
        self.attempted += 1
        if problems:
            self.failures.append(f"{op}: {'; '.join(problems)}")
        return not problems

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
