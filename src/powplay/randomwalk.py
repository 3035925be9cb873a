"""Biased-walk analytics for two-fork races.

A fork race between one pool with share ``alpha`` and everyone else is a
monotone lattice path: the x axis counts the pool's blocks, the y axis counts
everyone else's.  Each step moves right with probability ``alpha``.  The
quantities here answer two questions a profit-tracking pool faces when its
own fork has fallen behind:

* how likely is it ever to get ``r`` blocks ahead of the rest
  (:func:`prob_never_reach` gives the complement), and
* at what share does sticking with a fork that is one block behind a
  two-block rival beat switching (:func:`abandon_threshold`).

The generating-function sums over first-passage path counts
(:func:`g_series`, :func:`f_series`) are evaluated from their closed forms;
series summation only appears in the test suite's enumeration oracle.

Notation used throughout: paths start at (0,0); ``G_s`` counts paths to
(s, s+d) that first touch the line y = x+d there while never touching
y = x-2 earlier; ``F_s`` counts paths to (s+2, s) that first touch y = x-2
there while never touching y = x+d earlier.  Series are in powers of
x = alpha*(1-alpha).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from powplay.errors import ConvergenceError, ValidationError, require_integer, require_positive_finite

__all__ = [
    "SeriesResult",
    "prob_never_reach",
    "g_series",
    "f_series",
    "f_series_weighted",
    "fork_abandon_returns",
    "abandon_threshold",
    "walk_never_reach_mc",
]


@dataclass(frozen=True)
class SeriesResult:
    """A generating-function evaluation: plain sum and s-weighted sum."""

    sum: float
    weighted_sum: float


def _check_share(share: float, upper: float = 1.0) -> None:
    if not 0.0 < share < upper:
        raise ValidationError(f"share must be in (0, {upper}), got {share!r}")


def prob_never_reach(share: float, r: int) -> float:
    """Probability a pool with ``share`` never gets ``r`` blocks ahead of the rest.

    The walk's lead changes by +1 with probability ``share`` and -1 otherwise;
    the classic ruin argument gives hit probability (share/(1-share))^r, which
    is 1 for share >= 1/2.  The result is clamped to [0, 1] so it stays a
    probability for shares above one half.
    """
    _check_share(share)
    require_integer("r", r)
    if r < 1:
        raise ValidationError(f"r must be a positive integer, got {r!r}")
    q = share / (1.0 - share)
    return min(1.0, max(0.0, 1.0 - q**r))


def g_series(share: float, d: int) -> SeriesResult:
    """Sum and s-weighted sum of G_s x^s at x = share*(1-share).

    ``sum`` times (1-share)^d is the probability that the rest of the network
    gets d blocks ahead before the pool ever gets 2 ahead.
    """
    _check_share(share, upper=0.5)
    require_integer("d", d)
    if d < 1:
        raise ValidationError(f"d must be >= 1, got {d!r}")
    a = share
    b = 1.0 - a
    m = d + 2
    pw = b**m - a**m
    total = (1.0 - 2.0 * a) / pw
    weighted = (
        m * a * b * (b ** (m - 1) + a ** (m - 1)) / pw**2
        - 2.0 * a * b / ((1.0 - 2.0 * a) * pw)
    )
    return SeriesResult(total, weighted)


def f_series(share: float, d: int) -> float:
    """Sum of F_s x^s at x = share*(1-share).

    Scaled by share^2 this is the probability that the pool gets 2 blocks
    ahead before the rest gets d ahead; together with the g_series mass the
    two first-passage probabilities cover every walk.
    """
    _check_share(share, upper=0.5)
    require_integer("d", d)
    if d < 1:
        raise ValidationError(f"d must be >= 1, got {d!r}")
    a = share
    b = 1.0 - a
    q = a / b
    return (1.0 - (1.0 - 2.0 * a) / (b * b * (1.0 - q ** (d + 2)))) / (a * a)


def f_series_weighted(share: float, d: int) -> float:
    """s-weighted sum of F_s x^s at x = share*(1-share).

    Obtained as x * d/dx of the f_series closed form; with x = a(1-a) the
    chain rule turns that into a*(1-a)/(1-2a) times the alpha-derivative.
    """
    _check_share(share, upper=0.5)
    require_integer("d", d)
    if d < 1:
        raise ValidationError(f"d must be >= 1, got {d!r}")
    a = share
    b = 1.0 - a
    m = d + 2
    q = a / b
    # f_series = 1/a^2 - B with B = (1-2a) / (a^2 b^2 (1 - q^m))
    B = (1.0 - 2.0 * a) / (a * a * b * b * (1.0 - q**m))
    dB = B * (
        -2.0 / (1.0 - 2.0 * a)
        - 2.0 / a
        + 2.0 / b
        + m * q ** (m - 1) / (b * b * (1.0 - q**m))
    )
    d_sf = -2.0 / a**3 - dB
    return a * b * d_sf / (1.0 - 2.0 * a)


def fork_abandon_returns(share: float, d: int) -> tuple[float, float]:
    """Expected race returns for a pool whose own fork trails 1-to-2.

    The pool's fork is one block long (its own block), the rival fork two.
    ``r1``: expected reward from staying until the race resolves, where the
    pool wins by pulling one ahead and loses once the rival leads by ``d``
    (at which point even a maximally loyal profit-tracking pool must follow
    the longest chain).  ``r2``: expected reward from switching to the rival
    fork immediately, counted over the same race window.  Staying pays iff
    r1 > r2.
    """
    require_integer("d", d)
    if d < 2:
        raise ValidationError(f"d must be >= 2, got {d!r}")
    _check_share(share, upper=0.5)
    a = share
    sf = f_series(a, d - 1)
    wf = f_series_weighted(a, d - 1)
    g = g_series(a, d - 1)
    a2 = a * a
    r1 = a2 * (3.0 * sf + wf)
    r2 = a2 * (2.0 * sf + wf) + (1.0 - a) ** (d - 1) * g.weighted_sum
    return r1, r2


def abandon_threshold(d: int, tol: float = 1e-6) -> float:
    """Share above which staying on a 1-behind-2 fork beats abandoning it.

    Root of r1 - r2 in (0.01, 0.49) by bisection; below the root a
    profit-tracking pool abandons its own trailing fork.
    """
    require_integer("d", d)
    if d < 2:
        raise ValidationError(f"d must be >= 2, got {d!r}")
    require_positive_finite("tol", tol)

    def diff(a: float) -> float:
        r1, r2 = fork_abandon_returns(a, d)
        return r1 - r2

    lo, hi = 0.01, 0.49
    flo, fhi = diff(lo), diff(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0.0) == (fhi < 0.0):
        raise ConvergenceError(
            f"no sign change of r1 - r2 on ({lo}, {hi}) for d={d}",
            residual=min(abs(flo), abs(fhi)),
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if (diff(mid) < 0.0) == (flo < 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def walk_never_reach_mc(
    share: float,
    r: int,
    walks: int = 1_000_000,
    seed: int = 0,
    step_cap: int = 100_000,
    band: int = 30,
) -> float:
    """Monte Carlo estimate of prob_never_reach, exact in expectation.

    Each walk tracks the pool's lead.  It is absorbed on hitting ``r``
    (counted as a hit) or on falling ``band`` below ``r`` (counted with the
    exact analytic hit probability from there, which keeps the estimator
    unbiased while bounding runtime); walks still alive at ``step_cap`` are
    likewise closed out analytically.  Every walk takes its first step, even
    one that starts at or below the floor (``band <= r``).  ``r``, ``walks``
    and ``band`` must be integers of at least 1, ``walks`` at most 2**63 - 1,
    and ``step_cap`` an integer of at least 0.

    The walks are independent and identically distributed, so the estimate
    depends only on how many of them stop at each lead, and the walk tracks
    counts, not walkers: one int64 count per lead from the lowest lead a walk
    can stop at up to ``r``.  A step moves ``binomial(count, share)`` of each
    stepping lead's walks up and the rest down, which is the law of that many
    independent steps, so the counts (and the estimate) have the same
    distribution as walking each walk on its own; the work is band times the
    longest lifetime rather than walks times steps.  Leads outside the band
    never step again, so their counts are the tallies of walks absorbed
    there.  The hit mass is one dot product of the final counts with each
    lead's exact hit probability.  One ``default_rng(seed)`` draws every
    step, so the result depends only on (seed, walks).
    """
    _check_share(share)
    for name, value, least in (("r", r, 1), ("walks", walks, 1), ("step_cap", step_cap, 0), ("band", band, 1)):
        require_integer(name, value)
        if value < least:
            raise ValidationError(f"{name} must be at least {least}, got {value!r}")
    if walks > np.iinfo(np.int64).max:
        raise ValidationError(f"walks must fit in int64 (at most 2**63 - 1), got {walks!r}")
    floor = r - band
    lowest = min(floor, -1)  # a walk starting at or below the floor can stop at -1
    # min(1, q) ** gap is min(1, q ** gap) without overflowing for q > 1
    close = min(1.0, share / (1.0 - share)) ** np.arange(r - lowest, -1, -1.0)
    counts = np.zeros(r + 1 - lowest, dtype=np.int64)
    counts[-lowest] = walks  # every walk starts at lead 0
    # the first step moves the start's lead too; later steps only the band's interior
    first, interior, stop = min(0, floor + 1) - lowest, floor + 1 - lowest, r - lowest
    rng = np.random.default_rng(seed)
    for _ in range(step_cap):
        moving = counts[first:stop]
        if not moving.any():
            break
        up = rng.binomial(moving, share)
        down = moving - up
        moving[:] = 0
        counts[first + 1:stop + 1] += up
        counts[first - 1:stop - 1] += down
        first = interior
    return 1.0 - float(counts @ close) / walks
