"""Hash-power distraction: selling a hidden block for an easier puzzle.

The attacker mines a block, keeps it secret, and announces: "solve an
out-of-band puzzle at 1/d of the chain difficulty and I will publish the
block (and pay a small reward)".  Profit-tracking pools that believe the
announcement face a choice between mining the chain tip (their next block
would only race the hidden one) and mining the cheap puzzle.  Power spent
on the puzzle produces no chain work, so the difficulty-adjustment picture
is the same as block destruction, but without orphan evidence.

Three bounties appear in the scheme, all normalized to the block reward:
br1 is the payout when the announcement was a lie (no block revealed), br2
the payout per puzzle solution when the block is revealed, and br3 the
sweetener for extending the attacker's fork during a race.

The analysis splits the network four ways: the attacker (alpha_a), one
deciding pool whose choice we are pricing (alpha_i), pools that always take
the puzzle when one is live (alpha_c), and pools that never do (alpha_nc).
The system then has three states: quiet mining, a live puzzle, and a fork
race between the revealed block and a defiant one.  Closed forms below give
the per-event state occupancy and the deciding pool's expected return under
either choice; their difference (normalized) is what the deciding pool
compares against its deviation threshold epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from powplay.errors import (
    InfeasibleError,
    ValidationError,
    require_nonnegative_finite,
    require_positive_finite,
)
from powplay.model import EpochModel

__all__ = [
    "PowerSplit",
    "DistractionParams",
    "ScenarioRates",
    "lying_bribe_bound",
    "distraction_profit_bound",
    "distraction_profit",
    "scenario_rates",
    "expected_return_delta",
    "delta_sweep",
    "default_deciding_grid",
    "min_difficulty_ratio",
    "distraction_reward_share",
]

SPLIT_SUM_TOL = 1e-9

#: Deciding-pool share grid used when none is supplied: 0.01 .. 0.30 in 0.01
#: steps.  0.30 is roughly the largest real-world pool share; above ~0.31 a
#: deciding pool is large enough that defending its own fork odds beats any
#: profitable puzzle reward, so the published frontier is stated on this
#: range.  Everyone outside the deciding pool is compliant (alpha_nc = 0);
#: that convention reproduces the published d >= 5 frontier.
DEFAULT_GRID_HI = 0.30


def _check_ratio(d_ratio: float) -> None:
    """Raise ValidationError unless d_ratio is a finite number >= 1 (NaN is not)."""
    if not 1.0 <= d_ratio < float("inf"):
        raise ValidationError(f"d_ratio must be a finite number >= 1, got {d_ratio!r}")


@dataclass(frozen=True)
class PowerSplit:
    """Four-way hash-power split used by the distraction analysis."""

    alpha_a: float
    alpha_i: float
    alpha_c: float
    alpha_nc: float

    def __post_init__(self):
        for name in ("alpha_a", "alpha_i", "alpha_c", "alpha_nc"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], got {v!r}")
        total = self.alpha_a + self.alpha_i + self.alpha_c + self.alpha_nc
        if abs(total - 1.0) > SPLIT_SUM_TOL:
            raise ValidationError(
                f"power split sums to {total!r}, expected 1 within {SPLIT_SUM_TOL}"
            )

    @classmethod
    def remainder_compliant(
        cls, alpha_a: float, alpha_i: float, alpha_nc: float = 0.0
    ) -> "PowerSplit":
        """Assign everything not named to the always-compliant bucket."""
        alpha_c = 1.0 - alpha_a - alpha_i - alpha_nc
        if alpha_c < -SPLIT_SUM_TOL:
            raise ValidationError("alpha_a + alpha_i + alpha_nc exceed 1")
        return cls(alpha_a, alpha_i, max(alpha_c, 0.0), alpha_nc)


@dataclass(frozen=True)
class DistractionParams:
    """Everything the simulator needs to run the distraction scheme."""

    split: PowerSplit
    d_ratio: float  # chain difficulty / puzzle difficulty, >= 1
    br2: float  # per-puzzle reward when the hidden block is revealed
    br3: float  # sweetener for supporting the attacker's fork in a race

    def __post_init__(self):
        _check_ratio(self.d_ratio)
        require_nonnegative_finite("br2", self.br2)
        require_nonnegative_finite("br3", self.br3)


def lying_bribe_bound(d_ratio: float, epsilon: float = 0.0) -> float:
    """Smallest lie payout br1 that still beats chain mining for a pool.

    If the attacker has no block behind the announcement, a pool mining the
    puzzle earns br1 per solution at d times the chain rate; matching chain
    mining plus the epsilon margin needs br1 >= (1 + epsilon)/d.
    """
    _check_ratio(d_ratio)
    require_nonnegative_finite("epsilon", epsilon)
    return (1.0 + epsilon) / d_ratio


def distraction_profit_bound(alpha_a: float, d_ratio: float) -> float:
    """Strict upper bound alpha_a/d on a per-puzzle reward that still profits.

    Each solved puzzle wastes 1/d of a block's worth of outside work, which
    the adjustment eventually replaces; the attacker mines alpha_a of the
    replacement.  Any reward at or above that breaks even or loses.
    """
    if not 0.0 < alpha_a < 1.0:
        raise ValidationError(f"alpha_a must be in (0, 1), got {alpha_a!r}")
    _check_ratio(d_ratio)
    return alpha_a / d_ratio


def distraction_profit(
    alpha_a: float,
    br: float,
    d_ratio: float,
    k: float,
    epoch: EpochModel | None = None,
) -> float:
    """Post-adjustment per-time profit with k puzzle payouts per epoch.

    Mirrors the bounty-attack profit shape: honest income plus k/L times the
    per-puzzle margin (alpha_a/d - br).  Exact when no attacker block is
    orphaned, which holds whenever every non-attacking pool takes the puzzle.
    """
    if not 0.0 < alpha_a < 1.0:
        raise ValidationError(f"alpha_a must be in (0, 1), got {alpha_a!r}")
    require_nonnegative_finite("br", br)
    _check_ratio(d_ratio)
    require_nonnegative_finite("k", k)
    epoch = epoch or EpochModel()
    rate_reward = epoch.block_rate * epoch.block_reward
    per_puzzle = alpha_a / d_ratio - br
    return rate_reward * (alpha_a + k / epoch.blocks_per_epoch * per_puzzle)


@dataclass(frozen=True)
class ScenarioRates:
    """Per-event win shares and state occupancy for one deciding-pool choice.

    alpha_*_prime are the event-win probabilities while the puzzle is live
    (state 1), where puzzle hash counts d-fold; rate_multiplier is the event
    rate in that state relative to the quiet-state block rate.  p0/p1/p2 are
    the stationary per-event probabilities of quiet / puzzle-live / race.
    """

    choice: str
    alpha_a_prime: float
    alpha_i_prime: float
    alpha_c_prime: float
    alpha_nc_prime: float
    rate_multiplier: float
    p0: float
    p1: float
    p2: float

    def occupancy(self) -> np.ndarray:
        return np.array([self.p0, self.p1, self.p2])


def scenario_rates(
    split: PowerSplit, d_ratio: float, choice: str = "mini_pow"
) -> ScenarioRates:
    """State occupancy when the deciding pool mines the puzzle or the chain.

    choice "mini_pow": the deciding pool joins the compliant set on the
    puzzle, so puzzle-live events arrive at (d(alpha_c+alpha_i) + alpha_nc +
    alpha_a) times the block rate.  choice "bitcoin": it stays on the chain
    and its tip block can start a race like a never-compliant one.
    """
    _check_ratio(d_ratio)
    aa, ai, ac, anc = split.alpha_a, split.alpha_i, split.alpha_c, split.alpha_nc
    if choice == "mini_pow":
        denom = d_ratio * (ac + ai) + anc + aa
        a_i = d_ratio * ai / denom
        race_feeders = anc / denom
    elif choice == "bitcoin":
        denom = d_ratio * ac + ai + anc + aa
        a_i = ai / denom
        race_feeders = (anc + ai) / denom
    else:
        raise ValidationError(f"choice must be mini_pow or bitcoin, got {choice!r}")
    a_c = d_ratio * ac / denom
    a_a = aa / denom
    a_nc = anc / denom
    pd = 1.0 - a_a + aa * (1.0 + race_feeders)
    return ScenarioRates(
        choice=choice,
        alpha_a_prime=a_a,
        alpha_i_prime=a_i,
        alpha_c_prime=a_c,
        alpha_nc_prime=a_nc,
        rate_multiplier=denom,
        p0=(1.0 - a_a) / pd,
        p1=aa / pd,
        p2=aa * race_feeders / pd,
    )


def expected_return_delta(
    split: PowerSplit, d_ratio: float, br2: float, epsilon: float = 0.0
) -> float:
    """Normalized return gap of puzzle mining over chain mining for p_i.

    Returns (puzzle-choice return - chain-choice return) / (alpha_i * block
    income); the deciding pool takes the puzzle iff this is >= epsilon.  The
    race sweetener br3 is pinned to epsilon, matching how the scheme is run.
    A zero-share deciding pool has nothing to decide: returns 0.
    """
    _check_ratio(d_ratio)
    require_nonnegative_finite("br2", br2)
    require_nonnegative_finite("epsilon", epsilon)
    ai = split.alpha_i
    if ai == 0.0:
        return 0.0
    br3 = epsilon
    m = scenario_rates(split, d_ratio, "mini_pow")
    # puzzle choice: quiet-state block income, race wins with the sweetener,
    # and br2 per puzzle solution at the inflated live-state event rate
    r1 = (
        ai * m.p0
        + ai * m.p2 * (1.0 + br3)
        + m.alpha_i_prime * m.p1 * br2 * m.rate_multiplier
    )
    b = scenario_rates(split, d_ratio, "bitcoin")
    # chain choice: races split between ones started by never-compliant
    # blocks (p_i supports the attacker, collecting br3) and ones started by
    # p_i's own block (it defends; winning keeps both its blocks)
    r2 = ai * b.p0
    feeders = b.alpha_nc_prime + b.alpha_i_prime
    if feeders > 0.0:
        r2 += ai * b.p2 * (b.alpha_nc_prime / feeders) * (1.0 + br3)
        r2 += 2.0 * ai * b.p2 * (b.alpha_i_prime / feeders)
    return (r1 - r2) / ai


def default_deciding_grid(alpha_a: float, step: float = 0.01) -> np.ndarray:
    """Deciding-pool shares 0.01..0.30 (capped at what alpha_a leaves over)."""
    require_positive_finite("step", step)
    hi = min(DEFAULT_GRID_HI, 1.0 - alpha_a)
    return np.arange(step, hi + step / 2, step)


def delta_sweep(
    alpha_a: float,
    br2: float,
    epsilon: float,
    d_ratio: float,
    alpha_i_grid=None,
    alpha_nc: float = 0.0,
) -> list[tuple[float, float]]:
    """Evaluate the return gap across deciding-pool shares.

    Every pool outside the attacker and the deciding pool is compliant
    unless alpha_nc says otherwise; this is the documented convention for
    the published frontier.
    """
    if alpha_i_grid is None:
        alpha_i_grid = default_deciding_grid(alpha_a)
    out = []
    for ai in alpha_i_grid:
        split = PowerSplit.remainder_compliant(alpha_a, float(ai), alpha_nc)
        out.append((float(ai), expected_return_delta(split, d_ratio, br2, epsilon)))
    return out


def min_difficulty_ratio(
    alpha_a: float,
    br2: float,
    epsilon: float = 0.0,
    alpha_i_grid=None,
    tol: float = 0.01,
) -> float:
    """Smallest difficulty ratio making the puzzle dominant for every pool.

    Bisects d over [1, alpha_a/br2] (the profitability ceiling: at larger d
    the per-puzzle margin alpha_a/d - br2 is negative) until the grid-wide
    minimum of the return gap clears epsilon, to a width of tol.  Returns
    the verified-passing endpoint.  Raises when no profitable d works at
    all, including the trivial case br2 >= alpha_a where the ceiling is
    below 1.
    """
    if not 0.0 < alpha_a < 1.0:
        raise ValidationError(f"alpha_a must be in (0, 1), got {alpha_a!r}")
    require_positive_finite("br2", br2)
    require_positive_finite("tol", tol)
    if alpha_i_grid is None:
        alpha_i_grid = default_deciding_grid(alpha_a)
    alpha_i_grid = [float(a) for a in alpha_i_grid]
    if not alpha_i_grid:
        raise ValidationError("alpha_i_grid is empty")
    if max(alpha_i_grid) > 1.0 - alpha_a:
        raise ValidationError("grid contains shares the attacker leaves no room for")

    def dominant_everywhere(d: float) -> bool:
        for ai in alpha_i_grid:
            split = PowerSplit.remainder_compliant(alpha_a, ai)
            if expected_return_delta(split, d, br2, epsilon) < epsilon:
                return False
        return True

    hi = alpha_a / br2
    if hi < 1.0:
        raise InfeasibleError(
            f"per-puzzle reward {br2} is at or above the profit bound "
            f"alpha_a/d for every d >= 1 (alpha_a = {alpha_a})"
        )
    if not dominant_everywhere(hi):
        raise InfeasibleError(
            f"no difficulty ratio up to the profitability ceiling "
            f"{hi:.4f} = alpha_a/br2 makes the puzzle dominant for every "
            f"share on the grid"
        )
    lo = 1.0
    if dominant_everywhere(lo):
        return lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if dominant_everywhere(mid):
            hi = mid
        else:
            lo = mid
    return hi


def distraction_reward_share(split: PowerSplit, d_ratio: float, br2: float) -> float:
    """Attacker's long-run canonical share, net of puzzle payouts.

    Evaluates the per-puzzle profit margin at the puzzle rate implied by the
    live-state occupancy (everyone on the puzzle: choice "mini_pow").  Exact
    when alpha_nc = 0, where no attacker block is ever orphaned: it then
    equals the exact share of powplay.sim's distraction automaton (br3 = 0,
    "mini_pow").  With a never-compliant remainder it inherits the
    no-orphan idealization and leaves race outcomes out, so it can miss
    that automaton, which models each winner, on either side: it reads
    below at (0.4, 0.1, 0.3, 0.2), d_ratio 5, br2 0.04 (0.41311 against
    0.41967) and above at (0.25, 0.15, 0.3, 0.3), d_ratio 3, br2 0.02
    (0.26196 against 0.25986).
    """
    require_nonnegative_finite("br2", br2)
    m = scenario_rates(split, d_ratio, "mini_pow")
    aa = split.alpha_a
    # canonical blocks per event: quiet non-attacker blocks settle at once;
    # every live-state event publishes one attacker block (a fresh mine
    # releases the previous hidden block, a puzzle solution releases it
    # too); races settle two on resolution
    live_settles = m.alpha_a_prime + m.alpha_c_prime + m.alpha_i_prime
    canonical = m.p0 * (1.0 - aa) + m.p1 * live_settles + 2.0 * m.p2
    puzzles = m.p1 * (m.alpha_c_prime + m.alpha_i_prime)
    return aa + puzzles * (aa / d_ratio - br2) / canonical
