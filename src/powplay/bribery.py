"""Bribe sizing and reward-share chains for tip-orphaning attacks.

Two attacks share one shape: an adversary pays other pools to abandon a just
mined "target" block so that it gets orphaned and the adversary's own blocks
make up a larger fraction of what remains canonical.

* bribery: the target block is orphaned by other pools racing it; the
  adversary funds a bounty br1 for mining the rival block and br2 for the
  block that settles the race on the rival side.
* undercutting: the adversary mines the rival block itself and only pays a
  sweetener epsilon for the settling block.

Both are finite Markov chains over {idle} + {target mined by pool i} +
{rival standing against pool i's target}.  Each transition carries the block
winner's probability, how many blocks became canonical, and the adversary's
profit (canonical blocks it owns minus bribes paid).  The long-run reward
share is E[profit]/E[canonical blocks] per transition under the stationary
law.  Stationary vectors are evaluated from closed forms and re-derived by
power iteration on the transition matrix; the two routes must agree or the
evaluation refuses to return a number.

Bribe-sizing helpers answer "how much must the bounty be so that a
profit-tracking pool prefers racing the target" in three information
settings: the target's miner is known, the bounty rides in an ordinary
oversized transaction fee (collectible by whoever orphans the target), or
the miner is unknown and the bounty must sway the worst-case owner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from powplay.errors import ValidationError
from powplay.model import EpochModel, PoolSet, residual_centralization_factor

__all__ = [
    "BribeSchedule",
    "BribeRequirement",
    "ChainTransition",
    "RewardChain",
    "TargetPartition",
    "max_profitable_bribe",
    "bribery_profit",
    "required_bribes_known_miner",
    "required_bribes_whale",
    "required_bribes_unknown_miner",
    "build_bribery_chain",
    "bribery_reward_share",
    "build_undercut_chain",
    "undercut_reward_share",
]

_VARIANTS = ("known_miner", "whale", "unknown_miner")


@dataclass(frozen=True)
class BribeSchedule:
    """Normalized bribes (fractions of the block reward) for one attack variant."""

    variant: str
    br1: float = 0.0
    br2: float = 0.0

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValidationError(f"unknown bribe variant {self.variant!r}")
        for name in ("br1", "br2"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")


@dataclass(frozen=True)
class BribeRequirement:
    """A bribe schedule together with the attacker share needed to profit."""

    schedule: BribeSchedule
    min_adversary_share: float

    def feasible_for(self, alpha_a: float) -> bool:
        return alpha_a > self.min_adversary_share


def max_profitable_bribe(alpha_a: float) -> float:
    """Strict upper bound on the per-orphaning bribe that keeps the attack paying.

    Orphaning one rival block gains the attacker, after difficulty
    adjustment, one extra block slot worth alpha_a of expected reward; any
    bribe above that is a net loss.
    """
    if not 0.0 < alpha_a < 1.0:
        raise ValidationError(f"alpha_a must be in (0,1), got {alpha_a!r}")
    return alpha_a


def bribery_profit(
    alpha_a: float,
    br: float,
    k: float,
    epoch: EpochModel | None = None,
) -> float:
    """Per-time profit when k rival blocks per epoch are bought out of the chain.

    Every successful orphaning removes one rival block from the epoch's
    canonical count; after adjustment the attacker wins the freed slot with
    probability alpha_a while paying br, so each of the k events adds
    (alpha_a - br) * R / L per unit time on top of honest income.
    """
    if not 0.0 < alpha_a < 1.0:
        raise ValidationError(f"alpha_a must be in (0,1), got {alpha_a!r}")
    if br < 0 or k < 0:
        raise ValidationError("br and k must be >= 0")
    epoch = epoch or EpochModel()
    lam, R, L = epoch.block_rate, epoch.block_reward, epoch.blocks_per_epoch
    return lam * R * alpha_a + (lam * k * R / L) * (alpha_a - br)


def _check_share(alpha_i: float) -> None:
    if not 0.0 < alpha_i < 1.0:
        raise ValidationError(f"target share must be in (0,1), got {alpha_i!r}")


def required_bribes_known_miner(alpha_i: float, epsilon: float = 0.0) -> BribeRequirement:
    """Bounties swaying every pool against a target mined by a known pool of share alpha_i.

    The rival-block bounty must beat the victim's stake in its own block
    (alpha_i) plus the deviation margin; the settling bounty only needs the
    margin.  Total spend alpha_i + 2*epsilon must stay below the attacker's
    share for the attack to pay.
    """
    _check_share(alpha_i)
    if epsilon < 0:
        raise ValidationError("epsilon must be >= 0")
    sched = BribeSchedule("known_miner", br1=alpha_i + epsilon, br2=epsilon)
    return BribeRequirement(sched, min_adversary_share=alpha_i + 2 * epsilon)


def required_bribes_whale(alpha_i: float, epsilon: float = 0.0) -> BribeRequirement:
    """Bounties when br1 rides as an oversized fee inside the rival block.

    A fee is won by whoever mines the rival block, including the target's
    owner if the race fails, which dilutes its pull by the owner's own
    chance of re-capture: the fee must clear (alpha_i + epsilon)/(1 - alpha_i).
    """
    _check_share(alpha_i)
    if epsilon < 0:
        raise ValidationError("epsilon must be >= 0")
    br1 = (alpha_i + epsilon) / (1.0 - alpha_i)
    need = alpha_i / (1.0 - alpha_i) + epsilon * (1.0 / (1.0 - alpha_i) + 1.0)
    sched = BribeSchedule("whale", br1=br1, br2=epsilon)
    return BribeRequirement(sched, min_adversary_share=need)


def required_bribes_unknown_miner(
    pools: PoolSet, epsilon: float = 0.0
) -> BribeRequirement:
    """Bounties when the target block's miner cannot be identified.

    The bounty must sway a pool even in the worst case that it owns the
    target itself; the binding constraint is the smallest residual
    concentration factor among the non-adversarial pools.
    """
    if epsilon < 0:
        raise ValidationError("epsilon must be >= 0")
    petty = pools.others()
    if not petty:
        raise ValidationError("no non-adversarial pools to bribe")
    beta_min = min(residual_centralization_factor(pools, j) for j in petty)
    sched = BribeSchedule("unknown_miner", br1=beta_min + epsilon, br2=epsilon)
    return BribeRequirement(sched, min_adversary_share=beta_min + 2 * epsilon)


# -- target selection ---------------------------------------------------------------


@dataclass(frozen=True)
class TargetPartition:
    """Split of the non-adversarial pools into bribery targets and bystanders.

    ``b`` is the targets' combined share; ``beta`` is sum b_i/(1-b_i), the
    quantity the stationary closed forms are written in.
    """

    pools: PoolSet
    targets: tuple[int, ...]
    nontargets: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        adv = self.pools.adversary
        if adv is None:
            raise ValidationError("the pool set must designate an adversary")
        seen = set()
        for t in self.targets:
            if not 0 <= t < len(self.pools):
                raise ValidationError(f"target index {t} out of range")
            if t == adv:
                raise ValidationError("the adversary cannot target itself")
            if t in seen:
                raise ValidationError(f"duplicate target index {t}")
            seen.add(t)
        object.__setattr__(
            self,
            "targets",
            tuple(sorted(self.targets, key=lambda i: -self.pools.pools[i].share)),
        )
        object.__setattr__(
            self,
            "nontargets",
            tuple(i for i in self.pools.others() if i not in seen),
        )
        if self.b > 1.0 - self.pools.adversary_share + 1e-12:
            raise ValidationError("targets cannot out-weigh the rest of the network")

    @classmethod
    def auto(cls, pools: PoolSet, epsilon: float = 0.0) -> "TargetPartition":
        """Default policy: target every pool cheap enough to attack profitably.

        A pool is a target when its share plus twice the sweetener is below
        the adversary's share (the known-miner feasibility bound).
        """
        alpha_a = pools.adversary_share
        targets = tuple(
            j
            for j in pools.others()
            if pools.pools[j].share + 2 * epsilon < alpha_a
            and pools.pools[j].share > 0
        )
        return cls(pools, targets)

    @property
    def target_shares(self) -> tuple[float, ...]:
        return tuple(self.pools.pools[i].share for i in self.targets)

    @property
    def b(self) -> float:
        return sum(self.target_shares)

    @property
    def beta(self) -> float:
        return sum(s / (1.0 - s) for s in self.target_shares)


# -- reward chains ------------------------------------------------------------------


@dataclass(frozen=True)
class ChainTransition:
    src: int
    dst: int
    probability: float
    blocks_added: int
    adversary_profit: float


@dataclass(frozen=True)
class RewardChain:
    """A finite chain whose transitions carry (probability, blocks, profit)."""

    states: tuple[str, ...]
    transitions: tuple[ChainTransition, ...]

    def __post_init__(self):
        sums = [0.0] * len(self.states)
        for t in self.transitions:
            if not (0 <= t.src < len(self.states) and 0 <= t.dst < len(self.states)):
                raise ValidationError("transition endpoint out of range")
            if t.probability < -1e-15:
                raise ValidationError(f"negative probability on {t}")
            if t.blocks_added < 0:
                raise ValidationError(f"negative blocks_added on {t}")
            sums[t.src] += t.probability
        for i, s in enumerate(sums):
            if abs(s - 1.0) > 1e-9:
                raise ValidationError(
                    f"outgoing probabilities of {self.states[i]} sum to {s!r}"
                )

    def transition_matrix(self) -> np.ndarray:
        P = np.zeros((len(self.states), len(self.states)))
        for t in self.transitions:
            P[t.src, t.dst] += t.probability
        return P

    def stationary_power_iteration(
        self, tol: float = 1e-13, max_iter: int = 200_000
    ) -> np.ndarray:
        P = self.transition_matrix()
        pi = np.full(len(self.states), 1.0 / len(self.states))
        for _ in range(max_iter):
            nxt = pi @ P
            if np.abs(nxt - pi).sum() < tol:
                return nxt / nxt.sum()
            pi = nxt
        return pi / pi.sum()

    def reward_share(self, stationary: np.ndarray) -> float:
        """E[adversary profit] / E[canonical blocks] per transition."""
        profit = 0.0
        blocks = 0.0
        for t in self.transitions:
            w = stationary[t.src] * t.probability
            profit += w * t.adversary_profit
            blocks += w * t.blocks_added
        if blocks <= 0:
            raise ValidationError("chain settles no blocks")
        return profit / blocks


def _chain_skeleton(partition: TargetPartition):
    """State labels and index helpers shared by both attack chains."""
    names = [partition.pools.pools[i].name for i in partition.targets]
    states = ["idle"]
    states += [f"target[{n}]" for n in names]
    states += [f"rival[{n}]" for n in names]
    n = len(partition.targets)
    s1 = lambda i: 1 + i  # noqa: E731
    s2 = lambda i: 1 + n + i  # noqa: E731
    return tuple(states), n, s1, s2


def build_bribery_chain(
    pools: PoolSet,
    partition: TargetPartition | None = None,
    epsilon: float = 0.0,
) -> RewardChain:
    """Chain of the bounty-funded orphaning attack.

    From idle, a target block by pool i opens a bounty race; the adversary
    wins the race slot itself (collecting back its bounties), or some other
    pool mines the rival (bounty br1 = b_i + epsilon paid, race moves to the
    settle stage), or the target's owner extends its own block (new target).
    In the settle stage any non-owner block ends the race against the owner
    (the settling bounty epsilon is paid unless the adversary mined it
    itself); the owner can still rescue its block, re-opening a fresh target.
    """
    if partition is None:
        partition = TargetPartition.auto(pools, epsilon)
    if epsilon < 0:
        raise ValidationError("epsilon must be >= 0")
    a = pools.adversary_share
    states, n, s1, s2 = _chain_skeleton(partition)
    bs = partition.target_shares
    b = partition.b
    T = []
    add = lambda *args: T.append(ChainTransition(*args))  # noqa: E731
    # idle
    add(0, 0, a, 1, 1.0)
    add(0, 0, 1.0 - b - a, 1, 0.0)
    for i in range(n):
        add(0, s1(i), bs[i], 0, 0.0)
    for i in range(n):
        bi = bs[i]
        # target standing: adversary closes it, owner renews it, rest race it
        add(s1(i), 0, a, 2, 1.0)
        add(s1(i), s1(i), bi, 1, 0.0)
        add(s1(i), s2(i), 1.0 - a - bi, 0, -(bi + epsilon))
        # rival standing: anyone but the owner settles the race
        add(s2(i), 0, a, 2, 1.0)
        add(s2(i), 0, 1.0 - b - a, 2, -epsilon)
        add(s2(i), s1(i), bi, 1, 0.0)
        for j in range(n):
            if j != i:
                add(s2(i), s1(j), bs[j], 1, -epsilon)
    return RewardChain(states, tuple(T))


def _bribery_stationary(partition: TargetPartition, alpha_a: float) -> np.ndarray:
    beta = partition.beta
    b = partition.b
    n = len(partition.targets)
    pi = np.empty(1 + 2 * n)
    pi[0] = (1.0 - b + alpha_a * beta) / (1.0 + beta)
    for i, bi in enumerate(partition.target_shares):
        pi[1 + i] = bi / ((1.0 - bi) * (1.0 + beta))
        pi[1 + n + i] = bi * (1.0 - alpha_a - bi) / ((1.0 - bi) * (1.0 + beta))
    return pi


def build_undercut_chain(
    pools: PoolSet,
    partition: TargetPartition | None = None,
    epsilon: float = 0.0,
) -> RewardChain:
    """Chain of the self-mined rival (undercutting) attack.

    The adversary races a standing target block with its own rival block and
    sweetens the rival's side with epsilon.  While no rival exists the race
    can be lost outright (any non-target block settles the target); once the
    rival is up, everyone but the target's owner mines on it.
    """
    if partition is None:
        partition = TargetPartition.auto(pools, epsilon)
    if epsilon < 0:
        raise ValidationError("epsilon must be >= 0")
    a = pools.adversary_share
    states, n, s1, s2 = _chain_skeleton(partition)
    bs = partition.target_shares
    b = partition.b
    T = []
    add = lambda *args: T.append(ChainTransition(*args))  # noqa: E731
    add(0, 0, a, 1, 1.0)
    add(0, 0, 1.0 - b - a, 1, 0.0)
    for i in range(n):
        add(0, s1(i), bs[i], 0, 0.0)
    for i in range(n):
        bi = bs[i]
        # target standing, no rival yet
        add(s1(i), s2(i), a, 0, 0.0)
        add(s1(i), 0, 1.0 - b - a, 2, 0.0)
        for j in range(n):  # includes the owner extending its own target
            add(s1(i), s1(j), bs[j], 1, 0.0)
        # rival standing
        add(s2(i), 0, a, 2, 2.0)
        add(s2(i), 0, 1.0 - b - a, 2, 1.0 - epsilon)
        add(s2(i), s1(i), bi, 1, 0.0)
        for j in range(n):
            if j != i:
                add(s2(i), s1(j), bs[j], 1, 1.0 - epsilon)
    return RewardChain(states, tuple(T))


def _undercut_stationary(partition: TargetPartition, alpha_a: float) -> np.ndarray:
    b = partition.b
    n = len(partition.targets)
    pi = np.empty(1 + 2 * n)
    pi[0] = 1.0 - b * (1.0 + alpha_a)
    for i, bi in enumerate(partition.target_shares):
        pi[1 + i] = bi
        pi[1 + n + i] = alpha_a * bi
    return pi


def _bribery_share_formula(
    partition: TargetPartition, alpha_a: float, epsilon: float
) -> float:
    b = partition.b
    pi = _bribery_stationary(partition, alpha_a)
    n = len(partition.targets)
    num = alpha_a
    den = pi[0] * (1.0 - b)
    for i, bi in enumerate(partition.target_shares):
        p1, p2 = pi[1 + i], pi[1 + n + i]
        num -= p1 * (1.0 - alpha_a - bi) * (bi + epsilon)
        num -= p2 * (1.0 - alpha_a - bi) * epsilon
        den += p1 * (bi + 2.0 * alpha_a) + p2 * (2.0 - b)
    return num / den


def _undercut_share_formula(
    partition: TargetPartition, alpha_a: float, epsilon: float
) -> float:
    b = partition.b
    pi = _undercut_stationary(partition, alpha_a)
    n = len(partition.targets)
    num = pi[0] * alpha_a
    den = pi[0] * (1.0 - b)
    for i, bi in enumerate(partition.target_shares):
        p1, p2 = pi[1 + i], pi[1 + n + i]
        num += p2 * (2.0 * alpha_a + (1.0 - alpha_a - bi) * (1.0 - epsilon))
        den += p1 * (2.0 - 2.0 * alpha_a - b) + p2 * (2.0 - b)
    return num / den


def _cross_checked_share(
    chain: RewardChain, closed_pi: np.ndarray, formula_value: float
) -> float:
    """Return the closed-form share after re-deriving it from the chain itself.

    Two independent routes must agree: the stationary vector against power
    iteration on the transition matrix, and the displayed reward ratio
    against the per-transition profit/blocks accounting.
    """
    if abs(closed_pi.sum() - 1.0) > 1e-9:
        raise ValidationError(
            f"closed-form stationary vector sums to {closed_pi.sum()!r}"
        )
    power_pi = chain.stationary_power_iteration()
    if np.abs(power_pi - closed_pi).max() > 1e-9:
        raise ValidationError(
            "closed-form and power-iteration stationary vectors disagree; "
            "the chain construction and the formulas are out of sync"
        )
    accounted = chain.reward_share(closed_pi)
    if abs(accounted - formula_value) > 1e-9:
        raise ValidationError(
            "transition accounting and the closed reward formula disagree"
        )
    return formula_value


def bribery_reward_share(
    pools: PoolSet,
    partition: TargetPartition | None = None,
    epsilon: float = 0.0,
) -> float:
    """Long-run canonical-reward share of the bounty-funded orphaning attacker."""
    if partition is None:
        partition = TargetPartition.auto(pools, epsilon)
    if not partition.targets:
        return pools.adversary_share
    a = pools.adversary_share
    chain = build_bribery_chain(pools, partition, epsilon)
    return _cross_checked_share(
        chain,
        _bribery_stationary(partition, a),
        _bribery_share_formula(partition, a, epsilon),
    )


def undercut_reward_share(
    pools: PoolSet,
    partition: TargetPartition | None = None,
    epsilon: float = 0.0,
) -> float:
    """Long-run canonical-reward share of the undercutting attacker."""
    if partition is None:
        partition = TargetPartition.auto(pools, epsilon)
    if not partition.targets:
        return pools.adversary_share
    a = pools.adversary_share
    chain = build_undercut_chain(pools, partition, epsilon)
    return _cross_checked_share(
        chain,
        _undercut_stationary(partition, a),
        _undercut_share_formula(partition, a, epsilon),
    )
