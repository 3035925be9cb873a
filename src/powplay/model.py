"""Mining-pool population model and hash-power concentration measures.

The whole toolkit works on one shared picture of the network: a fixed set
of mining pools, each holding a constant fraction of the total hash power,
with one pool optionally designated as the attacker.  Everything downstream
(fork races, bribe sizing, the strategy solver, the simulator) consumes the
types defined here.

Two concentration measures recur throughout:

* the concentration factor, ``sum_i share_i**2`` -- the probability that
  two independently sampled blocks were mined by the same pool, and
* the residual concentration factor of pool ``i``, the same quantity
  computed over everyone *except* ``i`` and renormalised to their combined
  power.  ``1 - residual`` is pool ``i``'s chance of winning a one-block
  fork race in which every other pool has been bribed onto its side.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

from powplay.errors import ValidationError, require_integer, require_nonnegative_finite, require_positive_finite

__all__ = [
    "Pool",
    "PoolSet",
    "AttackParams",
    "EpochModel",
    "ValidationError",
    "centralization_factor",
    "residual_centralization_factor",
    "pool_advantage",
    "load_pool_file",
    "parse_pool_entries",
    "bundled_pool_file",
    "BITCOIN_POOLS",
    "BITCOIN_POOLS_MERGED",
]

SHARE_SUM_TOL = 1e-9


@dataclass(frozen=True)
class Pool:
    """A mining pool: display name, hash-power share, per-block mining cost.

    ``cost`` is kept for completeness of the economic model; the attacks
    analysed here compare revenues of equal-power strategies, so it defaults
    to zero and cancels out everywhere it is not explicitly used.
    """

    name: str
    share: float
    cost: float = 0.0

    def __post_init__(self):
        require_nonnegative_finite(f"pool {self.name!r}: share", self.share)
        require_nonnegative_finite(f"pool {self.name!r}: cost", self.cost)


@dataclass(frozen=True)
class PoolSet:
    """An immutable collection of pools, optionally with a designated adversary.

    Shares must sum to 1 within ``SHARE_SUM_TOL``; after that check they are
    renormalised so the stored values sum to 1 exactly.  Use
    :func:`load_pool_file` for files that store raw weights or percentages.
    """

    pools: tuple[Pool, ...]
    adversary: int | None = None

    def __post_init__(self):
        if not self.pools:
            raise ValidationError("a pool set needs at least one pool")
        names = [p.name for p in self.pools]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValidationError(f"duplicate pool names: {dupes}")
        total = sum(p.share for p in self.pools)
        if abs(total - 1.0) > SHARE_SUM_TOL:
            raise ValidationError(
                f"pool shares sum to {total!r}, expected 1 within {SHARE_SUM_TOL}"
            )
        if self.adversary is not None:
            require_integer("adversary index", self.adversary)
            if not 0 <= self.adversary < len(self.pools):
                raise ValidationError(f"adversary index {self.adversary} out of range")
        # Renormalise exactly; this removes up to SHARE_SUM_TOL of drift so
        # downstream probability vectors are well formed.
        scale = 1.0 / total
        object.__setattr__(
            self,
            "pools",
            tuple(Pool(p.name, p.share * scale, p.cost) for p in self.pools),
        )

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_shares(
        cls,
        adversary_share: float,
        petty_shares: Sequence[float],
        adversary_name: str = "adversary",
    ) -> "PoolSet":
        """Build a set from an adversary share plus the other pools' shares."""
        pools = [Pool(adversary_name, adversary_share)]
        pools += [Pool(f"pool{i + 1}", s) for i, s in enumerate(petty_shares)]
        return cls(tuple(pools), adversary=0)

    def with_adversary(self, who: int | str) -> "PoolSet":
        """Return a copy with the adversary set by index or pool name."""
        return PoolSet(self.pools, adversary=self.index_of(who))

    def index_of(self, who: int | str) -> int:
        if not isinstance(who, str):
            require_integer("pool index", who)
            if not 0 <= who < len(self.pools):
                raise ValidationError(f"pool index {who} out of range")
            return int(who)
        for i, p in enumerate(self.pools):
            if p.name == who:
                return i
        raise ValidationError(f"no pool named {who!r}")

    # -- views ----------------------------------------------------------------

    @property
    def shares(self) -> tuple[float, ...]:
        return tuple(p.share for p in self.pools)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.pools)

    @property
    def adversary_share(self) -> float:
        return self.pools[self._adversary_index()].share

    def others(self) -> tuple[int, ...]:
        """Indices of every pool except the adversary."""
        a = self._adversary_index()
        return tuple(i for i in range(len(self.pools)) if i != a)

    def _adversary_index(self) -> int:
        if self.adversary is None:
            raise ValidationError("this pool set has no adversary designated")
        return self.adversary

    def __len__(self) -> int:
        return len(self.pools)

    # -- transforms -------------------------------------------------------------

    def drop_zero_shares(self) -> "PoolSet":
        """Remove pools with exactly zero share (a no-op on the measures here)."""
        kept = [(i, p) for i, p in enumerate(self.pools) if p.share > 0.0]
        adv = None
        if self.adversary is not None:
            if self.pools[self.adversary].share == 0.0:
                raise ValidationError("cannot drop the adversary pool")
            adv = [i for i, _ in kept].index(self.adversary)
        return PoolSet(tuple(p for _, p in kept), adversary=adv)

    def merge_tail(self, keep: int, merged_name: str = "others") -> "PoolSet":
        """Merge all but the ``keep`` largest pools into a single pool.

        Strategy-solver state spaces grow exponentially in the number of
        pools, so published long-tail distributions are analysed with the
        small pools lumped together.  The merged pool is appended last and
        inherits a zero cost.
        """
        if not 1 <= keep < len(self.pools):
            raise ValidationError(f"keep must be in [1, {len(self.pools) - 1}]")
        order = sorted(range(len(self.pools)), key=lambda i: -self.pools[i].share)
        head, tail = order[:keep], order[keep:]
        if self.adversary is not None and self.adversary in tail:
            raise ValidationError("cannot merge the adversary into the tail")
        head.sort()
        pools = [self.pools[i] for i in head]
        pools.append(Pool(merged_name, sum(self.pools[i].share for i in tail)))
        adv = head.index(self.adversary) if self.adversary is not None else None
        return PoolSet(tuple(pools), adversary=adv)


@dataclass(frozen=True)
class AttackParams:
    """Knobs shared by the attack analyses.

    epsilon    minimal reward margin (normalised to the block reward) that
               makes a profit-tracking pool deviate; also the sweetener added
               on top of every bribe.
    max_bribe  largest whole-block bribe the attacker may attach when
               publishing a matching fork (the sweetener comes on top).

    An uncollected bribe is recovered in full by the briber.
    """

    epsilon: float = 0.0
    max_bribe: int = 1

    def __post_init__(self):
        require_nonnegative_finite("epsilon", self.epsilon)
        require_integer("max_bribe", self.max_bribe, least=0)


@dataclass(frozen=True)
class EpochModel:
    """Difficulty-adjustment bookkeeping: epoch length, block rate, reward."""

    blocks_per_epoch: int = 2016
    block_rate: float = 1.0
    block_reward: float = 1.0

    def __post_init__(self):
        require_integer("blocks_per_epoch", self.blocks_per_epoch, least=1)
        require_positive_finite("block_rate", self.block_rate)
        require_positive_finite("block_reward", self.block_reward)

    @property
    def target_duration(self) -> float:
        """Wall-clock length of one epoch when blocks arrive on schedule."""
        return self.blocks_per_epoch / self.block_rate


# -- concentration measures ----------------------------------------------------


def _shares(pools: PoolSet | Iterable[float]) -> list[float]:
    if isinstance(pools, PoolSet):
        return list(pools.shares)
    return list(pools)


def centralization_factor(pools: PoolSet | Iterable[float]) -> float:
    """Sum of squared shares: collision probability of two block winners."""
    return sum(s * s for s in _shares(pools))


def residual_centralization_factor(
    pools: PoolSet, i: int | str | None = None
) -> float:
    """Concentration of everyone except pool ``i``, renormalised to their power.

    Defaults to the designated adversary.  Undefined when pool ``i`` holds
    all the hash power.
    """
    idx = pools.index_of(i) if i is not None else pools._adversary_index()
    rest = 1.0 - pools.pools[idx].share
    if rest <= 0.0:
        raise ValidationError("residual factor undefined for a monopoly pool")
    sq = sum(p.share * p.share for j, p in enumerate(pools.pools) if j != idx)
    return sq / rest


def pool_advantage(pools: PoolSet, i: int | str | None = None) -> float:
    """Probability that pool ``i`` wins a one-block fork race against the rest.

    In the race, every pool other than ``i`` mines on the rival tip (this is
    exactly the situation a successful bribe engineers), and the race is
    decided by the next block.  Equals one minus the residual concentration
    factor of ``i``.
    """
    return 1.0 - residual_centralization_factor(pools, i)


# -- pool files ------------------------------------------------------------------

#: Published snapshot of the Bitcoin hash-power distribution (16 pools).
BITCOIN_POOLS = "bitcoin_pools_2024.json"
#: Same snapshot with the eight largest pools kept at full precision and the
#: long tail merged into one pool; the form used by the strategy solver.
BITCOIN_POOLS_MERGED = "bitcoin_pools_2024_merged.json"


def bundled_pool_file(name: str = BITCOIN_POOLS) -> Path:
    """Path of a data file shipped with the package."""
    with resources.as_file(resources.files("powplay").joinpath("data", name)) as p:
        return Path(p)


def parse_pool_entries(entries, source: str, adversary: int | str | None = None) -> PoolSet:
    """Pool set from a list of ``{"name", "share", "cost"?}`` objects (files, inline lists).

    Shares are weights, divided by their sum, which must be positive; shares
    and costs must be numbers, not booleans or strings.  ``source`` prefixes
    error messages.
    """
    if not isinstance(entries, list):
        raise ValidationError(f"{source}: 'pools' must be a list of pool objects")
    pools = []
    for entry in entries:
        if not isinstance(entry, dict) or "name" not in entry or "share" not in entry:
            raise ValidationError(f"{source}: each pool needs 'name' and 'share'")
        values = [entry["share"], entry.get("cost", 0.0)]
        for key, value in zip(("share", "cost"), values):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValidationError(f"{source}: {key} of {entry['name']!r} is not numeric")
        pools.append(Pool(str(entry["name"]), float(values[0]), float(values[1])))
    total = sum(p.share for p in pools)
    if total <= 0:
        raise ValidationError(f"{source}: shares must have a positive sum")
    ps = PoolSet(tuple(Pool(p.name, p.share / total, p.cost) for p in pools))
    return ps if adversary is None else ps.with_adversary(adversary)


def load_pool_file(path: str | Path, adversary: int | str | None = None) -> PoolSet:
    """Load ``{"pools": [{"name", "share"}...], "adversary": name-or-index}``.

    File shares may be raw weights or percentages; they are normalised by
    their sum, so a snapshot can be stored exactly as published even when
    rounding keeps it from summing to one.  An ``adversary`` argument
    overrides whatever the file designates.
    """
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}: not valid JSON ({e})") from e
    if not isinstance(raw, dict) or "pools" not in raw:
        raise ValidationError(f"{path}: expected an object with a 'pools' list")
    return parse_pool_entries(raw["pools"], str(path), raw.get("adversary") if adversary is None else adversary)
