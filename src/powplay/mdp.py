"""Optimal one-adversary withholding play against profit-tracking pools.

The attacker secretly extends its own fork and chooses, after every block
arrival, between four moves: keep mining (wait), give up and accept the
public fork (adopt), publish one block more than the public fork (override),
or publish an equal-length fork with a bribe of level i on top (match).
During a match, every profit-tracking pool whose stake on the public fork is
at most i mines on the attacker's fork; a pool that extends the attacker's
fork collects i plus the sweetener, otherwise the attacker recollects the
deposit.

A state is one int16 row (fork[0..m-1], lbar, a, match_active, level):
fork[j] is rival pool j's block count on the public fork, lbar the public
fork's length, a the attacker's secret length, and match_active/level
whether a match is live and at which bribe level (-1 when none is).  An
action is one int16 code: WAIT, ADOPT, OVERRIDE, or MATCH + i for a match
at bribe level i.  The chain is lumped exactly (Kemeny & Snell,
*Finite Markov Chains*; Givan, Dean & Greig 2003): a petty pool's count is
only compared with a bribe level, so it is clipped at max_bribe + 1, and the
honest pool's count, never read, stays 0; within each group of pools with
the same share and behaviour the counts are sorted, since swapping such
pools changes nothing.  Edges stay one per winner, with winners named by
pool position.

The graph does not depend on the share values or on epsilon, only on which
pools mine, which take bribes, which are interchangeable and on the
truncation.  It is enumerated once per such signature, first in, first
out, a chunk of states at a time, and cached (one at a time) as one
immutable topology, so every pool of a snapshot turned adversary in turn
reuses one enumeration.  The topology stores its action slots' distinct
rows (below), not its edges: each chunk's slots are folded into rows as
the search goes, every per-edge array, orphaned blocks included, is
derived from the rows on demand, and the solver's layout of the rows is
built on first use.  A model adds only its pools, shares and parameters
to that topology, so each solve takes the winner probabilities and the
bribes from the topology's winners and bribe levels.

The objective is the long-run reward share net of bribes:
(expected attacker blocks settled - expected bribes paid) divided by
(expected blocks settled).  It is solved as a ratio objective by Dinkelbach
steps on the share: a relative value iteration solves the fixed-share
average reward problem, and the exact ratio of its greedy policy, read off
that policy's stationary distribution, is the next share.  The value table
and the distribution carry over between steps.  Every action slot has one
edge per live winner, in one order and with one probability each, so the
edges form a slot x winner grid.  Most slots repeat one another: a slot's
row is its destination, settled blocks, reward and bribe level under each
winner, and a fig3 row's 37,450 slots have 11,517 distinct rows (its
17,920 adopts have 6, one per length of the public fork they concede).
This is the exact-duplicate case of the minimisation above: slots of one
row have equal expected rewards and add equal gathered values in one
winner order, so their values agree to the last bit, and each row is swept
once.  The rows are numbered with the topology; a value sweep gathers
every winner column's next values at once and adds them to each row's
expected reward in winner order.  The states are swept in an order laid
out once per topology: the states with one action slot first (12,728 of
a fig3 row's 21,701), whose value is their slot's row's, then the rest,
whose max over their slots' rows is a column max padded to the widest
state's slot count, and whose first maximal column is the state's first
maximal slot.  A fig3 sweep so gathers 57,593 row values for its states,
not the 108,505 of padding every state to five slots.  A greedy
policy's stationary distribution lives on few states (10 to 1,109 of
the 21,701 of a fig3 row), so its power iteration runs only over the
states the policy reaches from the carried distribution's support, and
only their destinations are gathered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from powplay.errors import (
    CapacityError,
    ConvergenceError,
    ValidationError,
    require_integer,
    require_positive_finite,
)
from powplay.model import AttackParams, PoolSet

__all__ = [
    "ADVERSARY",
    "WAIT",
    "ADOPT",
    "OVERRIDE",
    "MATCH",
    "MdpModel",
    "SolveResult",
    "build_mdp",
    "solve_reward_share",
    "honest_policy",
    "policy_rollout",
    "policy_tables",
]

ADVERSARY = -1  # winner code for the attacker
WAIT, ADOPT, OVERRIDE, MATCH = range(4)  # action codes; a match at bribe level i is MATCH + i
_SPAN_START = 1e-3  # value-iteration span tolerance of the first outer step
_SPAN_SHRINK = 1e-2  # later spans: this times the step times the settled rate
_SPAN_FLOOR = 1e-10  # no span tolerance below this
_STATIONARY_TOL = 1e-13  # L1 move that ends the stationary power iteration
_STATIONARY_MAX = 100_000  # power iterations before ConvergenceError
_STAY = 0.1  # laziness of the power-iterated chain
_CHUNK = 1 << 13  # states the topology search expands at a time


@dataclass(frozen=True, eq=False)
class _Topology:
    """One enumerated fork-race topology, immutable, stored as slot rows.

    states holds each state's row and actions each action slot's code (see
    the module docstring), state_ptr each state's first action slot, and
    winners the live winners in edge order (ADVERSARY or pool position).
    Every slot has one edge per winner, and a slot's row is what its edges
    lead to under each winner: the destination, settled blocks, attacker
    blocks settled and bribe level collected (-1 where none is).  Slots
    whose rows agree share one: slot_row numbers each slot's row in order
    of first appearance and row_slot gives each row's first slot, and the
    row_* arrays hold each row's values, one column per winner (_topology
    stores them in the smallest dtypes that hold them exactly).  No
    per-edge array is stored: the edge_* properties derive them from the
    rows on every read, edge a * winners.size + k being slot a's edge
    under winner k.  Orphaned blocks are derived too: an edge orphans the
    public fork, lbar blocks, where it pays a bribe or overrides, the
    secret fork, a blocks, where it adopts, and nothing otherwise, as the
    search counts them.  The constructor makes every array field read-only.
    """

    states: np.ndarray  # int16, one row per state
    actions: np.ndarray  # int16, one code per action slot
    state_ptr: np.ndarray  # state -> first action slot
    winners: np.ndarray  # int32, ADVERSARY or pool position
    slot_row: np.ndarray  # action slot -> its row
    row_slot: np.ndarray  # row -> its first action slot
    row_dst: np.ndarray  # rows x winners
    row_settled: np.ndarray
    row_reward: np.ndarray
    row_level: np.ndarray

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    @classmethod
    def of_rows(cls, states, actions, state_ptr, winners, slot_row, row_slot, dst, settled, reward, level):
        """The topology whose slot a leads under winner k to dst[slot_row[a],
        k], with settled[...], reward[...] and level[...] (integer-valued,
        one row per row_slot entry, one column per winner).

        The rows need not be distinct, but must be numbered in order of
        first appearance, row_slot giving each one's first slot; rows that
        repeat are merged (see _row_classes).  One row per slot, slot_row
        and row_slot both np.arange(slots), builds from per-edge arrays.
        """
        merged, first = _row_classes([dst, settled, reward, level])
        rows = (values[first] for values in (dst, settled, reward, level))
        return cls(states, actions, state_ptr, winners, merged[slot_row], row_slot[first], *rows)

    def _edges(self, rows: np.ndarray, dtype) -> np.ndarray:
        return _read_only(rows.astype(dtype, copy=False)[self.slot_row].ravel())

    edge_dst = property(lambda self: self._edges(self.row_dst, np.int64))
    edge_settled = property(lambda self: self._edges(self.row_settled, float))
    edge_reward = property(lambda self: self._edges(self.row_reward, float))
    edge_level = property(lambda self: self._edges(self.row_level, np.int32))

    @property
    def edge_orphans(self) -> np.ndarray:
        return _read_only(self.orphans(np.arange(self.slot_row.size)).ravel())

    def orphans(self, slots: np.ndarray) -> np.ndarray:
        """Each of slots' orphaned blocks per winner (int32, slots x winners),
        derived from its state's lbar and a, its action and its row's bribe
        levels."""
        state = np.searchsorted(self.state_ptr, slots, side="right") - 1
        lbar, a = self.states[state, -4, None], self.states[state, -3, None]
        code = self.actions[slots, None]
        unbribed = np.where(code == ADOPT, a, np.where(code == OVERRIDE, lbar, 0))
        return np.where(self.row_level[self.slot_row[slots]] >= 0, lbar, unbribed).astype(np.int32)

    @cached_property
    def layout(self):
        """The solver's topology-only layout, built once: (dst, one, cols,
        order, ref).

        The rows' destinations as sweep positions (winner-major), the
        single-slot block's rows, the padded block's cols map, the sweep
        order and state 0's position in it (see _Grid).  These stay
        writeable, because np.take copies a read-only index array (or one
        not of the index dtype) at every call, which would cost a sweep
        more than its gathers.
        """
        ptr = self.state_ptr
        count = np.diff(ptr)
        # sweep order: the single-slot states, then the rest, each in state order
        order = np.argsort(count != 1, kind="stable")
        pos = np.empty_like(order)
        pos[order] = np.arange(order.size)
        one, rest = np.split(order, [np.count_nonzero(count == 1)])
        cols = self.slot_row[ptr[rest] + np.minimum(np.arange(count.max())[:, None], count[rest] - 1)]
        return pos.take(self.row_dst.T), self.slot_row[ptr[one]], cols, order, pos[0]


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


def _bribe(level: np.ndarray, epsilon: float) -> np.ndarray:
    """The bribe paid at each bribe level: level + epsilon, 0.0 at level -1."""
    return np.where(level >= 0, level + float(epsilon), 0.0)


def _winner_prob(model: MdpModel) -> np.ndarray:
    """Each live winner's probability, in the topology's winner order."""
    winners = model.topology.winners
    return np.where(winners == ADVERSARY, model.alpha_a, model.shares[winners])


def _of_topology(name: str) -> property:
    return property(lambda model: getattr(model.topology, name), doc=f"The topology's {name}.")


@dataclass
class MdpModel:
    """Enumerated fork-race MDP: one model's shares and epsilon on a topology.

    The graph is the topology's (see _Topology), shared with every model of
    the same topology signature (see build_mdp), and read through the
    properties below.  The edge arrays are grouped by action and actions by
    state, and every action slot has one edge per live winner, in the same
    order and with the same probabilities: the edges are a slot x winner
    grid.  Only the slots' rows are stored, so every edge array (edge_*,
    action_ptr) is derived per read, read-only, at the cost of one new
    per-edge array: slot_row.size counts the slots, and times
    topology.winners.size the edges.  solve_reward_share sweeps the
    slots' rows (one gather of every winner column, an add per column,
    then each state's max over its slots' rows).  Rewards are kept gross,
    bribes as levels and blocks settled separately, so the
    share-transformed reward is assembled per solver step.  A policy is an
    int64 array of each state's chosen action slot: state s takes the
    action actions[policy[s]].
    """

    pools: PoolSet
    params: AttackParams
    fork_cap: int
    max_bribe: int
    shares: np.ndarray  # non-adversarial shares, order = pools.others()
    alpha_a: float
    petty: tuple[bool, ...]
    topology: _Topology

    states = _of_topology("states")
    actions = _of_topology("actions")
    state_ptr = _of_topology("state_ptr")
    slot_row = _of_topology("slot_row")
    row_slot = _of_topology("row_slot")
    edge_dst = _of_topology("edge_dst")
    edge_settled = _of_topology("edge_settled")
    edge_reward = _of_topology("edge_reward")
    edge_level = _of_topology("edge_level")
    edge_orphans = _of_topology("edge_orphans")

    @property
    def state_count(self) -> int:
        return len(self.topology.states)

    @property
    def action_ptr(self) -> np.ndarray:
        """Action slot -> its first edge."""
        return _read_only(np.arange(self.topology.slot_row.size, dtype=np.int64) * self.topology.winners.size)

    @property
    def edge_winner(self) -> np.ndarray:
        return _read_only(np.tile(self.topology.winners, self.topology.slot_row.size))

    @property
    def edge_prob(self) -> np.ndarray:
        return _read_only(np.tile(_winner_prob(self), self.topology.slot_row.size))

    @property
    def edge_bribe(self) -> np.ndarray:
        return _read_only(_bribe(self.topology.edge_level, self.params.epsilon))


@lru_cache(maxsize=1)
def _topology(live, adversary_live, petty, groups, fork_cap, max_bribe, state_ceiling):
    """Enumerate every reachable lumped state with its actions and slot rows.

    The arguments are build_mdp's topology signature; returns its
    _Topology.

    First in, first out, a chunk of at most _CHUNK states at a time: each
    state takes its feasible actions in code order, each action has one
    edge per live winner (the adversary first, then the pools in order),
    and the states first reached on a chunk's edges are numbered in order
    of first appearance, as a search one state at a time numbers them.
    Each chunk's slots are classed into rows as it is expanded, so the
    per-edge arrays exist a chunk at a time; the chunks' rows, nearly
    distinct already, are merged where they repeat once the search ends.
    """
    m = len(live)
    # a petty pool's count is only compared with a bribe level <= max_bribe,
    # and the honest pool's is never read; no count exceeds lbar <= fork_cap
    clip = [min(max_bribe + 1, fork_cap) if p else 0 for p in petty]
    # a state's key is its row as a mixed-radix number, level + 1 the last digit
    radix = [c + 1 for c in clip] + [fork_cap + 1, fork_cap + 1, 2, max_bribe + 2]
    if math.prod(radix) > np.iinfo(np.int64).max or MATCH + max_bribe > np.iinfo(np.int16).max:
        raise CapacityError(f"fork_cap {fork_cap} and max_bribe {max_bribe} overflow the state encoding")
    weight = np.array([math.prod(radix[k + 1:]) for k in range(m + 4)], dtype=np.int64)
    radix = np.array(radix, dtype=np.int64)
    group_of = {j: list(g) for g in groups for j in g}
    winners = ([ADVERSARY] if adversary_live else []) + [j for j in range(m) if live[j]]
    match_levels = np.arange(max_bribe + 1)

    root = np.array([[0] * (m + 3) + [-1]], dtype=np.int16)
    known, known_id = root @ weight + 1, np.zeros(1, dtype=np.int64)  # keys sorted, their states
    chunks, codes, counts = [root], [], []
    # each edge's destination, settled blocks, reward and bribe level, in
    # dtypes that hold them exactly; per chunk, its slots' rows (numbered
    # across chunks), each row's first slot and its values per winner
    blocks = np.min_scalar_type(fork_cap + 1)
    kinds = (np.min_scalar_type(state_ceiling), blocks, blocks, np.min_scalar_type(-max_bribe - 1))
    slot_row, row_slot, row_values = [], [], ([], [], [], [])
    slots = row_count = 0
    for chunk in chunks:  # chunks grows as the search goes
        fork = chunk[:, :m].astype(np.int64)
        lbar, a, flag, level = chunk[:, m:].T.astype(np.int64)
        inner = (a < fork_cap) & (lbar < fork_cap)  # at the cap: override if ahead, else adopt
        feasible = np.column_stack([
            inner, np.where(inner, lbar >= 1, a <= lbar), a > lbar,
            (inner & (a >= lbar) & (lbar >= 1))[:, None] & (match_levels > level[:, None]),
        ])
        s, c = np.nonzero(feasible)
        counts.append(feasible.sum(axis=1))
        codes.append(c.astype(np.int16))
        fork, lbar, a, flag, level = fork[s], lbar[s], a[s], flag[s], level[s]
        # adopt concedes and override publishes lbar + 1 blocks: either way
        # the public fork settles and the next block starts a new one
        adopt, override = c == ADOPT, c == OVERRIDE
        base_fork = np.where((adopt | override)[:, None], 0, fork)
        base_lbar = np.where(adopt | override, 0, lbar)
        base_a = np.where(adopt, 0, np.where(override, a - lbar - 1, a))
        settled = np.where(adopt, lbar, np.where(override, lbar + 1, 0))
        reward = np.where(override, lbar + 1, 0)
        # a match, or a wait while one is live, races at its bribe level
        race = (c >= MATCH) | (c == WAIT) & (flag == 1)
        level = np.where(c >= MATCH, c - MATCH, level)
        tie = a == lbar
        grid = np.empty((s.size, len(winners)), dtype=np.int64)  # each edge's state key
        values = [np.empty((s.size, len(winners)), dtype=kind) for kind in kinds[1:]]
        for k, j in enumerate(winners):
            if j == ADVERSARY:
                bribed = np.zeros(s.size, dtype=bool)
                key = base_fork @ weight[:m] + base_lbar * weight[m] + (base_a + 1) * weight[m + 1]
                key += race * weight[m + 2] + np.where(race, level, -1) + 1
            else:
                # a bribed pool extends the attacker's published fork: the
                # race resolves, the public fork is orphaned, the bribe paid
                bribed = race & petty[j] & (fork[:, j] <= level)
                grown = np.where(bribed[:, None], 0, base_fork)
                grown[:, j] += grown[:, j] < clip[j]
                if j in group_of:
                    grown[:, group_of[j]] = -np.sort(-grown[:, group_of[j]], axis=1)
                grown[bribed & tie] = 0
                key = grown @ weight[:m] + np.where(bribed, ~tie, base_lbar + 1) * weight[m]
                key += np.where(bribed, a - lbar, base_a) * weight[m + 1]
            grid[:, k] = key
            for out, value in zip(values, (np.where(bribed, lbar + tie, settled),
                                           np.where(bribed, lbar, reward), np.where(bribed, level, -1))):
                out[:, k] = value
        keys, first, inverse = np.unique(grid.ravel(), return_index=True, return_inverse=True)
        pos = np.searchsorted(known, keys)
        seen = known[np.minimum(pos, known.size - 1)] == keys
        fresh = np.flatnonzero(~seen)[np.argsort(first[~seen])]
        n = len(known)
        if n + fresh.size > state_ceiling:
            raise CapacityError(f"state count exceeded the ceiling {state_ceiling}")
        ids = np.empty(keys.size, dtype=np.int64)
        ids[seen] = known_id[pos[seen]]
        ids[fresh] = n + np.arange(fresh.size)
        known = np.insert(known, pos[~seen], keys[~seen])
        known_id = np.insert(known_id, pos[~seen], ids[~seen])
        values = [ids.astype(kinds[0])[inverse].reshape(s.size, len(winners)), *values]
        local, leads = _row_classes(values)
        slot_row.append(local + row_count)
        row_slot.append(leads + slots)
        for piece, value in zip(row_values, values):
            piece.append(value[leads])
        slots, row_count = slots + s.size, row_count + leads.size
        digits = keys[fresh, None] // weight % radix
        digits[:, -1] -= 1
        found = digits.astype(np.int16)
        chunks.extend(found[k:k + _CHUNK] for k in range(0, len(found), _CHUNK))

    return _Topology.of_rows(
        _joined(chunks),
        _joined(codes),
        np.concatenate([[0], np.cumsum(_joined(counts))]).astype(np.int64),
        np.array(winners, dtype=np.int32),
        _joined(slot_row),
        _joined(row_slot),
        *map(_joined, row_values),
    )


def _joined(pieces: list[np.ndarray]) -> np.ndarray:
    """The pieces concatenated; the list is emptied, so they can be freed."""
    joined = np.concatenate(pieces)
    pieces.clear()
    return joined


def _row_classes(columns: list[np.ndarray]):
    """Number the slots' distinct rows in order of first appearance.

    A slot's row is its values in every array of columns (integer-valued,
    slots x winners).  Returns (slot_row, row_slot): each slot's row, and
    each row's first slot.  The rows are ranked exactly, one winner column
    at a time: the key so far times the column's value range, plus the
    value above the column's minimum, and whenever the next column would
    overflow int64 the keys are replaced by their ranks among the distinct
    keys.  Small columns go first, while the keys are few.
    """
    key = np.zeros(len(columns[0]), dtype=np.int64)
    bound = 1  # every key is below bound
    for values in sorted(columns, key=lambda v: int(v.max()) - int(v.min())):
        for column in values.T:
            column = column.astype(np.int64)
            low = int(column.min())
            span = int(column.max()) - low + 1
            if bound * span > np.iinfo(np.int64).max:
                _, key = np.unique(key, return_inverse=True)
                bound = int(key.max()) + 1
            key *= span
            key += column
            key -= low
            bound *= span
    _, first, key = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return rank[key], first[order]


def build_mdp(
    pools: PoolSet,
    params: AttackParams,
    fork_cap: int = 8,
    honest: int | str | None = None,
    state_ceiling: int = 10_000_000,
) -> MdpModel:
    """Enumerate every reachable lumped fork-race state and its action edges.

    All non-adversarial pools respond to bribes by default, matching the
    result tables (their captions label every non-adversarial pool as
    profit-tracking); pass `honest` to pin one pool that never switches.

    The graph (states, actions, winners, and the slots' rows of
    destinations, settled blocks, rewards and bribe levels) does not depend
    on the share values or on epsilon, so it is enumerated once per
    signature and cached as one _Topology: the number of rival pools, which
    of them have a positive share, whether the adversary does, which are
    petty, the groups of pools with equal (share, petty), fork_cap,
    max_bribe and state_ceiling.  Models with one signature share that
    topology; a model adds only its shares and epsilon.

    The default fork_cap of 8 is a calibration point, not a convergence
    point: the solved share still grows slowly with the cap (roughly +0.018
    from 6 to 8 and +0.009 from 8 to 10 at alpha 0.4), and 8 is the depth
    at which the solver reproduces the published reference shares to about
    three decimals across every configuration checked.
    """
    if pools.adversary is None:
        raise ValidationError("the pool set must designate an adversary")
    others = pools.others()
    if not 2 <= len(pools) <= 10:
        raise ValidationError("pool count must be between 2 and 10")
    require_integer("fork_cap", fork_cap)
    if fork_cap < 2:
        raise ValidationError("fork_cap must be >= 2")
    max_bribe = int(params.max_bribe)
    shares = np.array([pools.pools[j].share for j in others], dtype=float)
    alpha_a = pools.adversary_share
    petty = [True] * len(others)
    if honest is not None:
        hid = pools.index_of(honest)
        if hid == pools.adversary:
            raise ValidationError("the adversary cannot be the honest pool")
        petty[others.index(hid)] = False
    petty = tuple(petty)
    # pools with the same share and behaviour are interchangeable: their
    # counts are kept sorted
    alike = {}
    for j, kind in enumerate(zip(shares.tolist(), petty)):
        alike.setdefault(kind, []).append(j)
    groups = tuple(tuple(g) for g in alike.values() if len(g) > 1)
    topology = _topology(
        tuple(bool(s > 0) for s in shares),
        alpha_a > 0,
        petty,
        groups,
        int(fork_cap),
        max_bribe,
        state_ceiling,
    )
    return MdpModel(pools, params, fork_cap, max_bribe, shares, alpha_a, petty, topology)


@dataclass
class SolveResult:
    """Solved reward share with the greedy policy that attains it.

    policy holds each state's action slot (see MdpModel).  iterations
    counts value sweeps over all outer steps, sweeps_per_step splits them by
    step, stationary_per_step counts each step's power iterations, and
    residual is |g|, the average transformed reward of the last step's value
    iteration.
    """

    reward_share: float
    policy: np.ndarray
    iterations: int
    residual: float
    outer_steps: int
    sweeps_per_step: tuple[int, ...]
    stationary_per_step: tuple[int, ...]


class _Grid(NamedTuple):
    """A model's action slots as a row x winner grid, for one solve.

    Slot a has one edge per live winner k, with probability p[k].  Slots
    with equal destinations, settled blocks, rewards and bribe levels per
    winner share one row (slot_row[a]), whose values are taken from its
    first slot: equal inputs added in one order give every slot of a row
    the same value to the last bit.

    The value sweep numbers the states in sweep order: order[i] is the
    state at position i, the states with one action slot first, then all
    the others, each block in state order; ref is state 0's position.
    dst[k] holds every row's destination under winner k as its sweep
    position (the grid's one copy of the destinations).  one[i] is the row
    of the single-slot state at position i, and cols[j, i] the row of the
    j-th slot of the state at position one.size + i, its last repeated past
    its end, so a column max is the state's max and the first maximal
    column j its first maximal slot, state_ptr[s] + j.  gain and settled
    are each row's expected reward net of bribes and expected blocks
    settled, computed per solve from the topology's small-integer row
    values, which convert to float exactly.  Everything but p, gain and
    settled is the topology's layout, shared between solves (see
    _Topology.layout).
    """

    p: np.ndarray
    dst: np.ndarray
    one: np.ndarray
    cols: np.ndarray
    order: np.ndarray
    ref: np.int64
    gain: np.ndarray
    settled: np.ndarray
    state_ptr: np.ndarray
    slot_row: np.ndarray


def _expected(p: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_k p[k] * values[:, k], added in winner order whatever the BLAS build."""
    total = p[0] * values[:, 0]
    for k in range(1, p.size):
        total += p[k] * values[:, k]
    return total


def _grid(model: MdpModel) -> _Grid:
    """The model's row x winner grid: its topology's layout, with the
    winner probabilities and each row's expected gain and settled blocks
    under the model's shares and epsilon."""
    topology, p = model.topology, _winner_prob(model)
    gain = _expected(p, topology.row_reward - _bribe(topology.row_level, model.params.epsilon))
    settled = _expected(p, topology.row_settled)
    return _Grid(p, *topology.layout, gain, settled, topology.state_ptr, topology.slot_row)


def _row_values(grid: _Grid, r: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Each row's r plus its expected next value under V (in sweep order),
    added in winner order: every winner column's next values are gathered
    with one take and scaled by p in place, then added to r a winner at a
    time."""
    values = V.take(grid.dst)
    values *= grid.p[:, None]
    q = r + values[0]
    for column in values[1:]:
        q += column
    return q


def _sweeps(grid, r, V, span_tol, max_sweeps):
    """Relative value iteration with row rewards r (one candidate share).

    V is in sweep order (see _Grid), relative to state 0's value.  A sweep
    fills the single-slot states with one take of their rows' values and
    the others with one take of the padded cols map and a column max.
    """
    if max_sweeps < 1:
        return None, V, 0, np.inf
    v_new = np.empty_like(V)
    single, padded = v_new[: grid.one.size], v_new[grid.one.size:]
    for sweep in range(1, max_sweeps + 1):
        q = _row_values(grid, r, V)
        single[:] = q.take(grid.one)  # take(out=) buffers in its default mode: slower than a copy
        q.take(grid.cols).max(axis=0, out=padded)
        diff = v_new - V
        hi = float(diff.max())
        lo = float(diff.min())
        V = v_new - v_new[grid.ref]
        if hi - lo < span_tol:
            return 0.5 * (hi + lo), V, sweep, hi - lo
    return None, V, max_sweeps, hi - lo


def _greedy_slots(grid: _Grid, q: np.ndarray) -> np.ndarray:
    """Each state's best action slot under row values q, in state order;
    ties go to the first slot, as with np.argmax.  A single-slot state
    takes its slot; the padded block's first maximal columns are mapped
    back to their states through the sweep order."""
    ptr = grid.state_ptr
    slots = ptr[:-1].copy()
    rest = grid.order[grid.one.size:]
    slots[rest] += np.minimum(q.take(grid.cols).argmax(axis=0), ptr[rest + 1] - ptr[rest] - 1)
    return slots


def _stationary(grid: _Grid, rows: np.ndarray, pi: np.ndarray, max_iterations=_STATIONARY_MAX):
    """Stationary distribution of a chain by power iteration from pi, and
    the iterations that took.

    State s takes row rows[s]: it moves to state order[dst[k, rows[s]]]
    with probability p[k] (the grid's fields).  Iterates the lazy chain
    _STAY*pi + (1 - _STAY)*pi P, which has the same stationary distribution
    and is aperiodic, until an iteration moves pi by less than
    _STATIONARY_TOL in L1.  Only the states reachable from pi's support can
    gain mass, so only their destinations are gathered and only they are
    iterated, in state order with each state's edges in winner order: every
    state's inflow is summed in the order of the whole chain's iteration,
    which adds only zeros besides.
    """
    order, dst, p = grid.order, grid.dst, grid.p
    reached = pi > 0
    fresh = reached.copy()
    while fresh.any():
        hit = np.zeros_like(reached)
        hit[order.take(dst[:, rows[fresh]])] = True
        fresh = hit & ~reached
        reached |= fresh
    live = np.flatnonzero(reached)
    to = (np.cumsum(reached) - 1)[order.take(dst[:, rows[live]].T)].ravel()
    x = pi[live]
    for iteration in range(1, max_iterations + 1):
        moved = np.bincount(to, weights=(x[:, None] * p).ravel(), minlength=live.size)
        nxt = _STAY * x + (1.0 - _STAY) * moved
        change = float(np.abs(nxt - x).sum())
        x = nxt
        if change < _STATIONARY_TOL:
            pi = np.zeros(pi.size)
            pi[live] = x / x.sum()
            return pi, iteration
    raise ConvergenceError(
        f"stationary distribution moved {change:.3g} after {max_iterations} iterations",
        residual=change,
    )


def _policy_ratio(grid: _Grid, slots: np.ndarray, pi: np.ndarray):
    """Exact long-run (reward - bribes) / settled of the policy taking slots.

    Returns the ratio, the settled blocks per transition, the policy's
    stationary distribution, found from pi, and the power iterations that
    took.
    """
    rows = grid.slot_row[slots]
    pi, iterations = _stationary(grid, rows, pi)
    rate = float(pi @ grid.settled[rows])
    return float(pi @ grid.gain[rows]) / rate, rate, pi, iterations


def solve_reward_share(
    model: MdpModel, tol: float = 1e-6, max_sweeps: int = 500_000
) -> SolveResult:
    """Maximize (attacker blocks settled - bribes) / (blocks settled).

    Dinkelbach iteration on the share.  At a candidate rho each action
    slot's transformed reward is its expected reward - bribe - rho*settled;
    relative value iteration finds its greedy policy, whose exact ratio
    (from the policy's stationary distribution) is the next rho.  Every
    iterate is a share a policy attains, starting from the honest share,
    and the iterates rise to the optimum superlinearly.  The value
    iteration's span tolerance shrinks with the step, so the greedy policy
    of the last steps is optimal to well within tol.  Stops when a step
    moves the share by less than tol at a span tight for tol, and returns
    that step's policy and its ratio.  The value table and the stationary
    distribution carry over between steps.  Each sweep runs over the
    model's distinct slot rows, which gives every slot of a row its row's
    value exactly, and keeps the value table in the grid's sweep order
    (single-slot states first), which changes no bit of any result: the
    relative values are taken against state 0 wherever it sits.
    """
    require_positive_finite("tol", tol)
    grid = _grid(model)
    n = model.state_count
    V = np.zeros(n)
    pi = np.zeros(n)
    pi[0] = 1.0
    rho = model.alpha_a  # the honest policy's share
    span_tol = _SPAN_START
    end_span = 0.0  # a span tight enough to stop at, set after the first step
    per_step, stationary = [], []
    while True:
        r = grid.gain - rho * grid.settled
        g, V, used, span = _sweeps(grid, r, V, span_tol, max_sweeps - sum(per_step))
        per_step.append(used)
        if g is None:
            raise ConvergenceError(
                f"value iteration exhausted {max_sweeps} sweeps", residual=span
            )
        slots = _greedy_slots(grid, _row_values(grid, r, V))
        ratio, settled, pi, iterations = _policy_ratio(grid, slots, pi)
        stationary.append(iterations)
        step = ratio - rho
        rho = ratio
        if abs(step) < tol and span_tol <= end_span:
            break
        # a greedy policy is optimal to within the span in average reward,
        # hence to within span / settled in share
        end_span = max(_SPAN_FLOOR, tol * settled * _SPAN_SHRINK)
        span_tol = min(span_tol, max(end_span, abs(step) * settled * _SPAN_SHRINK))
    if not 0.0 <= rho <= 1.0:
        raise ConvergenceError(f"share {rho} escaped [0,1]", residual=abs(g))
    return SolveResult(
        rho, slots, sum(per_step), abs(g), len(per_step), tuple(per_step), tuple(stationary)
    )


def _slots(model: MdpModel, codes: np.ndarray) -> np.ndarray:
    """The policy taking action codes[s] in each state s; each must be feasible there."""
    return np.flatnonzero(model.actions == np.repeat(codes, np.diff(model.state_ptr)))


def honest_policy(model: MdpModel) -> np.ndarray:
    """Publish immediately, concede otherwise: reproduces honest mining."""
    lbar, a = model.states[:, -4], model.states[:, -3]
    return _slots(model, np.where(a > lbar, OVERRIDE, np.where(lbar >= 1, ADOPT, WAIT)))


def policy_tables(model: MdpModel, policy: np.ndarray):
    """Freeze a policy into per-winner tables of its chosen action's edges.

    Returns (next_state, settled, reward, bribe, orphans), each with one row
    per state and one column per winner: pools in PoolSet.others() order,
    the attacker last.  next_state is -1 and the rest 0 for a winner with no
    edge (a pool of share 0).  Raises ValidationError unless policy holds
    one integer action slot per state, each in [state_ptr[s],
    state_ptr[s + 1]).
    """
    topology, slots = model.topology, np.asarray(policy)
    ptr, winners = topology.state_ptr, topology.winners
    if not (slots.shape == (ptr.size - 1,) and slots.dtype.kind in "iu"
            and np.all((ptr[:-1] <= slots) & (slots < ptr[1:]))):
        raise ValidationError(f"a policy is an int array of {ptr.size - 1} action slots, one per state")
    n_win = len(model.shares) + 1
    col = np.where(winners == ADVERSARY, n_win - 1, winners)
    rows = topology.slot_row[slots]
    next_state = np.full((slots.size, n_win), -1, dtype=np.int64)
    next_state[:, col] = topology.row_dst[rows]
    tables = [next_state]
    level = topology.row_level[rows]
    for values in (topology.row_settled[rows], topology.row_reward[rows],
                   _bribe(level, model.params.epsilon), topology.orphans(slots)):
        table = np.zeros((slots.size, n_win))
        table[:, col] = values
        tables.append(table)
    return tuple(tables)


def policy_rollout(
    model: MdpModel,
    policy: np.ndarray,
    seed: int = 0,
    horizon: int = 1_000_000,
    replicas: int = 1_024,
    burn_in: int = 300,
):
    """Monte Carlo execution of a fixed policy over winner draws.

    Runs `replicas` chains for ceil(horizon / replicas) steps each (plus
    burn_in discarded ones), so at least horizon transitions are counted,
    on powplay.sim's lockstep kernel, and reads settled blocks, rewards net
    of bribes and orphans off its visit counts.  Its automaton and draws are
    reward_share_mc's under strategy "mdp_policy", so the two agree field
    by field at one seed.
    """
    from powplay.sim import _policy_automaton, _share_mc

    return _share_mc(_policy_automaton(model, policy), horizon, "horizon", replicas, burn_in, seed)
