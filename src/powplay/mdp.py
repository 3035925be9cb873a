"""Optimal one-adversary withholding play against profit-tracking pools.

The attacker secretly extends its own fork and chooses, after every block
arrival, between four moves: keep mining (wait), give up and accept the
public fork (adopt), publish one block more than the public fork (override),
or publish an equal-length fork with a bribe of level i on top (match).
During a match, every profit-tracking pool whose stake on the public fork is
at most i mines on the attacker's fork; a pool that extends the attacker's
fork collects i plus the sweetener, otherwise the attacker recollects the
deposit.

A state is the key (fork, lbar, a, match_active, level): fork[j] is pool
j's block count on the public fork, lbar the public fork's length, a the
attacker's secret length, and match_active/level whether a match is live
and at which bribe level.  The chain is lumped exactly (Kemeny & Snell,
*Finite Markov Chains*; Givan, Dean & Greig 2003): a petty pool's count is
only compared with a bribe level, so it is clipped at max_bribe + 1, and the
honest pool's count, never read, stays 0; within each group of pools with
the same share and behaviour the counts are sorted, since swapping such
pools changes nothing.  Edges stay one per winner, with winners named by
pool position.

The graph does not depend on the share values or on epsilon, only on which
pools mine, which take bribes, which are interchangeable and on the
truncation.  It is enumerated once per such signature and cached (one at a
time), so every pool of a snapshot turned adversary in turn reuses one
enumeration.  Models of one signature share those structures, read-only;
only the edge probabilities and bribe amounts are filled per model.

The objective is the long-run reward share net of bribes:
(expected attacker blocks settled - expected bribes paid) divided by
(expected blocks settled).  It is solved as a ratio objective by Dinkelbach
steps on the share: a relative value iteration solves the fixed-share
average reward problem, and the exact ratio of its greedy policy, read off
that policy's stationary distribution, is the next share.  The value table
and the distribution carry over between steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from powplay.errors import CapacityError, ConvergenceError, ValidationError, require_positive_finite
from powplay.model import AttackParams, PoolSet

__all__ = [
    "ADVERSARY",
    "MdpAction",
    "MdpModel",
    "SolveResult",
    "build_mdp",
    "solve_reward_share",
    "honest_policy",
    "policy_rollout",
    "policy_tables",
]

ADVERSARY = -1  # winner code for the attacker
_SPAN_START = 1e-3  # value-iteration span tolerance of the first outer step
_SPAN_SHRINK = 1e-2  # later spans: this times the step times the settled rate
_SPAN_FLOOR = 1e-10  # no span tolerance below this
_STATIONARY_TOL = 1e-13  # L1 move that ends the stationary power iteration
_STATIONARY_MAX = 100_000  # power iterations before ConvergenceError
_STAY = 0.1  # laziness of the power-iterated chain


@dataclass(frozen=True)
class MdpAction:
    """One attacker move; level is meaningful only for kind "match"."""

    kind: str  # "wait" | "adopt" | "override" | "match"
    level: int = -1

    def __post_init__(self):
        if self.kind not in ("wait", "adopt", "override", "match"):
            raise ValidationError(f"unknown action kind {self.kind!r}")
        if self.kind == "match" and self.level < 0:
            raise ValidationError("match actions carry a bribe level >= 0")


@dataclass
class MdpModel:
    """Enumerated fork-race MDP with flat transition arrays.

    Edge arrays are grouped by action and actions by state, so one value
    sweep is a gather + segmented sum + segmented max.  Rewards are stored
    gross; bribes separately; blocks settled separately, so the
    share-transformed reward is assembled per solver step.  The graph
    fields (states, actions, the pointers and every edge array but
    edge_prob and edge_bribe) are shared with every model of the same
    topology signature (see build_mdp): the arrays are read-only, and the
    lists must not be mutated.  A policy is an int64 array of each state's
    chosen action slot: state s takes actions[s][slot - state_ptr[s]].
    """

    pools: PoolSet
    params: AttackParams
    fork_cap: int
    max_bribe: int
    shares: np.ndarray  # non-adversarial shares, order = pools.others()
    alpha_a: float
    petty: tuple[bool, ...]
    states: list
    actions: list  # per state, list of MdpAction
    # flat layout
    state_ptr: np.ndarray  # state -> first action slot
    action_ptr: np.ndarray  # action slot -> first edge
    edge_prob: np.ndarray
    edge_dst: np.ndarray
    edge_winner: np.ndarray  # ADVERSARY or pool position
    edge_settled: np.ndarray
    edge_reward: np.ndarray  # attacker blocks settled on this edge
    edge_bribe: np.ndarray
    edge_orphans: np.ndarray

    @property
    def state_count(self) -> int:
        return len(self.states)


def _grow(fork, j, clip, groups):
    """fork with pool j's count raised by one, clipped, in canonical order."""
    grown = list(fork)
    if grown[j] < clip[j]:
        grown[j] += 1
    for group in groups:
        for k, v in zip(group, sorted((grown[k] for k in group), reverse=True)):
            grown[k] = v
    return tuple(grown)


def _successors(key, action, live, adversary_live, petty, clip, groups):
    """Yield (winner, level, settled, reward, orphans, next_key) per edge.

    level is the bribe level a bribed pool collects on the edge, -1 on edges
    that pay no bribe; probabilities and bribe amounts are filled per model.
    """
    fork, lbar, a, m_active, level = key
    zeros = (0,) * len(fork)

    def draws(base_fork, base_lbar, base_a, settled, reward, orphans):
        # race flags are clear in every state this helper produces
        out = []
        if adversary_live:
            out.append(
                (ADVERSARY, -1, settled, reward, orphans,
                 (base_fork, base_lbar, base_a + 1, False, -1))
            )
        for j, alive in enumerate(live):
            if not alive:
                continue
            grown = _grow(base_fork, j, clip, groups)
            out.append(
                (j, -1, settled, reward, orphans,
                 (grown, base_lbar + 1, base_a, False, -1))
            )
        return out

    if action.kind == "adopt":
        # concede: the public fork settles, the secret fork is thrown away
        return draws(zeros, 0, 0, lbar, 0, a)
    if action.kind == "override":
        # publish lbar+1 attacker blocks; they settle and orphan the fork
        rest = a - lbar - 1
        return draws(zeros, 0, rest, lbar + 1, lbar + 1, lbar)

    # wait or match: set the race flags, then let the next block decide
    if action.kind == "match":
        m_active, level = True, action.level
    if not m_active:
        return draws(fork, lbar, a, 0, 0, 0)

    out = []
    if adversary_live:
        out.append((ADVERSARY, -1, 0, 0, 0, (fork, lbar, a + 1, True, level)))
    for j, alive in enumerate(live):
        if not alive:
            continue
        if petty[j] and fork[j] <= level:
            # bribed pool extends the attacker's published fork: the race
            # resolves, the public fork is orphaned, the bribe is collected
            if a == lbar:
                nxt = (zeros, 0, 0, False, -1)
                out.append((j, level, lbar + 1, lbar, lbar, nxt))
            else:
                one = _grow(zeros, j, clip, groups)
                nxt = (one, 1, a - lbar, False, -1)
                out.append((j, level, lbar, lbar, lbar, nxt))
        else:
            # the public fork outgrows the published match; deposit returns
            grown = _grow(fork, j, clip, groups)
            out.append((j, -1, 0, 0, 0, (grown, lbar + 1, a, False, -1)))
    return out


def _feasible_actions(key, fork_cap, max_bribe):
    _, lbar, a, m_active, level = key
    if a >= fork_cap or lbar >= fork_cap:
        # truncation boundary: cash in if ahead, concede otherwise
        return [MdpAction("override") if a > lbar else MdpAction("adopt")]
    acts = [MdpAction("wait")]
    if lbar >= 1:
        acts.append(MdpAction("adopt"))
    if a > lbar:
        acts.append(MdpAction("override"))
    if a >= lbar >= 1:
        lowest = level + 1 if m_active else 0
        acts.extend(
            MdpAction("match", i) for i in range(lowest, max_bribe + 1)
        )
    return acts


@lru_cache(maxsize=1)
def _topology(live, adversary_live, petty, groups, fork_cap, max_bribe, state_ceiling):
    """Enumerate every reachable lumped state with its actions and edges.

    The arguments are build_mdp's topology signature.  Returns (states,
    actions, edge_level, arrays): arrays maps the MdpModel graph
    fields to read-only arrays, and edge_level is the bribe level collected
    on each edge, -1 where none is.
    """
    # a petty pool's count is only compared with a bribe level <= max_bribe,
    # and the honest pool's is never read
    clip = tuple(max_bribe + 1 if p else 0 for p in petty)

    # breadth-first: a state is numbered when first reached and expanded in
    # that order, so its actions and their edges are flattened as it goes
    root = ((0,) * len(live), 0, 0, False, -1)
    index = {root: 0}
    states = [root]
    actions = []
    state_ptr = [0]
    action_ptr = []
    dst, winner, level, settled, reward, orphans = [], [], [], [], [], []
    head = 0
    while head < len(states):
        key = states[head]
        head += 1
        acts = _feasible_actions(key, fork_cap, max_bribe)
        for act in acts:
            action_ptr.append(len(dst))
            edges = _successors(key, act, live, adversary_live, petty, clip, groups)
            for w, lv, st, rw, orp, nxt in edges:
                to = index.get(nxt)
                if to is None:
                    if len(states) >= state_ceiling:
                        raise CapacityError(
                            f"state count exceeded the ceiling {state_ceiling}"
                        )
                    to = index[nxt] = len(states)
                    states.append(nxt)
                dst.append(to)
                winner.append(w)
                level.append(lv)
                settled.append(st)
                reward.append(rw)
                orphans.append(orp)
        actions.append(acts)
        state_ptr.append(state_ptr[-1] + len(acts))

    arrays = {
        "state_ptr": np.array(state_ptr, dtype=np.int64),
        "action_ptr": np.array(action_ptr, dtype=np.int64),
        "edge_dst": np.array(dst, dtype=np.int64),
        "edge_winner": np.array(winner, dtype=np.int32),
        "edge_settled": np.array(settled, dtype=float),
        "edge_reward": np.array(reward, dtype=float),
        "edge_orphans": np.array(orphans, dtype=np.int32),
    }
    edge_level = np.array(level, dtype=np.int32)
    for arr in (*arrays.values(), edge_level):
        arr.flags.writeable = False
    return states, actions, edge_level, arrays


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

    The graph (states, actions, destinations, winners, settled, reward and
    orphan counts) does not depend on the share values, so it is enumerated
    once per signature and cached: the number of rival pools, which of them
    have a positive share, whether the adversary does, which are petty, the
    groups of pools with equal (share, petty), fork_cap, max_bribe and
    state_ceiling.  Models with one signature share those structures; their
    arrays are read-only and the lists must not be mutated.  Only
    edge_prob and edge_bribe are computed per call.

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
    states, actions, edge_level, arrays = _topology(
        tuple(bool(s > 0) for s in shares),
        alpha_a > 0,
        petty,
        groups,
        fork_cap,
        max_bribe,
        state_ceiling,
    )
    winner = arrays["edge_winner"]
    return MdpModel(
        pools=pools,
        params=params,
        fork_cap=fork_cap,
        max_bribe=max_bribe,
        shares=shares,
        alpha_a=alpha_a,
        petty=petty,
        states=states,
        actions=actions,
        edge_prob=np.where(winner == ADVERSARY, alpha_a, shares[winner]),
        edge_bribe=np.where(edge_level >= 0, edge_level + params.epsilon, 0.0),
        **arrays,
    )


@dataclass
class SolveResult:
    """Solved reward share with the greedy policy that attains it.

    policy holds each state's action slot (see MdpModel).  iterations
    counts value sweeps over all outer steps, sweeps_per_step splits them by
    step, and residual is |g|, the average transformed reward of the last
    step's value iteration.
    """

    reward_share: float
    policy: np.ndarray
    iterations: int
    residual: float
    outer_steps: int
    sweeps_per_step: tuple[int, ...]


def _sweeps(model, rho, V, span_tol, max_sweeps):
    """Relative value iteration at a fixed candidate share rho."""
    if max_sweeps < 1:
        return None, V, 0, np.inf
    base = model.edge_prob * (model.edge_reward - model.edge_bribe - rho * model.edge_settled)
    pv = model.edge_prob
    dst = model.edge_dst
    a_ptr = model.action_ptr
    s_ptr = model.state_ptr[:-1]
    for sweep in range(1, max_sweeps + 1):
        q_edge = base + pv * V[dst]
        q_act = np.add.reduceat(q_edge, a_ptr)
        v_new = np.maximum.reduceat(q_act, s_ptr)
        diff = v_new - V
        hi = float(diff.max())
        lo = float(diff.min())
        V = v_new - v_new[0]
        if hi - lo < span_tol:
            return 0.5 * (hi + lo), V, sweep, hi - lo
    return None, V, max_sweeps, hi - lo


def _greedy_slots(model: MdpModel, q_act: np.ndarray) -> np.ndarray:
    """Each state's best action slot; ties go to the first, as with np.argmax."""
    s_ptr = model.state_ptr[:-1]
    best = np.maximum.reduceat(q_act, s_ptr)
    slots = np.arange(q_act.size)
    at_best = q_act == np.repeat(best, np.diff(model.state_ptr))
    return np.minimum.reduceat(np.where(at_best, slots, q_act.size), s_ptr)


def _stationary(count, dst, prob, pi, max_iterations=_STATIONARY_MAX):
    """Stationary distribution of a chain, by power iteration from pi.

    State s has count[s] consecutive edges, to dst with probability prob.
    Iterates the lazy chain _STAY*pi + (1 - _STAY)*pi P, which has the same
    stationary distribution and is aperiodic, until an iteration moves pi
    by less than _STATIONARY_TOL in L1.
    """
    n = pi.size
    for _ in range(max_iterations):
        moved = np.bincount(dst, weights=np.repeat(pi, count) * prob, minlength=n)
        nxt = _STAY * pi + (1.0 - _STAY) * moved
        change = float(np.abs(nxt - pi).sum())
        pi = nxt
        if change < _STATIONARY_TOL:
            return pi / pi.sum()
    raise ConvergenceError(
        f"stationary distribution moved {change:.3g} after {max_iterations} iterations",
        residual=change,
    )


def _policy_edges(model: MdpModel, policy: np.ndarray):
    """(first, count, edges): state s's chosen action has count[s] edges,
    edges[first[s]] onwards.  Raises ValidationError unless policy holds one
    integer action slot per state, each in [state_ptr[s], state_ptr[s + 1]).
    """
    slots, ptr = np.asarray(policy), model.state_ptr
    if not (slots.shape == (ptr.size - 1,) and slots.dtype.kind in "iu"
            and np.all((ptr[:-1] <= slots) & (slots < ptr[1:]))):
        raise ValidationError(f"a policy is an int array of {ptr.size - 1} action slots, one per state")
    start = model.action_ptr[slots]
    count = np.append(model.action_ptr[1:], model.edge_prob.size)[slots] - start
    first = np.cumsum(count) - count
    return first, count, np.repeat(start - first, count) + np.arange(first[-1] + count[-1])


def _policy_ratio(model: MdpModel, slots: np.ndarray, pi: np.ndarray):
    """Exact long-run (reward - bribes) / settled of the policy taking slots.

    Returns the ratio, the settled blocks per transition and the policy's
    stationary distribution, found from pi.
    """
    first, count, edges = _policy_edges(model, slots)
    prob = model.edge_prob[edges]
    settled = np.add.reduceat(prob * model.edge_settled[edges], first)
    gain = np.add.reduceat(prob * (model.edge_reward[edges] - model.edge_bribe[edges]), first)
    dst = model.edge_dst[edges]
    del edges  # the power iteration needs only count, dst and prob
    pi = _stationary(count, dst, prob, pi)
    rate = float(pi @ settled)
    return float(pi @ gain) / rate, rate, pi


def solve_reward_share(
    model: MdpModel, tol: float = 1e-6, max_sweeps: int = 500_000
) -> SolveResult:
    """Maximize (attacker blocks settled - bribes) / (blocks settled).

    Dinkelbach iteration on the share.  At a candidate rho the transformed
    edge reward is reward - bribe - rho*settled; relative value iteration
    finds its greedy policy, whose exact ratio (from the policy's stationary
    distribution) is the next rho.  Every iterate is a share a policy
    attains, starting from the honest share, and the iterates rise to the
    optimum superlinearly.  The value iteration's span tolerance shrinks
    with the step, so the greedy policy of the last steps is optimal to well
    within tol.  Stops when a step moves the share by less than tol at a
    span tight for tol, and returns that step's policy and its ratio.  The
    value table and the stationary distribution carry over between steps.
    """
    require_positive_finite("tol", tol)
    n = model.state_count
    V = np.zeros(n)
    pi = np.zeros(n)
    pi[0] = 1.0
    rho = model.alpha_a  # the honest policy's share
    span_tol = _SPAN_START
    end_span = 0.0  # a span tight enough to stop at, set after the first step
    per_step = []
    while True:
        g, V, used, span = _sweeps(model, rho, V, span_tol, max_sweeps - sum(per_step))
        per_step.append(used)
        if g is None:
            raise ConvergenceError(
                f"value iteration exhausted {max_sweeps} sweeps", residual=span
            )
        q_act = np.add.reduceat(
            model.edge_prob * (
                model.edge_reward - model.edge_bribe - rho * model.edge_settled
                + V[model.edge_dst]
            ),
            model.action_ptr,
        )
        slots = _greedy_slots(model, q_act)
        ratio, settled, pi = _policy_ratio(model, slots, pi)
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
    return SolveResult(rho, slots, sum(per_step), abs(g), len(per_step), tuple(per_step))


def honest_policy(model: MdpModel) -> np.ndarray:
    """Publish immediately, concede otherwise: reproduces honest mining."""
    override, adopt, wait = MdpAction("override"), MdpAction("adopt"), MdpAction("wait")
    first = [
        acts.index(override if a > lbar else adopt if lbar >= 1 else wait)
        for (_, lbar, a, _, _), acts in zip(model.states, model.actions)
    ]
    return model.state_ptr[:-1] + np.array(first, dtype=np.int64)


def policy_tables(model: MdpModel, policy: np.ndarray):
    """Freeze a policy into per-winner tables of its chosen action's edges.

    Returns (next_state, settled, reward, bribe, orphans), each with one row
    per state and one column per winner: pools in PoolSet.others() order,
    the attacker last.  next_state is -1 and the rest 0 for a winner with no
    edge (a pool of share 0).
    """
    n = model.state_count
    n_win = len(model.shares) + 1
    _, count, edges = _policy_edges(model, policy)
    rows = np.repeat(np.arange(n), count)
    w = model.edge_winner[edges]
    col = np.where(w == ADVERSARY, n_win - 1, w)
    next_state = np.full((n, n_win), -1, dtype=np.int64)
    next_state[rows, col] = model.edge_dst[edges]
    tables = [next_state]
    for values in (model.edge_settled, model.edge_reward, model.edge_bribe, model.edge_orphans):
        table = np.zeros((n, n_win))
        table[rows, col] = values[edges]
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
