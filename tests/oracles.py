"""Independent oracles used only by the tests.

Everything here recomputes quantities the package derives in closed form,
by a different route: exact lattice-path enumeration with integer DP, exact
Taylor expansion of the closed forms over Fractions, and small Monte Carlo
models written directly from the process definitions.  The fork-race MDP
builder is kept here in its unlumped form, as the reference for the lumped
one, the lumped topology as the search over state tuples and action objects
that the layered integer build replaced, greedy-policy extraction as the
per-state loop it replaced, freezing a policy into tables as the walk over
a {state: action} dict it replaced, the share solver as the bisection that
the Dinkelbach iteration replaced and as the Dinkelbach steps on the flat
edge arrays (a reduceat sweep, a power iteration over the whole chain)
that the slot x winner grid sweep replaced, as the grid sweep over every
action slot that the sweep over the slots' distinct rows replaced and as
the row sweep over every state padded to the widest slot count, in state
order, that the sweep in single-slot and padded blocks replaced, the
row grid and the per-model edge probabilities and bribes as they were
built for every model before the topology-only parts were shared, the
three lockstep Monte Carlo loops twice: chain by chain, which the lockstep
counts walk agrees with in mean, and as Python loops of one scalar
multinomial draw per occupied state, which the counts walk equals to the
last bit, the per-event clocked simulator that the lockstep clocked engine
replaced, and the never-reach walk twice: walk by walk, as the int64
step-at-a-time loop that the counts walk agrees with in mean, and as a
Python loop of one scalar binomial draw per lead, which the counts walk
equals to the last bit.  The chain-by-chain Monte Carlo loops draw their
winners one at a time, each by a bisect on its state's integer
thresholds, and the distraction automaton's from its per-state rows, as
they did before the rows were folded into one cdf; an exact stationary
solve evaluates any automaton without sampling.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from powplay.errors import CapacityError, ConvergenceError, ValidationError, require_positive_finite
from powplay.mdp import (
    _SPAN_FLOOR,
    _SPAN_SHRINK,
    _SPAN_START,
    _STATIONARY_MAX,
    _STATIONARY_TOL,
    _STAY,
    ADOPT,
    ADVERSARY,
    MATCH,
    OVERRIDE,
    WAIT,
    MdpModel,
    SolveResult,
    _Grid,
    _Topology,
    policy_tables,
)
from powplay.model import AttackParams, PoolSet
from powplay.sim import (
    _CHUNK,
    DEFAULT_SEED,
    SimStats,
    _distraction_rows,
    _fold_rows,
    build_automaton,
    dam_update,
)

# -- exact lattice-path enumeration ------------------------------------------------
#
# Monotone paths from (0,0), x-steps = pool blocks, y-steps = everyone else's.
# Interior points must satisfy -2 < y - x < d.  G_s^d first touches y = x + d
# at (s, s+d); F_s^d first touches y = x - 2 at (s+2, s).


def lattice_counts(d, s_max):
    """Exact integer counts (G, F) with G[s] = G_s^d, F[s] = F_s^d, s <= s_max."""
    interior = {}
    interior[(0, 0)] = 1
    for x in range(0, s_max + 3):
        for y in range(max(0, x - 1), x + d):
            if (x, y) == (0, 0):
                continue
            interior[(x, y)] = interior.get((x - 1, y), 0) + interior.get(
                (x, y - 1), 0
            )
    g = [interior.get((s, s + d - 1), 0) for s in range(s_max + 1)]
    f = [interior.get((s + 1, s), 0) for s in range(s_max + 1)]
    return g, f


# -- exact Taylor arithmetic over Fractions ---------------------------------------


def _mul(p, q, order):
    out = [Fraction(0)] * order
    for i, a in enumerate(p[:order]):
        if a == 0:
            continue
        for j, b in enumerate(q[: order - i]):
            if b:
                out[i + j] += a * b
    return out


def _pow(p, n, order):
    out = [Fraction(1)] + [Fraction(0)] * (order - 1)
    for _ in range(n):
        out = _mul(out, p, order)
    return out


def _inv(p, order):
    assert p[0] != 0
    out = [Fraction(1) / p[0]] + [Fraction(0)] * (order - 1)
    for k in range(1, order):
        acc = Fraction(0)
        for j in range(1, k + 1):
            acc += (p[j] if j < len(p) else Fraction(0)) * out[k - j]
        out[k] = -acc / p[0]
    return out


def _sub(p, q):
    n = max(len(p), len(q))
    return [
        (p[i] if i < len(p) else Fraction(0)) - (q[i] if i < len(q) else Fraction(0))
        for i in range(n)
    ]


def g_closed_taylor(d, order):
    """Taylor coefficients in alpha of (1-2a)/((1-a)^m - a^m), m = d+2."""
    m = d + 2
    one_minus_a = [Fraction(1), Fraction(-1)]
    den = _sub(_pow(one_minus_a, m, order), [Fraction(0)] * m + [Fraction(1)])
    num = [Fraction(1), Fraction(-2)]
    return _mul(num, _inv(den[:order], order), order)


def f_closed_taylor(d, order):
    """Taylor coefficients in alpha of the F-series closed form.

    Written rationally: ((1-a)^m - a^m - (1-2a)(1-a)^(m-2)) / (a^2 ((1-a)^m - a^m)).
    The numerator's two lowest coefficients vanish identically, which the
    expansion asserts before shifting out a^2.
    """
    m = d + 2
    ext = order + 2
    one_minus_a = [Fraction(1), Fraction(-1)]
    pw = _sub(_pow(one_minus_a, m, ext), [Fraction(0)] * m + [Fraction(1)])
    num = _sub(pw, _mul([Fraction(1), Fraction(-2)], _pow(one_minus_a, m - 2, ext), ext))
    num = num[:ext] + [Fraction(0)] * (ext - len(num))
    assert num[0] == 0 and num[1] == 0
    shifted = num[2:ext]
    return _mul(shifted, _inv(pw[:order], order), order)


def alpha_poly_from_counts(counts, order):
    """Sum_s counts[s] * (a - a^2)^s as exact Taylor coefficients up to `order`.

    Coefficients of a^k for k < order only involve s <= k, so `counts` must
    cover s up to order-1.
    """
    x = [Fraction(0), Fraction(1), Fraction(-1)]
    acc = [Fraction(0)] * order
    term = [Fraction(1)] + [Fraction(0)] * (order - 1)
    for s, c in enumerate(counts):
        if s >= order:
            break
        for k in range(order):
            acc[k] += c * term[k]
        term = _mul(term, x, order)
    return acc


def series_sum_numeric(counts, share, weighted=False):
    """Numeric partial sum of counts[s] * x^s (optionally s-weighted)."""
    x = share * (1.0 - share)
    total = 0.0
    for s, c in enumerate(counts):
        w = s if weighted else 1
        total += w * c * x**s
    return total


# -- Monte Carlo: stay-or-switch fork race ------------------------------------------


def fork_race_returns_mc(share, d, races=200_000, seed=0):
    """Simulate the 1-behind-2 fork race; returns (r1_hat, r2_hat).

    The pool's lead starts at -1 (own fork 1 long, rival 2) and moves +1 with
    probability `share`.  The race ends when the pool pulls one ahead (win) or
    falls d behind (loss).  r1 scores the pool's canonical blocks if it stays
    (all x blocks on a winning own fork, nothing on a loss); r2 scores the
    switch counterfactual (x-1 either way), matching the two return sums the
    closed forms evaluate.
    """
    rng = np.random.default_rng(seed)
    lead = np.full(races, -1, dtype=np.int64)  # own length minus rival length
    x = np.ones(races, dtype=np.int64)  # pool blocks incl. the fork's first
    active = np.arange(races)
    r1 = 0.0
    r2 = 0.0
    while active.size:
        up = rng.random(active.size) < share
        lead[active] += np.where(up, 1, -1)
        x[active] += up
        won = lead[active] == 1
        lost = lead[active] == -d
        done = won | lost
        if done.any():
            idx = active[done]
            r1 += float(x[idx[won[done]]].sum())
            r2 += float((x[idx] - 1).sum())
            active = active[~done]
    return r1 / races, r2 / races


# -- withholding chain: stationary accounting ----------------------------------------


def withholding_chain_profit(alpha, beta, epsilon, rate=1.0, reward=1.0):
    """Per-time withholding profit recomputed from the 4-state chain.

    States (0,0)->(1,0)->(2,0)/(1,1) with the published transition rules.
    Every transition settles 0, 1 or 2 canonical blocks; after difficulty
    adjustment canonical blocks arrive at `rate`, so profit per time is
    rate * reward * E[attacker blocks - bribes] / E[canonical blocks],
    both expectations per transition under the stationary law.
    """
    a = alpha
    p00 = (1 - a) / (1 + (1 - a) ** 2 * a)
    p10 = a * p00
    p20 = a / (1 - a) * p10
    p11 = (1 - a) * p10
    # attacker blocks settled per transition, minus bribes paid
    gain = (
        p20 * (a * 1 + (1 - a) * 2)
        + p11 * (a * 2 + (1 - a - beta) * (1 - epsilon))
    )
    # canonical blocks settled per transition (all miners)
    settled = p00 * (1 - a) * 1 + p20 * (a * 1 + (1 - a) * 2) + p11 * 2
    return rate * reward * gain / settled


def withholding_stationary_check(alpha):
    """Left eigenvector check of the 4-state transition matrix."""
    a = alpha
    P = np.array(
        [
            [1 - a, a, 0, 0],
            [0, 0, a, 1 - a],
            [1 - a, 0, a, 0],
            [1, 0, 0, 0],
        ]
    )
    vals, vecs = np.linalg.eig(P.T)
    k = int(np.argmin(np.abs(vals - 1.0)))
    pi = np.real(vecs[:, k])
    pi = pi / pi.sum()
    return pi  # order: (0,0), (1,0), (2,0), (1,1)


def tie_race_advantage_mc(shares, adversary, epsilon=0.0, trials=200_000, seed=0):
    """P[next block lands on the attacker's fork in a bribed 1-1 tie].

    The rival block's owner is a petty pool drawn with probability
    proportional to its share; the owner keeps mining its own block, everyone
    else (bribed with any epsilon > losing margin) mines the attacker's fork.
    """
    rng = np.random.default_rng(seed)
    shares = np.asarray(shares, dtype=float)
    others = np.array([i for i in range(len(shares)) if i != adversary])
    owner_p = shares[others] / shares[others].sum()
    owners = rng.choice(others, size=trials, p=owner_p)
    miners = rng.choice(len(shares), size=trials, p=shares)
    return float(np.mean(miners != owners))


# -- Monte Carlo: plain never-reach walk ---------------------------------------------


def _hit_from(q, gap):
    """Exact probability of ever gaining ``gap`` more, clamped for q >= 1."""
    return np.minimum(1.0, q ** gap.astype(np.float64))


def walk_never_reach_mc_per_step(share, r, walks=1_000_000, seed=0, step_cap=100_000, band=30):
    """The never-reach Monte Carlo walked walk by walk: the per-walk root oracle.

    Same absorption and analytic close-out as
    powplay.randomwalk.walk_never_reach_mc, but each of the walks is stepped
    on its own, in 65,536-walk chunks seeded from SeedSequence(seed).spawn;
    each step adds np.where(u < share, 1, -1) to int64 leads and tests hits
    and sunk walks with two compares.  It draws other bits than the counts
    walk, so the two agree in law, not value.  Sizes are not validated.
    """
    q = share / (1.0 - share)

    chunk = 1 << 16
    starts = list(range(0, walks, chunk))
    seeds = np.random.SeedSequence(seed).spawn(len(starts))

    def run_chunk(i: int) -> float:
        n = min(chunk, walks - starts[i])
        rng = np.random.default_rng(seeds[i])
        lead = np.zeros(n, dtype=np.int64)
        hit_mass = 0.0
        floor = r - band
        for _ in range(step_cap):
            lead += np.where(rng.random(lead.shape[0]) < share, 1, -1)
            hits = lead >= r
            sunk = lead <= floor
            if hits.any():
                hit_mass += float(np.count_nonzero(hits))
            if sunk.any():
                hit_mass += float(np.sum(_hit_from(q, r - lead[sunk])))
            keep = ~(hits | sunk)
            if not keep.all():
                lead = lead[keep]
            if lead.shape[0] == 0:
                break
        if lead.shape[0]:
            hit_mass += float(np.sum(_hit_from(q, r - lead)))
        return hit_mass

    masses = [run_chunk(i) for i in range(len(starts))]
    return 1.0 - sum(masses) / walks


def walk_never_reach_counts_loop(share, r, walks=1_000_000, seed=0, step_cap=100_000, band=30):
    """powplay.randomwalk.walk_never_reach_mc as a Python loop over the walks' leads.

    Keeps a dict of how many walks are alive at each lead and a list of how
    many stopped at each lead from min(r - band, -1) up to r.  Each step draws
    one scalar rng.binomial(n, share) per alive lead in ascending order, from
    the counts before the step, and moves that many walks up and the rest
    down; a walk that lands outside the band (r - band, r) is tallied where it
    landed.  The first step moves every walk from lead 0, even when 0 is at
    or below the floor.  The hit mass is (tallies + survivors) @ close with
    close the clamped exact hit probability from each lead.  Sizes are not
    validated.
    """
    rng = np.random.default_rng(seed)
    q = share / (1.0 - share)
    floor = r - band
    lowest = min(floor, -1)
    alive = {0: walks}
    tallies = [0] * (r + 1 - lowest)
    for _ in range(step_cap):
        if not alive:
            break
        landed = {}
        for lead in sorted(alive):
            n = alive[lead]
            up = int(rng.binomial(n, share))
            landed[lead + 1] = landed.get(lead + 1, 0) + up
            landed[lead - 1] = landed.get(lead - 1, 0) + n - up
        alive = {}
        for lead, n in landed.items():
            if not floor < lead < r:
                tallies[lead - lowest] += n
            elif n:  # an empty lead draws nothing, in numpy's vector call too
                alive[lead] = n
    survivors = [0] * len(tallies)
    for lead, n in alive.items():
        survivors[lead - lowest] = n
    gap = np.arange(r - lowest, -1, -1).astype(np.float64)
    close = np.minimum(1.0, q**gap)
    counts = np.array(tallies, dtype=np.int64) + np.array(survivors, dtype=np.int64)
    return 1.0 - float(counts @ close) / walks


# -- exact rational route through the distraction three-state process -----------------


def _stationary3(rows):
    """Exact stationary vector of a 3-state chain given Fraction rows."""
    p = rows
    # solve pi = pi P with pi0 + pi1 + pi2 = 1 by substitution: the chains
    # here always have state 2 feeding back to state 0 only, so
    # pi1 = pi0 p01 / (1 - p11), pi2 = pi1 p12.
    assert p[2][0] == 1 and p[2][1] == 0 and p[2][2] == 0
    assert p[0][2] == 0
    pi1 = p[0][1] / (1 - p[1][1])
    pi2 = pi1 * p[1][2]
    total = 1 + pi1 + pi2
    pi = (Fraction(1) / total, pi1 / total, pi2 / total)
    check = [
        pi[0] * p[0][j] + pi[1] * p[1][j] + pi[2] * p[2][j] for j in range(3)
    ]
    assert check == list(pi)
    return pi


def distraction_occupancy_exact(alpha_a, alpha_i, alpha_c, alpha_nc, d, choice):
    """Stationary quiet/live/race probabilities from the embedded chain.

    Built from the mechanism (attacker block hides and opens the puzzle;
    puzzle solutions or attacker re-mines release it; only chain-mining
    non-compliant hash can force a race; races resolve in one block), not
    from the displayed closed forms, and solved exactly over Fractions.
    """
    aa, ai, ac, anc = (Fraction(x) for x in (alpha_a, alpha_i, alpha_c, alpha_nc))
    d = Fraction(d)
    if choice == "mini_pow":
        denom = d * (ac + ai) + anc + aa
        puzzle_hash = d * (ac + ai)
    else:
        denom = d * ac + ai + anc + aa
        puzzle_hash = d * ac
    a_a = aa / denom
    race = (denom - puzzle_hash - aa) / denom  # chain miners other than attacker
    rows = [
        [1 - aa, aa, Fraction(0)],
        [puzzle_hash / denom, a_a, race],
        [Fraction(1), Fraction(0), Fraction(0)],
    ]
    return _stationary3(rows)


def distraction_delta_exact(alpha_a, alpha_i, alpha_c, alpha_nc, d, br2, eps):
    """Return-gap oracle evaluated entirely over Fractions."""
    aa, ai, ac, anc, d, br2, eps = (
        Fraction(x) for x in (alpha_a, alpha_i, alpha_c, alpha_nc, d, br2, eps)
    )
    p0m, p1m, p2m = distraction_occupancy_exact(aa, ai, ac, anc, d, "mini_pow")
    denom_m = d * (ac + ai) + anc + aa
    r1 = ai * p0m + ai * p2m * (1 + eps) + (d * ai / denom_m) * p1m * br2 * denom_m
    p0b, p1b, p2b = distraction_occupancy_exact(aa, ai, ac, anc, d, "bitcoin")
    denom_b = d * ac + ai + anc + aa
    ai_b = ai / denom_b
    anc_b = anc / denom_b
    r2 = ai * p0b
    if ai_b + anc_b:
        r2 += ai * p2b * (anc_b / (anc_b + ai_b)) * (1 + eps)
        r2 += 2 * ai * p2b * (ai_b / (anc_b + ai_b))
    return (r1 - r2) / ai


def distraction_share_exact(alpha_a, alpha_i, alpha_c, alpha_nc, d, br2):
    """Attacker canonical share net of puzzle payouts, by direct accounting.

    Per embedded event: quiet non-attacker blocks settle one; every live
    event publishes exactly one attacker block (a re-mine releases the
    previous hidden block, a solution releases it too); a race resolution
    settles two, of which the attacker's survives unless the defiant side
    wins.  Counts attacker blocks minus br2 per solution over all canonical
    blocks.  Exact for alpha_nc = 0 (no race states, nothing orphaned).
    """
    aa, ai, ac, anc, d, br2 = (
        Fraction(x) for x in (alpha_a, alpha_i, alpha_c, alpha_nc, d, br2)
    )
    assert anc == 0, "direct accounting oracle only covers the no-race case"
    p0, p1, p2 = distraction_occupancy_exact(aa, ai, ac, anc, d, "mini_pow")
    assert p2 == 0
    denom = d * (ac + ai) + anc + aa
    solutions = p1 * (d * (ac + ai) / denom)
    attacker_blocks = p1  # every live-state event publishes an attacker block
    canonical = p0 * (1 - aa) + p1
    return (attacker_blocks - br2 * solutions) / canonical


# -- the fork-race topology as a search over single states ------------------------
#
# The lumped builder as it was before it expanded a layer of states at a time
# on integer rows: a first-in first-out search over state tuples, each state's
# actions a list of MdpAction objects.  `topology_bfs` takes `mdp._topology`'s
# signature and returns its (states, actions, edge_level, arrays) in that old
# form; `bfs_rows` and `bfs_codes` turn the tuples and actions into the rows
# and action codes the layered builder stores.

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


def topology_bfs(live, adversary_live, petty, groups, fork_cap, max_bribe, state_ceiling):
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


def bfs_rows(states):
    """State tuples (fork, lbar, a, match_active, level) as int16 rows."""
    return np.array([(*fork, *rest) for fork, *rest in states], dtype=np.int16)


def bfs_codes(actions):
    """Per-state MdpAction lists as one int16 action code per slot."""
    codes = {"wait": WAIT, "adopt": ADOPT, "override": OVERRIDE}
    return np.array(
        [MATCH + act.level if act.kind == "match" else codes[act.kind] for acts in actions for act in acts],
        dtype=np.int16,
    )


# -- the fork-race MDP before lumping ---------------------------------------------
#
# The builder as it was before the state space was lumped: every state keeps
# the full per-pool fork counts and pools are never merged, so its solved
# share is the reference the lumped `powplay.mdp.build_mdp` must reproduce.

def _successors_unlumped(key, action, shares, alpha_a, petty):
    """Yield (winner, settled, reward, level, orphans, next_key); level is the
    bribe level a bribed pool collects on the edge, -1 where none is."""
    fork, a, m_active, level = key
    lbar = sum(fork)
    zeros = (0,) * len(fork)

    def draws(base_fork, base_a, settled, reward, orphans):
        # race flags are clear in every state this helper produces
        out = []
        if alpha_a > 0:
            out.append(
                (ADVERSARY, settled, reward, -1, orphans,
                 (base_fork, base_a + 1, False, -1))
            )
        for j, sj in enumerate(shares):
            if sj <= 0:
                continue
            grown = list(base_fork)
            grown[j] += 1
            out.append(
                (j, settled, reward, -1, orphans,
                 (tuple(grown), base_a, False, -1))
            )
        return out

    if action.kind == "adopt":
        # concede: the public fork settles, the secret fork is thrown away
        return draws(zeros, 0, lbar, 0, a)
    if action.kind == "override":
        # publish lbar+1 attacker blocks; they settle and orphan the fork
        rest = a - lbar - 1
        return draws(zeros, rest, lbar + 1, lbar + 1, lbar)

    # wait or match: set the race flags, then let the next block decide
    if action.kind == "match":
        m_active, level = True, action.level
    if not m_active:
        return draws(fork, a, 0, 0, 0)

    out = []
    if alpha_a > 0:
        out.append(
            (ADVERSARY, 0, 0, -1, 0, (fork, a + 1, True, level))
        )
    for j, sj in enumerate(shares):
        if sj <= 0:
            continue
        if petty[j] and fork[j] <= level:
            # bribed pool extends the attacker's published fork: the race
            # resolves, the public fork is orphaned, the bribe is collected
            if a == lbar:
                nxt = (zeros, 0, False, -1)
                out.append((j, lbar + 1, lbar, level, lbar, nxt))
            else:
                one = tuple(1 if k == j else 0 for k in range(len(fork)))
                nxt = (one, a - lbar, False, -1)
                out.append((j, lbar, lbar, level, lbar, nxt))
        else:
            # the public fork outgrows the published match; deposit returns
            grown = list(fork)
            grown[j] += 1
            out.append((j, 0, 0, -1, 0, (tuple(grown), a, False, -1)))
    return out


def _feasible_actions_unlumped(key, fork_cap, max_bribe):
    fork, a, m_active, level = key
    lbar = sum(fork)
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


def build_mdp_unlumped(
    pools: PoolSet,
    params: AttackParams,
    fork_cap: int = 8,
    honest: int | str | None = None,
    state_ceiling: int = 10_000_000,
) -> MdpModel:
    """Enumerate every reachable fork-race state and its action edges.

    All non-adversarial pools respond to bribes by default, matching the
    result tables (their captions label every non-adversarial pool as
    profit-tracking); pass `honest` to pin one pool that never switches.

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

    root = ((0,) * len(others), 0, False, -1)
    index = {root: 0}
    states = [root]
    queue = [root]
    actions = []
    per_state_edges = []  # aligned with states after the loop
    head = 0
    while head < len(queue):
        key = queue[head]
        head += 1
        acts = _feasible_actions_unlumped(key, fork_cap, max_bribe)
        rows = []
        for act in acts:
            edges = _successors_unlumped(key, act, shares, alpha_a, petty)
            for *_, nxt in edges:
                if nxt not in index:
                    if len(states) >= state_ceiling:
                        raise CapacityError(
                            f"state count exceeded the ceiling {state_ceiling}"
                        )
                    index[nxt] = len(states)
                    states.append(nxt)
                    queue.append(nxt)
            rows.append((act, edges))
        actions.append([a for a, _ in rows])
        per_state_edges.append(rows)

    # flatten: actions grouped per state, edges grouped per action; every
    # action has one edge per live winner, in one order
    state_ptr = [0]
    dst, settled, reward, level, orphans = [], [], [], [], []
    for rows in per_state_edges:
        for _, edges in rows:
            for _, st, rw, lv, orp, nxt in edges:
                dst.append(index[nxt])
                settled.append(st)
                reward.append(rw)
                level.append(lv)
                orphans.append(orp)
        state_ptr.append(state_ptr[-1] + len(rows))

    winners = np.array([w for w, *_ in per_state_edges[0][0][1]], dtype=np.int32)  # the first slot's
    slots = np.arange(len(dst) // winners.size)
    topology = _Topology.of_rows(  # one row per slot, repeats merged
        bfs_rows([(fork, sum(fork), *rest) for fork, *rest in states]),
        bfs_codes(actions),
        np.array(state_ptr, dtype=np.int64),
        winners,
        slots,
        slots,
        *(np.array(values, dtype=np.int64).reshape(-1, winners.size) for values in (dst, settled, reward, level)),
    )
    # the topology derives the orphans from lbar, a, the action and the bribe level
    if not np.array_equal(topology.edge_orphans, orphans):
        raise AssertionError("the derived orphans differ from the unlumped search's")
    return MdpModel(pools, params, fork_cap, max_bribe, shares, alpha_a, petty, topology)


# -- greedy policy extraction ------------------------------------------------------


def greedy_policy_loop(model, q_act):
    """Each state's best action slot by one np.argmax per state (first on ties)."""
    slots = np.empty(model.state_count, dtype=np.int64)
    for s in range(model.state_count):
        a0, a1 = model.state_ptr[s], model.state_ptr[s + 1]
        slots[s] = a0 + int(np.argmax(q_act[a0:a1]))
    return slots


# -- freezing a policy into tables -------------------------------------------------


def policy_tables_loop(model, policy):
    """policy_tables of a {state row tuple: action code} policy, walked state by state."""
    n = model.state_count
    n_win = len(model.shares) + 1
    bounds = np.append(model.action_ptr, len(model.edge_prob))
    rows, edges = [], []
    for s, key in enumerate(map(tuple, model.states.tolist())):
        act = policy.get(key)
        if act is None:
            raise ValidationError(f"policy does not cover state {key}")
        first, end = int(model.state_ptr[s]), int(model.state_ptr[s + 1])
        try:
            slot = first + model.actions[first:end].tolist().index(act)
        except ValueError:
            raise ValidationError(f"action {act} infeasible in state {key}")
        chosen = range(int(bounds[slot]), int(bounds[slot + 1]))
        edges.extend(chosen)
        rows.extend([s] * len(chosen))
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


# -- the share solver on the per-edge arrays ----------------------------------------
#
# Dinkelbach steps as the package took them before it swept the slot x winner
# grid: a value sweep gathers, sums and maxes over the flat edge arrays with
# reduceat, and a policy's stationary distribution is power-iterated over
# every state of the chain.  The power iteration also counts its iterations.


def sweeps_per_edge(model, rho, V, span_tol, max_sweeps):
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


def greedy_slots_reduceat(model, q_act):
    """Each state's best action slot; ties go to the first, as with np.argmax."""
    s_ptr = model.state_ptr[:-1]
    best = np.maximum.reduceat(q_act, s_ptr)
    slots = np.arange(q_act.size)
    at_best = q_act == np.repeat(best, np.diff(model.state_ptr))
    return np.minimum.reduceat(np.where(at_best, slots, q_act.size), s_ptr)


def stationary_full_chain(count, dst, prob, pi, max_iterations=100_000):
    """Stationary distribution of a chain, by power iteration from pi, and
    the iterations that took.

    State s has count[s] consecutive edges, to dst with probability prob.
    Iterates the lazy chain 0.1*pi + 0.9*pi P, which has the same stationary
    distribution and is aperiodic, until an iteration moves pi by less than
    1e-13 in L1.
    """
    n = pi.size
    for iteration in range(1, max_iterations + 1):
        moved = np.bincount(dst, weights=np.repeat(pi, count) * prob, minlength=n)
        nxt = 0.1 * pi + 0.9 * moved
        change = float(np.abs(nxt - pi).sum())
        pi = nxt
        if change < 1e-13:
            return pi / pi.sum(), iteration
    raise ConvergenceError(
        f"stationary distribution moved {change:.3g} after {max_iterations} iterations",
        residual=change,
    )


def policy_ratio_full_chain(model, slots, pi):
    """Exact long-run (reward - bribes) / settled of the policy taking slots.

    Returns the ratio, the settled blocks per transition, the policy's
    stationary distribution, found from pi, and the power iterations.
    """
    start = model.action_ptr[slots]
    count = np.append(model.action_ptr[1:], model.edge_prob.size)[slots] - start
    first = np.cumsum(count) - count
    edges = np.repeat(start - first, count) + np.arange(first[-1] + count[-1])
    prob = model.edge_prob[edges]
    settled = np.add.reduceat(prob * model.edge_settled[edges], first)
    gain = np.add.reduceat(prob * (model.edge_reward[edges] - model.edge_bribe[edges]), first)
    dst = model.edge_dst[edges]
    del edges  # the power iteration needs only count, dst and prob
    pi, iterations = stationary_full_chain(count, dst, prob, pi)
    rate = float(pi @ settled)
    return float(pi @ gain) / rate, rate, pi, iterations


def solve_reward_share_per_edge(model, tol=1e-6, max_sweeps=500_000):
    """solve_reward_share as Dinkelbach steps on the per-edge arrays."""
    n = model.state_count
    V = np.zeros(n)
    pi = np.zeros(n)
    pi[0] = 1.0
    rho = model.alpha_a  # the honest policy's share
    span_tol = 1e-3
    end_span = 0.0  # a span tight enough to stop at, set after the first step
    per_step, stationary = [], []
    while True:
        g, V, used, span = sweeps_per_edge(model, rho, V, span_tol, max_sweeps - sum(per_step))
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
        slots = greedy_slots_reduceat(model, q_act)
        ratio, settled, pi, iterations = policy_ratio_full_chain(model, slots, pi)
        stationary.append(iterations)
        step = ratio - rho
        rho = ratio
        if abs(step) < tol and span_tol <= end_span:
            break
        # a greedy policy is optimal to within the span in average reward,
        # hence to within span / settled in share
        end_span = max(1e-10, tol * settled * 1e-2)
        span_tol = min(span_tol, max(end_span, abs(step) * settled * 1e-2))
    if not 0.0 <= rho <= 1.0:
        raise ConvergenceError(f"share {rho} escaped [0,1]", residual=abs(g))
    return SolveResult(
        rho, slots, sum(per_step), abs(g), len(per_step), tuple(per_step), tuple(stationary)
    )


# -- the share solver on every action slot ------------------------------------------
#
# Dinkelbach steps as the package took them before it swept the distinct
# action-slot rows: the slot x winner grid holds every slot, a sweep gathers
# every slot's next values, and the greedy policy reads every slot's value.


def _expected(p, values):
    """sum_k p[k] * values[:, k], added in winner order."""
    total = p[0] * values[:, 0]
    for k in range(1, p.size):
        total += p[k] * values[:, k]
    return total


def grid_all_slots(model):
    """Every action slot of the model as a slot x winner grid: dst[k] holds
    each slot's destination under winner k, cols[j] each state's j-th slot
    (its last repeated past its end), gain and settled each slot's expected
    reward net of bribes and settled blocks.  ValidationError if the model
    is not a grid."""
    slots = model.action_ptr.size
    width, rest = divmod(model.edge_prob.size, slots)
    prob = model.edge_prob.reshape(-1, width) if width and not rest else None
    if (prob is None or not np.array_equal(model.action_ptr, np.arange(slots) * width)
            or not np.all(prob == prob[0])):
        raise ValidationError("the model is not a slot x winner grid")
    p, ptr = prob[0], model.state_ptr
    count = np.diff(ptr)
    return SimpleNamespace(
        p=p,
        dst=model.edge_dst.reshape(-1, width).T.copy(),
        cols=ptr[:-1] + np.minimum(np.arange(count.max())[:, None], count - 1),
        gain=_expected(p, (model.edge_reward - model.edge_bribe).reshape(-1, width)),
        settled=_expected(p, model.edge_settled.reshape(-1, width)),
    )


def slot_values_all_slots(grid, r, V):
    """Each slot's r plus its expected next value under V, added in winner order."""
    q = r.copy()
    for pk, dst in zip(grid.p, grid.dst):
        q += (pk * V).take(dst)
    return q


def sweeps_all_slots(grid, r, V, span_tol, max_sweeps):
    """Relative value iteration with slot rewards r (one candidate share)."""
    if max_sweeps < 1:
        return None, V, 0, np.inf
    for sweep in range(1, max_sweeps + 1):
        v_new = slot_values_all_slots(grid, r, V)[grid.cols].max(axis=0)
        diff = v_new - V
        hi = float(diff.max())
        lo = float(diff.min())
        V = v_new - v_new[0]
        if hi - lo < span_tol:
            return 0.5 * (hi + lo), V, sweep, hi - lo
    return None, V, max_sweeps, hi - lo


def greedy_slots_all_slots(cols, q_act):
    """Each state's best action slot; ties go to the first, as with np.argmax."""
    return cols[q_act[cols].argmax(axis=0), np.arange(cols.shape[1])]


def policy_ratio_all_slots(grid, slots, pi):
    """Exact long-run (reward - bribes) / settled of the policy taking slots,
    its settled rate, stationary distribution and power iterations."""
    pi, iterations = stationary_padded(grid.dst[:, slots], grid.p, pi)
    rate = float(pi @ grid.settled[slots])
    return float(pi @ grid.gain[slots]) / rate, rate, pi, iterations


def solve_reward_share_all_slots(model, tol=1e-6, max_sweeps=500_000):
    """solve_reward_share as Dinkelbach steps sweeping every action slot."""
    grid = grid_all_slots(model)
    n = model.state_count
    V = np.zeros(n)
    pi = np.zeros(n)
    pi[0] = 1.0
    rho = model.alpha_a  # the honest policy's share
    span_tol = 1e-3
    end_span = 0.0  # a span tight enough to stop at, set after the first step
    per_step, stationary = [], []
    while True:
        r = grid.gain - rho * grid.settled
        g, V, used, span = sweeps_all_slots(grid, r, V, span_tol, max_sweeps - sum(per_step))
        per_step.append(used)
        if g is None:
            raise ConvergenceError(
                f"value iteration exhausted {max_sweeps} sweeps", residual=span
            )
        slots = greedy_slots_all_slots(grid.cols, slot_values_all_slots(grid, r, V))
        ratio, settled, pi, iterations = policy_ratio_all_slots(grid, slots, pi)
        stationary.append(iterations)
        step = ratio - rho
        rho = ratio
        if abs(step) < tol and span_tol <= end_span:
            break
        # a greedy policy is optimal to within the span in average reward,
        # hence to within span / settled in share
        end_span = max(1e-10, tol * settled * 1e-2)
        span_tol = min(span_tol, max(end_span, abs(step) * settled * 1e-2))
    if not 0.0 <= rho <= 1.0:
        raise ConvergenceError(f"share {rho} escaped [0,1]", residual=abs(g))
    return SolveResult(
        rho, slots, sum(per_step), abs(g), len(per_step), tuple(per_step), tuple(stationary)
    )


def row_classes_unique(rows):
    """(slot_row, row_slot) of a slots x values matrix: each slot's distinct
    row by np.unique(axis=0), numbered in order of first appearance, and
    each row's first slot."""
    _, first, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size)
    return rank[inverse.ravel()], first[order]


# -- the row grid and the per-model edge arrays, rebuilt for every model -----------
#
# _grid as it was before its topology-only part was checked and laid out
# once per topology, and build_mdp's edge probabilities and bribes as it
# filled them with np.where over every edge.  The grid is first laid out as
# it was before the states were put in sweep order (every state's slots
# padded to the widest, destinations in state order), and the sweep order
# and its two blocks are then derived from that padded layout.


class PaddedGrid(NamedTuple):
    """The row x winner grid in state order: dst[k] holds every row's
    destination state under winner k, cols[j] the row of every state's
    j-th action slot, its last repeated past its end."""

    p: np.ndarray
    dst: np.ndarray
    cols: np.ndarray
    gain: np.ndarray
    settled: np.ndarray
    state_ptr: np.ndarray
    slot_row: np.ndarray


def grid_padded(model):
    """The model's row x winner grid in state order, every part recomputed
    and rechecked."""
    slots = model.action_ptr.size
    width, rest = divmod(model.edge_prob.size, slots)
    prob = model.edge_prob.reshape(-1, width) if width and not rest else None
    if (prob is None or not np.array_equal(model.action_ptr, np.arange(slots) * width)
            or not np.all(prob == prob[0])):
        raise ValidationError("the model is not a slot x winner grid: every action slot needs "
                              "one edge per winner, with one probability per winner")
    slot_row, first = model.slot_row, model.row_slot
    edges = [a.reshape(-1, width)
             for a in (model.edge_dst, model.edge_settled, model.edge_reward, model.edge_bribe)]
    rep = first[slot_row]
    if rep.shape != (slots,) or not all(np.array_equal(a.take(rep, axis=0), a) for a in edges):
        raise ValidationError("an action slot's edges differ from those of its row's first slot")
    dst, settled, reward, bribe = (a.take(first, axis=0) for a in edges)
    p, ptr = prob[0], model.state_ptr
    count = np.diff(ptr)
    return PaddedGrid(
        p,
        dst.T.copy(),
        slot_row[ptr[:-1] + np.minimum(np.arange(count.max())[:, None], count - 1)],
        _expected(p, reward - bribe),
        _expected(p, settled),
        ptr,
        slot_row,
    )


def grid_uncached(model):
    """The model's row x winner grid in sweep order, every part recomputed
    and rechecked: the padded grid's states split into those with one slot
    and the rest, each in state order, and its destinations renumbered by
    position."""
    padded = grid_padded(model)
    count = np.diff(padded.state_ptr)
    single = [s for s in range(count.size) if count[s] == 1]
    order = np.array(single + [s for s in range(count.size) if count[s] != 1], dtype=np.int64)
    position = np.argsort(order)
    return _Grid(
        padded.p,
        position[padded.dst],
        padded.cols[0, single],
        padded.cols[:, order[len(single):]],
        order,
        position[0],
        padded.gain,
        padded.settled,
        padded.state_ptr,
        padded.slot_row,
    )


# -- the share solver on the padded state-order grid ---------------------------------
#
# Dinkelbach steps as the package took them before it put the states in
# sweep order: every state's slots padded to the widest and one gather of
# the values of every state's padded slots, one take per winner column, and
# every state's row destinations gathered for the stationary distribution.


def row_values_padded(grid: PaddedGrid, r: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Each row's r plus its expected next value under V, added in winner order."""
    q = r.copy()
    for pk, dst in zip(grid.p, grid.dst):
        q += pk * V.take(dst)
    return q


def sweeps_padded(grid, r, V, span_tol, max_sweeps):
    """Relative value iteration with row rewards r (one candidate share)."""
    if max_sweeps < 1:
        return None, V, 0, np.inf
    for sweep in range(1, max_sweeps + 1):
        v_new = row_values_padded(grid, r, V).take(grid.cols).max(axis=0)
        diff = v_new - V
        hi = float(diff.max())
        lo = float(diff.min())
        V = v_new - v_new[0]
        if hi - lo < span_tol:
            return 0.5 * (hi + lo), V, sweep, hi - lo
    return None, V, max_sweeps, hi - lo


def greedy_slots_padded(grid: PaddedGrid, q: np.ndarray) -> np.ndarray:
    """Each state's best action slot under row values q; ties go to the
    first slot, as with np.argmax."""
    ptr = grid.state_ptr
    return ptr[:-1] + np.minimum(q.take(grid.cols).argmax(axis=0), np.diff(ptr) - 1)


def stationary_padded(dst, p, pi, max_iterations=_STATIONARY_MAX):
    """Stationary distribution of a chain by power iteration from pi, and
    the iterations that took.

    State s moves to dst[k, s] with probability p[k].  Iterates the lazy
    chain _STAY*pi + (1 - _STAY)*pi P, which has the same stationary
    distribution and is aperiodic, until an iteration moves pi by less than
    _STATIONARY_TOL in L1.  Only the states reachable from pi's support can
    gain mass, so only they are iterated, in state order with each state's
    edges in winner order: every state's inflow is summed in the order of
    the whole chain's iteration, which adds only zeros besides.
    """
    reached = pi > 0
    fresh = reached.copy()
    while fresh.any():
        hit = np.zeros_like(reached)
        hit[dst[:, fresh]] = True
        fresh = hit & ~reached
        reached |= fresh
    live = np.flatnonzero(reached)
    to = (np.cumsum(reached) - 1)[dst[:, live].T].ravel()
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


def policy_ratio_padded(grid: PaddedGrid, slots: np.ndarray, pi: np.ndarray):
    """Exact long-run (reward - bribes) / settled of the policy taking slots.

    Returns the ratio, the settled blocks per transition, the policy's
    stationary distribution, found from pi, and the power iterations that
    took.
    """
    rows = grid.slot_row[slots]
    pi, iterations = stationary_padded(grid.dst[:, rows], grid.p, pi)
    rate = float(pi @ grid.settled[rows])
    return float(pi @ grid.gain[rows]) / rate, rate, pi, iterations


def solve_reward_share_padded(
    model: MdpModel, tol: float = 1e-6, max_sweeps: int = 500_000
) -> SolveResult:
    """solve_reward_share as Dinkelbach steps on the padded state-order grid."""
    require_positive_finite("tol", tol)
    grid = grid_padded(model)
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
        g, V, used, span = sweeps_padded(grid, r, V, span_tol, max_sweeps - sum(per_step))
        per_step.append(used)
        if g is None:
            raise ConvergenceError(
                f"value iteration exhausted {max_sweeps} sweeps", residual=span
            )
        slots = greedy_slots_padded(grid, row_values_padded(grid, r, V))
        ratio, settled, pi, iterations = policy_ratio_padded(grid, slots, pi)
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


def edge_prob_where(model):
    """Each edge's winner probability: the adversary's share or its pool's."""
    winner = model.edge_winner
    return np.where(winner == ADVERSARY, model.alpha_a, model.shares[winner])


def edge_bribe_where(edge_level, epsilon):
    """Each edge's bribe: its level plus epsilon, 0.0 where edge_level is -1."""
    return np.where(edge_level >= 0, edge_level + epsilon, 0.0)


# -- the share solver by bisection -------------------------------------------------


def solve_reward_share_bisection(model, tol=1e-6, max_sweeps=500_000):
    """Maximize (attacker blocks settled - bribes) / (blocks settled).

    Bisection on the share: at a candidate rho the transformed edge reward
    is reward - bribe - rho*settled, and the sign of the optimal average
    reward says whether rho under- or overshoots; that sign is taken only
    once the sweeps' span settles it.  The value table carries over between
    steps.
    """
    n = model.state_count
    V = np.zeros(n)
    lo, hi = model.alpha_a * 0.5, 1.0
    spent = 0
    per_step = []
    while hi - lo > tol:
        rho = 0.5 * (lo + hi)
        span_tol = max(1e-12, (hi - lo) * 1e-3)
        while True:
            g, V, used, span = sweeps_per_edge(model, rho, V, span_tol, max_sweeps - spent)
            spent += used
            per_step.append(used)
            if g is None:
                raise ConvergenceError(
                    f"value iteration exhausted {max_sweeps} sweeps", residual=span
                )
            # the optimal average reward lies within span / 2 of g: sweep on
            # until that settles its sign, or the span reaches rounding level
            if abs(g) > span / 2 or span_tol <= 1e-14:
                break
            span_tol = max(1e-14, span_tol * 1e-2)
        if g > 0:
            lo = rho
        else:
            hi = rho
    rho_star = 0.5 * (lo + hi)
    g, V, used, span = sweeps_per_edge(
        model, rho_star, V, 1e-12, max(1, max_sweeps - spent)
    )
    spent += used
    per_step.append(used)
    residual = abs(g) if g is not None else span

    # greedy policy at the solved share
    base = model.edge_prob * (
        model.edge_reward - model.edge_bribe - rho_star * model.edge_settled
    )
    q_edge = base + model.edge_prob * V[model.edge_dst]
    policy = greedy_slots_reduceat(model, np.add.reduceat(q_edge, model.action_ptr))
    if not 0.0 <= rho_star <= 1.0:
        raise ConvergenceError(f"share {rho_star} escaped [0,1]", residual=residual)
    # bisection reads no stationary distribution: no power iterations to count
    return SolveResult(rho_star, policy, spent, residual, len(per_step), tuple(per_step), ())


# -- automata with one winner row per state ------------------------------------------


def row_cdfs(winner_p):
    """One cdf row per state, each ending in a forced 1.0."""
    cdf = np.cumsum(winner_p, axis=1)
    cdf[:, -1] = 1.0
    return cdf


def per_state_automaton(config):
    """config's automaton with a winner cdf row per state.

    The distraction automaton comes unfolded, from its per-state rows; every
    other automaton draws all states from one row, which is repeated.
    """
    if config.strategy == "distraction":
        winner_p, rate, tables, alpha_a = _distraction_rows(config.distraction, config.puzzle_choice)
        cdf = row_cdfs(winner_p)
    else:
        auto = build_automaton(config)
        rate, alpha_a = auto.rate, auto.alpha_a
        tables = auto.next_state, auto.settled, auto.attacker, auto.bribe, auto.orphans
        cdf = np.tile(auto.cdf, (auto.n_states, 1))
    names = ("next_state", "settled", "attacker", "bribe", "orphans")
    return SimpleNamespace(cdf=cdf, rate=rate, alpha_a=alpha_a, n_states=len(cdf), **dict(zip(names, tables)))


def unfold_visits(visits, cdf, rows):
    """Per-state winner visits from visits counted in the columns of one shared cdf.

    Shared column k is the interval [cdf[k-1], cdf[k]); in state s it
    belongs to the winner that bisect_right on rows[s] gives its lower end.
    """
    n_states, n_win = rows.shape
    out = np.zeros((n_states, n_win), dtype=visits.dtype)
    for s in range(n_states):
        edges = rows[s, :-1].tolist()
        for k in range(len(cdf)):
            w = 0 if k == 0 else bisect_right(edges, cdf[k - 1])
            out[s, w] += visits[s, k]
    return out


def exact_automaton(cdf, next_state, settled, reward):
    """Exact (share, occupancy) of an automaton's state chain, by a dense stationary solve.

    cdf is one winner row or one row per state; reward is the adversary's
    net reward table (attacker blocks minus bribes).  The share is the
    stationary reward per event over the stationary blocks settled per
    event; occupancy is the stationary distribution over states.
    """
    n_states, n_win = next_state.shape
    p = np.broadcast_to(np.diff(cdf, prepend=0.0, axis=-1), (n_states, n_win))
    P = np.zeros((n_states, n_states))
    np.add.at(P, (np.repeat(np.arange(n_states), n_win), next_state.ravel()), p.ravel())
    A = P.T - np.eye(n_states)
    A[-1] = 1.0  # the balance equations are dependent; one is replaced by normalisation
    b = np.zeros(n_states)
    b[-1] = 1.0
    occupancy = np.linalg.solve(A, b)
    share = occupancy @ (p * reward).sum(axis=1) / (occupancy @ (p * settled).sum(axis=1))
    return float(share), occupancy


# -- winner draws, one at a time ----------------------------------------------------
#
# A winner draw is a uniform m on [0, 2**53); on a cdf row it picks the
# count of the row's integer thresholds ceil(c * 2**53) at most m, the
# winner bisect_right picks for m * 2**-53.  m's top 16 bits h come first,
# piece i of a random_raw word being the word's bits 16 i to 16 i + 15.
# Where a threshold of any of the automaton's rows lies strictly inside
# bucket h, [h * 2**37, (h + 1) * 2**37), m's low 37 bits are the top 37
# of the next word of a second stream, bit_generator.jumped().  Elsewhere
# every m of the bucket but its lowest has one winner under either side's
# rule, so the draw stands for the bucket's highest.


def cdf_thresholds(row):
    """ceil(c * 2**53) of every entry c of a cdf row, exactly, as Python ints."""
    return [math.ceil(Fraction(float(c)) * 2**53) for c in row]


class WinnerDraws:
    """The winner draws of one generator on an automaton's cdf rows (one row per state)."""

    def __init__(self, rng, rows):
        self.bits = rng.bit_generator
        self.refine = self.bits.jumped()
        self.rows = rows
        self.thresholds = {}
        self.split = {t >> 37 for row in np.unique(rows, axis=0) for t in cdf_thresholds(row) if t % 2**37}

    def pieces(self, n):
        """n pieces of ceil(n / 4) words, least significant first."""
        words = [int(w) for w in self.bits.random_raw(-(-n // 4))]
        return [words[i // 4] >> 16 * (i % 4) & 0xFFFF for i in range(n)]

    def m(self, h):
        """The draw whose top 16 bits are h."""
        if h in self.split:
            return h << 37 | int(self.refine.random_raw()) >> 27
        return h << 37 | (2**37 - 1)

    def row(self, state):
        """The thresholds of state's row."""
        row = self.thresholds.get(state)
        if row is None:
            row = self.thresholds[state] = cdf_thresholds(self.rows[state])
        return row

    def step(self, states):
        """One winner per chain in states, from one step's ceil(len(states) / 4) words.

        A winner is bisect_right on its state's thresholds.
        """
        pieces = self.pieces(len(states))
        return np.array([bisect_right(self.row(s), self.m(h)) for s, h in zip(states.tolist(), pieces)], dtype=np.int64)


# -- the lockstep Monte Carlo loops, chain by chain ------------------------------------
#
# One gather of every table per step, as the three engines ran before they
# shared the visit-count kernel in powplay.sim.  They draw other bits than
# the counts walk, so the two agree in law, not value.


def reward_share_mc_loop(config, transitions=10_000_000, replicas=1024, burn_in=300):
    """Reward share over lockstep replicas, summed one step at a time."""
    auto = per_state_automaton(config)
    steps = max(1, math.ceil(transitions / replicas))
    draws = WinnerDraws(np.random.default_rng(config.seed), auto.cdf)
    state = np.zeros(replicas, dtype=np.int64)
    settled = 0.0
    attacker = 0.0
    bribes = 0.0
    orphans = 0.0
    for step in range(burn_in + steps):
        w = draws.step(state)
        if step >= burn_in:
            settled += float(auto.settled[state, w].sum())
            attacker += float(auto.attacker[state, w].sum())
            bribes += float(auto.bribe[state, w].sum())
            orphans += float(auto.orphans[state, w].sum())
        state = auto.next_state[state, w]
    if settled <= 0:
        raise ValidationError("no blocks settled; transitions too low")
    return SimStats(
        adversary_reward_share=(attacker - bribes) / settled,
        orphan_count=int(orphans),
        epoch_durations=np.array([]),
        revenue_advantage=np.empty((0, 2)),
        rng_draws=replicas * (burn_in + steps),
        events=replicas * steps,
    )


def distraction_occupancy_loop(
    dparams, choice="mini_pow", events=1_000_000, replicas=1024, burn_in=300, seed=DEFAULT_SEED
):
    """Per-event (quiet, live, racing) occupancy, counted one step at a time."""
    winner_p, _, (next_state, *_), _ = _distraction_rows(dparams, choice)
    cdf = row_cdfs(winner_p)
    S = len(cdf)
    steps = max(1, math.ceil(events / replicas))
    draws = WinnerDraws(np.random.default_rng(seed), cdf)
    state = np.zeros(replicas, dtype=np.int64)
    counts = np.zeros(S, dtype=np.int64)
    for step in range(burn_in + steps):
        if step >= burn_in:
            counts += np.bincount(state, minlength=S)
        state = next_state[state, draws.step(state)]
    total = counts.sum()
    return np.array(
        [counts[0] / total, counts[1] / total, counts[2:].sum() / total]
    )


def policy_rollout_loop(model, policy, seed=0, horizon=1_000_000, replicas=1_024, burn_in=300):
    """Fixed-policy rollout, winners drawn by the normalised shares, summed one step at a time."""
    next_tab, settled_tab, reward_tab, bribe_tab, orphan_tab = policy_tables(model, policy)
    reward_tab -= bribe_tab
    p = np.append(model.shares, model.alpha_a)
    cdf = np.cumsum(p / p.sum())
    cdf[-1] = 1.0
    steps = math.ceil(horizon / replicas)
    rows = burn_in + steps
    draws = WinnerDraws(np.random.default_rng(seed), np.broadcast_to(cdf, next_tab.shape))
    state = np.zeros(replicas, dtype=np.int64)
    settled = 0.0
    reward = 0.0
    orphans = 0.0
    for t in range(rows):
        w = draws.step(state)
        if t >= burn_in:
            settled += float(settled_tab[state, w].sum())
            reward += float(reward_tab[state, w].sum())
            orphans += float(orphan_tab[state, w].sum())
        state = next_tab[state, w]
    if settled <= 0:
        raise ValidationError("rollout settled no blocks; horizon too short")
    return SimStats(
        adversary_reward_share=reward / settled,
        orphan_count=int(orphans),
        epoch_durations=np.array([]),
        revenue_advantage=np.empty((0, 2)),
        rng_draws=rows * replicas,
        events=steps * replicas,
    )


def lockstep_visits_loop(next_state, cdf, rng, replicas, burn_in, steps):
    """(state, winner) visit counts with one bisect per chain per step; cdf holds one winner row per state."""
    n_states, n_win = next_state.shape
    draws = WinnerDraws(rng, cdf)
    state = np.zeros(replicas, dtype=np.int64)
    visits = np.zeros((n_states, n_win), dtype=np.int64)
    for step in range(burn_in + steps):
        w = draws.step(state)
        if step >= burn_in:
            np.add.at(visits, (state, w), 1)
        state = next_state[state, w]
    return visits


# -- the lockstep Monte Carlo loops, counts per state -----------------------------------


def lockstep_counts_loop(next_state, cdf, rng, replicas, burn_in, steps):
    """powplay.sim._lockstep_visits as a Python loop over the counts of chains per state.

    Keeps a dict of how many chains sit in each state, all replicas in state
    0 at first.  Each step draws one scalar rng.multinomial(n, p) per
    occupied state in ascending order, p the winner probabilities of the one
    cdf row, from the counts before the step, and moves the chains of each
    (state, winner) cell to its next state on their own; from burn_in on
    each cell's chains are added to its visits.
    """
    p = np.diff(cdf, prepend=0.0)
    alive = {0: replicas}
    visits = np.zeros(next_state.shape, dtype=np.int64)
    for step in range(burn_in + steps):
        landed = {}
        for s in sorted(alive):
            for w, n in enumerate(rng.multinomial(alive[s], p).tolist()):
                if step >= burn_in:
                    visits[s, w] += n
                t = int(next_state[s, w])
                landed[t] = landed.get(t, 0) + n
        # an empty state draws nothing, in numpy's vector call too
        alive = {s: n for s, n in landed.items() if n}
    return visits


def _share_counts_loop(tables, cdf, count, replicas, burn_in, seed):
    """A lockstep share route's SimStats on (next, settled, net reward, orphans) tables, summed cell by cell."""
    next_state, *sums = tables
    steps = math.ceil(count / replicas)
    visits = lockstep_counts_loop(next_state, cdf, np.random.default_rng(seed), replicas, burn_in, steps)
    settled, reward, orphans = (
        sum(n * float(t[s, w]) for (s, w), n in np.ndenumerate(visits) if n) for t in sums
    )
    if settled <= 0:
        raise ValidationError("no blocks settled; the run is too short")
    return SimStats(
        adversary_reward_share=reward / settled,
        orphan_count=int(orphans),
        epoch_durations=np.array([]),
        revenue_advantage=np.empty((0, 2)),
        rng_draws=replicas * (burn_in + steps),
        events=replicas * steps,
    )


def reward_share_counts_loop(config, transitions=10_000_000, replicas=100_000, burn_in=300):
    """powplay.sim.reward_share_mc by lockstep_counts_loop on config's (folded) automaton."""
    auto = build_automaton(config)
    tables = auto.next_state, auto.settled, auto.attacker - auto.bribe, auto.orphans
    return _share_counts_loop(tables, auto.cdf, transitions, replicas, burn_in, config.seed)


def distraction_occupancy_counts_loop(
    dparams, choice="mini_pow", events=1_000_000, replicas=100_000, burn_in=300, seed=DEFAULT_SEED
):
    """powplay.sim.distraction_occupancy_mc by lockstep_counts_loop on the folded distraction automaton."""
    auto = _fold_rows(*_distraction_rows(dparams, choice))
    steps = math.ceil(events / replicas)
    visits = lockstep_counts_loop(auto.next_state, auto.cdf, np.random.default_rng(seed), replicas, burn_in, steps)
    counts = visits.sum(axis=1)
    total = counts.sum()
    return np.array([counts[0] / total, counts[1] / total, counts[2:].sum() / total])


def policy_rollout_counts_loop(model, policy, seed=0, horizon=1_000_000, replicas=100_000, burn_in=300):
    """powplay.mdp.policy_rollout by lockstep_counts_loop on the policy's tables, winners by the normalised shares."""
    next_tab, settled_tab, reward_tab, bribe_tab, orphan_tab = policy_tables(model, policy)
    p = np.append(model.shares, model.alpha_a)
    cdf = np.cumsum(p / p.sum())
    cdf[-1] = 1.0
    tables = next_tab, settled_tab, reward_tab - bribe_tab, orphan_tab
    return _share_counts_loop(tables, cdf, horizon, replicas, burn_in, seed)


# -- the per-event clocked simulator --------------------------------------------------


def simulate_sequential(config):
    """One seeded clocked run, one event at a time, as sim.simulate ran it before lockstep."""
    auto = per_state_automaton(config)
    ep = config.epoch
    L = ep.blocks_per_epoch
    lam = ep.block_rate
    target = config.horizon * L if config.horizon_unit == "epochs" else config.horizon

    # the inner loop runs once per event; plain lists plus bisect beat numpy
    # row indexing at this granularity, so visited-state rows are converted
    # lazily (MDP automata have too many states to convert up front)
    cdf = auto.cdf
    rows: dict[int, tuple] = {}

    def row(s: int) -> tuple:
        r = rows.get(s)
        if r is None:
            r = (
                winners.row(s),
                auto.next_state[s].tolist(),
                auto.settled[s].tolist(),
                auto.attacker[s].tolist(),
                auto.bribe[s].tolist(),
                auto.orphans[s].tolist(),
                float(lam * auto.rate[s]),
            )
            rows[s] = r
        return r

    rng = np.random.default_rng(config.seed)
    winners = WinnerDraws(rng, cdf)
    h = winners.pieces(_CHUNK)
    g = rng.standard_exponential(_CHUNK)
    pos = 0
    draws = 2 * _CHUNK

    honest_run = config.strategy == "honest"
    alpha_a = auto.alpha_a
    collect = config.collect_trajectory
    times: list[float] = []
    advs: list[float] = []
    durations: list[float] = []

    state = 0
    t = 0.0
    difficulty = 1.0
    revenue = 0.0
    canonical = 0
    canon_epoch = 0
    orphan_epoch = 0
    orphan_total = 0
    epoch_start = 0.0
    events = 0

    while canonical < target:
        if pos == _CHUNK:
            h = winners.pieces(_CHUNK)
            g = rng.standard_exponential(_CHUNK)
            pos = 0
            draws += 2 * _CHUNK
        rthr, rnxt, rset, ratt, rbri, rorp, erate = row(state)
        w = bisect_right(rthr, winners.m(h[pos]))
        t += g[pos] * difficulty / erate
        pos += 1
        events += 1

        nb = int(rset[w])
        orp = int(rorp[w])
        revenue += ratt[w] - rbri[w]
        orphan_epoch += orp
        orphan_total += orp
        if collect:
            times.append(t)
            advs.append(0.0 if honest_run else revenue - alpha_a * lam * t)
        for _ in range(nb):
            canonical += 1
            canon_epoch += 1
            if canon_epoch == L:
                duration = t - epoch_start
                durations.append(duration)
                difficulty = dam_update(
                    duration, (L, orphan_epoch), config.dam_mode, ep, difficulty
                )
                epoch_start = t
                canon_epoch = 0
                orphan_epoch = 0
            if canonical == target:
                break
        state = int(rnxt[w])

    if collect:
        trajectory = np.column_stack([times, advs])
    else:
        trajectory = np.empty((0, 2))
    return SimStats(
        adversary_reward_share=revenue / canonical,
        orphan_count=orphan_total,
        epoch_durations=np.array(durations),
        revenue_advantage=trajectory,
        rng_draws=draws,
        events=events,
    )
