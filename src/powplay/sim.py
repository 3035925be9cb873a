"""Seeded Monte Carlo simulation of the attack strategies, with difficulty retargeting.

The simulator draws block winners one event at a time and feeds them through a
small per-strategy automaton: each (state, winner) pair says which state comes
next, how many canonical blocks the event settles, how many of those are the
adversary's, what bribes the adversary pays, and how many blocks get orphaned.
The automata are per-winner decompositions of the same Markov chains whose
closed forms the analytic modules evaluate, so a simulated reward share is
an independent route to the analytic numbers, not a re-evaluation of them.

Time is modelled as exponential gaps between events.  The base event rate is
block_rate / difficulty, scaled by a per-state multiplier (the distraction
attack raises the event rate while the easier side puzzle is live).  Every
blocks_per_epoch settled canonical blocks the difficulty retargets via
dam_update; an event that settles two blocks can straddle an epoch boundary,
in which case the first block closes the old epoch and the second opens the
new one.

Two engines walk the automata.  All states of an automaton draw winners
from one cdf row (the distraction automaton's state-dependent rows are
folded into one, _fold_rows).  A fork-race MDP policy becomes an automaton
in one place, _policy_automaton(), for the mdp_policy strategy and
mdp.policy_rollout() alike.

* the clocked engine behind simulate() and simulate_many() draws each
  replica's winners a chunk of events at a time by one 16-bit rule
  (_Winners: the winner bisect_right picks on the cdf for a uniform
  m * 2**-53, so a winner of probability 0 is never drawn) and walks them
  with _walk(): k consecutive winners form one code, and a k-step jump
  table (_Jumps, built per run while it fits _JUMP_ENTRIES) advances a
  replica k steps with one add and one take.  Per chunk it then tracks
  wall-clock time, epoch durations and the cumulative revenue advantage
  over the expected honest counterfactual alpha_a * block_rate * t
  (expected value rather than a coupled honest run; this removes
  counterfactual noise from the advantage curve).  Its results are
  bit-identical to a per-event loop over the same draws.
* the clockless lockstep route, _lockstep_visits(), ignores time,
  legitimate because the reward share is a ratio per canonical block.  It
  counts (state, winner) visits of i.i.d. chains, so it walks counts of
  chains per state, split each step by one multinomial draw;
  reward_share_mc(), distraction_occupancy_mc() and mdp.policy_rollout()
  enter it through _run_lockstep() and multiply the counts by automaton
  tables.

Determinism: every run is a pure function of its seed.  Replicated runs
spawn child seeds from numpy's SeedSequence and reduce results in list
order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

from powplay.bribery import TargetPartition
from powplay.distraction import DistractionParams, scenario_rates
from powplay.errors import ValidationError, require_integer, require_positive_finite
from powplay.mdp import MdpModel, build_mdp, policy_tables, solve_reward_share
from powplay.model import AttackParams, EpochModel, PoolSet

DEFAULT_SEED = 0xC0FFEE

STRATEGIES = (
    "honest",
    "pi_selfish",
    "bribery",
    "undercut",
    "mdp_policy",
    "distraction",
)

# the clocked engine draws winners and exponentials in fixed-size chunks per
# replica; the size is a constant so chunking can never change a seeded run
_CHUNK = 4096
_REST = 37  # bits of a 53-bit uniform below a winner draw's 16-bit piece
_JUMP_ENTRIES = 4096  # a walk takes k steps per lookup while states * winners**k fits this table


class HorizonWarning(UserWarning):
    """The requested horizon is too short for the statistic it feeds."""


@dataclass(frozen=True)
class SimStats:
    """Summary of one simulation run.

    revenue_advantage rows are (time, cumulative advantage in block-reward
    units); empty when the run did not collect a trajectory.  rng_draws
    counts a clocked run's draws, one per winner, refined or not, and per
    exponential gap, over-draw from chunking included; for a lockstep share
    route it counts the transitions walked, burn-in included.
    events counts the events a clocked run walked (one trajectory row
    each), or the (state, winner) transitions a lockstep share route
    counted, burn-in excluded.
    """

    adversary_reward_share: float
    orphan_count: int
    epoch_durations: np.ndarray
    revenue_advantage: np.ndarray
    rng_draws: int
    events: int


@dataclass(frozen=True)
class SimConfig:
    """Everything a run needs; validation happens here, engines trust it.

    pools may be None only for the distraction strategy, whose population is
    carried by the DistractionParams power split.  targets=None lets the
    bribery and undercut strategies pick targets with TargetPartition.auto.
    policy=None makes mdp_policy solve for the optimal policy first (slow;
    pass a solved policy, SolveResult.policy, when running several horizons
    on one model).
    """

    pools: PoolSet | None
    strategy: str = "honest"
    params: AttackParams = field(default_factory=AttackParams)
    epoch: EpochModel = field(default_factory=EpochModel)
    horizon: int = 10
    horizon_unit: str = "epochs"
    seed: int = DEFAULT_SEED
    dam_mode: str = "canonical_only"
    targets: tuple[int, ...] | None = None
    fork_cap: int = 8
    policy: np.ndarray | None = field(default=None, hash=False)
    distraction: DistractionParams | None = None
    puzzle_choice: str = "mini_pow"
    collect_trajectory: bool = True

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValidationError(
                f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}"
            )
        require_integer("horizon", self.horizon, least=1)
        if self.horizon_unit not in ("epochs", "blocks"):
            raise ValidationError("horizon_unit must be 'epochs' or 'blocks'")
        if self.dam_mode not in ("canonical_only", "active_power"):
            raise ValidationError(
                f"dam_mode must be 'canonical_only' or 'active_power', got {self.dam_mode!r}"
            )
        require_integer("seed", self.seed, least=0)
        if self.strategy == "distraction":
            if self.distraction is None:
                raise ValidationError("distraction strategy needs DistractionParams")
            if self.puzzle_choice not in ("mini_pow", "bitcoin"):
                raise ValidationError(f"unknown puzzle_choice {self.puzzle_choice!r}")
            return
        if self.pools is None:
            raise ValidationError(f"strategy {self.strategy!r} needs a pool set")
        if self.pools.adversary is None:
            raise ValidationError("the pool set must designate an adversary")
        if self.pools.adversary_share <= 0.0 and self.strategy != "honest":
            raise ValidationError("attack strategies need a positive adversary share")
        if self.strategy == "mdp_policy":
            require_integer("fork_cap", self.fork_cap, least=2)

    def __eq__(self, other):
        # as the generated ==, but a policy array by value: its own == has no truth value
        if type(other) is not SimConfig:
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(np.array_equal(a, b) if np.ndarray in (type(a), type(b)) else a == b for a, b in pairs)


@dataclass(frozen=True)
class TrajectoryResult:
    """Revenue-advantage curve, averaged pointwise over replicas.

    points rows are (mean time, mean advantage) per event index.  The
    zero_crossing_time is the first time the mean curve returns to >= 0
    after its global minimum, i.e. after the drawdown trough; None when the
    curve never recovers within the horizon (or never dips below zero).
    """

    points: np.ndarray
    first_epoch_min: float
    first_epoch_min_time: float
    zero_crossing_time: float | None
    first_epoch_duration: float
    replicas: int

    @property
    def final_advantage(self) -> float:
        return float(self.points[-1, 1])


# -- difficulty adjustment -----------------------------------------------------------


def dam_update(
    epoch_duration: float,
    counts: tuple[int, int],
    dam_mode: str = "canonical_only",
    epoch: EpochModel | None = None,
    difficulty: float = 1.0,
) -> float:
    """One difficulty retarget after an epoch of (canonical, orphaned) blocks.

    canonical_only mimics Bitcoin: difficulty scales by expected over actual
    epoch duration, counting canonical blocks only.  active_power also
    charges for orphaned blocks, which pins the total block-production rate
    instead of the canonical one: a fork-heavy attacker then cannot enjoy a
    post-retarget speedup paid for by the blocks it discarded.
    """
    if epoch is None:
        epoch = EpochModel()
    canonical, orphaned = counts
    require_integer("canonical block count", canonical, least=1)
    require_integer("orphan count", orphaned, least=0)
    require_positive_finite("epoch duration", epoch_duration)
    require_positive_finite("difficulty", difficulty)
    if dam_mode == "canonical_only":
        produced = canonical
    elif dam_mode == "active_power":
        produced = canonical + orphaned
    else:
        raise ValidationError(f"unknown dam_mode {dam_mode!r}")
    expected_duration = produced / epoch.block_rate
    return difficulty * expected_duration / epoch_duration


# -- per-strategy automata -----------------------------------------------------------


@dataclass
class _Automaton:
    """Per-winner transition tables shared by both engines.

    Every state draws winner column w when a uniform falls in [cdf[w-1],
    cdf[w]) (columns: non-adversary pools in PoolSet.others() order,
    adversary last; for distraction, the pieces of its folded rows).
    rate[s] multiplies the base event rate in state s.  Builders pass the
    five tables positionally, in the order _empty_tables returns them, and
    construct the automaton only once they are filled, so the checks below
    see the final tables.
    """

    cdf: np.ndarray
    rate: np.ndarray
    next_state: np.ndarray
    settled: np.ndarray
    attacker: np.ndarray
    bribe: np.ndarray
    orphans: np.ndarray
    alpha_a: float

    def __post_init__(self):
        S = self.n_states
        assert self.cdf.ndim == 1 and self.next_state.shape == (S, self.cdf.size)
        assert self.cdf[0] >= 0.0 and np.all(np.diff(self.cdf) >= 0.0) and self.cdf[-1] == 1.0
        assert np.all((self.next_state >= 0) & (self.next_state < S))
        assert np.all(self.settled >= self.attacker)
        assert np.all(self.attacker >= 0) and np.all(self.bribe >= -1e-12)
        assert np.all(self.orphans >= 0) and np.all(self.rate > 0)

    @property
    def n_states(self) -> int:
        return self.next_state.shape[0]


def _winner_cdf(row: np.ndarray) -> np.ndarray:
    """The cdf of one row of winner probabilities, its last entry forced to 1.0."""
    cdf = np.cumsum(row)
    assert abs(cdf[-1] - 1.0) <= 1e-9
    cdf[-1] = 1.0  # above every uniform, whatever the rounding of the sum
    return cdf


def _empty_tables(n_states: int, n_win: int):
    """Zeroed (next_state, settled, attacker, bribe, orphans) tables for a builder to fill."""
    return (
        np.zeros((n_states, n_win), dtype=np.int64),
        np.zeros((n_states, n_win)),
        np.zeros((n_states, n_win)),
        np.zeros((n_states, n_win)),
        np.zeros((n_states, n_win)),
    )


def _pool_automaton(pools: PoolSet, tables) -> _Automaton:
    """The filled tables of a pool-set strategy, every state drawing winners by share.

    Columns: rival pools in PoolSet.others() order, the adversary last.
    """
    row = np.append([pools.pools[j].share for j in pools.others()], pools.adversary_share)
    return _Automaton(_winner_cdf(row), np.ones(tables[0].shape[0]), *tables, pools.adversary_share)


def _honest_automaton(pools: PoolSet) -> _Automaton:
    """Single state; every block settles immediately for its miner."""
    tables = _, settled, attacker, _, _ = _empty_tables(1, len(pools))
    settled[0, :] = 1.0
    attacker[0, -1] = 1.0
    return _pool_automaton(pools, tables)


def _selfish_automaton(pools: PoolSet, params: AttackParams) -> _Automaton:
    """Block withholding against petty-compliant pools.

    States: 0 no fork, 1 one hidden block, 2 two-or-more hidden (the lead
    beyond two is trickle-published, settling one adversary block per win),
    and one tie state per rival pool so the owner of the public block is
    remembered: the owner keeps mining its own fork, everyone else takes the
    sweetener and mines the adversary's side.
    """
    eps = params.epsilon
    m = len(pools) - 1
    tables = nxt, settled, attacker, bribe, orphans = _empty_tables(3 + m, m + 1)

    # state 0: adversary hides its block, anyone else settles one
    nxt[0, -1] = 1
    settled[0, :m] = 1.0
    # state 1: adversary extends the hidden lead; rival j forces a tie it owns
    nxt[1, -1] = 2
    nxt[1, :m] = 3 + np.arange(m)
    # state 2: adversary trickles one block per win; a rival block is overridden
    nxt[2, -1] = 2
    settled[2, -1] = 1.0
    attacker[2, -1] = 1.0
    settled[2, :m] = 2.0
    attacker[2, :m] = 2.0
    orphans[2, :m] = 1.0
    # tie states: two public blocks race, the next block decides
    for j in range(m):
        s = 3 + j
        settled[s, :] = 2.0
        orphans[s, :] = 1.0
        attacker[s, -1] = 2.0
        attacker[s, :m] = 1.0
        attacker[s, j] = 0.0
        bribe[s, :m] = eps
        bribe[s, j] = 0.0
    return _pool_automaton(pools, tables)


def _partition_for(config: SimConfig) -> TargetPartition:
    pools = config.pools
    if config.targets is not None:
        return TargetPartition(pools, tuple(config.targets))
    return TargetPartition.auto(pools, config.params.epsilon)


def _target_automaton(pools: PoolSet, partition: TargetPartition, race) -> _Automaton:
    """The state layout the bribery and undercut automata share with their closed forms.

    States: idle (0), then per target t a standing-target state 1 + t and
    a rival-race state 1 + n + t, laid out like the stationary vectors of
    powplay.bribery, so an automaton's exact occupancy compares with them
    state by state.  In the idle row the adversary and bystanders settle
    one block and a target block opens an attack.  race(tables, tcols, t,
    st, sr) fills target t's two rows (tcols[t] is its column); then, in
    the rival-race row, a block of any other target u settles the race and
    opens an attack on u.
    """
    col = {pool: c for c, pool in enumerate(pools.others())}
    tcols = [col[p] for p in partition.targets]
    n = len(tcols)
    tables = nxt, settled, attacker, _, _ = _empty_tables(1 + 2 * n, len(pools))
    settled[0, :] = 1.0
    attacker[0, -1] = 1.0
    nxt[0, tcols] = 1 + np.arange(n)
    settled[0, tcols] = 0.0
    for t, c in enumerate(tcols):
        sr = 1 + n + t
        race(tables, tcols, t, 1 + t, sr)
        for u, cu in enumerate(tcols):
            if u != t:
                nxt[sr, cu] = 1 + u
                settled[sr, cu] = 1.0
    return _pool_automaton(pools, tables)


def _bribery_automaton(pools: PoolSet, partition: TargetPartition, params: AttackParams) -> _Automaton:
    """Bounty-funded orphaning, per winner: the chain of bribery_reward_share's closed form."""
    eps = params.epsilon
    bs = partition.target_shares

    def race(tables, tcols, t, st, sr):
        nxt, settled, attacker, bribe, orphans = tables
        c = tcols[t]
        # target standing: adversary buries it, the owner renews it, any
        # other block becomes the bounty-funded rival (bounty paid at once)
        nxt[st, :] = sr
        bribe[st, :] = bs[t] + eps
        nxt[st, -1] = 0
        settled[st, -1] = 2.0
        attacker[st, -1] = 1.0
        bribe[st, -1] = 0.0
        nxt[st, c] = st
        settled[st, c] = 1.0
        bribe[st, c] = 0.0
        # rival standing: any non-owner block settles the race against the
        # owner (epsilon to the settler unless the adversary mined it);
        # the owner can rescue its block, which re-opens a fresh target
        settled[sr, :] = 2.0
        bribe[sr, :] = eps
        orphans[sr, :] = 1.0
        attacker[sr, -1] = 1.0
        bribe[sr, -1] = 0.0
        nxt[sr, c] = st
        settled[sr, c] = 1.0
        bribe[sr, c] = 0.0

    return _target_automaton(pools, partition, race)


def _undercut_automaton(pools: PoolSet, partition: TargetPartition, params: AttackParams) -> _Automaton:
    """Self-mined rival racing, per winner: the chain of undercut_reward_share's closed form."""
    eps = params.epsilon

    def race(tables, tcols, t, st, sr):
        nxt, settled, attacker, bribe, orphans = tables
        c = tcols[t]
        # target standing: the adversary mines the rival itself; a bystander
        # block settles the target outright; a target block (the owner's own
        # included) settles it and opens the next target
        settled[st, :] = 2.0
        nxt[st, -1] = sr
        settled[st, -1] = 0.0
        nxt[st, tcols] = 1 + np.arange(len(tcols))
        settled[st, tcols] = 1.0
        # rival standing: everyone but the owner mines the sweetened rival
        # side, so the adversary's block settles unless the owner rescues
        settled[sr, :] = 2.0
        attacker[sr, :] = 1.0
        bribe[sr, :] = eps
        orphans[sr, :] = 1.0
        attacker[sr, -1] = 2.0
        bribe[sr, -1] = 0.0
        nxt[sr, c] = st
        settled[sr, c] = 1.0
        attacker[sr, c] = 0.0
        bribe[sr, c] = 0.0

    return _target_automaton(pools, partition, race)


def _policy_automaton(model: MdpModel, policy: np.ndarray) -> _Automaton:
    """A fixed policy of a fork-race MDP: its chosen action's edges, per winner.

    The one place a policy becomes an automaton, for reward_share_mc and
    simulate under mdp_policy and for mdp.policy_rollout alike.  Winners are
    drawn by the normalised shares.  A winner with no edge is a pool of
    share 0, which is never drawn; its column points at state 0 so every
    table entry stays in range.
    """
    nxt, *tables = policy_tables(model, policy)
    nxt[nxt < 0] = 0
    p = np.append(model.shares, model.alpha_a)
    return _Automaton(_winner_cdf(p / p.sum()), np.ones(model.state_count), nxt, *tables, model.alpha_a)


def _mdp_automaton(config: SimConfig) -> _Automaton:
    """Fixed-policy execution of a solved fork-race MDP.

    Asks build_mdp for the model of the configured pools and fork cap, which
    reuses the cached topology when the caller has just built the same
    model.  Solving happens here when no policy is supplied, which is the
    expensive path.
    """
    model = build_mdp(config.pools, config.params, fork_cap=config.fork_cap)
    policy = config.policy
    if policy is None:
        policy = solve_reward_share(model).policy
    return _policy_automaton(model, policy)


def _distraction_rows(dparams: DistractionParams, choice: str):
    """Per-state winner rows, event rates and tables of the hidden-block puzzle sale.

    Winner columns are the power-split categories (deciding pool, compliant
    set, non-compliant set, adversary).  States: 0 quiet, 1 puzzle live
    (winners drawn from the primed split, event rate scaled by the extra
    mini-puzzle hash), then one race state per possible owner of the
    defiant public block: the non-compliant set always, the deciding pool
    too when it keeps mining standard blocks.  While racing, every non-owner
    mines the sweetened adversarial side; the owner defends its own block.
    Returns (winner_p, rate, tables, alpha_a), winner_p holding one row per state.
    """
    sr = scenario_rates(dparams.split, dparams.d_ratio, choice)
    split = dparams.split
    raw = [split.alpha_i, split.alpha_c, split.alpha_nc, split.alpha_a]
    live = [sr.alpha_i_prime, sr.alpha_c_prime, sr.alpha_nc_prime, sr.alpha_a_prime]
    br2, br3 = dparams.br2, dparams.br3
    race_owner_cols = [2] if choice == "mini_pow" else [2, 0]
    S = 2 + len(race_owner_cols)
    tables = nxt, settled, attacker, bribe, orphans = _empty_tables(S, 4)
    winner_p = np.array([raw, live] + [raw] * len(race_owner_cols))
    rate = np.array([1.0, sr.rate_multiplier] + [1.0] * len(race_owner_cols))

    # quiet: the adversary hides its block and opens the puzzle sale
    settled[0, :-1] = 1.0
    nxt[0, -1] = 1
    # live: adversary wins trickle-publish one hidden block and keep selling;
    # a solved puzzle anchors the hidden block (puzzle reward paid) and ends
    # the sale; a standard block elsewhere forces a race and the hidden
    # block goes public to contest it
    nxt[1, -1] = 1
    settled[1, :] = attacker[1, :] = 1.0
    bribe[1, :2] = br2  # deciding pool and compliant set
    for s, oc in enumerate(race_owner_cols, start=2):
        nxt[1, oc] = s
        settled[1, oc] = attacker[1, oc] = bribe[1, oc] = 0.0
    # races: next block anywhere resolves; the winner's fork settles both
    # of its blocks, the losing block is orphaned
    for s, oc in enumerate(race_owner_cols, start=2):
        settled[s, :] = 2.0
        orphans[s, :] = attacker[s, :] = 1.0
        bribe[s, :] = br3
        attacker[s, -1], bribe[s, -1] = 2.0, 0.0
        attacker[s, oc] = bribe[s, oc] = 0.0
    return winner_p, rate, tables, split.alpha_a


def _fold_rows(winner_p: np.ndarray, rate, tables, alpha_a) -> _Automaton:
    """The automaton of per-state winner rows, folded into one cdf with its tables re-indexed.

    The cdf is every row's entries below 1.0 (no uniform reaches the rest),
    merged, then 1.0.  No row has an entry inside its column k, [cdf[k-1],
    cdf[k]), so state s draws there wins[s, k], the count of its row's
    entries at most the column's lower end: bisect_right on its own row.
    """
    rows = np.cumsum(winner_p, axis=1)[:, :-1]
    cdf = np.unique(np.append(rows[rows < 1.0], 1.0))
    lower = np.append(-np.inf, cdf[:-1])
    wins = (rows[:, None, :] <= lower[None, :, None]).sum(axis=2)
    return _Automaton(cdf, rate, *(np.take_along_axis(t, wins, axis=1) for t in tables), alpha_a)


def build_automaton(config: SimConfig) -> _Automaton:
    """Construct the per-winner transition tables for a validated config."""
    if config.strategy == "honest":
        return _honest_automaton(config.pools)
    if config.strategy == "pi_selfish":
        return _selfish_automaton(config.pools, config.params)
    if config.strategy == "bribery":
        return _bribery_automaton(config.pools, _partition_for(config), config.params)
    if config.strategy == "undercut":
        return _undercut_automaton(config.pools, _partition_for(config), config.params)
    if config.strategy == "mdp_policy":
        return _mdp_automaton(config)
    if config.strategy == "distraction":
        return _fold_rows(*_distraction_rows(config.distraction, config.puzzle_choice))
    raise ValidationError(f"unknown strategy {config.strategy!r}")


# -- the winner rule ---------------------------------------------------------------


class _Winners:
    """The clocked engine's winner of a uniform m on [0, 2**53): the count of cdf entries <= m * 2**-53.

    That count is #{T_j <= m}, T_j = ceil(cdf[j] * 2**53) (the product is
    exact), so the law is rng.random's to the last bit.  A draw takes m's
    top 16 bits h, a 16-bit piece of a random_raw word, and reads table[h];
    only in a bucket that some T_j lies strictly inside (at most n_win - 1)
    is the entry the flag n_win, and there the draw takes m's low _REST
    bits from the top of a refine word and counts the T_j <= m.
    """

    def __init__(self, cdf: np.ndarray):
        n_win = cdf.size
        self.thresholds = np.ceil(np.ldexp(cdf[:-1], 53)).astype(np.uint64)  # cdf[-1] is 1.0
        # T_j counts from its own bucket on (2**16, no piece, for T_j = 2**53), which is flagged if T_j is inside it
        buckets = self.thresholds >> _REST
        runs = np.diff(np.minimum(buckets, 1 << 16).astype(np.int64), prepend=0, append=1 << 16)
        self.table = np.repeat(np.arange(n_win, dtype=np.min_scalar_type(n_win)), runs)
        inside = self.thresholds % (1 << _REST) != 0
        self.table[buckets[inside]] = n_win
        self.flag = n_win

    def __call__(self, bits, refine, width: int) -> np.ndarray:
        """width winners, their pieces from ceil(width / 4) words of bits.

        Pieces go least significant first; flagged draws take refine's words in order.
        """
        pieces = bits.random_raw(-(-width // 4)).view(np.uint16)[:width]
        wins = self.table.take(pieces)
        at = np.flatnonzero(wins == self.flag)
        if at.size:
            m = pieces[at].astype(np.uint64) << _REST | refine.random_raw(at.size) >> 64 - _REST
            wins[at] = self.thresholds.searchsorted(m, side="right")
        return wins


# -- the path walker ---------------------------------------------------------------


@dataclass(frozen=True)
class _Jumps:
    """An automaton's k-step jump table: k steps of every chain per lookup.

    A k-step index is state * n_win**k + code, code the k winners as a
    base-n_win number, the first winner most significant.  table maps it to
    the state after the k steps times n_win**k, so adding the next code
    gives the next index; steps[j] maps it to the flat (state, winner)
    index of its step j.  next_offset is the one-step table, next_state *
    n_win.  With k = 1 table is next_offset itself and steps is empty: a
    one-step index already is the flat (state, winner) index.
    """

    k: int
    n_win: int
    table: np.ndarray
    next_offset: np.ndarray
    steps: tuple[np.ndarray, ...]


def _jump_steps(n_states: int, n_win: int) -> int:
    """The most steps k, at least 1, whose table of n_states * n_win**k entries fits _JUMP_ENTRIES."""
    k = 1
    while n_win > 1 and n_states * n_win ** (k + 1) <= _JUMP_ENTRIES:
        k += 1
    return k


def _jumps(next_state: np.ndarray, k: int) -> _Jumps:
    """The k-step jump table of next_state, built with k gathers of it."""
    n_states, n_win = next_state.shape
    next_offset = (next_state * n_win).ravel()
    if k == 1:
        return _Jumps(1, n_win, next_offset, next_offset, ())
    state = np.arange(n_states)[:, None]  # state before step j, per (start, first j winners)
    steps = []
    for j in range(k):
        flat = (state[:, :, None] * n_win + np.arange(n_win)).reshape(n_states, -1)
        steps.append(np.repeat(flat, n_win ** (k - 1 - j), axis=1).ravel())
        state = next_state.ravel().take(flat)
    return _Jumps(k, n_win, (state * n_win**k).ravel(), next_offset, tuple(steps))


def _follow(table, codes, offset, out) -> None:
    """Advance every chain's offset once per row of codes through table; out[t] gets row t's indices."""
    for code, row in zip(codes, out):
        np.add(offset, code, out=row)
        # every index is in range; "clip" skips the copy of out that "raise" makes
        table.take(row, out=offset, mode="clip")


def _walk(jumps: _Jumps, wins, offset, out) -> None:
    """Walk every replica len(wins) steps, jumps.k per lookup; the clocked engine's path walker.

    Row t of wins holds step t's winner for each chain, as _Winners draws
    it.  Each k consecutive rows of winners form one k-step code, made with
    k - 1 multiply-adds in the smallest type that holds it.  offset holds
    state * n_win**k per chain and is advanced in place, k steps per add
    and take; out[g] receives group g's k-step index.  The len(wins) % k
    rows left over take one step per lookup through jumps.next_offset, by
    the same loop, their flat (state, winner) indices going to the rows of
    out after the groups.  With k = 1 every row is a group of one.
    """
    k, n_win = jumps.k, jumps.n_win
    g = len(wins) // k
    groups = wins[: g * k].reshape(g, k, wins.shape[1])
    code = groups[:, 0]
    for j in range(1, k):
        code = np.multiply(code, n_win, dtype=np.min_scalar_type(n_win**k))
        code += groups[:, j]
    # widened once here, so that no row's add to the int64 offsets casts
    _follow(jumps.table, code.astype(np.int64), offset, out[:g])
    if len(wins) > g * k:
        offset //= n_win ** (k - 1)
        _follow(jumps.next_offset, wins[g * k :].astype(np.int64), offset, out[g:])
        offset *= n_win ** (k - 1)


def _events(jumps: _Jumps, out, n: int) -> np.ndarray:
    """The flat (state, winner) index of each of the n steps whose _walk output is out, one row per step.

    Row g * k + j is step j of group g, k gathers in all, each into one
    contiguous buffer that is then copied into its rows k apart (a take
    into the strided rows themselves goes through a temporary); the rows
    left over are copied.  With k = 1 out already is that array.
    """
    k = jumps.k
    if k == 1:
        return out
    g = n // k
    idx = np.empty((n, out.shape[1]), dtype=np.int64)
    events = idx[: g * k].reshape(g, k, idx.shape[1])
    step_j = np.empty((g, out.shape[1]), dtype=np.int64)
    for j, step in enumerate(jumps.steps):
        events[:, j] = step.take(out[:g], out=step_j, mode="clip")
    idx[g * k :] = out[g : g + n % k]
    return idx


# -- clocked engine ------------------------------------------------------------------


class _Run:
    """One clocked replica: its generators and everything carried from chunk to chunk."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.refine = self.rng.bit_generator.jumped()  # the low bits of its ambiguous winner draws
        self.draws = 0
        self.events = 0
        self.t = 0.0
        self.difficulty = 1.0
        self.epoch_start = 0.0
        self.revenue = 0.0
        self.canonical = 0
        self.orphans = 0
        self.orphans_at_close = 0  # orphans up to the event that closed the last epoch
        self.durations: list[float] = []
        self.pieces: list[np.ndarray] = []  # (time, advantage) rows, one slice per chunk

    def exponentials(self) -> np.ndarray:
        """The replica's next _CHUNK standard exponential gaps."""
        self.draws += _CHUNK
        return self.rng.standard_exponential(_CHUNK)

    def tick(self, times: np.ndarray, rate: np.ndarray) -> None:
        """Turn one segment's exponential gaps, at one difficulty, into event times in place.

        t += g * difficulty / rate event by event, as a per-event loop adds them.
        """
        times *= self.difficulty
        times /= rate
        times[0] += self.t
        np.add.accumulate(times, out=times)
        self.t = float(times[-1])

    def finish(self, target: int) -> SimStats:
        trajectory = np.concatenate(self.pieces) if self.pieces else np.empty((0, 2))
        self.pieces = []
        return SimStats(
            adversary_reward_share=self.revenue / target,
            orphan_count=self.orphans,
            epoch_durations=np.array(self.durations),
            revenue_advantage=trajectory,
            rng_draws=self.draws,
            events=self.events,
        )


def _winners(rule: _Winners, runs: list[_Run]) -> np.ndarray:
    """The next _CHUNK winners of each replica, one column per replica."""
    wins = np.empty((_CHUNK, len(runs)), dtype=rule.table.dtype)
    for j, run in enumerate(runs):
        wins[:, j] = rule(run.rng.bit_generator, run.refine, _CHUNK)
        run.draws += _CHUNK
    return wins


def _clocked_runs(config: SimConfig, seeds: list[int]) -> list[SimStats]:
    """One clocked run per seed, all walked in lockstep a chunk of events at a time.

    Each replica draws _CHUNK winners (refined from its own _Run.refine)
    and then rng.standard_exponential(_CHUNK) whenever it has used up its
    last chunk, as a run one event at a time would.  The clock never feeds
    back into the path, so a chunk's states and winners come first (_walk,
    k steps per lookup, then _events spreads each k-step index over its
    events), then one column-wise pass gathers each event's blocks, orphans
    and net reward and accumulates them down each replica's column, and
    then each replica's times follow, one segment between difficulty
    retargets at a time.  Every float operation of a replica happens in the
    order of a per-event loop, so the results are bit-identical to one.  A
    replica leaves the lockstep at the event that reaches its horizon.
    """
    auto = build_automaton(config)
    ep = config.epoch
    L = ep.blocks_per_epoch
    target = config.horizon * L if config.horizon_unit == "epochs" else config.horizon
    n_win = auto.cdf.size
    jumps = _jumps(auto.next_state, _jump_steps(auto.n_states, n_win))
    k = jumps.k
    # flat (state, winner) tables; a chunk's running block and orphan counts
    # fit the smallest type that holds _CHUNK times the table's largest entry
    blocks, orphans = (
        x.astype(np.min_scalar_type(_CHUNK * int(x.max()))).ravel() for x in (auto.settled, auto.orphans)
    )
    net = (auto.attacker - auto.bribe).ravel()
    erate = np.repeat(ep.block_rate * auto.rate, n_win)
    drift = auto.alpha_a * ep.block_rate  # expected honest revenue per unit time

    def advance(run: _Run, idx, revenue, canonical, orphaned) -> bool:
        """Carry one replica through its column of the chunk; True once it reaches the horizon."""
        end = int(np.searchsorted(canonical, target - run.canonical)) + 1
        done = end <= _CHUNK
        end = min(end, _CHUNK)
        # the replica's exponentials follow its winners' pieces in its own stream
        times = run.exponentials()[:end]
        a = 0  # first event whose time is not yet known
        # each epoch end inside the horizon closes at the first event whose
        # blocks reach it; an event that settles two blocks can close an
        # epoch with its first and open the next one with its second
        while (len(run.durations) + 1) * L <= target:
            c = int(np.searchsorted(canonical[:end], (len(run.durations) + 1) * L - run.canonical))
            if c == end:
                break
            if c >= a:
                run.tick(times[a : c + 1], erate.take(idx[a : c + 1]))
                a = c + 1
            duration = run.t - run.epoch_start
            run.durations.append(duration)
            closed = run.orphans + int(orphaned[c])
            run.difficulty = dam_update(
                duration, (L, closed - run.orphans_at_close), config.dam_mode, ep, run.difficulty
            )
            run.epoch_start = run.t
            run.orphans_at_close = closed
        if end > a:
            run.tick(times[a:end], erate.take(idx[a:end]))
        run.events += end
        run.canonical += int(canonical[end - 1])
        run.orphans += int(orphaned[end - 1])
        run.revenue = float(revenue[end - 1])
        if config.collect_trajectory:
            # the honest curve is pinned to zero, not left as martingale noise
            adv = np.zeros(end) if config.strategy == "honest" else revenue[:end] - drift * times
            run.pieces.append(np.column_stack([times, adv]))
        return done

    rule = _Winners(auto.cdf)
    runs = [_Run(seed) for seed in seeds]
    live = list(runs)
    offset = np.zeros(len(live), dtype=np.int64)
    while live:
        out = np.empty((_CHUNK // k + _CHUNK % k, len(live)), dtype=np.int64)
        _walk(jumps, _winners(rule, live), offset, out)
        idx = _events(jumps, out, _CHUNK)
        revenue = net.take(idx)
        revenue[0] += [run.revenue for run in live]
        np.add.accumulate(revenue, axis=0, out=revenue)
        canonical = blocks.take(idx)  # blocks settled so far in the chunk
        np.add.accumulate(canonical, axis=0, out=canonical)
        orphaned = orphans.take(idx)
        np.add.accumulate(orphaned, axis=0, out=orphaned)
        done = np.array(
            [advance(run, idx[:, j], revenue[:, j], canonical[:, j], orphaned[:, j]) for j, run in enumerate(live)]
        )
        del out, idx, revenue, canonical, orphaned  # free this chunk's columns before the next is drawn
        if done.any():
            live = [run for run, d in zip(live, done) if not d]
            offset = offset[~done]
    return [run.finish(target) for run in runs]


def simulate(config: SimConfig) -> SimStats:
    """Run one seeded trajectory until the canonical-block horizon is hit.

    The horizon is horizon epochs (of epoch.blocks_per_epoch canonical
    blocks each) or horizon canonical blocks.  The advantage curve compares
    cumulative adversary revenue, net of bribes, against the expected
    honest take alpha_a * block_rate * block_reward * t; for the honest
    strategy that comparison is against itself, so the curve is pinned to
    zero rather than left as martingale noise.  This is the clocked
    engine's one-replica case, seeded from config.seed itself.
    """
    return _clocked_runs(config, [config.seed])[0]


def simulate_many(config: SimConfig, replicas: int) -> list[SimStats]:
    """Independent replicas under spawned child seeds, walked in lockstep.

    Results depend only on config.seed and replicas: seeds come from
    SeedSequence.spawn and the output list keeps spawn order.  Each replica
    equals simulate() run alone under its child seed.
    """
    require_integer("replicas", replicas, least=1)
    children = np.random.SeedSequence(config.seed).spawn(replicas)
    return _clocked_runs(config, [int(c.generate_state(1, np.uint64)[0]) for c in children])


# -- clockless lockstep kernel -------------------------------------------------------


def _lockstep_visits(next_state, cdf, rng, replicas, burn_in, steps):
    """(state, winner) visit counts of replicas chains walked in lockstep from state 0.

    The chains are independent and share one winner row, so the counts
    depend only on how many chains sit in each state: the walk keeps one
    int64 count per occupied state, in ascending state order.  Each step
    splits every count over the winners by one rng.multinomial draw on
    cdf's probabilities, the law of that many independent winner draws;
    from burn_in on the split is added into the visits, and then the chains
    move on through next_state.  The work is the occupied (state, winner)
    cells per step, not the chains.
    """
    n_states, n_win = next_state.shape
    p = np.diff(cdf, prepend=0.0)
    visits = np.zeros((n_states, n_win), dtype=np.int64)
    states, counts = np.zeros(1, dtype=np.int64), np.array([replicas], dtype=np.int64)
    for step in range(burn_in + steps):
        split = rng.multinomial(counts, p)
        if step >= burn_in:
            visits[states] += split
        landed = np.zeros(n_states, dtype=np.int64)
        np.add.at(landed, next_state[states], split)
        states = np.flatnonzero(landed)
        counts = landed[states]
    return visits


def _run_lockstep(auto: _Automaton, count, label: str, replicas, burn_in, seed):
    """The one lockstep entry: visits of a seeded walk of auto counting at least count transitions.

    Walks replicas chains for burn_in uncounted and ceil(count / replicas)
    counted steps under default_rng(seed).  Returns the (state, winner)
    visit counts and the transitions walked.  Sizes that are not integers,
    or that would divide by zero, walk nothing or count nothing, are
    rejected, naming count as label.
    """
    require_integer(label, count, least=1)
    require_integer("replicas", replicas, least=1)
    require_integer("burn_in", burn_in, least=0)
    steps = -(-count // replicas)
    rng = np.random.default_rng(seed)
    visits = _lockstep_visits(auto.next_state, auto.cdf, rng, replicas, burn_in, steps)
    return visits, replicas * (burn_in + steps)


def _share_mc(auto: _Automaton, count, label: str, replicas, burn_in, seed) -> SimStats:
    """Share of reward (net of bribes) per settled block: _run_lockstep's visits times auto's tables."""
    visits, rng_draws = _run_lockstep(auto, count, label, replicas, burn_in, seed)
    settled, reward, orphans = (
        float((visits * t).sum()) for t in (auto.settled, auto.attacker - auto.bribe, auto.orphans)
    )
    if settled <= 0:
        raise ValidationError("no blocks settled; the run is too short")
    return SimStats(reward / settled, int(orphans), np.array([]), np.empty((0, 2)), rng_draws, int(visits.sum()))


def reward_share_mc(
    config: SimConfig,
    transitions: int = 10_000_000,
    replicas: int = 100_000,
    burn_in: int = 300,
) -> SimStats:
    """Reward share over many lockstep replicas; time and difficulty ignored.

    The share is a ratio per canonical block, so event times cancel out of
    it; skipping the clock lets the replicas walk as counts per state, so a
    replica costs nothing and ten million transitions at the default
    100,000 replicas are 100 counted steps.  burn_in steps are walked but
    not counted, which removes the bias of always starting in the idle
    state.  The statistics are the walk's visit counts times the
    automaton's tables.
    """
    return _share_mc(build_automaton(config), transitions, "transitions", replicas, burn_in, config.seed)


def distraction_occupancy_mc(
    dparams: DistractionParams,
    choice: str = "mini_pow",
    events: int = 1_000_000,
    replicas: int = 100_000,
    burn_in: int = 300,
    seed: int = DEFAULT_SEED,
) -> np.ndarray:
    """Per-event state occupancy (quiet, live, racing) from lockstep replicas.

    The replicas walk as counts per state, as reward_share_mc's do, for
    burn_in uncounted and ceil(events / replicas) counted steps.  Race
    sub-states (one per possible defiant-block owner) are merged, so the
    result lines up with the three-state occupancy the closed forms report.
    """
    auto = _fold_rows(*_distraction_rows(dparams, choice))
    visits, _ = _run_lockstep(auto, events, "events", replicas, burn_in, seed)
    counts = visits.sum(axis=1)
    return np.array([counts[0], counts[1], counts[2:].sum()]) / counts.sum()


# -- profit-lag trajectories ---------------------------------------------------------

_TRAJECTORY_STRATEGIES = ("honest", "pi_selfish", "bribery", "mdp_policy")


def revenue_advantage_trajectory(config: SimConfig, replicas: int = 1) -> TrajectoryResult:
    """Mean revenue-advantage curve and its profit-lag summary statistics.

    Replica curves are averaged per event index (both coordinates), which
    keeps the early-epoch shape while shrinking path noise; single runs of
    a slowly-losing attack can end an epoch on either side of zero, the
    mean curve cannot.  The zero crossing is searched only after the
    curve's global minimum, so launch-time jitter around zero is not
    reported as recovery.
    """
    if config.strategy not in _TRAJECTORY_STRATEGIES:
        raise ValidationError(
            f"profit-lag trajectories cover {_TRAJECTORY_STRATEGIES}, "
            f"not {config.strategy!r}"
        )
    epochs = (
        config.horizon
        if config.horizon_unit == "epochs"
        else config.horizon // config.epoch.blocks_per_epoch
    )
    if epochs < 1:
        raise ValidationError("the horizon must cover at least one difficulty epoch")
    if epochs < 3:
        warnings.warn(
            "fewer than three epochs: the post-retarget recovery may not fit "
            "in the horizon",
            HorizonWarning,
            stacklevel=2,
        )
    config = replace(config, collect_trajectory=True)
    runs = simulate_many(config, replicas)
    n = min(r.revenue_advantage.shape[0] for r in runs)
    if n == 0:
        raise ValidationError("no events recorded; horizon too short")
    times = np.mean([r.revenue_advantage[:n, 0] for r in runs], axis=0)
    curve = np.mean([r.revenue_advantage[:n, 1] for r in runs], axis=0)
    first_duration = float(np.mean([r.epoch_durations[0] for r in runs]))

    in_first = times <= first_duration
    if not in_first.any():
        in_first[0] = True
    k_min = int(np.argmin(np.where(in_first, curve, np.inf)))
    first_epoch_min = float(curve[k_min])
    first_epoch_min_time = float(times[k_min])

    zero_crossing = None
    if curve.min() < 0.0:
        trough = int(np.argmin(curve))
        after = np.flatnonzero(curve[trough:] >= 0.0)
        if after.size:
            zero_crossing = float(times[trough + after[0]])
    return TrajectoryResult(
        points=np.column_stack([times, curve]),
        first_epoch_min=first_epoch_min,
        first_epoch_min_time=first_epoch_min_time,
        zero_crossing_time=zero_crossing,
        first_epoch_duration=first_duration,
        replicas=replicas,
    )
