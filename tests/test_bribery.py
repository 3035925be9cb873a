"""Bribe sizing, target partitions, and the orphaning-attack closed forms.

The closed-form shares and stationary vectors are pinned to the exact
stationary solve of powplay.sim's bribery and undercut automata, the
independent route that lays out the same states per winner.
"""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from powplay.bribery import (
    BribeSchedule,
    TargetPartition,
    _bribery_stationary,
    _undercut_stationary,
    bribery_profit,
    bribery_reward_share,
    max_profitable_bribe,
    required_bribes_known_miner,
    required_bribes_unknown_miner,
    required_bribes_whale,
    undercut_reward_share,
)
from powplay.errors import ValidationError
from powplay.model import AttackParams, EpochModel, PoolSet, residual_centralization_factor
from powplay.selfish import selfish_profit
from powplay.sim import SimConfig, build_automaton, reward_share_mc

from oracles import exact_automaton


@pytest.fixture
def one_target():
    """Adversary 0.3, one target 0.2, one bystander 0.5."""
    pools = PoolSet.from_shares(0.3, [0.2, 0.5])
    return pools, TargetPartition(pools, targets=(1,))


# -- bribe sizing --------------------------------------------------------------------


def test_max_profitable_bribe_is_the_share():
    assert max_profitable_bribe(0.3) == 0.3
    with pytest.raises(ValidationError):
        max_profitable_bribe(0.0)
    with pytest.raises(ValidationError):
        max_profitable_bribe(1.0)


def test_profit_at_bribe_equal_share_is_honest():
    epoch = EpochModel()
    for k in (1, 50, 2016):
        assert bribery_profit(0.3, 0.3, k, epoch) == pytest.approx(0.3, rel=1e-12)


def test_profit_examples():
    epoch = EpochModel()
    assert bribery_profit(0.2, 0.15, 100, epoch) > 0.2
    assert bribery_profit(0.2, 0.0, 0, epoch) == pytest.approx(0.2, rel=1e-12)
    expected = 0.29033 + (200 / 2016) * (0.29033 - 0.14)
    assert bribery_profit(0.29033, 0.14, 200, epoch) == pytest.approx(expected, rel=1e-12)
    # overpaying with live attacks is strictly worse than honest
    assert bribery_profit(0.2, 0.25, 10, epoch) < 0.2


def test_profit_scales_with_rate_and_reward():
    fast = EpochModel(block_rate=6.0, block_reward=3.0)
    assert bribery_profit(0.2, 0.1, 50, fast) == pytest.approx(
        18.0 * bribery_profit(0.2, 0.1, 50, EpochModel()), rel=1e-12
    )


def test_profit_rejects_negative_inputs():
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            bribery_profit(0.2, bad, 3)
        with pytest.raises(ValidationError):
            bribery_profit(0.2, 0.1, bad)


def test_schedule_validation():
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            BribeSchedule("known_miner", br1=bad)
        with pytest.raises(ValidationError):
            BribeSchedule("known_miner", br2=bad)
    with pytest.raises(ValidationError):
        BribeSchedule("something_else", br1=0.1)


def test_known_miner_bribes():
    req = required_bribes_known_miner(0.1, 0.02)
    assert req.schedule.br1 == pytest.approx(0.12, rel=1e-12)
    assert req.schedule.br2 == pytest.approx(0.02, rel=1e-12)
    assert req.min_adversary_share == pytest.approx(0.14, rel=1e-12)
    assert not req.feasible_for(0.14)
    assert req.feasible_for(0.1401)
    # large victim with a fat margin is out of reach for a 0.45 attacker
    assert not required_bribes_known_miner(0.3, 0.1).feasible_for(0.45)


@given(
    alpha_i=st.floats(0.01, 0.4),
    alpha_a=st.floats(0.01, 0.5),
)
def test_known_miner_zero_margin_targets_strictly_smaller(alpha_i, alpha_a):
    req = required_bribes_known_miner(alpha_i, 0.0)
    assert req.feasible_for(alpha_a) == (alpha_a > alpha_i)


def test_whale_bribes():
    req = required_bribes_whale(0.2, 0.0)
    assert req.schedule.br1 == pytest.approx(0.25, rel=1e-12)
    assert req.min_adversary_share == pytest.approx(0.25, rel=1e-12)
    req = required_bribes_whale(0.1, 0.05)
    assert req.schedule.br1 == pytest.approx(0.15 / 0.9, rel=1e-12)
    assert req.min_adversary_share == pytest.approx(
        0.1 / 0.9 + 0.05 * (1 / 0.9 + 1), rel=1e-12
    )
    assert req.feasible_for(0.3)


@given(
    alpha_i=st.floats(0.01, 0.45),
    alpha_a=st.floats(0.01, 0.6),
)
def test_whale_zero_margin_reach(alpha_i, alpha_a):
    """The fee variant reaches exactly the pools below alpha_a/(1+alpha_a)."""
    assume(abs(alpha_i - alpha_a / (1 + alpha_a)) > 1e-9)
    req = required_bribes_whale(alpha_i, 0.0)
    assert req.feasible_for(alpha_a) == (alpha_i < alpha_a / (1 + alpha_a))


def test_unknown_miner_bribes_two_large_pools():
    pools = PoolSet.from_shares(0.1, [0.45, 0.45])
    req = required_bribes_unknown_miner(pools)
    # worst-case owner argument prices in every other pool's square
    assert req.schedule.br1 == pytest.approx((0.45**2 + 0.1**2) / 0.55, rel=1e-12)
    assert not req.feasible_for(0.1)


def test_unknown_miner_real_snapshot(btc_pools_merged):
    verdicts = {}
    for pool in btc_pools_merged.pools:
        ps = btc_pools_merged.with_adversary(pool.name)
        req = required_bribes_unknown_miner(ps)
        verdicts[pool.name] = req.feasible_for(ps.adversary_share)
    assert verdicts["Foundry USA"]
    assert verdicts["AntPool"]
    assert not verdicts["ViaBTC"]
    assert not verdicts["F2Pool"]
    assert not verdicts["Unknown"]


def test_unknown_miner_two_party_degenerate():
    pools = PoolSet.from_shares(0.6, [0.4])
    req = required_bribes_unknown_miner(pools)
    # with a single petty pool the worst-case bound collapses to the
    # adversary's own share, so the strict inequality can never be met
    assert req.schedule.br1 == pytest.approx(0.6, rel=1e-12)
    assert req.min_adversary_share == pytest.approx(0.6, rel=1e-12)
    assert not req.feasible_for(0.6)


def test_unknown_miner_needs_a_petty_pool():
    pools = PoolSet.from_shares(1.0, [])
    with pytest.raises(ValidationError):
        required_bribes_unknown_miner(pools)


# -- target partitions ---------------------------------------------------------------


def test_partition_validation():
    pools = PoolSet.from_shares(0.3, [0.2, 0.5])
    with pytest.raises(ValidationError):
        TargetPartition(pools, targets=(0,))  # the adversary itself
    with pytest.raises(ValidationError):
        TargetPartition(pools, targets=(1, 1))
    with pytest.raises(ValidationError):
        TargetPartition(pools, targets=(7,))
    with pytest.raises(ValidationError):
        TargetPartition(PoolSet(pools.pools), targets=(1,))  # no adversary set


def test_partition_allows_every_other_pool_as_target():
    pools = PoolSet.from_shares(0.3, [0.7])
    part = TargetPartition(pools, targets=(1,))
    assert part.b == pytest.approx(0.7, rel=1e-12)
    assert np.isfinite(bribery_reward_share(pools, part))


def test_partition_derived_quantities(one_target):
    _, part = one_target
    assert part.b == pytest.approx(0.2, rel=1e-12)
    assert part.beta == pytest.approx(0.25, rel=1e-12)
    assert part.nontargets == (2,)


def test_auto_partition_real_snapshot(btc_pools_merged):
    ps = btc_pools_merged.with_adversary("Unknown")
    part = TargetPartition.auto(ps, 0.0)
    names = {ps.pools[i].name for i in part.targets}
    assert names == {"Mara Pool", "Binance Pool", "SBI Crypto", "others"}
    assert part.b == pytest.approx(0.13828, abs=1e-9)
    # a margin prices the largest candidate out of the target set
    shrunk = TargetPartition.auto(ps, 0.02)
    assert {ps.pools[i].name for i in shrunk.targets} == {
        "Mara Pool", "Binance Pool", "SBI Crypto"
    }


def test_auto_partition_skips_zero_share_pools():
    pools = PoolSet.from_shares(0.4, [0.6, 0.0])
    part = TargetPartition.auto(pools, 0.0)
    assert part.targets == ()


# -- closed forms against the exact automata -------------------------------------------


def _exact(pools, strategy, targets, epsilon=0.0):
    """Exact (share, occupancy) of powplay.sim's automaton of the attack on targets."""
    cfg = SimConfig(pools, strategy=strategy, targets=targets, params=AttackParams(epsilon=epsilon))
    auto = build_automaton(cfg)
    return exact_automaton(auto.cdf, auto.next_state, auto.settled, auto.attacker - auto.bribe)


def test_bribery_stationary_worked_example(one_target):
    pools, part = one_target
    assert _bribery_stationary(part, 0.3) == pytest.approx([0.7, 0.2, 0.1], abs=1e-12)
    assert _exact(pools, "bribery", part.targets)[1] == pytest.approx([0.7, 0.2, 0.1], abs=1e-12)


def test_undercut_stationary_worked_example(one_target):
    pools, part = one_target
    assert _undercut_stationary(part, 0.3) == pytest.approx([0.74, 0.2, 0.06], abs=1e-12)
    assert _exact(pools, "undercut", part.targets)[1] == pytest.approx([0.74, 0.2, 0.06], abs=1e-12)


def test_reward_share_worked_examples(one_target):
    pools, part = one_target
    assert bribery_reward_share(pools, part) == pytest.approx(0.28 / 0.90, rel=1e-12)
    assert undercut_reward_share(pools, part) == pytest.approx(0.288 / 0.94, rel=1e-12)


@pytest.mark.parametrize("epsilon", [-1.0, float("nan"), float("inf")])
def test_epsilon_must_be_finite_and_nonnegative(epsilon, one_target):
    pools, part = one_target
    empty = TargetPartition(pools, targets=())
    for share in (bribery_reward_share, undercut_reward_share):
        for partition in (part, empty, None):  # checked before the no-target early return
            with pytest.raises(ValidationError, match="epsilon must be a finite number >= 0"):
                share(pools, partition, epsilon)
    for required in (required_bribes_known_miner, required_bribes_whale):
        with pytest.raises(ValidationError):
            required(0.1, epsilon)
    with pytest.raises(ValidationError):
        required_bribes_unknown_miner(pools, epsilon)
    with pytest.raises(ValidationError):
        TargetPartition.auto(pools, epsilon)


def test_no_targets_collapses_to_honest(one_target):
    pools, _ = one_target
    empty = TargetPartition(pools, targets=())
    assert bribery_reward_share(pools, empty) == pools.adversary_share
    assert undercut_reward_share(pools, empty) == pools.adversary_share


def test_margin_sweep_is_monotone_and_crosses_honest(one_target):
    pools, part = one_target
    eps = np.linspace(0.0, 0.6, 13)
    shares = [bribery_reward_share(pools, part, e) for e in eps]
    assert all(a > b for a, b in zip(shares, shares[1:]))
    assert shares[0] > pools.adversary_share
    assert shares[-1] < pools.adversary_share


def _random_config(rng, n_targets):
    raw = rng.uniform(0.05, 1.0, size=n_targets + 2)
    shares = raw / raw.sum()
    pools = PoolSet.from_shares(shares[0], list(shares[1:]))
    part = TargetPartition(pools, targets=tuple(range(1, n_targets + 1)))
    return pools, part


def test_closed_forms_match_power_iteration_everywhere(rng):
    """25 drawn explicit partitions: occupancy and share against the exact automata."""
    for trial in range(25):
        pools, part = _random_config(rng, int(rng.integers(1, 6)))
        a = pools.adversary_share
        for eps in (0.0, 0.01):
            share, occupancy = _exact(pools, "bribery", part.targets, eps)
            np.testing.assert_allclose(occupancy, _bribery_stationary(part, a), rtol=0, atol=1e-12)
            assert bribery_reward_share(pools, part, eps) == pytest.approx(share, abs=1e-12)
            share, occupancy = _exact(pools, "undercut", part.targets, eps)
            np.testing.assert_allclose(occupancy, _undercut_stationary(part, a), rtol=0, atol=1e-12)
            assert undercut_reward_share(pools, part, eps) == pytest.approx(share, abs=1e-12)


def test_one_target_automata_are_the_closed_forms(one_target):
    pools, part = one_target
    for eps in (0.0, 0.3):
        assert _exact(pools, "bribery", part.targets, eps)[0] == pytest.approx(
            bribery_reward_share(pools, part, eps), abs=1e-12
        )
        assert _exact(pools, "undercut", part.targets, eps)[0] == pytest.approx(
            undercut_reward_share(pools, part, eps), abs=1e-12
        )


def _walk(pools, strategy, targets, epsilon=0.0, seed=0):
    """Sampled reward share of a 600 000-transition walk of powplay.sim's automaton."""
    cfg = SimConfig(pools, strategy=strategy, targets=targets, params=AttackParams(epsilon=epsilon), seed=seed)
    return reward_share_mc(cfg, transitions=600_000).adversary_reward_share


def test_chain_walk_agrees_with_closed_form(one_target):
    pools, part = one_target
    est = _walk(pools, "bribery", part.targets, seed=11)
    assert est == pytest.approx(bribery_reward_share(pools, part), abs=0.004)
    est = _walk(pools, "undercut", part.targets, seed=12)
    assert est == pytest.approx(undercut_reward_share(pools, part), abs=0.004)


def test_chain_walk_agrees_with_margin(one_target):
    pools, part = one_target
    est = _walk(pools, "bribery", part.targets, 0.3, seed=13)
    assert est == pytest.approx(bribery_reward_share(pools, part, 0.3), abs=0.004)


def test_real_snapshot_small_pool_ordering(btc_pools_merged):
    """For the smallest snapshot pool, bounty-funded orphaning beats
    self-mined rivals, which beat block withholding, and all beat honest."""
    ps = btc_pools_merged.with_adversary("Unknown")
    part = TargetPartition.auto(ps, 0.0)
    bsh = bribery_reward_share(ps, part)
    ush = undercut_reward_share(ps, part)
    ssh = selfish_profit(ps.adversary_share, residual_centralization_factor(ps))
    assert bsh == pytest.approx(0.0840814, abs=1e-6)
    assert ush == pytest.approx(0.0794679, abs=1e-6)
    assert bsh > ush > ps.adversary_share > ssh
