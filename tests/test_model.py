import json
import math

import pytest
from hypothesis import given, strategies as st

from powplay.model import (
    AttackParams,
    EpochModel,
    Pool,
    PoolSet,
    ValidationError,
    bundled_pool_file,
    centralization_factor,
    load_pool_file,
    parse_pool_entries,
    pool_advantage,
    residual_centralization_factor,
)


def share_lists(min_pools=2, max_pools=10):
    """Random normalized share vectors."""
    return (
        st.lists(
            st.floats(0.01, 10.0, allow_nan=False, allow_infinity=False),
            min_size=min_pools,
            max_size=max_pools,
        )
        .map(lambda w: [x / sum(w) for x in w])
    )


def make_set(shares, adversary=0):
    return PoolSet(
        tuple(Pool(f"p{i}", s) for i, s in enumerate(shares)), adversary=adversary
    )


# -- validation ----------------------------------------------------------------


def test_shares_must_sum_to_one():
    with pytest.raises(ValidationError):
        make_set([0.5, 0.4])


def test_tiny_drift_is_renormalized():
    ps = make_set([0.5, 0.5 + 5e-10])
    assert math.fsum(ps.shares) == pytest.approx(1.0, abs=1e-15)


def test_negative_share_rejected():
    with pytest.raises(ValidationError):
        Pool("p", -0.1)


def test_duplicate_names_rejected():
    with pytest.raises(ValidationError):
        PoolSet((Pool("a", 0.5), Pool("a", 0.5)))


def test_adversary_index_checked():
    with pytest.raises(ValidationError):
        make_set([0.5, 0.5], adversary=7)


def test_attack_params_validation():
    AttackParams(epsilon=0.1, max_bribe=2)
    with pytest.raises(ValidationError):
        AttackParams(epsilon=-0.1)
    with pytest.raises(ValidationError):
        AttackParams(max_bribe=-1)
    # a bribe cap of 1.7 must not be truncated to 1
    for bad in (1.7, 1.0, True):
        with pytest.raises(ValidationError, match="max_bribe must be an integer"):
            AttackParams(max_bribe=bad)


@pytest.mark.parametrize("epsilon", [math.nan, math.inf])
def test_attack_params_reject_a_non_finite_epsilon(epsilon):
    # nan < 0 is False: a NaN epsilon once reached the solver as NaN bribes
    with pytest.raises(ValidationError, match="epsilon must be a finite number >= 0"):
        AttackParams(epsilon=epsilon)


@pytest.mark.parametrize("field", ["share", "cost"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_pool_rejects_a_non_finite_share_or_cost(field, value):
    kwargs = {"share": 0.5, "cost": 0.0, field: value}
    with pytest.raises(ValidationError, match=f"{field} must be a finite number >= 0"):
        Pool("p", **kwargs)


def test_from_shares_rejects_a_nan_share():
    # a NaN share once made every share NaN: their sum passed the sum check
    with pytest.raises(ValidationError, match="share must be a finite number >= 0"):
        PoolSet.from_shares(0.4, [math.nan, 0.3])


def test_epoch_model_defaults():
    em = EpochModel()
    assert em.blocks_per_epoch == 2016
    assert em.target_duration == pytest.approx(2016.0)
    with pytest.raises(ValidationError):
        EpochModel(block_rate=0.0)


# -- centralization factor --------------------------------------------------------


def test_single_pool_is_fully_centralized():
    assert centralization_factor([1.0]) == 1.0


def test_equal_pools_give_one_over_n():
    assert centralization_factor([0.25] * 4) == pytest.approx(0.25, abs=1e-12)


def test_btc_snapshot_matches_direct_summation(btc_pools):
    raw = json.loads(bundled_pool_file().read_text())
    weights = [p["share"] for p in raw["pools"]]
    total = sum(weights)
    expected = sum((w / total) ** 2 for w in weights)
    assert centralization_factor(btc_pools) == pytest.approx(expected, abs=1e-12)
    # the snapshot is dominated by two ~0.25-0.29 pools
    assert 0.15 < expected < 0.25


@given(share_lists())
def test_centralization_permutation_invariant(shares):
    assert centralization_factor(shares) == pytest.approx(
        centralization_factor(list(reversed(shares))), abs=1e-12
    )


@given(share_lists())
def test_centralization_bounded_by_max_share(shares):
    assert centralization_factor(shares) <= max(shares) + 1e-12


# -- residual factor and advantage -------------------------------------------------


def test_residual_factor_two_equal_petty_pools():
    ps = make_set([0.4, 0.3, 0.3])
    assert residual_centralization_factor(ps) == pytest.approx(0.3, abs=1e-12)
    assert pool_advantage(ps) == pytest.approx(0.7, abs=1e-12)


def test_residual_factor_three_equal_petty_pools():
    ps = make_set([0.4, 0.2, 0.2, 0.2])
    assert residual_centralization_factor(ps) == pytest.approx(0.2, abs=1e-12)


def test_residual_factor_symmetric_pair():
    ps = make_set([0.5, 0.5])
    assert pool_advantage(ps, 0) == pytest.approx(0.5, abs=1e-12)


def test_residual_factor_real_world_largest(btc_pools_merged):
    beta = residual_centralization_factor(btc_pools_merged, "Foundry USA")
    assert beta == pytest.approx(0.1453, abs=1e-4)
    assert pool_advantage(btc_pools_merged, "Foundry USA") == pytest.approx(
        0.8547, abs=1e-4
    )


def test_residual_factor_rejects_monopoly():
    ps = PoolSet((Pool("all", 1.0),), adversary=0)
    with pytest.raises(ValidationError):
        residual_centralization_factor(ps, 0)


@given(share_lists(min_pools=3))
def test_residual_at_most_max_other_share(shares):
    ps = make_set(shares)
    beta = residual_centralization_factor(ps, 0)
    assert beta <= max(ps.shares[1:]) + 1e-12
    assert beta + pool_advantage(ps, 0) == pytest.approx(1.0, abs=1e-12)


def test_zero_share_pool_changes_nothing():
    base = make_set([0.4, 0.6])
    padded = PoolSet(
        (Pool("p0", 0.4), Pool("p1", 0.6), Pool("ghost", 0.0)), adversary=0
    )
    assert centralization_factor(padded) == pytest.approx(
        centralization_factor(base), abs=1e-12
    )
    assert residual_centralization_factor(padded, 0) == pytest.approx(
        residual_centralization_factor(base, 0), abs=1e-12
    )
    assert padded.drop_zero_shares().shares == base.shares


# -- loading and transforms --------------------------------------------------------


def test_loader_normalizes_published_rounding(btc_pools):
    assert math.fsum(btc_pools.shares) == pytest.approx(1.0, abs=1e-12)
    assert btc_pools.names[0] == "Foundry USA"
    assert len(btc_pools) == 16


def test_loader_rejects_bad_documents(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("[1,2,3]")
    with pytest.raises(ValidationError):
        load_pool_file(p)
    p.write_text('{"pools": [{"name": "a"}]}')
    with pytest.raises(ValidationError):
        load_pool_file(p)
    with pytest.raises(OSError):
        load_pool_file(tmp_path / "missing.json")


def test_loader_normalizes_any_positive_sum(tmp_path):
    """File shares are weights: percentages load as fractions, a zero sum is refused."""
    p = tmp_path / "percent.json"
    p.write_text('{"pools": [{"name": "a", "share": 60}, {"name": "b", "share": 40}]}')
    ps = load_pool_file(p)
    assert math.fsum(ps.shares) == pytest.approx(1.0, abs=1e-12)
    assert ps.shares == pytest.approx((0.6, 0.4), abs=1e-12)
    p.write_text('{"pools": [{"name": "a", "share": 0}, {"name": "b", "share": 0}]}')
    with pytest.raises(ValidationError):
        load_pool_file(p)


def test_pool_entries_keep_cost_and_refuse_non_numbers():
    ps = parse_pool_entries(
        [{"name": "a", "share": 3, "cost": 0.5}, {"name": "b", "share": 1}], "inline", "b"
    )
    assert ps.shares == pytest.approx((0.75, 0.25), abs=1e-12)
    assert [p.cost for p in ps.pools] == [0.5, 0.0]
    assert ps.adversary == 1
    for bad in ({"share": True}, {"share": "0.5"}, {"share": 1, "cost": "free"}):
        with pytest.raises(ValidationError, match="not numeric"):
            parse_pool_entries([{"name": "a", **bad}, {"name": "b", "share": 1}], "inline")
    with pytest.raises(ValidationError, match="list"):
        parse_pool_entries({"name": "a", "share": 1}, "inline")


def test_loader_adversary_override(btc_pools_merged):
    ps = load_pool_file(bundled_pool_file(), adversary="AntPool")
    assert ps.pools[ps.adversary].name == "AntPool"
    assert ps.adversary_share == pytest.approx(0.2485, abs=1e-3)


def test_merge_tail_matches_bundled_merged_set(btc_pools, btc_pools_merged):
    merged = btc_pools.with_adversary("Foundry USA").merge_tail(8)
    assert len(merged) == 9
    assert merged.pools[-1].name == "others"
    # same structure as the bundled merged file, up to published rounding;
    # the 4-decimal snapshot undersums by ~6e-4 and that slack lands in the tail
    for got, want in zip(merged.shares[:8], btc_pools_merged.shares[:8]):
        assert got == pytest.approx(want, abs=2e-4)
    assert merged.shares[8] == pytest.approx(btc_pools_merged.shares[8], abs=1e-3)


def test_from_shares_roundtrip():
    ps = PoolSet.from_shares(0.4, [0.3, 0.3])
    assert ps.adversary_share == pytest.approx(0.4)
    assert ps.others() == (1, 2)
    assert ps.index_of("pool2") == 2
