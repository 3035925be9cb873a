"""Command-line surface: exit codes, artifact round-trips, subcommand output."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

import powplay
from powplay.cli import main
from powplay.distraction import PowerSplit, distraction_reward_share, min_difficulty_ratio
from powplay.errors import ConvergenceError, ValidationError
from powplay.experiments import (
    TABLE2,
    TABLE4_ADVERSARIES,
    Artifact,
    ExperimentSpec,
    _downsample,
    emit_artifact,
    read_artifact,
    render_csv,
    run_table4,
    validate_artifact,
    write_svg,
)
from powplay.mdp import build_mdp, solve_reward_share
from powplay.model import AttackParams, BITCOIN_POOLS_MERGED, PoolSet, bundled_pool_file, load_pool_file
from powplay.randomwalk import abandon_threshold
from powplay.selfish import selfish_dominance_threshold
from powplay.sim import SimConfig, revenue_advantage_trajectory


@pytest.fixture(scope="module")
def merged_file():
    return str(bundled_pool_file(BITCOIN_POOLS_MERGED))


@pytest.fixture()
def tiny_pool_file(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(
        json.dumps({"pools": [{"name": "A", "share": 0.35}, {"name": "B", "share": 0.4}, {"name": "C", "share": 0.25}]})
    )
    return str(path)


# -- exit codes -----------------------------------------------------------------


def test_usage_error_exits_1(capsys):
    assert main(["selfish", "threshold", "--alhpa", "0.3"]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_subcommand_exits_1(capsys):
    assert main([]) == 1
    capsys.readouterr()


def test_unknown_subcommand_exits_1(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_missing_pool_file_exits_3(tmp_path, capsys):
    rc = main(["bribery", "share", "--pools", str(tmp_path / "nope.json"), "--adversary", "X"])
    assert rc == 3
    capsys.readouterr()


def test_empty_pool_file_exits_1_naming_invariant(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text('{"pools": []}')
    rc = main(["bribery", "share", "--pools", str(path), "--adversary", "X"])
    assert rc == 1
    assert "positive sum" in capsys.readouterr().err


def test_unknown_adversary_exits_1(merged_file, capsys):
    assert main(["bribery", "share", "--pools", merged_file, "--adversary", "Atlantis"]) == 1
    capsys.readouterr()


def test_missed_tolerance_exits_2(tmp_path, capsys):
    # a fork cap this small cannot reach the reference values; the artifact
    # validator must refuse to bless the output
    rc = main(["reproduce", "table2", "--rows", "0", "--fork-cap", "3", "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    assert "misses reference" in capsys.readouterr().err


def test_threads_flag_is_a_usage_error(capsys):
    assert main(["reproduce", "table2", "--threads", "2"]) == 1
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_reproduce_rejects_foreign_parameter(capsys):
    assert main(["reproduce", "table2", "--epochs", "3"]) == 1
    assert "does not take parameter" in capsys.readouterr().err


def test_mdp_svg_request_exits_1(tiny_pool_file, tmp_path, capsys):
    # the request is refused before anything is solved or written
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["mdp", "solve", "--pools", tiny_pool_file, "--adversary", "B", "--fork-cap", "3",
               "--svg", str(out / "x.svg"), "--out", str(out / "r.json"), "--policy-csv", str(out / "p.csv")])
    assert rc == 1
    assert "no curve to draw" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("keep, want", [(1, [0, 4]), (2, [0, 4]), (3, [0, 2, 4])])
def test_downsample_keeps_both_endpoints(keep, want):
    curve = np.arange(10.0).reshape(5, 2)
    np.testing.assert_array_equal(_downsample(curve, keep), curve[want])


# -- verdict commands ------------------------------------------------------------


def test_selfish_threshold_stdout_csv(capsys):
    assert main(["selfish", "threshold", "--alpha", "0.3", "--epsilon", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "# verdict:" in out
    last = out.strip().splitlines()[-1].split(",")
    assert float(last[2]) == pytest.approx(selfish_dominance_threshold(0.3, 0.1), abs=1e-12)


def test_selfish_dominant_verdict_and_row(merged_file, tmp_path, capsys):
    out_csv = tmp_path / "dom.csv"
    rc = main(["selfish", "dominant", "--pools", merged_file, "--adversary", "Foundry USA", "--out", str(out_csv)])
    assert rc == 0
    assert "withholding beats honest mining" in capsys.readouterr().out
    art = read_artifact(out_csv)
    assert art.columns == ("adversary", "adversary_share", "epsilon", "residual_factor", "threshold", "margin", "dominant")
    row = dict(zip(art.columns, art.rows[0]))
    assert row["dominant"] == 1
    assert row["residual_factor"] == pytest.approx(0.1453, abs=5e-4)


def test_walk_threshold_value(capsys):
    assert main(["walk", "threshold", "--d", "2"]) == 0
    out = capsys.readouterr().out
    got = float(out.strip().splitlines()[-1].split(",")[1])
    assert got == pytest.approx(abandon_threshold(2), abs=1e-9)
    assert got == pytest.approx(0.4302, abs=5e-4)


# -- attack share commands ---------------------------------------------------------


def test_bribery_share_schema_and_consistency(merged_file, tmp_path):
    out_csv = tmp_path / "br.csv"
    assert main(["bribery", "share", "--pools", merged_file, "--adversary", "Unknown", "--out", str(out_csv)]) == 0
    art = read_artifact(out_csv)
    assert art.columns == ("adversary_share", "attack", "reward_share", "delta_vs_honest")
    row = dict(zip(art.columns, art.rows[0]))
    assert row["attack"] == "bribery"
    assert row["delta_vs_honest"] == pytest.approx(row["reward_share"] - row["adversary_share"], abs=1e-12)
    assert row["reward_share"] > row["adversary_share"]


def test_undercut_share_with_named_targets(merged_file, capsys):
    rc = main(["undercut", "share", "--pools", merged_file, "--adversary", "Foundry USA",
               "--targets", "Unknown,SBI Crypto"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "# targets: Unknown,SBI Crypto" in out
    row = out.strip().splitlines()[-1].split(",")
    assert row[1] == "undercut"


def test_bribery_share_rejects_self_target(merged_file, capsys):
    rc = main(["bribery", "share", "--pools", merged_file, "--adversary", "Unknown", "--targets", "Unknown"])
    assert rc == 1
    capsys.readouterr()


# -- mdp solve ----------------------------------------------------------------------


def test_mdp_solve_json_contract(tiny_pool_file, tmp_path, capsys):
    out = tmp_path / "solve.json"
    pol = tmp_path / "policy.csv"
    rc = main(["mdp", "solve", "--pools", tiny_pool_file, "--adversary", "B", "--fork-cap", "4",
               "--out", str(out), "--policy-csv", str(pol)])
    assert rc == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert set(doc) == {"reward_share", "iterations", "sweeps_per_step", "stationary_per_step", "state_count",
                        "action_slots", "edge_count", "slot_rows"}
    assert 1 <= doc["slot_rows"] <= doc["action_slots"] < doc["edge_count"]
    assert 0.4 <= doc["reward_share"] < 1.0
    assert doc["iterations"] == sum(doc["sweeps_per_step"]) >= 1
    assert len(doc["stationary_per_step"]) == len(doc["sweeps_per_step"])
    assert min(doc["stationary_per_step"]) >= 1
    art = read_artifact(pol)
    assert art.columns == ("state", "action")
    assert len(art.rows) == doc["state_count"]
    kinds = {str(a).split(":")[0] for a in art.column("action")}
    assert kinds <= {"wait", "adopt", "override", "match"}


def test_mdp_solve_out_of_sweeps_exits_2(tiny_pool_file, monkeypatch, capsys):
    monkeypatch.setattr(
        "powplay.cli.solve_reward_share",
        lambda model, tol: solve_reward_share(model, tol, max_sweeps=3),
    )
    rc = main(["mdp", "solve", "--pools", tiny_pool_file, "--adversary", "B", "--fork-cap", "3"])
    assert rc == 2
    assert "exhausted 3 sweeps" in capsys.readouterr().err


def test_mdp_solve_stdout_is_json(tiny_pool_file, capsys):
    rc = main(["mdp", "solve", "--pools", tiny_pool_file, "--adversary", "B", "--fork-cap", "3"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["state_count"] > 10


# -- sim commands -----------------------------------------------------------------


def test_sim_run_config_roundtrip(merged_file, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "pools": merged_file,
        "adversary": "Foundry USA",
        "strategy": "pi_selfish",
        "horizon": 2,
        "epoch": {"blocks_per_epoch": 400},
        "seed": 11,
    }))
    out = tmp_path / "stats.csv"
    assert main(["sim", "run", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    art = read_artifact(out)
    row = dict(zip(art.columns, art.rows[0]))
    assert row["strategy"] == "pi_selfish"
    assert row["epochs_completed"] == 2
    assert 0.0 < row["adversary_reward_share"] < 1.0
    assert row["orphan_count"] > 0
    assert art.meta["seed"] == "11"  # the config seed wins over the --seed default


def test_sim_run_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"strategy": "honest", "turbo": true}')
    assert main(["sim", "run", "--config", str(cfg)]) == 1
    assert "turbo" in capsys.readouterr().err


def test_sim_run_inline_pools_and_distraction(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "strategy": "distraction",
        "horizon": 2000,
        "horizon_unit": "blocks",
        "distraction": {"alpha_a": 0.4, "alpha_i": 0.1, "alpha_c": 0.3, "alpha_nc": 0.2,
                        "d_ratio": 5, "br2": 0.04, "br3": 0.02},
    }))
    assert main(["sim", "run", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    row = out.strip().splitlines()[-1].split(",")
    share = float(row[1])
    expected = distraction_reward_share(PowerSplit(0.4, 0.1, 0.3, 0.2), 5, 0.04)
    assert share == pytest.approx(expected, abs=0.05)


def test_sim_run_mdp_policy_with_a_zero_share_pool(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "pools": [{"name": "a", "share": 0.35}, {"name": "b", "share": 0.35},
                  {"name": "c", "share": 0.3}, {"name": "d", "share": 0}],
        "adversary": "a",
        "strategy": "mdp_policy",
        "fork_cap": 4,
        "horizon": 1,
        "epoch": {"blocks_per_epoch": 400},
    }))
    assert main(["sim", "run", "--config", str(cfg)]) == 0
    row = capsys.readouterr().out.strip().splitlines()[-1].split(",")
    assert row[0] == "mdp_policy" and 0.0 < float(row[1]) < 1.0


@pytest.mark.parametrize("share", [True, "0.5"], ids=["bool", "string"])
def test_sim_run_inline_pools_reject_non_numeric_share(tmp_path, capsys, share):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "pools": [{"name": "A", "share": share}, {"name": "B", "share": 0.5}],
        "adversary": "A",
        "strategy": "honest",
    }))
    assert main(["sim", "run", "--config", str(cfg)]) == 1
    assert "not numeric" in capsys.readouterr().err


_DISTRACTION = {"alpha_a": 0.4, "alpha_i": 0.1, "alpha_c": 0.3, "alpha_nc": 0.2}


@pytest.mark.parametrize(
    "extra, key",
    [
        ({"targets": ["AntPool"]}, "'targets'"),
        ({"targets": [1.7]}, "'targets'"),
        ({"targets": [True]}, "'targets'"),
        ({"targets": 1}, "'targets'"),
        ({"strategy": "distraction", "distraction": {**_DISTRACTION, "br2": "x"}}, "'distraction.br2'"),
        ({"strategy": "distraction", "distraction": 5}, "'distraction'"),
        ({"epoch": {"blocks_per_epoch": "10"}}, "'epoch.blocks_per_epoch'"),
        ({"epsilon": "x"}, "'epsilon'"),
        ({"max_bribe": 1.5}, "'max_bribe'"),
        ({"collect_trajectory": "yes"}, "'collect_trajectory'"),
        ({"horizon": True}, "'horizon'"),
        ({"horizon": 2.5}, "'horizon'"),
        ({"seed": True}, "'seed'"),
        ({"seed": "0xC0FFEE"}, "'seed'"),
        ({"strategy": 3}, "'strategy'"),
        ({"horizon_unit": ["blocks"]}, "'horizon_unit'"),
        ({"dam_mode": None}, "'dam_mode'"),
        ({"strategy": "distraction", "distraction": _DISTRACTION, "puzzle_choice": 1}, "'puzzle_choice'"),
    ],
    ids=["target-name", "target-float", "target-bool", "targets-scalar", "distraction-value",
         "distraction-scalar", "epoch-value", "epsilon", "max-bribe", "collect-trajectory-string",
         "horizon-bool", "horizon-float", "seed-bool", "seed-string", "strategy", "horizon-unit",
         "dam-mode", "puzzle-choice"],
)
def test_sim_run_rejects_malformed_values(merged_file, tmp_path, capsys, extra, key):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"pools": merged_file, "adversary": "Foundry USA", "strategy": "bribery", **extra}))
    assert main(["sim", "run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err and str(cfg) in err


def test_profit_lag_schema_and_svg(merged_file, tmp_path, capsys):
    cfg = SimConfig(load_pool_file(merged_file, adversary="Unknown"), strategy="bribery", horizon=3)
    every = len(revenue_advantage_trajectory(cfg).points)
    for points, rows in ((40, 40), (0, every)):  # 0 keeps every event of the curve
        out = tmp_path / "lag.csv"
        svg = tmp_path / "lag.svg"
        rc = main(["sim", "profit-lag", "--attack", "bribery", "--pools", merged_file, "--adversary", "Unknown",
                   "--epochs", "3", "--replicas", "1", "--points", str(points), "--out", str(out), "--svg", str(svg)])
        assert rc == 0
        capsys.readouterr()
        art = read_artifact(out)
        assert art.columns == ("time", "cumulative_advantage")
        assert len(art.rows) == rows
        times = art.column("time")
        assert times == sorted(times)
        assert {"first_epoch_min", "zero_crossing", "replicas"} <= set(art.meta)
        text = svg.read_text()
        assert text.startswith("<svg") and "polyline" in text


def test_profit_lag_negative_points_exits_1(merged_file, capsys):
    rc = main(["sim", "profit-lag", "--attack", "bribery", "--pools", merged_file, "--adversary", "Unknown",
               "--epochs", "3", "--replicas", "1", "--points", "-3"])
    assert rc == 1
    assert "points must be at least 0" in capsys.readouterr().err


def test_reproduce_fig4_points_0_keeps_every_point(tmp_path, capsys):
    out = tmp_path / "fig4.csv"
    assert main(["reproduce", "fig4", "--rows", "0", "--epochs", "3", "--points", "0", "--out", str(out)]) == 0
    capsys.readouterr()
    art = read_artifact(out)
    assert art.meta["points_per_curve"] == "0"
    assert len(art.rows) > 400  # more events than the default 400 points
    assert art.column("time") == sorted(art.column("time"))


def test_profit_lag_selfish_attack_name_maps(merged_file, capsys):
    rc = main(["sim", "profit-lag", "--attack", "selfish", "--pools", merged_file, "--adversary", "Foundry USA",
               "--epochs", "3", "--replicas", "1", "--points", "10"])
    assert rc == 0
    assert "# attack: selfish" in capsys.readouterr().out


# -- distraction commands ----------------------------------------------------------


def test_distraction_delta_default_grid(capsys):
    rc = main(["distraction", "delta", "--alpha-a", "0.4", "--br2", "0.04", "--epsilon", "0.02", "--d", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "dominates chain mining for every deciding share" in out
    body = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert len(body) - 1 == 30  # header + default 0.01..0.30 grid


def test_distraction_delta_bad_grid_exits_1(capsys):
    assert main(["distraction", "delta", "--alpha-a", "0.4", "--br2", "0.04", "--d", "5", "--grid", "nope"]) == 1
    assert main(["distraction", "delta", "--alpha-a", "0.4", "--br2", "0.04", "--d", "5", "--grid", "0.1:0.9:0.1"]) == 1
    for grid in ("0.01:0.1:nan", "0.01:nan:0.01", "nan:0.1:0.01", "0.01:0.1:0"):
        assert main(["distraction", "delta", "--alpha-a", "0.4", "--br2", "0.04", "--d", "5", "--grid", grid]) == 1
        assert "error:" in capsys.readouterr().err


def test_distraction_min_d_matches_library(capsys):
    rc = main(["distraction", "min-d", "--alpha-a", "0.4", "--br2", "0.04", "--epsilon", "0.02"])
    assert rc == 0
    out = capsys.readouterr().out
    got = float(out.strip().splitlines()[-1].split(",")[-1])
    assert got == pytest.approx(min_difficulty_ratio(0.4, 0.04, 0.02), abs=1e-12)


def test_distraction_min_d_infeasible_exits_1(capsys):
    assert main(["distraction", "min-d", "--alpha-a", "0.1", "--br2", "0.2"]) == 1
    capsys.readouterr()


# -- reproduce -------------------------------------------------------------------


def test_reproduce_table2_single_row(tmp_path, capsys):
    out = tmp_path / "t2.csv"
    assert main(["reproduce", "table2", "--rows", "0", "--out", str(out)]) == 0
    capsys.readouterr()
    art = read_artifact(out)
    assert art.meta["fork_cap"] == "8"
    row = dict(zip(art.columns, art.rows[0]))
    assert row["reward_share"] == pytest.approx(0.5448, abs=0.01)
    validate_artifact(art)


def _solve_summary(value):
    """A solve[...] header value as {name: int or float}."""
    fields = dict(part.split("=") for part in value.split())
    return {k: float(v) if k == "residual" else int(v) for k, v in fields.items()}


def _assert_solve_recorded(art, key, model, tol=1e-6):
    res = solve_reward_share(model, tol=tol)
    assert _solve_summary(art.meta[key]) == {
        "state_count": model.state_count,
        "outer_steps": res.outer_steps,
        "sweeps": res.iterations,
        "residual": res.residual,
    }


def test_reproduce_table2_records_each_solve(tmp_path, capsys):
    """One solve[row] header key per solved row, read back from the CSV and
    equal to a solve of the same model; no CSV column is added."""
    out = tmp_path / "t2.csv"
    assert main(["reproduce", "table2", "--rows", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    art = read_artifact(out)
    assert [k for k in art.meta if k.startswith("solve[")] == ["solve[3]"]
    alpha, epsilon, configs, _ = TABLE2
    model = build_mdp(PoolSet.from_shares(alpha, configs[3]), AttackParams(epsilon=epsilon), fork_cap=8)
    _assert_solve_recorded(art, "solve[3]", model)
    assert len(art.columns) == 7
    assert art.rows[0][art.columns.index("reward_share")] == solve_reward_share(model).reward_share


def test_reproduce_fig3_and_table4_record_each_solve_by_pool(tmp_path, capsys):
    base = load_pool_file(bundled_pool_file(BITCOIN_POOLS_MERGED))
    fig3, table4 = tmp_path / "fig3.csv", tmp_path / "table4.csv"
    assert main(["reproduce", "fig3", "--rows", "7,8", "--fork-cap", "4", "--out", str(fig3)]) == 0
    capsys.readouterr()
    # at fork cap 4 a table4 share misses its reference (exit 2), so the
    # runner's artifact is written directly
    table4.write_text(render_csv(run_table4(fork_cap=4, rows=[4])))
    fig3, table4 = read_artifact(fig3), read_artifact(table4)
    assert len(fig3.columns) == 5
    names = fig3.column("pool")
    assert [k for k in fig3.meta if k.startswith("solve[")] == [f"solve[{name}]" for name in names]
    name = TABLE4_ADVERSARIES[4]
    assert [k for k in table4.meta if k.startswith("solve[")] == [f"solve[{name}]"]
    for art, name in [(fig3, n) for n in names] + [(table4, name)]:
        _assert_solve_recorded(art, f"solve[{name}]", build_mdp(base.with_adversary(name), AttackParams(), fork_cap=4))


def test_reproduce_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["reproduce", "fig6", "--step", "0.05", "--out", str(a), "--seed", "0xBEEF"]) == 0
    assert main(["reproduce", "fig6", "--step", "0.05", "--out", str(b), "--seed", "0xBEEF"]) == 0
    capsys.readouterr()
    assert a.read_text() == b.read_text()


def test_reproduce_records_the_powplay_version(tmp_path, capsys):
    out = tmp_path / "fig6.csv"
    assert main(["reproduce", "fig6", "--step", "0.1", "--out", str(out)]) == 0
    capsys.readouterr()
    assert read_artifact(out).meta["powplay_version"] == powplay.__version__
    assert f"# powplay_version: {powplay.__version__}\n" in out.read_text()


def test_reproduce_fig6_series(capsys):
    rc = main(["reproduce", "fig6", "--step", "0.1"])
    assert rc == 0
    out = capsys.readouterr().out
    series = {line.split(",")[0] for line in out.splitlines() if line and not line.startswith(("#", "series"))}
    assert series == {"delta_d5", "delta_d2", "min_d"}


@pytest.mark.parametrize("step", ["0", "nan"])
def test_reproduce_fig6_bad_step_exits_1(step, capsys):
    assert main(["reproduce", "fig6", "--step", step]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["walk", "threshold", "--d", "2", "--tol", "0"],
        ["walk", "threshold", "--d", "2", "--tol", "-1"],
        ["mdp", "solve", "--adversary", "A", "--fork-cap", "4", "--tol", "0"],
        ["reproduce", "table2", "--rows", "0", "--tol", "nan"],
    ],
    ids=["walk-tol-0", "walk-tol-negative", "mdp-solve-tol-0", "reproduce-tol-nan"],
)
def test_tol_that_is_not_positive_and_finite_exits_1(argv, tiny_pool_file, capsys):
    if argv[0] == "mdp":
        argv = [*argv, "--pools", tiny_pool_file]
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["mdp", "solve", "--adversary", "A", "--tol", "0"], ["reproduce", "table2", "--tol", "0"]],
                         ids=["mdp-solve", "reproduce-table2"])
def test_bad_tol_exits_1_before_any_model_is_built(argv, tiny_pool_file, monkeypatch, capsys):
    def build_mdp(*args, **kwargs):
        raise AssertionError("a model was built for a tolerance that is rejected")

    monkeypatch.setattr("powplay.cli.build_mdp", build_mdp)
    monkeypatch.setattr("powplay.experiments.build_mdp", build_mdp)
    if argv[0] == "mdp":
        argv = [*argv, "--pools", tiny_pool_file]
    assert main(argv) == 1
    assert "tol must be a positive finite number" in capsys.readouterr().err


@pytest.mark.parametrize("epsilon", ["nan", "inf"])
def test_non_finite_epsilon_exits_1_before_any_model_is_built(epsilon, tiny_pool_file, monkeypatch, capsys):
    def build_mdp(*args, **kwargs):
        raise AssertionError("a model was built for an epsilon that is rejected")

    monkeypatch.setattr("powplay.cli.build_mdp", build_mdp)
    argv = ["mdp", "solve", "--pools", tiny_pool_file, "--adversary", "A", "--fork-cap", "3", "--epsilon", epsilon]
    assert main(argv) == 1
    assert "epsilon must be a finite number >= 0" in capsys.readouterr().err


def test_reproduce_json_format(tmp_path, capsys):
    out = tmp_path / "t2.json"
    rc = main(["reproduce", "table2", "--rows", "0", "--format", "json", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["meta"]["artifact"] == "table2"
    assert doc["columns"][0] == "row"


# -- artifact plumbing ------------------------------------------------------------


def test_artifact_rejects_ragged_rows():
    with pytest.raises(ValidationError):
        Artifact("x", {}, ("a", "b"), [(1, 2), (3,)])


def test_read_artifact_rejects_malformed_metadata(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# no separator here\na,b\n1,2\n")
    with pytest.raises(ValidationError):
        read_artifact(path)


def test_validate_artifact_requires_self_description():
    art = Artifact("x", {"artifact": "x"}, ("a",), [(1,)])
    with pytest.raises(ValidationError):
        validate_artifact(art)


def test_validate_artifact_flags_reference_miss():
    meta = {"artifact": "x", "seed": 0, "fork_cap": 8, "tolerance": 0.01}
    art = Artifact("x", meta, ("reward_share", "reference"), [(0.5, 0.6)])
    with pytest.raises(ConvergenceError):
        validate_artifact(art)


def test_csv_roundtrip_preserves_floats(tmp_path):
    meta = {"artifact": "x", "seed": 3, "fork_cap": "n/a", "tolerance": "n/a"}
    art = Artifact("x", meta, ("a", "b"), [(math.pi, "text"), (1e-17, "more")])
    path = tmp_path / "x.csv"
    emit_artifact(art, out=path)
    back = read_artifact(path)
    assert back.rows[0][0] == math.pi
    assert back.rows[1][0] == 1e-17
    assert back.column("b") == ["text", "more"]


def test_write_svg_needs_two_numeric_columns(tmp_path):
    art = Artifact("x", {}, ("a", "b"), [("u", "v")])
    with pytest.raises(ValidationError):
        write_svg(art, tmp_path / "x.svg")


def test_experiment_spec_rejects_unknown_kind():
    for kind in ("table9", "custom"):
        with pytest.raises(ValidationError):
            ExperimentSpec(kind)


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "powplay.cli", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("powplay ")
