"""Scenario schema, pipeline artifacts, CLI exit codes, byte determinism."""

from __future__ import annotations

import functools
import json

import pytest

from offmenu.cli import main
from offmenu.equilibrium import Engine
from offmenu.model import GameError
from offmenu.run import export_report, run_scenario
from offmenu.scenario import bundled_scenarios, load_scenario

MINIMAL = {
    "name": "mini",
    "agents": 1,
    "horizon": 2,
    "state_grid": {"lo": 0.0, "hi": 1.0, "points": 3},
    "shocks": {"values": [0.0, 0.5, 1.0]},
    "dynamics": {"kind": "exogenous", "params": {}},
    "rewards": {"kind": "linear_state", "params": {"c": 1.0}},
    "mechanism": {"variant": "ir"},
    "verify": ["doic", "payoff_flow"],
    "seed": 2,
    "samples": 200,
}


def test_load_scenario_missing_field_errors():
    bad = dict(MINIMAL)
    del bad["shocks"]
    with pytest.raises(GameError, match="shocks"):
        load_scenario(bad)


def test_load_scenario_unknown_check_errors():
    bad = dict(MINIMAL)
    bad["verify"] = ["doic", "nonsense"]
    with pytest.raises(GameError, match="nonsense"):
        load_scenario(bad)


def test_load_scenario_unknown_variant_errors():
    bad = dict(MINIMAL)
    bad["mechanism"] = {"variant": "sideways"}
    with pytest.raises(GameError, match="sideways"):
        load_scenario(bad)


def test_bundled_scenarios_exist():
    names = set(bundled_scenarios())
    assert {"subscription", "g2-appendix", "double-well", "pair-churn"} <= names


def test_run_scenario_minimal_passes(tmp_path):
    result = run_scenario(load_scenario(MINIMAL), tmp_path)
    assert result.passed
    assert (tmp_path / "report.json").exists()
    body = json.loads((tmp_path / "report.json").read_text())
    assert body["schema_version"] == 1
    assert body["passed"] is True
    names = {v["name"] for v in body["verdicts"]}
    assert {"oaic", "raic", "flow-c1"} <= names


def test_report_bytes_deterministic(tmp_path):
    a = run_scenario(load_scenario(MINIMAL), tmp_path / "a")
    b = run_scenario(load_scenario(MINIMAL), tmp_path / "b")
    for name in ("report.json", "on_rent.csv", "carriers.csv", "mechanism.csv",
                 "projections.csv", "quit_frequency.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_seed_changes_empirical_but_not_verdicts(tmp_path):
    a = run_scenario(load_scenario(MINIMAL), tmp_path / "a")
    different = dict(MINIMAL)
    different["seed"] = 3
    b = run_scenario(load_scenario(different), tmp_path / "b")
    assert a.report["verdicts"] == b.report["verdicts"]
    assert a.report["extras"]["simulation"]["seed"] != b.report["extras"]["simulation"]["seed"]


def test_cli_verify_exit_codes(tmp_path):
    ok = main(["verify", "subscription", "--out", str(tmp_path / "ok"), "--samples", "500"])
    assert ok == 0
    bad_path = tmp_path / "broken.json"
    bad_path.write_text(json.dumps({**MINIMAL, "verify": ["nonsense"]}))
    assert main(["verify", str(bad_path)]) == 2
    missing = main(["verify", str(tmp_path / "nope.json")])
    assert missing == 2


@pytest.mark.parametrize("samples", [0, -5])
def test_cli_rejects_sample_counts_below_one(tmp_path, samples, capsys):
    for command in ("verify", "simulate"):
        assert main([command, "g2-appendix", "--samples", str(samples),
                     "--out", str(tmp_path / command)]) == 2
        assert "samples must be at least 1" in capsys.readouterr().err
    assert main(["verify", "g2-appendix", "--mode", "mc", "--checks", "doic",
                 "--samples", str(samples)]) == 2


def test_load_scenario_rejects_sample_counts_below_one():
    for samples in (0, -5):
        with pytest.raises(GameError, match="samples"):
            load_scenario({**MINIMAL, "samples": samples})


def test_cli_failing_verdict_exit_one(tmp_path):
    failing = dict(MINIMAL)
    failing["name"] = "dcm-fail"
    failing["verify"] = ["dcm_zero"]
    failing["rewards"] = {"kind": "pw_slopes", "params": {
        "grid": {"lo": 0.0, "hi": 1.0, "points": 3},
        "slopes": [-4.0, 8.0, -4.0]}}
    failing["mechanism"] = {"variant": "horizontal", "boundaries": {"0": [[0.5, 0.5]]}}
    path = tmp_path / "fail.json"
    path.write_text(json.dumps(failing))
    assert main(["verify", str(path)]) == 1


def test_cli_simulate_and_synthesize(tmp_path, capsys):
    assert main(["simulate", "double-well", "--out", str(tmp_path / "sim"),
                 "--samples", "400", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "quit[" in out
    assert main(["synthesize", "double-well", "--out", str(tmp_path / "syn")]) == 0
    rows = (tmp_path / "syn" / "mechanism.csv").read_text().splitlines()
    assert rows[0] == "agent,period,history_id,action_slot,action,coupling,posted_value"
    assert len(rows) > 10


def test_cli_report_export(tmp_path):
    main(["verify", "g2-appendix", "--out", str(tmp_path / "v"), "--samples", "200"])
    paths = export_report(tmp_path / "v" / "report.json", "csv", tmp_path / "csv")
    names = {p.name for p in paths}
    assert names == {"verdicts.csv", "chi.csv"}
    again = export_report(tmp_path / "v" / "report.json", "csv", tmp_path / "csv2")
    for p, q in zip(sorted(paths), sorted(again)):
        assert p.read_bytes() == q.read_bytes()
    assert main(["report", str(tmp_path / "v" / "report.json"),
                 "--format", "json", "--out", str(tmp_path / "rj")]) == 0


def test_cli_scenarios_listing(capsys):
    assert main(["scenarios"]) == 0
    out = capsys.readouterr().out.split()
    assert "subscription" in out


def test_mc_mode_accepted_and_recorded(tmp_path):
    cfg = dict(MINIMAL)
    cfg["mode"] = "mc"
    result = run_scenario(load_scenario(cfg), tmp_path)
    assert result.report["mode"] == "mc"


def test_empty_verdict_list_header_only(tmp_path):
    from offmenu.reports import write_csv

    p = write_csv(tmp_path / "empty.csv", ["a", "b"], [])
    assert p.read_text() == "a,b\n"


def test_mc_doic_verdicts_recorded_and_pass(tmp_path):
    cfg = dict(MINIMAL)
    cfg["mode"] = "mc"
    cfg["samples"] = 400
    cfg["verify"] = ["doic"]
    result = run_scenario(load_scenario(cfg), tmp_path)
    verdicts = {v["name"]: v for v in result.report["verdicts"]}
    assert verdicts["oaic"]["mode"] == "mc"
    assert verdicts["raic"]["mode"] == "mc"
    assert result.passed  # 3-sigma gates on an exactly obedient instance


def test_mechanism_tables_roundtrip(tmp_path):
    # native run exports tables; a tables scenario verifies against them
    native = run_scenario("double-well", tmp_path / "native")
    tables = tmp_path / "native" / "mechanism_tables.json"
    assert tables.exists()
    cfg = {
        "name": "double-well-tables",
        "agents": 1,
        "horizon": 3,
        "state_grid": {"lo": 0.0, "hi": 1.0, "points": 5},
        "shocks": {"values": [0.0, 0.25, 0.5, 0.75, 1.0]},
        "initial_states": [[0.2, 0.2, 0.2, 0.2, 0.2]],
        "dynamics": {"kind": "exogenous", "params": {}},
        "rewards": {"kind": "pw_slopes", "params": {
            "grid": {"lo": 0.0, "hi": 1.0, "points": 5},
            "slopes": [-4.0, -4.0, 8.0, -12.0, 20.0]}},
        "policy": {"kind": "identity", "params": {}},
        "mechanism": {"variant": "tables", "path": str(tables)},
        "verify": ["doic", "fixed_point"],
        "seed": 3,
        "samples": 500,
    }
    result = run_scenario(load_scenario(cfg), tmp_path / "tables")
    assert result.passed
    names = {v["name"] for v in result.report["verdicts"]}
    assert {"off-region-alignment", "raic", "fixed-point"} <= names


def test_table_backed_rejects_synthesis_checks(tmp_path):
    run_scenario("g2-appendix", tmp_path / "n", overrides={"samples": 100})
    cfg = dict(MINIMAL)
    cfg["mechanism"] = {"variant": "tables",
                        "path": str(tmp_path / "n" / "mechanism_tables.json")}
    cfg["verify"] = ["payoff_flow"]
    with pytest.raises(GameError, match="table-backed"):
        run_scenario(load_scenario(cfg), None)


def _tables_scenario(raw: dict, tables, **fields):
    """The scenario ``raw`` with its mechanism replaced by exported tables."""
    return load_scenario({**raw, "name": f"{raw['name']}-tables",
                          "mechanism": {"variant": "tables", "path": str(tables)}, **fields})


def _bundled(name: str) -> dict:
    return json.loads(bundled_scenarios()[name].read_text())


@pytest.mark.parametrize("seed", range(5))
def test_table_backed_doic_honours_mc_mode(tmp_path, seed):
    # g2-appendix has one shock value, so its sampled margins are exact
    run_scenario("g2-appendix", tmp_path / "native")
    scenario = _tables_scenario(_bundled("g2-appendix"),
                                tmp_path / "native" / "mechanism_tables.json",
                                mode="mc", samples=200, seed=seed, verify=["doic"])
    result = run_scenario(scenario, tmp_path / "tables")
    verdicts = {v["name"]: v for v in result.report["verdicts"]}
    assert verdicts["oaic"]["mode"] == "mc" and verdicts["oaic"]["passed"]
    assert verdicts["raic"]["mode"] == "mc" and verdicts["raic"]["passed"]
    assert [p.name for p in result.artifacts] == ["report.json"]


@pytest.mark.parametrize("name", ["double-well", "g2-appendix", "subscription"])
def test_table_backed_run_matches_native(tmp_path, name):
    checks = ["support", "doic", "fixed_point"]
    native = run_scenario(name, tmp_path / "native", overrides={"checks": tuple(checks)})
    tables = run_scenario(_tables_scenario(_bundled(name),
                                           tmp_path / "native" / "mechanism_tables.json",
                                           verify=checks), None)
    assert tables.passed and native.passed
    _assert_same_run(tables, native)
    assert tables.report["extras"]["mechanism_source"] == name


def _assert_same_run(tables, native):
    assert tables.report["verdicts"] == native.report["verdicts"]
    assert tables.report["chi"] == native.report["chi"]
    assert tables.report["extras"]["simulation"] == native.report["extras"]["simulation"]
    assert tables.report["extras"]["support"] == native.report["extras"]["support"]


@pytest.mark.parametrize("horizon", [2, 3])
def test_table_backed_two_agent_run_matches_native(tmp_path, horizon):
    # the tables cover every class, so the fixed point's opponents find their values too
    checks = ["support", "doic", "fixed_point"]
    pair = {**_bundled("pair-churn"), "horizon": horizon, "verify": checks}
    native = run_scenario(load_scenario(pair), tmp_path / "native")
    tables = run_scenario(_tables_scenario(pair, tmp_path / "native" / "mechanism_tables.json"),
                          None)
    assert tables.passed and native.passed
    assert [v["name"] for v in tables.report["verdicts"]] == [
        "off-region-alignment", "raic", "fixed-point"]
    _assert_same_run(tables, native)


@pytest.mark.parametrize("name", sorted(bundled_scenarios()))
def test_tables_hold_one_coupling_row_per_class_and_slot(tmp_path, name):
    # rows == memo entries: no check reads a class the export leaves out
    result = run_scenario(name, tmp_path)
    body = json.loads((tmp_path / "mechanism_tables.json").read_text())
    assert body["schema_version"] == 2 and body["window"] == 0
    assert len(body["coupling"]) == len(result.engine.mechanism.rho._memo)
    assert len({(r[0], r[1]) for r in body["coupling"]}) == len(body["posted"])



def test_tree_size_error_names_the_table_and_its_budget(g1_unused=None):
    from offmenu.equilibrium import Engine, TreeSizeError
    from offmenu.mechanism import Mechanism, ZeroCoupling, ZeroOffSwitch
    from conftest import make_game, IDENTITY
    from offmenu.histories import RegionConjecture

    game = make_game()
    mech = Mechanism(IDENTITY, ZeroCoupling(), ZeroOffSwitch(3))
    engine = Engine(game, mech, memo_budget=5)
    with pytest.raises(TreeSizeError,
                       match="prospect table exceeds its budget of 5 entries") as exc:
        engine.prospects(0, engine.root(), 2, RegionConjecture({}))
    msg = str(exc.value)
    # sampled mode replaces only doic, so the message must not send users there
    assert "mode=mc" not in msg
    assert "on_rent.csv" in msg and "horizon" in msg and "grid points" in msg
    # the budget counts cells, each holding every plan index, with a deviation
    # row's slots counted as entries too
    assert "an entry is one cell" in msg and "every plan index" in msg
    assert "deviation rows, one entry per menu slot" in msg


def test_cli_budget_error_names_the_check_that_ran_out(monkeypatch, capsys):
    # a budget error from any check, not only doic, names that check and exits 2
    monkeypatch.setattr("offmenu.run.Engine", functools.partial(Engine, memo_budget=5))
    assert main(["verify", "g2-appendix", "--checks", "payoff_flow"]) == 2
    err = capsys.readouterr().err
    assert "check 'payoff_flow'" in err and "exceeds its budget of 5 entries" in err


WELL_RIDGE = {
    "name": "well-ridge",
    "agents": 1,
    "horizon": 3,
    "state_grid": {"lo": 0.0, "hi": 1.0, "points": 5},
    "shocks": {"values": [0.0, 0.25, 0.5, 0.75, 1.0]},
    "initial_states": [[0.2, 0.2, 0.2, 0.2, 0.2]],
    "dynamics": {"kind": "exogenous", "params": {}},
    "rewards": {"kind": "pw_slopes", "params": {
        "grid": {"lo": 0.0, "hi": 1.0, "points": 5},
        "slopes": [-4.0, -4.0, 20.0, -24.0, 36.0]}},
    "policy": {"kind": "identity", "params": {}},
    "mechanism": {"variant": "knowledgeable",
                  "boundaries": {"0": [[0.25, 0.25]]}},
    "verify": ["doic", "phi_uniqueness", "transform", "barrier", "fixed_point"],
    "seed": 9,
    "samples": 2000,
}


def test_knowledgeable_scenario_end_to_end(tmp_path):
    result = run_scenario(load_scenario(WELL_RIDGE), tmp_path)
    assert result.passed, result.report["verdicts"]
    rows = (tmp_path / "mechanism.csv").read_text().splitlines()
    # interval-keyed posted values serialize every distinct level
    assert any(";" in r.split(",")[-1] for r in rows[1:])


def test_cli_tables_missing_interval_entry_exits_two(tmp_path, capsys):
    run_scenario(load_scenario(WELL_RIDGE), tmp_path / "native")
    tables = tmp_path / "native" / "mechanism_tables.json"
    body = json.loads(tables.read_text())
    body["posted_intervals"] = body["posted_intervals"][:-3]
    tables.write_text(json.dumps(body))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**WELL_RIDGE, "verify": ["doic"],
                                "mechanism": {"variant": "tables", "path": str(tables)}}))
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert "no off-switch value for agent 0" in err and "interval" in err


def _exported_tables(tmp_path) -> tuple:
    """(tables body, tables path, scenario path) of a double-well run against its export."""
    run_scenario("double-well", tmp_path / "native", overrides={"checks": ()})
    tables = tmp_path / "native" / "mechanism_tables.json"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**_bundled("double-well"), "verify": ["doic"],
                                "mechanism": {"variant": "tables", "path": str(tables)}}))
    return json.loads(tables.read_text()), tables, path


def test_cli_tables_of_schema_version_one_exit_two(tmp_path, capsys):
    body, tables, path = _exported_tables(tmp_path)
    assert main(["verify", str(path)]) == 0
    del body["schema_version"]   # version 1 carried no version field
    tables.write_text(json.dumps(body))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 2
    assert "schema version 1" in capsys.readouterr().err


def test_cli_tables_of_another_history_window_exit_two(tmp_path, capsys):
    body, tables, path = _exported_tables(tmp_path)
    tables.write_text(json.dumps({**body, "window": 1}))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert "history window 1" in err and "window is 0" in err


def test_cli_checks_flag_overrides_scenario(tmp_path, capsys):
    assert main(["verify", "g2-appendix", "--checks", "mso,cm",
                 "--samples", "100"]) == 0
    out = capsys.readouterr().out
    assert "max-sensitive-obedience" in out and "constrained-monotone" in out
    assert "flow-c1" not in out


# -- schema errors exit 2 ------------------------------------------------------


def test_cli_malformed_scenario_json_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"agents": 1,')
    assert main(["verify", str(path)]) == 2
    assert "cannot read scenario" in capsys.readouterr().err


def test_cli_report_malformed_json_exits_two(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text("[1, 2")
    assert main(["report", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "cannot read report" in capsys.readouterr().err
    path.write_text(json.dumps({"verdicts": [{"name": "x"}]}))
    assert main(["report", str(path), "--format", "csv", "--out", str(tmp_path / "o")]) == 2


def test_cli_malformed_mechanism_tables_exit_two(tmp_path, capsys):
    tables = tmp_path / "tables.json"
    tables.write_text('{"variant": "ir", "coupling": [')
    cfg = {**MINIMAL, "verify": ["doic"],
           "mechanism": {"variant": "tables", "path": str(tables)}}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify", str(path)]) == 2
    assert "cannot read mechanism tables" in capsys.readouterr().err
    tables.write_text(json.dumps({"variant": "ir"}))
    assert main(["verify", str(path)]) == 2
    assert "malformed" in capsys.readouterr().err


@pytest.mark.parametrize("section", ["dynamics", "rewards", "policy"])
def test_cli_closure_entry_without_kind_exits_two(tmp_path, capsys, section):
    cfg = {**MINIMAL, section: {"params": {}}}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify", str(path)]) == 2
    assert f"{section} needs a string 'kind'" in capsys.readouterr().err


@pytest.mark.parametrize("params", [{"c": "x"}, {"c": []}, {"c": {}}])
def test_cli_closure_params_that_do_not_evaluate_exit_two(tmp_path, capsys, params):
    cfg = {**MINIMAL, "rewards": {"kind": "linear_state", "params": params}}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify", str(path)]) == 2
    assert "rewards" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_cli_rejects_bad_tolerance(tmp_path, capsys, tol):
    assert main(["verify", "g2-appendix", "--tol", tol]) == 2
    assert "tolerance must be a finite number >= 0" in capsys.readouterr().err
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**MINIMAL, "tolerance": float(tol)}))
    assert main(["verify", str(path)]) == 2
    assert "tolerance" in capsys.readouterr().err


def test_cli_rejects_negative_seed(capsys):
    assert main(["verify", "g2-appendix", "--seed", "-1"]) == 2
    assert "seed must be at least 0" in capsys.readouterr().err


def test_cli_rejects_unknown_check_name(capsys):
    assert main(["verify", "g2-appendix", "--checks", "doicc,payoff_flow"]) == 2
    assert "unknown check 'doicc'" in capsys.readouterr().err


@pytest.mark.parametrize("checks", [",", "", ",,"])
def test_cli_verify_with_no_check_names_exits_two(checks, capsys):
    # running nothing must not read as "every verdict passed"
    assert main(["verify", "g2-appendix", "--checks", checks]) == 2
    assert "names no check" in capsys.readouterr().err


def test_run_scenario_rejects_unknown_check_override():
    with pytest.raises(GameError, match="unknown check 'bogus'"):
        run_scenario("g2-appendix", None, {"checks": ("bogus",)})


# -- non-finite residuals serialize --------------------------------------------


def test_report_json_encodes_non_finite_floats():
    import numpy as np

    from offmenu.reports import report_json_bytes

    body = json.loads(report_json_bytes(
        {"a": float("inf"), "b": -float("inf"), "c": float("nan"), "d": np.float64("inf"),
         "e": [0.1, 2.5e-17], "f": np.float64(0.1)}))
    assert body == {"schema_version": 1, "a": "Infinity", "b": "-Infinity", "c": "NaN",
                    "d": "Infinity", "e": [0.1, 2.5e-17], "f": 0.1}
    assert [float(body[k]) for k in "abd"] == [float("inf"), -float("inf"), float("inf")]


def test_cli_phi_uniqueness_missing_key_writes_report_and_exits_one(tmp_path, monkeypatch):
    import offmenu.run

    monkeypatch.setattr(offmenu.run, "solve_phi_by_indifference", lambda *a, **k: {})
    out = tmp_path / "out"
    assert main(["verify", "g2-appendix", "--checks", "phi_uniqueness", "--out", str(out)]) == 1
    body = json.loads((out / "report.json").read_text())
    (verdict,) = body["verdicts"]
    assert verdict["name"] == "phi-uniqueness" and not verdict["passed"]
    assert verdict["worst"] == "Infinity" and "missing" in verdict["witness"]
    assert main(["report", str(out / "report.json"), "--format", "csv",
                 "--out", str(tmp_path / "csv")]) == 0
    assert "phi-uniqueness,False,inf," in (tmp_path / "csv" / "verdicts.csv").read_text()


# -- sampled runs and per-interval audits ----------------------------------------


def test_cli_dcm_zero_audits_every_interval_of_a_knowledgeable_cutoff(tmp_path, capsys):
    """A per-interval cutoff is audited at its on-interval targets too, where
    the double-well's posted totals are nonzero."""
    raw = {**_bundled("double-well"), "verify": ["dcm_zero"],
           "mechanism": {"variant": "knowledgeable", "boundaries": {"0": [[0.0, 0.0]]}}}
    path = tmp_path / "knowledgeable.json"
    path.write_text(json.dumps(raw))
    assert main(["verify", str(path)]) == 1
    assert "[FAIL] dcm-zero" in capsys.readouterr().out


@pytest.mark.parametrize("name,args", [
    ("subscription", ("--samples", "300")),
    ("pair-churn", ("--checks", "doic")),
])
def test_cli_sampled_obedience_passes_ties_within_the_tolerance(tmp_path, capsys, name, args):
    """Sampled margins that tie at zero up to rounding pass, as exact ones do."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({**_bundled(name), "horizon": 2} if name == "pair-churn"
                               else _bundled(name)))
    assert main(["verify", str(path), "--mode", "mc", *args]) == 0
    out = capsys.readouterr().out
    assert "raic" in out and "(mc)" in out


def test_sampled_run_writes_no_exact_on_rents(tmp_path):
    """on_rent.csv holds exact values; a sampled run leaves the prospect table,
    obedient entries and deviation rows, empty."""
    result = run_scenario("g2-appendix", tmp_path,
                          {"mode": "mc", "checks": ("doic",), "samples": 50})
    assert result.passed
    assert not (tmp_path / "on_rent.csv").exists()
    assert (tmp_path / "carriers.csv").exists()
    assert result.engine._g == {} and result.engine._rows == {}
