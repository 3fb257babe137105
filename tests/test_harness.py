import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import schro1d
from schro1d import (
    ConfigError,
    PiecewisePotential,
    default_suite_path,
    parse_potential,
    parse_scenario,
    random_sweep,
    run_scenarios,
    run_suite,
    sweep_document,
)
from schro1d.harness import run_scenario
from schro1d.cli import main


SQUARE_WELL_SCENARIO = {
    "id": "well",
    "potential": {"breakpoints": [0.0, 3.0], "values": [-2.0]},
    "energy": 1.0,
    "init": {"x0": 0.0, "u0": 1.0, "du0": 0.0},
    "span": [0.0, 3.0],
    "max_step": 0.005,
    "checks": [{"name": "derivative_bound"}, {"name": "local_lp", "p": 2}],
}


class TestParsing:
    def test_parse_potential_explicit_and_family(self):
        p1 = parse_potential({"breakpoints": [0, 1, 2], "values": [1, -1]})
        assert p1.value_at(0.5) == 1.0
        p2 = parse_potential({"family": "square_well", "depth": 2.0, "width": 3.0})
        assert p2.value_at(1.0) == -2.0

    def test_parse_potential_errors_carry_path(self):
        with pytest.raises(ConfigError) as exc:
            parse_potential({"breakpoints": [0.0], "values": []}, "scenarios[3].potential")
        assert "scenarios[3].potential" in str(exc.value)
        with pytest.raises(ConfigError):
            parse_potential("not an object")

    def test_parse_scenario_roundtrip(self):
        scn = parse_scenario(SQUARE_WELL_SCENARIO)
        assert scn.id == "well"
        assert scn.span == (0.0, 3.0)
        assert scn.energy.real == 1.0
        assert len(scn.checks) == 2

    def test_parse_scenario_rejects_mismatched_init(self):
        bad = dict(SQUARE_WELL_SCENARIO, init={"x0": 1.0, "u0": 1.0})
        with pytest.raises(ConfigError, match="span start"):
            parse_scenario(bad)

    def test_parse_scenario_rejects_bad_expected(self):
        bad = dict(SQUARE_WELL_SCENARIO, expected="maybe")
        with pytest.raises(ConfigError, match="expected"):
            parse_scenario(bad)

    def test_missing_span(self):
        # a missing span reads the potential's support (a bad one is an
        # error: test_bad_scenario_number_is_config_error)
        doc = {k: v for k, v in SQUARE_WELL_SCENARIO.items() if k != "span"}
        assert parse_scenario(doc).span == (0.0, 3.0)
        shifted = parse_scenario(dict(doc, init={}, potential={"breakpoints": [-1.0, 0.5, 2.0],
                                                               "values": [-2.0, 0.0]}))
        assert shifted.span == (-1.0, 2.0) and shifted.init.x0 == -1.0

    def test_parse_potential_rejects_a_built_potential(self):
        # a config value is a JSON value: a PiecewisePotential is not one
        with pytest.raises(ConfigError) as exc:
            parse_potential(PiecewisePotential((0.0, 1.0), (0.0,)), "well.potential")
        assert exc.value.path == "well.potential"


# a healthy free scenario, and one whose growing solution e^x passes the
# overflow guard near x = 346
HEALTHY_FREE = {
    "id": "free-healthy",
    "potential": {"breakpoints": [0.0, 10.0], "values": [0.0]},
    "energy": 1.0,
    "span": [0.0, 10.0],
    "checks": [{"name": "derivative_bound"}, {"name": "persistence"}],
}
# grows as cosh x, to 1.1e4, without reaching the overflow guard
GROWING_FREE = dict(HEALTHY_FREE, id="free-growing", energy=-1.0)
OVERFLOWING_FREE = {
    "id": "free-overflow",
    "potential": {"breakpoints": [0.0, 400.0], "values": [0.0]},
    "energy": -1.0,
    "span": [0.0, 400.0],
    "checks": [{"name": "derivative_bound"}],
}

# a check that reads each check field
_CHECK_OF = {"p": "local_lp", "weight": "weighted", "window": "weighted",
             "tail_fraction": "decay", "drop_factor": "decay", "samples": "lemma31",
             "seed": "lemma31", "max_gap": "lemma31", "tolerance": "persistence"}


SQUARE_WELL = {"family": "square_well", "depth": 2.0, "width": 3.0}
RANDOM_STEP = {"family": "random_step", "cells": 12, "low": -2.0, "high": 2.0}


def _run_twice(tmp_path, *argv):
    """The text that the CLI command argv writes to --out, after checking that
    it exits 0 with no RuntimeWarning and writes the same bytes twice."""
    written = []
    for run in ("a", "b"):
        out = tmp_path / f"out_{run}"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([*argv, "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]
    return written[0].decode()


def _overflowing_suite(**fields):
    """A suite of OVERFLOWING_FREE with fields set."""
    return {"scenarios": [dict(OVERFLOWING_FREE, **fields)]}


def _overflowing_with(field, raw):
    """OVERFLOWING_FREE with field (<key>, init.<key> or checks[0].<key>) set
    to raw."""
    where, _, key = field.rpartition(".")
    if where == "init":
        return dict(OVERFLOWING_FREE, init={key: raw})
    if where == "checks[0]":
        return dict(OVERFLOWING_FREE, checks=[{"name": _CHECK_OF.get(key), key: raw}])
    return dict(OVERFLOWING_FREE, **{key: raw})


class TestSuiteExecution:
    def test_empty_suite_is_vacuously_ok(self):
        report = run_suite({"scenarios": []})
        assert report.all_ok
        assert report.entries == []

    def test_single_scenario_report_shape(self):
        report = run_suite({"scenarios": [SQUARE_WELL_SCENARIO]})
        assert report.all_ok
        entry = report.entries[0]
        assert entry["id"] == "well"
        assert entry["constants"]["c2"] == pytest.approx(3.0)  # unit-window c1=2, |E|=1
        names = [o["name"] for o in entry["outcomes"]]
        assert names == ["derivative_bound", "local_lp_p2"]
        assert all(o["pass"] for o in entry["outcomes"])

    def test_duplicate_ids_rejected(self):
        scn = parse_scenario(SQUARE_WELL_SCENARIO)
        with pytest.raises(ConfigError, match="unique"):
            run_scenarios([scn, scn])

    def test_expected_fail_honored(self):
        doc = {
            "scenarios": [
                dict(
                    SQUARE_WELL_SCENARIO,
                    id="no-decay",
                    expected="expected_fail",
                    checks=[{"name": "decay", "drop_factor": 5.0}],
                )
            ]
        }
        report = run_suite(doc)
        assert report.all_ok
        entry = report.entries[0]
        assert not entry["all_checks_pass"]
        assert entry["ok"]

    def test_degenerate_constants_surface_and_floor_escapes(self):
        doc = {
            "scenarios": [
                {
                    "id": "free-zero-energy",
                    "potential": {"breakpoints": [0.0, 5.0], "values": [0.0]},
                    "energy": 0.0,
                    "init": {"x0": 0.0, "u0": 1.0, "du0": 0.0},
                    "span": [0.0, 5.0],
                    "checks": [{"name": "derivative_bound"}],
                }
            ]
        }
        (entry,) = run_suite(doc).entries
        assert entry["ok"] is False and entry["constants"] is None
        assert entry["error"] == {"type": "DegenerateConstants", "x": None, "magnitude": None}
        report = run_suite(doc, c2_floor=1.0)
        assert report.all_ok
        assert report.entries[0]["constants"]["c2"] == 1.0

    def test_degenerate_scenario_fails_alone(self):
        # C2 = 0 beside a healthy scenario: an error entry, the healthy one ok,
        # and no RuntimeWarning escapes
        degenerate = dict(HEALTHY_FREE, id="free-zero-energy", energy=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = run_suite({"scenarios": [HEALTHY_FREE, degenerate]})
        assert not report.all_ok
        healthy, failed = report.entries
        assert healthy == run_suite({"scenarios": [HEALTHY_FREE]}).entries[0] and healthy["ok"]
        assert failed["error"]["type"] == "DegenerateConstants" and not failed["ok"]
        assert failed["outcomes"] == [] and failed["skipped"] == []

    @pytest.mark.parametrize("expected", ["pass", "expected_fail"])
    def test_solver_error_isolated_to_its_entry(self, expected):
        doc = {"scenarios": [HEALTHY_FREE, dict(OVERFLOWING_FREE, expected=expected)]}
        report = run_suite(doc)
        assert not report.all_ok
        healthy, failed = report.entries
        assert healthy == run_suite({"scenarios": [HEALTHY_FREE]}).entries[0]
        assert "error" not in healthy and healthy["ok"]
        error = failed.pop("error")
        assert error["type"] == "OverflowAtX"
        assert 346.0 < error["x"] < 346.2 and error["magnitude"] > 1e150
        assert failed["ok"] is False and failed["all_checks_pass"] is False
        assert failed["outcomes"] == [] and failed["skipped"] == []
        assert failed["constants"]["c2"] == 1.0

    def test_unknown_check_rejected(self):
        doc = {"scenarios": [dict(SQUARE_WELL_SCENARIO, checks=[{"name": "bogus"}])]}
        with pytest.raises(ConfigError, match="bogus"):
            run_suite(doc)

    @pytest.mark.parametrize("check, field", [
        ({"name": "bogus"}, "bogus"),
        ({"name": "weighted", "weight": {"kind": "bogus"}}, "weight"),
        ({"name": "local_lp", "p": "abc"}, "p"),
        ({"name": "derivative_lp", "p": 0.5}, "p"),
        ({"name": "decay", "tail_fraction": 0.7}, "tail_fraction"),
        ({"name": "lemma31", "samples": 0}, "samples"),
        ({"name": "persistence", "tolerance": "x"}, "tolerance"),
    ], ids=["name", "weight", "p-text", "p-below-1", "tail_fraction", "samples", "tolerance"])
    def test_unknown_check_rejected_before_the_trace(self, check, field):
        # the trace of this scenario overflows, which would end it in an
        # error entry: the malformed check must still be a ConfigError
        doc = {"scenarios": [dict(OVERFLOWING_FREE, checks=[check])]}
        with pytest.raises(ConfigError, match=field):
            run_suite(doc)

    @pytest.mark.parametrize("field, raw", [
        ("max_step", None), ("max_step", [1]), ("max_step", "nan"), ("max_step", "inf"),
        ("max_step", "abc"), ("seed", "x"), ("seed", None), ("seed", -3),
        ("max_step", True), ("max_step", -1.0), ("max_step", 0.0), ("seed", 1.5),
        ("seed", True), ("energy", "1"), ("energy", [1.0]), ("energy", {"re": True}),
        ("energy", {"re": 1.0, "im": math.inf}), ("span", 5), ("span", None),
        ("span", [0.0]), ("span", [1.0, 0.0]), ("span", [0.0, math.inf]),
        ("expected", "maybe"), ("expected", None), ("checks", {}), ("init", 5),
        ("init.x0", 1.0), ("init.x0", "0"), ("init.u0", True),
        ("init.u0", {"re": math.inf}), ("init.du0", [1.0, 2.0, 3.0]),
        ("checks[0].name", None), ("checks[0].p", True),
        ("checks[0].weight", 5), ("checks[0].weight", {"kind": "exponential", "rate": True}),
        ("checks[0].weight", {"kind": "exponential", "rat": 0.5}),
        ("checks[0].weight", {"kind": "exponential", "rate": 0.5, "sample_xs": [0, 1]}),
        ("checks[0].window", [1.0]), ("checks[0].window", 0),
        ("checks[0].tail_fraction", 0.5), ("checks[0].drop_factor", 1.0),
        ("checks[0].samples", 2.7), ("checks[0].seed", 1.5), ("checks[0].seed", None),
        ("checks[0].max_gap", math.inf), ("checks[0].tolerance", -1.0), ("energy", 1e308),
    ])
    def test_bad_scenario_number_is_config_error(self, field, raw):
        # every field is read before the trace, which overflows here
        doc = {"scenarios": [_overflowing_with(field, raw)]}
        with pytest.raises(ConfigError) as exc:
            run_suite(doc)
        assert exc.value.path == f"free-overflow.{field}"

    @pytest.mark.parametrize("weight, key", [
        ({"kind": "polynomial", "rate": 1}, "rate"),
        ({"kind": "exponential", "exponent": 2}, "exponent"),
    ], ids=["polynomial-rate", "exponential-exponent"])
    def test_weight_rejects_a_field_its_kind_does_not_read(self, weight, key):
        doc = {"scenarios": [_overflowing_with("checks[0].weight", weight)]}
        with pytest.raises(ConfigError) as exc:
            run_suite(doc)
        assert exc.value.path == f"free-overflow.checks[0].weight.{key}"

    @pytest.mark.parametrize("doc, path", [
        (_overflowing_suite(potential=SQUARE_WELL | {"depth": True}),
         "free-overflow.potential.depth"),
        (_overflowing_suite(potential=SQUARE_WELL | {"depth": "4"}),
         "free-overflow.potential.depth"),
        (_overflowing_suite(potential=RANDOM_STEP | {"cells": 2.7}),
         "free-overflow.potential.cells"),
        (_overflowing_suite(potential=RANDOM_STEP | {"seed": 1.5}),
         "free-overflow.potential.seed"),
        (_overflowing_suite(potential=RANDOM_STEP | {"seed": -3}),
         "free-overflow.potential.seed"),
        (_overflowing_suite(potential={"family": "spike_lattice", "g": math.nan}),
         "free-overflow.potential.g"),
        (_overflowing_suite(potential=SQUARE_WELL | {"width": 0}),
         "free-overflow.potential.width"),
        (_overflowing_suite(potential={"family": "square_well", "dpeth": 4, "width": 3}),
         "free-overflow.potential.dpeth"),
        (_overflowing_suite(potential={"family": "morse"}), "free-overflow.potential.family"),
        (_overflowing_suite(potential=SQUARE_WELL | {"breakpoints": [0.0, 3.0]}),
         "free-overflow.potential.breakpoints"),
        (_overflowing_suite(potential={"breakpoints": [0, True], "values": [0.0]}),
         "free-overflow.potential.breakpoints"),
        (_overflowing_suite(potential={"breakpoints": [0.0, 1.0], "values": ["2"]}),
         "free-overflow.potential.values"),
        (_overflowing_suite(maxstep=0.1), "free-overflow.maxstep"),
        (_overflowing_suite(init={"dx0": 0.0}), "free-overflow.init.dx0"),
        (_overflowing_suite(checks=[{"name": "local_lp", "P": 1}]), "free-overflow.checks[0].P"),
        ({"scenarios": [OVERFLOWING_FREE], "c2floor": 1.0}, "c2floor"),
        (_overflowing_suite(potential={"breakpoints": [0.0, 1.0], "values": [-1e308]},
                            energy=1.0), "free-overflow.potential"),
    ], ids=["depth-true", "depth-text", "cells-fraction", "seed-fraction", "seed-negative",
            "g-nan", "width-zero", "dpeth", "family-morse", "family-and-breakpoints",
            "breakpoints-bool", "values-text", "scenario-maxstep", "init-dx0", "check-P",
            "suite-c2floor", "c1-near-float-max"])
    def test_bad_potential_or_unknown_key_is_config_error(self, doc, path):
        # a potential is read field by field like the rest of the scenario,
        # and every object rejects a key it does not read, before the trace
        with pytest.raises(ConfigError) as exc:
            run_suite(doc)
        assert exc.value.path == path

    @pytest.mark.parametrize("scenario, path", [
        (5, "scenarios[0]"),
        (dict(OVERFLOWING_FREE, id=None), "scenarios[0].id"),
        (dict(OVERFLOWING_FREE, id=7), "scenarios[0].id"),
        ({k: v for k, v in OVERFLOWING_FREE.items() if k != "id"}, "scenarios[0].id"),
        (dict(OVERFLOWING_FREE, checks=[5]), "free-overflow.checks[0]"),
    ], ids=["not-an-object", "id-null", "id-number", "id-missing", "check-not-an-object"])
    def test_bad_scenario_shape_is_config_error(self, scenario, path):
        with pytest.raises(ConfigError) as exc:
            run_suite({"scenarios": [scenario]})
        assert exc.value.path == path

    @pytest.mark.parametrize("doc, floor, path", [
        ({"c2_floor": math.nan}, None, "c2_floor"), ({"c2_floor": "abc"}, None, "c2_floor"),
        ({"c2_floor": -1.0}, None, "c2_floor"), ({"c2_floor": True}, None, "c2_floor"),
        ({}, math.nan, "c2_floor"), ({"c2_floor": 1.0}, math.inf, "c2_floor"),
        ({"scenarios": {}}, None, "scenarios"), ({"seed": 0.5}, None, "seed"),
        ({"c2_floor": 1e308}, None, "c2_floor"),
    ])
    def test_bad_suite_field_is_config_error(self, doc, floor, path):
        # --c2-floor stands in for the document's c2_floor, at the same path
        with pytest.raises(ConfigError) as exc:
            run_suite({"scenarios": [OVERFLOWING_FREE], **doc}, c2_floor=floor)
        assert exc.value.path == path

    def test_weighted_default_window_skips_a_short_span(self, tmp_path):
        # 2(K + delta) exceeds the span [0, 1], so the default window is empty
        doc = {"scenarios": [{
            "id": "short-weighted",
            "potential": {"breakpoints": [0.0, 1.0], "values": [-1.0]},
            "energy": 1.0,
            "span": [0.0, 1.0],
            "checks": [{"name": "weighted"}],
        }]}
        entry = run_suite(doc).entries[0]
        assert entry["ok"] and entry["outcomes"] == []
        assert [s["name"] for s in entry["skipped"]] == ["weighted"]
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps(doc))
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 0

    def test_scenario_runs_twice_alike(self):
        # the lemma31 generator is seeded when its check runs, not when the
        # spec is parsed, so a second run draws what the first drew
        checks = [{"name": "lemma31", "samples": 40, "seed": 3},
                  {"name": "weighted", "p": 1, "weight": {"kind": "polynomial", "exponent": 2}},
                  {"name": "lemma31", "samples": 40}]
        scn = parse_scenario(dict(SQUARE_WELL_SCENARIO, checks=checks))
        first = run_scenario(scn)
        assert len(first["outcomes"]) == 3
        assert run_scenario(scn) == first

    @pytest.mark.parametrize("scenario, check, reason", [
        (HEALTHY_FREE, {"name": "local_lp", "p": 2000}, "2^p C^p/delta at p=2000 is not finite"),
        (HEALTHY_FREE, {"name": "derivative_lp", "p": 2000},
         "2^p C^p/delta at p=2000 is not finite"),
        (HEALTHY_FREE, {"name": "weighted", "p": 2000},
         "2^p C^p/delta B 2(K+delta) at p=2000 is not finite"),
        (HEALTHY_FREE, {"name": "weighted", "weight": {"kind": "exponential", "rate": 1e6}},
         "weight ratio bound is not finite"),
        (HEALTHY_FREE, {"name": "weighted", "weight": {"kind": "exponential", "rate": 700}},
         "weight ratio bound is not finite"),
        (HEALTHY_FREE, {"name": "weighted", "weight": {"kind": "exponential", "rate": 300}},
         "weight on the trace is not finite"),
        # |u| = cosh x reaches 1.1e4, so at p = 100 its power overflows, and
        # at p = 75 the constant times the integral of |u|^p
        (GROWING_FREE, {"name": "local_lp", "p": 100}, "|u|^p at p=100 is not finite"),
        (GROWING_FREE, {"name": "derivative_lp", "p": 100}, "|u'|^p at p=100 is not finite"),
        (GROWING_FREE, {"name": "weighted", "p": 100}, "|u|^p w at p=100 is not finite"),
        (GROWING_FREE, {"name": "local_lp", "p": 75},
         "2^p C^p/delta int |u|^p at p=75 is not finite"),
        (GROWING_FREE, {"name": "weighted", "p": 75},
         "2^p C^p/delta B 2(K+delta) int |u|^p w at p=75 is not finite"),
    ], ids=["local_lp", "derivative_lp", "weighted_p2000", "rate_1e6", "rate_700", "rate_300",
            "growing_local_lp", "growing_derivative_lp", "growing_weighted",
            "growing_local_lp_p75", "growing_weighted_p75"])
    def test_overflowing_constant_skips_its_check(self, scenario, check, reason):
        # the check lands in skipped, naming what overflows, and the rest of
        # the scenario runs; no RuntimeWarning escapes
        doc = {"scenarios": [dict(scenario, checks=[*scenario["checks"], check])]}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            entry = run_suite(doc).entries[0]
        assert entry["ok"] and [o["name"] for o in entry["outcomes"]] == [
            "derivative_bound", "persistence"]
        assert entry["skipped"] == [{"name": check["name"], "reason": reason}]

    def test_skippable_checks_reported_not_fatal(self):
        # K-interior empty on a short span: the check is skipped, suite still ok
        doc = {
            "scenarios": [
                {
                    "id": "short",
                    "potential": {"breakpoints": [0.0, 0.4], "values": [-1.0]},
                    "energy": 1.0,
                    "init": {"x0": 0.0, "u0": 1.0, "du0": 0.0},
                    "span": [0.0, 0.4],
                    "checks": [{"name": "derivative_bound"}],
                }
            ]
        }
        report = run_suite(doc)
        assert report.all_ok
        entry = report.entries[0]
        assert entry["outcomes"] == []
        assert entry["skipped"][0]["name"] == "derivative_bound"


class TestDeterminism:
    def test_default_suite_passes(self):
        report = run_suite(default_suite_path())
        assert report.all_ok
        by_id = {e["id"]: e for e in report.entries}
        assert not by_id["sin-no-decay"]["all_checks_pass"]
        assert by_id["sin-no-decay"]["ok"]

    def test_reports_byte_identical(self):
        r1 = run_suite(default_suite_path())
        r2 = run_suite(default_suite_path())
        assert r1.to_json(include_wall_time=False) == r2.to_json(include_wall_time=False)
        # wall time is the only nondeterministic field
        d1 = r1.to_json_dict()
        d2 = r1.to_json_dict(include_wall_time=False)
        assert set(d1) - set(d2) == {"wall_time_s"}

    def test_seedless_random_step_reads_seed_zero(self):
        # a random_step's seed defaults to 0, so a suite that names none
        # still gives the same report on every run
        scenario = {"id": "step", "potential": RANDOM_STEP, "energy": 1.0,
                    "span": [0.0, 3.0], "checks": [{"name": "local_lp", "p": 2}]}
        r1, r2 = (run_suite({"scenarios": [scenario]}) for _ in range(2))
        assert r1.to_json(include_wall_time=False) == r2.to_json(include_wall_time=False)
        V, W = parse_potential(RANDOM_STEP), parse_potential(dict(RANDOM_STEP, seed=0))
        assert V.breakpoints.tobytes() == W.breakpoints.tobytes()
        assert V.values.tobytes() == W.values.tobytes()

    def test_sweep_document_round_trip(self, tmp_path):
        # the sweep's document holds JSON values only, and verify --config on
        # it as a file gives the sweep's report
        doc = sweep_document(n_scenarios=3, seed=1)
        assert json.loads(json.dumps(doc)) == doc
        path = tmp_path / "sweep_suite.json"
        path.write_text(json.dumps(doc))
        expected = random_sweep(n_scenarios=3, seed=1).to_json(include_wall_time=False)
        assert run_suite(str(path)).to_json(include_wall_time=False) == expected

    def test_sweep_reports_match_across_processes(self, tmp_path):
        # two processes that hash strings differently write the same sweep
        # report through the -m entry point, and neither leaks a RuntimeWarning
        src = os.path.dirname(os.path.dirname(schro1d.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        reports = []
        for hash_seed in ("0", "1"):
            out = tmp_path / f"sweep_{hash_seed}.json"
            subprocess.run(
                [sys.executable, "-W", "error::RuntimeWarning", "-m", "schro1d.cli", "sweep",
                 "--n", "50", "--seed", "1", "--out", str(out)],
                env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path),
                check=True, capture_output=True)
            report = json.loads(out.read_text())
            report.pop("wall_time_s")
            reports.append(report)
        assert reports[0] == reports[1]

    def test_sweep_document_needs_a_family(self):
        with pytest.raises(ConfigError, match="need at least one family") as exc:
            sweep_document(families=())
        assert exc.value.path == "families"

    def test_entries_sorted_by_id(self):
        a = parse_scenario(dict(SQUARE_WELL_SCENARIO, id="zzz"))
        b = parse_scenario(dict(SQUARE_WELL_SCENARIO, id="aaa"))
        report = run_scenarios([a, b])
        assert [e["id"] for e in report.entries] == ["aaa", "zzz"]


class TestCli:
    def test_c1_json(self, tmp_path, capsys):
        cfg = tmp_path / "pot.json"
        cfg.write_text(json.dumps({"breakpoints": [0.0, 1.0], "values": [-4.0]}))
        assert main(["c1", "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["c1"] == pytest.approx(4.0)

    def test_solve_csv(self, tmp_path):
        cfg = tmp_path / "scn.json"
        cfg.write_text(json.dumps(SQUARE_WELL_SCENARIO))
        lines = _run_twice(tmp_path, "solve", "--config", str(cfg)).splitlines()
        assert lines[0] == "x,re_u,im_u,re_du,im_du"
        assert len(lines) > 100

    def test_verify_default_suite_exit_zero(self, tmp_path, capsys):
        # free-sin starts at u(0) = 0, where lemma31's phases must not warn
        out = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["verify", "--out", str(out)]) == 0
        assert "suite PASSED" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["all_ok"]

    def test_verify_unexpected_failure_exit_one(self, tmp_path, capsys):
        doc = {
            "scenarios": [
                dict(
                    SQUARE_WELL_SCENARIO,
                    checks=[{"name": "decay", "drop_factor": 5.0}],
                )
            ]
        }
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps(doc))
        assert main(["verify", "--config", str(cfg)]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_verify_writes_report_past_solver_error(self, tmp_path, capsys):
        # the kernels compute past the overflow guard, and no RuntimeWarning
        # escapes
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps({"scenarios": [HEALTHY_FREE, OVERFLOWING_FREE]}))
        out = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 1
        assert "error OverflowAtX: x=346.09" in capsys.readouterr().out
        healthy, failed = json.loads(out.read_text())["scenarios"]
        assert healthy["ok"] and healthy["outcomes"]
        assert failed["error"]["type"] == "OverflowAtX"

    def test_verify_bad_config_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert main(["verify", "--config", str(cfg)]) == 2
        assert main(["verify", "--config", str(tmp_path / "missing.json")]) == 2

    def test_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = main(
            ["sweep", "--n", "3", "--seed", "7", "--lemma-samples", "30",
             "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert len(report["scenarios"]) == 3

    def test_simon_stolz_csv(self, tmp_path):
        # a free cell, and a lattice of 5000 spike cells
        cfg = tmp_path / "pot.json"
        cfg.write_text(json.dumps({"breakpoints": [0.0, 1.0], "values": [0.0]}))
        lattice = tmp_path / "lattice.json"
        lattice.write_text(json.dumps({
            "potential": {"family": "spike_lattice", "span": 5.0, "cell": 0.001},
            "energy": 1.0, "x_max": 5.0, "step": 0.001}))
        for argv in (["--config", str(cfg), "--energy", "1.0", "--x-max", "4.0"],
                     ["--config", str(lattice)]):
            csv = _run_twice(tmp_path, "simon-stolz", *argv)
            assert csv.splitlines()[0] == "x,norm_T,integrand,cumulative"

    def test_prufer_csv(self, tmp_path):
        cfg = tmp_path / "scn.json"
        cfg.write_text(json.dumps(SQUARE_WELL_SCENARIO))
        csv = _run_twice(tmp_path, "prufer", "--config", str(cfg))
        assert csv.splitlines()[0] == "x,R,theta"

    def test_bad_option_is_config_error(self, tmp_path, capsys):
        # an option stands in for its config field and meets the same test
        scn = tmp_path / "scn.json"
        scn.write_text(json.dumps(SQUARE_WELL_SCENARIO))
        pot = tmp_path / "pot.json"
        pot.write_text(json.dumps({"breakpoints": [0.0, 1.0], "values": [0.0]}))
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"scenarios": [SQUARE_WELL_SCENARIO]}))
        for argv, path in (
            (["solve", "--config", str(scn), "--max-step", "nan"], "well.max_step"),
            (["prufer", "--config", str(scn), "--max-step", "-1"], "well.max_step"),
            (["simon-stolz", "--config", str(pot), "--x-max", "inf"], "x_max"),
            (["simon-stolz", "--config", str(pot), "--max-step", "0"], "step"),
            (["simon-stolz", "--config", str(pot), "--energy", "nan"], "energy"),
            (["verify", "--config", str(suite), "--c2-floor", "nan"], "c2_floor"),
            (["sweep", "--n", "1", "--max-step", "nan"], "sweep-000.max_step"),
            (["sweep", "--seed", "-1"], "seed"),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert main(argv) == 2, argv
            assert f"config error: {path}: bad " in capsys.readouterr().err
        assert main(["sweep", "--n", "2", "--lemma-samples", "0"]) == 2
        assert main(["sweep", "--n", "0"]) == 2
        assert "config error: scenarios: need at least one scenario" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["c1", "--config", str(pot), "--max-step", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["c1", "simon-stolz"])
    @pytest.mark.parametrize("doc, path", [
        ({"potential": SQUARE_WELL, "energy": 1.0, "x_max": 2.0, "step": 0.01}, None),
        (SQUARE_WELL | {"energy": 1.0, "x_max": 2.0, "step": 0.01}, None),
        ({"potential": SQUARE_WELL, "xmax": 2.0}, "xmax"),
        (SQUARE_WELL | {"dpeth": 4}, "potential.dpeth"),
    ], ids=["nested", "inline", "outer-key", "inline-key"])
    def test_potential_config_keys(self, tmp_path, capsys, command, doc, path):
        # the potential of a c1 or simon-stolz config is its "potential", or
        # the document less energy, x_max and step
        cfg = tmp_path / "pot.json"
        cfg.write_text(json.dumps(doc))
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        if path is None:
            assert code == 0
        else:
            assert code == 2
            assert f"config error: {path}: unknown key" in capsys.readouterr().err

    def test_prufer_rejects_complex_energy(self, tmp_path, capsys):
        cfg = tmp_path / "scn.json"
        cfg.write_text(json.dumps(dict(SQUARE_WELL_SCENARIO, energy={"re": 1, "im": 1})))
        assert main(["prufer", "--config", str(cfg)]) == 2
