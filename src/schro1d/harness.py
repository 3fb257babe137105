"""Scenario configuration, suite execution, and randomized sweeps.

A suite is one JSON document, such as sweep_document's: a list of scenarios,
each naming a potential, an energy, initial data, a span (default the
potential's support) and checks.  Every config value is read by _field
through one table, _FIELDS, a potential's entry of FAMILIES or CURVE_FIELDS;
a bad value, or a key its object does not read, is a ConfigError at its
path, such as <id>.potential.<key>.  Reports echo the exact constants used
per scenario so any failure is reproducible from the report alone.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .constants import constants_for
from .errors import (
    ConfigError,
    InadmissibleWeight,
    NoEligiblePoints,
    PreconditionFailed,
    Schro1dError,
    TraceTooShort,
)
from .potential import PiecewisePotential, c1_sup, random_step, spike_lattice, square_well
from .solver import InitialData, SolutionTrace, propagate_exact
from .verifier import (
    WeightSpec,
    check_decay,
    check_derivative_bound,
    check_derivative_lp,
    check_local_lp,
    check_persistence,
    check_weighted,
    sample_lemma31,
)

SKIPPABLE = (InadmissibleWeight, NoEligiblePoints, PreconditionFailed, TraceTooShort)


@dataclass
class Scenario:
    """One scenario of a suite, as parse_scenario reads it from its document:
    every field has passed its test in _FIELDS, and init.x0 is span[0]."""

    id: str
    potential: PiecewisePotential
    energy: complex
    init: InitialData
    span: tuple
    max_step: float
    checks: list
    seed: int
    expected: str  # "pass" or "expected_fail"


def _number(raw):
    """A JSON number as a float: a bool or a string is no number."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float, np.integer, np.floating)):
        raise TypeError(raw)
    return float(raw)


def _integer(raw):
    """A JSON number of integral value as an int."""
    if not _number(raw).is_integer():
        raise ValueError(raw)
    return int(raw)


def _complex(raw):
    """A number, [re, im] or {"re": re, "im": im} (each part default 0)."""
    if isinstance(raw, dict):
        raw = [raw.get("re", 0.0), raw.get("im", 0.0)]
    re, im = raw if isinstance(raw, list) else (raw, 0.0)
    return complex(_number(re), _number(im))


def _interval(raw):
    a, b = raw
    return _number(a), _number(b)


def _same(raw):
    return raw


def _positive(x):
    return 0.0 < x < math.inf


_C2_MAX = 0.5 / np.finfo(float).tiny  # the largest C2 whose delta does not underflow

# config field -> (default, conversion, test of the converted value).  The
# fields of a scenario, of its init object and of its check specs, and of the
# suite document; _field reads every one.
_FIELDS = {
    # suite
    "scenarios": (None, _same, lambda s: isinstance(s, list)),
    "c2_floor": (0.0, _number, lambda c: 0.0 <= c <= _C2_MAX),
    # scenario (an absent "span" is its potential's support); "seed" also of
    # the suite and, defaulting to the scenario's, of a lemma31 check
    "id": (None, _same, lambda s: isinstance(s, str) and s != ""),
    "energy": (0.0, _complex, lambda e: abs(e) <= _C2_MAX),
    "init": ({}, _same, lambda i: isinstance(i, dict)),
    "x0": (None, _number, math.isfinite),
    "u0": (1.0, _complex, cmath.isfinite),
    "du0": (0.0, _complex, cmath.isfinite),
    "span": (None, _interval, lambda s: -math.inf < s[0] < s[1] < math.inf),
    "max_step": (0.01, _number, _positive),
    "seed": (0, _integer, lambda s: s >= 0),
    "expected": ("pass", _same, lambda e: e in ("pass", "expected_fail")),
    "checks": ([], _same, lambda c: isinstance(c, list)),
    # potential: the entry of FAMILIES that reads its other fields
    "family": (None, _same, lambda f: f in FAMILIES),
    # check spec
    "name": (None, _same, lambda n: n in CHECKS),
    "p": (2, _number, lambda p: 1.0 <= p < math.inf),
    "weight": ({"kind": "exponential"}, lambda w: WeightSpec(**w),
               lambda w: w.kind in ("exponential", "polynomial")
               and math.isfinite(_number(w.rate)) and math.isfinite(_number(w.exponent))),
    "window": (None, lambda w: w if w in (None, []) else _interval(w),
               lambda w: not w or -math.inf < w[0] < w[1] < math.inf),
    "tail_fraction": (0.2, _number, lambda t: 0.0 < t < 0.5),
    "drop_factor": (10.0, _number, lambda d: d > 1.0),
    "samples": (100, _integer, lambda n: n >= 1),
    "max_gap": (1.5, _number, lambda g: 0.0 <= g < math.inf),
    "tolerance": (1e-6, _number, lambda t: 0.0 <= t < math.inf),
}

# potential family -> (builder, its fields in the builder's order, each as in
# _FIELDS); None, for no family, has explicit cells.  The builder tests what
# relates two fields: its ValueError is a ConfigError at the potential.
FAMILIES = {
    None: (PiecewisePotential, dict.fromkeys(("breakpoints", "values"), (
        None, lambda v: tuple(map(_number, v)), lambda v: all(map(math.isfinite, v))))),
    "square_well": (square_well, {"depth": (1.0, _number, math.isfinite),
                                  "width": (1.0, _number, _positive)}),
    "spike_lattice": (spike_lattice, {"g": (1.0, _number, lambda g: 0.0 <= g < math.inf),
                                      "period": (1.0, _number, _positive),
                                      "cap": (100.0, _number, _positive),
                                      "cell": (1e-3, _number, _positive),
                                      "span": (5.0, _number, _positive)}),
    "random_step": (random_step, {"cells": (20, _integer, lambda n: n >= 1),
                                  "low": (-2.0, _number, math.isfinite),
                                  "high": (2.0, _number, math.isfinite),
                                  "seed": _FIELDS["seed"],
                                  "min_width": (0.05, _number, _positive),
                                  "max_width": (0.5, _number, _positive)}),
}

# a simon-stolz config's fields in simon_stolz_curve's order; energy default 1
CURVE_FIELDS = {"energy": (1.0, *_FIELDS["energy"][1:]),
                "x_max": (10.0, _number, lambda x: 0.0 <= x < math.inf),
                "step": (1e-3, _number, _positive)}


def _field(obj, key, path="", fields=_FIELDS):
    """obj[key], or its default, converted and tested by fields[key]; a
    non-object obj is a ConfigError at path, a bad value one at path.key."""
    if not isinstance(obj, dict):
        raise ConfigError("must be an object", path)
    default, conversion, test = fields[key]
    raw = obj.get(key, default)
    try:
        value = conversion(raw)
        if test(value):
            return value
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"bad {key} {raw!r}", f"{path}.{key}" if path else key)


def _known(obj, keys, path=""):
    """A ConfigError at path.key for a key of the object obj not in keys."""
    for key in obj:
        if key not in keys:
            raise ConfigError(f"unknown key {key!r}", f"{path}.{key}" if path else key)


def parse_potential(obj, path="potential") -> PiecewisePotential:
    """Explicit {"breakpoints": [...], "values": [...]} or family shorthand
    {"family": "square_well", "depth": 2, "width": 3, ...}, each field read
    by _field through its FAMILIES entry."""
    build, fields = FAMILIES[_field(obj, "family", path)]
    _known(obj, ("family", *fields), path)
    args = [_field(obj, key, path, fields) for key in fields]
    try:
        return build(*args)
    except (ValueError, OverflowError) as err:
        raise ConfigError(str(err), path) from err


def make_family(kind, params) -> PiecewisePotential:
    """parse_potential of {"family": kind, **params}."""
    return parse_potential({**params, "family": kind})


def parse_scenario(obj, path="scenario") -> Scenario:
    """The Scenario of a scenario document.  A non-object document or a bad
    id is a ConfigError at path; once the id is read, every other error is
    at <id>.<key>, <id>.init.<key>, <id>.potential or <id>.potential.<key>."""
    sid = _field(obj, "id", path)
    _known(obj, Scenario.__dataclass_fields__, sid)
    init = _field(obj, "init", sid)
    _known(init, ("x0", "u0", "du0"), f"{sid}.init")
    potential = parse_potential(obj.get("potential", {}), f"{sid}.potential")
    span = _field(obj, "span", sid) if "span" in obj else potential.support
    if "x0" in init and _field(init, "x0", f"{sid}.init") != span[0]:
        raise ConfigError("init.x0 must equal span start", f"{sid}.init.x0")
    return Scenario(
        id=sid,
        potential=potential,
        energy=_field(obj, "energy", sid),
        init=InitialData(span[0], _field(init, "u0", f"{sid}.init"),
                         _field(init, "du0", f"{sid}.init")),
        span=span,
        max_step=_field(obj, "max_step", sid),
        checks=_field(obj, "checks", sid),
        seed=_field(obj, "seed", sid),
        expected=_field(obj, "expected", sid),
    )


def scenario_trace(scn: Scenario) -> SolutionTrace:
    return propagate_exact(scn.potential, scn.energy, scn.init, scn.span[1], scn.max_step)


def _weighted(trace, consts, scn, p, weight, window, tol):
    """check_weighted on `window`, by default the span less K + delta at
    each end; a span too short for that default skips the check."""
    if not window:
        half = consts.k_radius + consts.delta
        window = [scn.span[0] + half, scn.span[1] - half]
        if window[0] >= window[1]:
            raise TraceTooShort(f"span is shorter than 2(K + delta) = {2 * half:g}")
    return check_weighted(trace, consts, p, weight, window, tol)


# check name -> (the spec fields it reads, runner(trace, consts, scn, *fields,
# tolerance)).  Runners look the check up by its module-level name when they
# run, so a wrapper installed on this module sees every call.  The lemma31
# generator is made when its runner runs, so a scenario run twice draws the
# same; its seed defaults to the scenario's.
CHECKS = {
    "derivative_bound": ((), lambda tr, c, scn, tol: check_derivative_bound(tr, c, tol)),
    "persistence": ((), lambda tr, c, scn, tol: check_persistence(tr, c, tol)),
    "local_lp": (("p",), lambda tr, c, scn, p, tol: check_local_lp(tr, c, p, tol)),
    "derivative_lp": (("p",), lambda tr, c, scn, p, tol: check_derivative_lp(tr, c, p, tol)),
    "weighted": (("p", "weight", "window"), _weighted),
    "decay": (("tail_fraction", "drop_factor"),
              lambda tr, c, scn, tail, drop, tol: check_decay(tr, tail, drop, tol)),
    "lemma31": (("samples", "seed", "max_gap"),
                lambda tr, c, scn, n, seed, gap, tol: sample_lemma31(
                    tr, c, n, np.random.default_rng(seed), gap, tol)),
}


def _parse_check(spec, scn, path):
    """runner(trace, consts) of one check spec.  Every field the check reads
    is read here by _field: a bad one is a ConfigError at its path."""
    keys, run = CHECKS[_field(spec, "name", path)]
    _known(spec, ("name", *keys, "tolerance"), path)
    spec = {"seed": scn.seed, **spec}
    args = [_field(spec, key, path) for key in (*keys, "tolerance")]
    if "weight" in spec:  # a weight object reads its kind and that kind's one field
        w = spec["weight"]
        _known(w, ("kind", "rate" if w["kind"] == "exponential" else "exponent"),
               f"{path}.weight")
    return lambda trace, consts: run(trace, consts, scn, *args)


def run_scenario(scn: Scenario, c2_floor: float = 0.0) -> dict:
    """One report entry.  A solver error raised while computing the constants
    or the trace (a DegenerateConstants where C2 = 0 and no c2_floor lifts it,
    an OverflowAtX) makes an entry with ok false, the error and no outcomes,
    so the rest of the suite still runs; an error is never an expected
    failure.  Every check spec is parsed first, so a malformed check raises
    its ConfigError even where the trace fails."""
    runners = [_parse_check(spec, scn, f"{scn.id}.checks[{i}]")
               for i, spec in enumerate(scn.checks)]
    entry = {"id": scn.id, "expected": scn.expected, "constants": None,
             "described_interval": list(scn.potential.support)}
    profile = c1_sup(scn.potential)
    if profile.supremum + abs(scn.energy) > _C2_MAX:
        raise ConfigError(f"C1 + |E| exceeds {_C2_MAX:g}", f"{scn.id}.potential")
    try:
        consts = constants_for(profile.supremum, scn.energy, c2_floor)
        consts.validate()
        entry["constants"] = {**consts.to_dict(), "c1_argmax": profile.argmax}
        trace = scenario_trace(scn)
    except Schro1dError as err:
        error = {"type": type(err).__name__, "x": getattr(err, "x", None),
                 "magnitude": getattr(err, "magnitude", None)}
        return {**entry, "outcomes": [], "skipped": [], "all_checks_pass": False,
                "ok": False, "error": error}
    outcomes = []
    skipped = []
    for spec, run in zip(scn.checks, runners):
        try:
            outcomes.append(run(trace, consts))
        except SKIPPABLE as err:
            skipped.append({"name": spec["name"], "reason": str(err)})
    all_pass = all(o.passed for o in outcomes)
    ok = all_pass if scn.expected == "pass" else not all_pass
    return {
        **entry,
        "outcomes": [o.to_dict() for o in outcomes],
        "skipped": skipped,
        "all_checks_pass": all_pass,
        "ok": ok,
    }


@dataclass
class SuiteReport:
    version: str
    seed: int | None
    entries: list
    wall_time_s: float
    c2_floor: float = 0.0

    @property
    def all_ok(self) -> bool:
        return all(e["ok"] for e in self.entries)

    def to_json_dict(self, include_wall_time: bool = True) -> dict:
        d = {
            "tool_version": self.version,
            "corpus_seed": self.seed,
            "c2_floor": self.c2_floor,
            "all_ok": self.all_ok,
            "scenarios": self.entries,
        }
        if include_wall_time:
            d["wall_time_s"] = self.wall_time_s
        return d

    def to_json(self, include_wall_time: bool = True) -> str:
        return json.dumps(self.to_json_dict(include_wall_time), sort_keys=True, indent=2)


def run_scenarios(scenarios, c2_floor: float = 0.0, seed=None) -> SuiteReport:
    ids = [s.id for s in scenarios]
    if len(set(ids)) != len(ids):
        raise ConfigError("scenario ids must be unique", "scenarios")
    ordered = sorted(scenarios, key=lambda s: s.id)
    t0 = time.perf_counter()
    entries = [run_scenario(s, c2_floor) for s in ordered]
    wall = time.perf_counter() - t0
    return SuiteReport(__version__, seed, entries, wall, c2_floor)


def load_suite_config(config) -> dict:
    """A config document: a dict as it is, or the JSON object in a file."""
    if isinstance(config, dict):
        return config
    try:
        with open(config, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}", str(config)) from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"invalid JSON: {err}", str(config)) from err
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object", str(config))
    return doc


def run_suite(config, c2_floor=None) -> SuiteReport:
    """Execute a suite config (path or dict); deterministic given config+seeds.
    A c2_floor given here stands in for the document's."""
    doc = load_suite_config(config)
    if c2_floor is not None:
        doc = {**doc, "c2_floor": c2_floor}
    floor = _field(doc, "c2_floor")
    _known(doc, ("scenarios", "c2_floor", "seed"))
    scenarios = [parse_scenario(o, f"scenarios[{i}]")
                 for i, o in enumerate(_field(doc, "scenarios"))]
    return run_scenarios(scenarios, floor, seed=_field(doc, "seed") if "seed" in doc else None)


# the sweep's energies, one per round of the families
SWEEP_ENERGIES = (1.0, 4.0, 2.0 + 1.0j, -1.0 + 0.5j)

ALL_FAMILIES = ("square_well", "spike_lattice", "random_step")


def sweep_document(families=ALL_FAMILIES, n_scenarios: int = 50, seed: int = 1,
                   max_step: float = 0.01, lemma_samples: int = 1000) -> dict:
    """Deterministic suite document of random scenarios over the potential
    families, of JSON values only, so that verify --config runs it as a file.
    A span is left out: it is the potential's support."""
    if n_scenarios < 1:
        raise ConfigError("need at least one scenario", "scenarios")
    if not families:
        raise ConfigError("need at least one family", "families")
    seed = _field({"seed": seed}, "seed")
    rng = np.random.default_rng(seed)
    per_scn = math.ceil(lemma_samples / n_scenarios)
    scenarios = []
    for i in range(n_scenarios):
        fam = families[i % len(families)]
        energy = SWEEP_ENERGIES[(i // len(families)) % len(SWEEP_ENERGIES)]
        potential = {"family": fam}  # an unknown family is rejected by parse_potential
        if fam == "square_well":
            potential |= {"depth": round(float(rng.uniform(0.5, 4.0)), 3),
                          "width": round(float(rng.uniform(3.0, 6.0)), 3)}
        elif fam == "spike_lattice":
            potential |= {"g": round(float(rng.uniform(0.5, 7.0)), 3), "period": 1.0,
                          "cap": 100.0, "cell": 1e-3, "span": 5.0}
        elif fam == "random_step":
            potential |= {"cells": 30, "low": -3.0, "high": 3.0,
                          "seed": int(rng.integers(0, 2 ** 31))}
        u0 = round(float(rng.uniform(0.5, 1.5)), 6)
        du0 = [round(float(rng.uniform(-1.0, 1.0)), 6),
               round(float(rng.uniform(-0.5, 0.5)), 6) if energy.imag else 0.0]
        scenarios.append({
            "id": f"sweep-{i:03d}",
            "potential": potential,
            "energy": [energy.real, energy.imag],
            "init": {"u0": u0, "du0": du0},
            "max_step": max_step,
            "checks": [
                {"name": "derivative_bound"},
                {"name": "persistence"},
                {"name": "local_lp", "p": 1},
                {"name": "local_lp", "p": 2},
                {"name": "derivative_lp", "p": 1},
                {"name": "derivative_lp", "p": 2},
                {"name": "lemma31", "samples": per_scn, "seed": seed * 100003 + i},
            ],
            "seed": seed * 1000 + i,
        })
    return {"seed": seed, "scenarios": scenarios}


def sweep_scenarios(*args, **kwargs) -> list:
    """The Scenarios of sweep_document(*args, **kwargs), read by parse_scenario."""
    return [parse_scenario(o, o["id"]) for o in sweep_document(*args, **kwargs)["scenarios"]]


def random_sweep(*args, **kwargs) -> SuiteReport:
    """run_suite on sweep_document(*args, **kwargs); deterministic for fixed arguments."""
    return run_suite(sweep_document(*args, **kwargs))


def default_suite_path() -> str:
    return os.path.join(os.path.dirname(__file__), "data", "default_suite.json")
