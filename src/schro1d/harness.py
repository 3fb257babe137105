"""Scenario configuration, suite execution, and randomized sweeps.

A suite is one JSON document: a list of scenarios, each naming a potential
(explicit cells or family shorthand), an energy, initial data, a span, and a
list of checks.  Reports echo the exact constants used per scenario so any
failure is reproducible from the report alone.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .constants import Energy, constants_for
from .errors import (
    ConfigError,
    DegenerateConstants,
    NoEligiblePoints,
    PreconditionFailed,
    Schro1dError,
    TraceTooShort,
)
from .potential import PiecewisePotential, c1_sup, make_family
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

SKIPPABLE = (NoEligiblePoints, PreconditionFailed, TraceTooShort)


@dataclass
class Scenario:
    id: str
    potential: PiecewisePotential
    energy: Energy
    init: InitialData
    span: tuple
    max_step: float
    checks: list
    seed: int = 0
    expected: str = "pass"  # or "expected_fail"

    def __post_init__(self):
        if self.expected not in ("pass", "expected_fail"):
            raise ConfigError(f"bad expected value {self.expected!r}", f"{self.id}.expected")
        if not 0 < self.max_step < math.inf:
            raise ConfigError("max_step must be positive and finite", f"{self.id}.max_step")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative", f"{self.id}.seed")
        a, b = self.span
        if not (math.isfinite(a) and math.isfinite(b)) or a >= b:
            raise ConfigError("span must be a nonempty finite interval", f"{self.id}.span")
        if self.init.x0 != a:
            raise ConfigError("init.x0 must equal span start", f"{self.id}.init.x0")


def _parse_complex(obj, path):
    try:
        if isinstance(obj, dict):
            return complex(float(obj.get("re", 0.0)), float(obj.get("im", 0.0)))
        if isinstance(obj, (list, tuple)):
            re, im = obj
            return complex(float(re), float(im))
        return complex(obj)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad complex value {obj!r}", path) from err


def _parse_number(obj, key, default, kind, path):
    raw = obj.get(key, default)
    try:
        return kind(raw)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"bad {key} {raw!r}", f"{path}.{key}") from None


def parse_potential(obj, path="potential") -> PiecewisePotential:
    """Explicit {"breakpoints": [...], "values": [...]} or family shorthand
    {"family": "square_well", "depth": 2, "width": 3, ...}."""
    if not isinstance(obj, dict):
        raise ConfigError("potential must be an object", path)
    try:
        if "family" in obj:
            params = {k: v for k, v in obj.items() if k != "family"}
            return make_family(obj["family"], params, params.get("seed"))
        return PiecewisePotential(tuple(obj["breakpoints"]), tuple(obj["values"]))
    except (KeyError, ValueError, TypeError) as err:
        raise ConfigError(str(err), path) from err


def parse_scenario(obj, path="scenario") -> Scenario:
    if not isinstance(obj, dict):
        raise ConfigError("scenario must be an object", path)
    try:
        sid = str(obj["id"])
    except KeyError:
        raise ConfigError("missing id", path) from None
    pot = parse_potential(obj.get("potential", {}), f"{path}.potential")
    energy = Energy.of(_parse_complex(obj.get("energy", 0.0), f"{path}.energy"))
    init_obj = obj.get("init", {})
    try:
        init = InitialData(
            float(init_obj.get("x0", obj.get("span", [0, 1])[0])),
            _parse_complex(init_obj.get("u0", 1.0), f"{path}.init.u0"),
            _parse_complex(init_obj.get("du0", 0.0), f"{path}.init.du0"),
        )
    except ValueError as err:
        raise ConfigError(str(err), f"{path}.init") from err
    try:
        span = tuple(float(v) for v in obj["span"])
    except (KeyError, TypeError, ValueError):
        raise ConfigError("span must be [a, b]", f"{path}.span") from None
    checks = obj.get("checks", [])
    if not isinstance(checks, list):
        raise ConfigError("checks must be a list", f"{path}.checks")
    return Scenario(
        id=sid,
        potential=pot,
        energy=energy,
        init=init,
        span=span,
        max_step=_parse_number(obj, "max_step", 0.01, float, path),
        checks=checks,
        seed=_parse_number(obj, "seed", 0, int, path),
        expected=str(obj.get("expected", "pass")),
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
# same.
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
                    tr, c, n, np.random.default_rng(scn.seed if seed is None else seed),
                    gap, tol)),
}

# spec field -> (default, conversion, test of the converted value)
_FIELDS = {
    "p": (2, float, lambda p: 1.0 <= p < math.inf),
    "weight": ({"kind": "exponential"}, lambda w: WeightSpec(**w),
               lambda w: w.kind in ("exponential", "polynomial")
               and math.isfinite(w.rate) and math.isfinite(w.exponent)),
    "window": (None, lambda w: w and [float(v) for v in w],
               lambda w: not w or len(w) == 2 and -math.inf < w[0] < w[1] < math.inf),
    "tail_fraction": (0.2, float, lambda t: 0.0 < t < 0.5),
    "drop_factor": (10.0, float, lambda d: d > 1.0),
    "samples": (100, int, lambda n: n >= 1),
    "seed": (None, lambda s: s if s is None else int(s), lambda s: s is None or s >= 0),
    "max_gap": (1.5, float, lambda g: 0.0 <= g < math.inf),
    "tolerance": (1e-6, float, lambda t: 0.0 <= t < math.inf),
}


def _parse_check(spec, scn, path):
    """runner(trace, consts) of one check spec.  Every field the check reads
    is converted and tested here: a bad one is a ConfigError at its path."""
    name = spec.get("name") if isinstance(spec, dict) else None
    if not isinstance(name, str) or name not in CHECKS:
        raise ConfigError(f"unknown check {name!r}", path)
    keys, run = CHECKS[name]
    args = []
    for key in (*keys, "tolerance"):
        default, kind, ok = _FIELDS[key]
        raw = spec.get(key, default)
        try:
            args.append(kind(raw))
            valid = ok(args[-1])
        except (TypeError, ValueError, OverflowError):
            valid = False
        if not valid:
            raise ConfigError(f"bad {key} {raw!r}", f"{path}.{key}")
    return lambda trace, consts: run(trace, consts, scn, *args)


def run_scenario(scn: Scenario, c2_floor: float = 0.0) -> dict:
    """One report entry.  A solver error raised while computing the constants
    or the trace (any Schro1dError but a ConfigError, or a DegenerateConstants,
    whose escape is the suite-wide C2 floor) makes an entry with ok false, the
    error and no outcomes, so the rest of the suite still runs; an error is
    never an expected failure.  Every check spec is parsed first, so a
    malformed check raises its ConfigError even where the trace fails."""
    runners = [_parse_check(spec, scn, f"{scn.id}.checks[{i}]")
               for i, spec in enumerate(scn.checks)]
    entry = {"id": scn.id, "expected": scn.expected, "constants": None,
             "described_interval": list(scn.potential.support)}
    try:
        profile = c1_sup(scn.potential)
        consts = constants_for(profile.supremum, scn.energy, c2_floor)
        consts.validate()
        entry["constants"] = {**consts.to_dict(), "c1_argmax": profile.argmax}
        trace = scenario_trace(scn)
    except (ConfigError, DegenerateConstants):
        raise
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
    if isinstance(config, dict):
        return config
    try:
        with open(config, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}", str(config)) from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"invalid JSON: {err}", str(config)) from err


def run_suite(config, c2_floor=None) -> SuiteReport:
    """Execute a suite config (path or dict); deterministic given config+seeds."""
    doc = load_suite_config(config)
    if not isinstance(doc, dict) or "scenarios" not in doc:
        raise ConfigError("config must be an object with a 'scenarios' list")
    raw = doc["scenarios"]
    if not isinstance(raw, list):
        raise ConfigError("'scenarios' must be a list", "scenarios")
    scenarios = [parse_scenario(o, f"scenarios[{i}]") for i, o in enumerate(raw)]
    floor = float(doc.get("c2_floor", 0.0)) if c2_floor is None else float(c2_floor)
    return run_scenarios(scenarios, floor, seed=doc.get("seed"))


DEFAULT_ENERGY_GRID = (
    Energy(1.0, 0.0),
    Energy(4.0, 0.0),
    Energy(2.0, 1.0),
    Energy(-1.0, 0.5),
)

ALL_FAMILIES = ("square_well", "spike_lattice", "random_step")


def sweep_scenarios(
    families=ALL_FAMILIES,
    n_scenarios: int = 50,
    energy_grid=DEFAULT_ENERGY_GRID,
    seed: int = 1,
    max_step: float = 0.01,
    lemma_samples: int = 1000,
) -> list:
    """Deterministic corpus of random scenarios over the potential families."""
    if n_scenarios < 1:
        raise ValueError("need at least one scenario")
    families = tuple(families)
    energy_grid = tuple(Energy.of(e) for e in energy_grid)
    for e in energy_grid:
        if e.modulus == 0.0:
            raise ValueError("energy grid must avoid E = 0 for zero potentials")
    rng = np.random.default_rng(seed)
    per_scn = max(1, int(math.ceil(lemma_samples / n_scenarios)))
    scenarios = []
    for i in range(n_scenarios):
        fam = families[i % len(families)]
        energy = energy_grid[(i // len(families)) % len(energy_grid)]
        if fam == "square_well":
            params = {
                "depth": round(float(rng.uniform(0.5, 4.0)), 3),
                "width": round(float(rng.uniform(3.0, 6.0)), 3),
            }
        elif fam == "spike_lattice":
            params = {
                "g": round(float(rng.uniform(0.5, 7.0)), 3),
                "period": 1.0,
                "cap": 100.0,
                "cell": 1e-3,
                "span": 5.0,
            }
        elif fam == "random_step":
            params = {
                "cells": 30,
                "low": -3.0,
                "high": 3.0,
                "seed": int(rng.integers(0, 2 ** 31)),
            }
        else:
            raise ValueError(f"unknown family {fam!r}")
        pot = make_family(fam, params)
        a, b = pot.support
        real_energy = energy.im == 0.0
        u0 = complex(round(float(rng.uniform(0.5, 1.5)), 6), 0.0)
        du0 = complex(round(float(rng.uniform(-1.0, 1.0)), 6), 0.0)
        if not real_energy:
            du0 += 1j * round(float(rng.uniform(-0.5, 0.5)), 6)
        checks = [
            {"name": "derivative_bound"},
            {"name": "persistence"},
            {"name": "local_lp", "p": 1},
            {"name": "local_lp", "p": 2},
            {"name": "derivative_lp", "p": 1},
            {"name": "derivative_lp", "p": 2},
            {"name": "lemma31", "samples": per_scn, "seed": seed * 100003 + i},
        ]
        scenarios.append(
            Scenario(
                id=f"sweep-{i:03d}",
                potential=pot,
                energy=energy,
                init=InitialData(a, u0, du0),
                span=(a, b),
                max_step=max_step,
                checks=checks,
                seed=seed * 1000 + i,
            )
        )
    return scenarios


def random_sweep(
    families=ALL_FAMILIES,
    n_scenarios: int = 50,
    energy_grid=DEFAULT_ENERGY_GRID,
    seed: int = 1,
    max_step: float = 0.01,
    lemma_samples: int = 1000,
) -> SuiteReport:
    """Randomized corroboration sweep; deterministic for fixed arguments."""
    scenarios = sweep_scenarios(
        families, n_scenarios, energy_grid, seed, max_step, lemma_samples
    )
    return run_scenarios(scenarios, seed=seed)


def default_suite_path() -> str:
    return os.path.join(os.path.dirname(__file__), "data", "default_suite.json")
