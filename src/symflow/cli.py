"""Batch command-line front end.

Subcommands: ``simulate`` (integrate and dump time series plus conserved
monitor drifts), ``verify`` (run certificate suites), ``invariants``,
``casimirs``, and ``leaf-dims`` (single-state dumps).  One JSON config
document drives everything; a few flags override its fields.  Outputs are
deterministic: given the same config and seeds, re-runs are byte-identical.
The writers live in :mod:`symflow._io`; this module parses, resolves the
config and dispatches.

Exit codes: 0 success, 1 certificate failure, 2 config error (sizes past
the memory included), 3 numerical abort.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .matrix_core import random_skew, random_sym, skew_matrix, sym_matrix
from .invariants import gradient_table, invariant_count
from .poisson import (
    RankInstabilityError, SkewCanonicalForm, canonical_form, canonical_skew_matrix, leaf_dimensions,
    lie_poisson_casimirs,
)
from .dynamics import FlowDivergenceError, IntegratorConfig, integrate
from .verify import (
    casimir_certificate, expected_leaf_dimensions, independence_certificate, integrability_summary,
    involution_certificate, lax_certificate, leaf_dimension_certificate, member_certificates,
    recursion_certificate, sectional_certificate,
)
from ._io import (
    _echo_config, _inv_label, _monitor_table, _write_csv, _write_json, _write_trajectory_csv,
    _write_trajectory_json,
)

ALL_SUITES = (
    "involution",
    "independence",
    "casimir",
    "leaf_dims",
    "recursion",
    "lax",
    "sectional2x2",
)

#: The suites that read each draw's member gradients.
MEMBER_SUITES = ("involution", "independence")

DEFAULT_TOLERANCES = {
    "identity": 1e-10,
    "rank": 1e-9,
    "recursion": 1e-11,
    "lax": 1e-12,
    "casimir": 1e-11,
}

INTEGRATOR_FIELDS = ("step", "t_end", "scheme", "monitor_stride")


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    n: int
    n_skew: np.ndarray
    x0: np.ndarray
    integrator: IntegratorConfig
    suites: list
    samples: int
    seed: int
    tolerances: dict
    out_dir: Path
    formats: list

    @functools.cached_property
    def form(self) -> SkewCanonicalForm:
        """The canonical form of N at the rank tolerance, built on first use and kept."""
        return canonical_form(self.n_skew, self.tolerances["rank"])


def _object(value, name: str, fields=None) -> dict:
    """A JSON object, with no keys outside ``fields`` when that is given."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {value!r}")
    unknown = [] if fields is None else [key for key in value if key not in fields]
    if unknown:
        raise ConfigError(f"unknown {name} fields {unknown}; valid: {list(fields)}")
    return value


def _convert(cast, value, name: str):
    """cast(value), with a wrong type or value reported as a ConfigError."""
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be {cast.__name__}, got {value!r}") from exc


def integral(value) -> int:
    """A JSON number without a fractional part; booleans and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} has a fractional part")
    return int(value)


def real(value) -> float:
    """A finite JSON number as a float; booleans, strings, NaN and infinities are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    number = float(value)  # OverflowError for an integer beyond the float range
    if not math.isfinite(number):
        raise ValueError(f"{value!r} is not finite")
    return number


def _integer(value, name: str, minimum: int) -> int:
    """An integral config field of at least ``minimum``, else a ConfigError."""
    number = _convert(integral, value, name)
    if number < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {number}")
    return number


def _explicit_matrix(rows, name: str) -> np.ndarray:
    """A list of rows whose every entry is a finite JSON number, as a float array."""
    return np.asarray([[_convert(real, v, f"{name} entry") for v in row] for row in rows], dtype=float)


def _build_n(spec, n_hint, seed) -> np.ndarray:
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ConfigError("N must be an object with exactly one of: canonical, explicit, random")
    kind, payload = next(iter(spec.items()))
    if kind == "canonical":
        payload = _object(payload, "canonical N")
        freqs = payload.get("v") or []
        d = _integer(payload.get("d", 0), "canonical N field d", 0)
        if not freqs and d == 0:
            raise ConfigError("canonical N needs a frequency list v")
        try:
            return canonical_skew_matrix([_convert(real, v, "canonical N field v") for v in freqs], d)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"canonical N rejected: {exc}") from exc
    if kind == "explicit":
        try:
            return skew_matrix(_explicit_matrix(payload, "explicit N"))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"explicit N rejected: {exc}") from exc
    if kind == "random":
        if n_hint is None:
            raise ConfigError("random N needs the config field n")
        payload = _object(payload, "random N")
        rng = np.random.default_rng(_integer(payload.get("seed", seed), "random N field seed", 0))
        return random_skew(n_hint, rng)
    raise ConfigError(f"unknown N kind {kind!r}")


def _build_x0(spec, n, seed) -> np.ndarray:
    if spec is None:
        spec = {"random": {"seed": seed}}
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ConfigError("X0 must be an object with exactly one of: explicit, random")
    kind, payload = next(iter(spec.items()))
    if kind == "explicit":
        try:
            x0 = sym_matrix(_explicit_matrix(payload, "explicit X0"))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"explicit X0 rejected: {exc}") from exc
        if x0.shape[0] != n:
            raise ConfigError(f"X0 size {x0.shape[0]} does not match n = {n}")
        return x0
    if kind == "random":
        payload = _object(payload, "random X0")
        rng = np.random.default_rng(_integer(payload.get("seed", seed), "random X0 field seed", 0))
        return random_sym(n, rng)
    raise ConfigError(f"unknown X0 kind {kind!r}")


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def resolve_config(raw: dict, args) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    seed = _integer(args.seed if args.seed is not None else raw.get("seed", 0), "seed", 0)
    n_hint = None if raw.get("n") is None else _integer(raw["n"], "n", 1)

    n_spec = raw.get("N")
    if n_spec is None:
        raise ConfigError("config is missing N")
    n_skew = _build_n(n_spec, n_hint, seed)
    n = n_skew.shape[0]
    if n_hint is not None and n_hint != n:
        raise ConfigError(f"config n = {raw['n']} but N has size {n}")

    x0 = _build_x0(raw.get("X0"), n, seed)

    integ = _object(raw.get("integrator", {}), "integrator", INTEGRATOR_FIELDS)
    try:
        integrator = IntegratorConfig(
            step=_convert(real, integ.get("step", 1e-3), "integrator field step"),
            t_end=_convert(real, integ.get("t_end", 1.0), "integrator field t_end"),
            scheme=integ.get("scheme", "rk4"),
            monitor_stride=_integer(integ.get("monitor_stride", 10), "integrator field monitor_stride", 1),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad integrator config: {exc}") from exc

    suites = raw.get("suites", list(ALL_SUITES))
    if suites == "all":
        suites = list(ALL_SUITES)
    if not isinstance(suites, list):
        raise ConfigError(f'suites must be "all" or a list of suite names, got {suites!r}')
    bad = [s for s in suites if s not in ALL_SUITES]
    if bad:
        raise ConfigError(f"unknown suites {bad}; valid: {list(ALL_SUITES)}")

    tolerances = dict(DEFAULT_TOLERANCES)
    for key, value in _object(raw.get("tolerances", {}), "tolerances", DEFAULT_TOLERANCES).items():
        tolerances[key] = _convert(real, value, f"tolerance {key}")
    if args.tol is not None:
        tolerances["identity"] = _convert(real, args.tol, "--tol")
    if args.rank_tol is not None:
        tolerances["rank"] = _convert(real, args.rank_tol, "--rank-tol")

    output = _object(raw.get("output", {}), "output")
    out_dir = _convert(Path, args.out if args.out is not None else output.get("dir", "out"), "output dir")
    formats = output.get("formats", ["csv"])
    if args.format is not None:
        formats = [args.format]
    if not isinstance(formats, list):
        raise ConfigError(f"output formats must be a list, got {formats!r}")
    bad = [f for f in formats if f not in ("csv", "json")]
    if bad:
        raise ConfigError(f"unknown formats {bad}")

    samples = _integer(raw.get("samples", 20), "samples", 1)

    return RunConfig(
        n=n, n_skew=n_skew, x0=x0, integrator=integrator, suites=list(suites),
        samples=samples, seed=seed, tolerances=tolerances, out_dir=out_dir,
        formats=list(formats),
    )


def cmd_simulate(cfg: RunConfig) -> int:
    _echo_config(cfg)
    traj = integrate(cfg.x0, cfg.form, cfg.integrator)
    mon_header, mon_rows = _monitor_table(traj)
    if "csv" in cfg.formats:
        _write_trajectory_csv(cfg.out_dir / "trajectory.csv", traj.times, traj.states)
        _write_csv(cfg.out_dir / "monitors.csv", mon_header, mon_rows)
    if "json" in cfg.formats:
        _write_trajectory_json(cfg.out_dir / "trajectory.json", traj.times, traj.states)
        _write_json(cfg.out_dir / "monitors.json", {"header": mon_header, "rows": mon_rows})
    return 0


def _run_suite(name: str, cfg: RunConfig):
    form, tol = cfg.form, cfg.tolerances
    if name == "involution":
        return involution_certificate(form, cfg.samples, cfg.seed, tol=tol["identity"])
    if name == "independence":
        return independence_certificate(form, cfg.samples, seed=cfg.seed)
    if name == "casimir":
        return casimir_certificate(form, cfg.samples, cfg.seed, tol=tol["casimir"])
    if name == "leaf_dims":
        return leaf_dimension_certificate(form, min(cfg.samples, 5), cfg.seed)
    if name == "recursion":
        return recursion_certificate(form, cfg.samples, cfg.seed, tol=tol["recursion"])
    if name == "lax":
        return lax_certificate(form, cfg.samples, cfg.seed, tol=tol["lax"])
    if name == "sectional2x2":
        return sectional_certificate(max(cfg.samples, 1000), cfg.seed)
    raise ConfigError(f"unknown suite {name!r}")


def cmd_verify(cfg: RunConfig) -> int:
    _echo_config(cfg)
    failed = False
    # with both member suites, one pass over the draws serves them; each
    # outcome is used, or its exception raised, at the suite's own turn
    shared = set(MEMBER_SUITES) <= set(cfg.suites)
    outcomes = None
    for name in cfg.suites:
        if shared and name in MEMBER_SUITES:
            if outcomes is None:
                outcomes = member_certificates(
                    cfg.form, cfg.samples, cfg.seed, tol=cfg.tolerances["identity"])
            cert = outcomes[name]
            if isinstance(cert, Exception):
                raise cert
        else:
            cert = _run_suite(name, cfg)
        payload = cert.to_dict()
        payload["verdict"] = (
            "not assessed" if cert.passed is None else ("pass" if cert.passed else "fail")
        )
        if name == "independence":
            payload["summary"] = integrability_summary(cfg.form).to_dict()
        _write_json(cfg.out_dir / f"certificate_{name}.json", payload)
        if cert.passed is False:
            failed = True
    return 1 if failed else 0


def cmd_invariants(cfg: RunConfig) -> int:
    _echo_config(cfg)
    table = gradient_table(cfg.x0, cfg.n_skew)
    keys = table.keys()
    rows = [[k, two_r, table.values[(k, two_r)]] for (k, two_r) in keys]
    if "csv" in cfg.formats:
        _write_csv(cfg.out_dir / "invariants.csv", ["k", "two_r", "value"], rows)
    payload = {
        "n": cfg.n,
        "count": len(keys),
        "count_expected": invariant_count(cfg.n),
        "values": {_inv_label(k): table.values[k] for k in keys},
        "gradients": {_inv_label(k): table.gradients[k] for k in keys},
    }
    _write_json(cfg.out_dir / "invariants.json", payload)
    return 0


def cmd_casimirs(cfg: RunConfig) -> int:
    _echo_config(cfg)
    form = cfg.form
    values = lie_poisson_casimirs(form, form.to_canonical(cfg.x0))
    payload = {
        "n": form.n, "p": form.p, "d": form.d,
        "frequency_mode": form.mode(),
        "lie_poisson_values": {f"C_{i + 1}": float(v) for i, v in enumerate(values)},
        "frozen_count": form.casimir_counts()[1],
    }
    _write_json(cfg.out_dir / "casimirs.json", payload)
    if "csv" in cfg.formats:
        rows = [[i + 1, v] for i, v in enumerate(values)]
        _write_csv(cfg.out_dir / "casimirs.csv", ["index", "value"], rows)
    return 0


def cmd_leaf_dims(cfg: RunConfig) -> int:
    _echo_config(cfg)
    form = cfg.form
    dim_lp, dim_frozen = leaf_dimensions(form, cfg.x0)
    expected_lp, expected_frozen = expected_leaf_dimensions(form)
    payload = {
        "n": form.n, "p": form.p, "d": form.d,
        "frequency_mode": form.mode(),
        "lie_poisson_dim": dim_lp,
        "frozen_dim": dim_frozen,
        "lie_poisson_expected": expected_lp,
        "frozen_expected": expected_frozen,
    }
    _write_json(cfg.out_dir / "leaf_dims.json", payload)
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "invariants": cmd_invariants,
    "casimirs": cmd_casimirs,
    "leaf-dims": cmd_leaf_dims,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="symflow",
        description="Simulate and verify the isospectral flow dX/dt = [X^2, N] on symmetric matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "integrate the flow and dump time series with drift monitors"),
        ("verify", "run certificate suites and write one report per suite"),
        ("invariants", "dump conserved-family values and gradients at X0"),
        ("casimirs", "dump Casimir values and family counts at X0"),
        ("leaf-dims", "numerical symplectic-leaf dimensions at X0"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="base RNG seed (overrides config)")
        p.add_argument("--tol", type=float, default=None, help="identity-residual tolerance override")
        p.add_argument("--rank-tol", dest="rank_tol", type=float, default=None,
                       help="relative rank tolerance override")
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="restrict time-series output to one format")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](resolve_config(load_config(args.config), args))
    except (ConfigError, ValueError, MemoryError) as exc:
        # rejections of the resolved inputs (singular kernel block, inconsistent
        # sizes) and sizes past the memory (n, a horizon, a sample count) count
        # as configuration errors
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RankInstabilityError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (FlowDivergenceError, ArithmeticError) as exc:
        # a non-finite state, a value past the float range, a broken structural zero
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
