"""Batch command-line front end.

Subcommands: ``simulate`` (integrate and dump time series plus conserved
monitor drifts), ``verify`` (run certificate suites), ``invariants``,
``casimirs``, and ``leaf-dims`` (single-state dumps).  One JSON config
document drives everything; a few flags override its fields.  Outputs are
deterministic: given the same config and seeds, re-runs are byte-identical.
The writers live in :mod:`symflow._io`; this module parses, resolves the
config and dispatches.

Exit codes: 0 success, 1 certificate failure, 2 config error (a config
that cannot be read or parsed, nesting past the parser's depth included; an
output path that cannot be created or written; sizes past the memory), 3
numerical abort.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .matrix_core import random_skew, random_sym, skew_matrix, sym_matrix
from .invariants import admissible_indices, gradient_table, invariant_count
from .poisson import (
    RankInstabilityError, SkewCanonicalForm, canonical_form, canonical_skew_matrix, leaf_dimensions,
    lie_poisson_casimirs,
)
from .dynamics import FlowDivergenceError, IntegratorConfig, integrate
from .verify import (
    ALL_SUITES, DEFAULT_TOLERANCES, certificates, expected_leaf_dimensions, integrability_summary,
)
from ._io import (
    _echo_config, _inv_label, _monitor_table, _write_csv, _write_json, _write_trajectory_csv,
    _write_trajectory_json,
)

INTEGRATOR_FIELDS = tuple(f.name for f in dataclasses.fields(IntegratorConfig))


class ConfigError(Exception):
    pass


@dataclasses.dataclass
class RunConfig:
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


def _object(value, name: str, fields) -> dict:
    """A JSON object with no keys outside ``fields``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {value!r}")
    unknown = [key for key in value if key not in fields]
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


def _tolerance(value, name: str) -> float:
    """A finite tolerance above zero, else a ConfigError."""
    number = _convert(real, value, name)
    if number <= 0:
        raise ConfigError(f"{name} must be > 0, got {number!r}")
    return number


#: How a config error names a JSON value that stands where a list was due.
_JSON_KINDS = {dict: "a JSON object", str: "a JSON string", bool: "a JSON boolean", int: "a JSON number",
               float: "a JSON number", type(None): "null"}


def _explicit_matrix(rows, name: str) -> np.ndarray:
    """A list of equally long rows whose every entry is a finite JSON number, as a float array."""
    for row in rows if isinstance(rows, list) else [rows]:
        if not isinstance(row, list):
            raise TypeError(f"rows must be JSON lists of numbers, got {_JSON_KINDS[type(row)]}")
    matrix = [[_convert(real, v, f"{name} entry") for v in row] for row in rows]
    if len({len(row) for row in matrix}) > 1:
        raise ValueError(f"rows have lengths {[len(row) for row in matrix]}")
    return np.asarray(matrix, dtype=float)


def _read_matrix(spec, name: str, n, seed, explicit, random, **kinds) -> np.ndarray:
    """The matrix ``name`` of a one-key ``{kind: payload}`` spec, else a ConfigError.

    ``explicit(array)`` validates the explicit rows, ``random(n, rng)`` draws from the seed, and ``kinds``
    maps any other kind to its payload's reader; a rejection reads ``<kind> <name> rejected:``.
    """
    readers = {**kinds, "explicit": lambda rows: explicit(_explicit_matrix(rows, f"explicit {name}"))}
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ConfigError(f"{name} must be an object with exactly one of: {', '.join([*readers, 'random'])}")
    kind, payload = next(iter(spec.items()))
    if kind in readers:
        try:
            return readers[kind](payload)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{kind} {name} rejected: {exc}") from exc
    if kind == "random":
        if n is None:
            raise ConfigError(f"random {name} needs the config field n")
        payload = _object(payload, f"random {name}", ("seed",))
        rng = np.random.default_rng(_integer(payload.get("seed", seed), f"random {name} field seed", 0))
        return random(n, rng)
    raise ConfigError(f"unknown {name} kind {kind!r}")


def _canonical_n(payload) -> np.ndarray:
    payload = _object(payload, "canonical N", ("v", "d"))
    freqs = payload.get("v") or []
    d = _integer(payload.get("d", 0), "canonical N field d", 0)
    if not freqs and d == 0:
        raise ConfigError("canonical N needs a frequency list v")
    return canonical_skew_matrix([_convert(real, v, "canonical N field v") for v in freqs], d)


def _build_n(spec, n_hint, seed) -> np.ndarray:
    if spec is None:
        raise ConfigError("config is missing N")
    return _read_matrix(spec, "N", n_hint, seed, skew_matrix, random_skew, canonical=_canonical_n)


def _build_x0(spec, n, seed) -> np.ndarray:
    if spec is None:
        spec = {"random": {"seed": seed}}
    x0 = _read_matrix(spec, "X0", n, seed, sym_matrix, random_sym)
    if x0.shape[0] != n:
        raise ConfigError(f"X0 size {x0.shape[0]} does not match n = {n}")
    return x0


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"config nests too deeply: {exc}") from exc


def resolve_config(raw: dict, args) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _object(raw, "config", ("n", "N", "X0", "integrator", "suites", "samples", "seed", "tolerances", "output"))
    seed = _integer(args.seed if args.seed is not None else raw.get("seed", 0), "seed", 0)
    n_hint = None if raw.get("n") is None else _integer(raw["n"], "n", 1)

    n_skew = _build_n(raw.get("N"), n_hint, seed)
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
        tolerances[key] = _tolerance(value, f"tolerance {key}")
    if args.tol is not None:
        tolerances["identity"] = _tolerance(args.tol, "--tol")
    if args.rank_tol is not None:
        tolerances["rank"] = _tolerance(args.rank_tol, "--rank-tol")

    output = _object(raw.get("output", {}), "output", ("dir", "formats"))
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
        n_skew=n_skew, x0=x0, integrator=integrator, suites=list(suites),
        samples=samples, seed=seed, tolerances=tolerances, out_dir=out_dir,
        formats=list(formats),
    )


def cmd_simulate(cfg: RunConfig) -> int:
    traj = integrate(cfg.x0, cfg.form, cfg.integrator)
    mon_header, mon_rows = _monitor_table(traj)
    if "csv" in cfg.formats:
        _write_trajectory_csv(cfg.out_dir / "trajectory.csv", traj.times, traj.states)
        _write_csv(cfg.out_dir / "monitors.csv", mon_header, mon_rows)
    if "json" in cfg.formats:
        _write_trajectory_json(cfg.out_dir / "trajectory.json", traj.times, traj.states)
        _write_json(cfg.out_dir / "monitors.json", {"header": mon_header, "rows": mon_rows})
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    failed = False
    outcomes = certificates(cfg.form, cfg.suites, cfg.samples, cfg.seed, cfg.tolerances)
    for name, cert in zip(cfg.suites, outcomes):
        if isinstance(cert, Exception):
            raise cert
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
    n = len(cfg.x0)
    keys = admissible_indices(n)
    values, gradients = gradient_table(cfg.x0, cfg.n_skew)
    if "csv" in cfg.formats:
        rows = [[k, two_r, value] for (k, two_r), value in zip(keys, values)]
        _write_csv(cfg.out_dir / "invariants.csv", ["k", "two_r", "value"], rows)
    labels = [_inv_label(key) for key in keys]
    payload = {
        "n": n,
        "count": len(keys),
        "count_expected": invariant_count(n),
        "values": dict(zip(labels, values)),
        "gradients": dict(zip(labels, gradients)),
    }
    _write_json(cfg.out_dir / "invariants.json", payload)
    return 0


def cmd_casimirs(cfg: RunConfig) -> int:
    form = cfg.form
    with np.errstate(over="ignore", invalid="ignore"):  # a value past the float range aborts, unwarned
        values = lie_poisson_casimirs(form, form.to_canonical(cfg.x0))
    if not np.isfinite(values).all():
        raise OverflowError(f"Casimir C_{int(np.isfinite(values).argmin()) + 1} passes the float range at X0")
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
        cfg = resolve_config(load_config(args.config), args)
        _echo_config(cfg)
        return COMMANDS[args.command](cfg)
    except (ConfigError, ValueError, MemoryError, OSError) as exc:
        # rejections of the resolved inputs (singular kernel block, inconsistent
        # sizes), sizes past the memory (n, a horizon, a sample count) and an
        # output path that cannot be created or written count as configuration errors
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
