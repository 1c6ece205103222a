"""Batch command-line front end.

Subcommands: ``simulate`` (integrate and dump time series plus conserved
monitor drifts), ``verify`` (run certificate suites), ``invariants``,
``casimirs``, and ``leaf-dims`` (single-state dumps).  One JSON config
document drives everything; a few flags override its fields.  Outputs are
deterministic: given the same config and seeds, re-runs are byte-identical.

Exit codes: 0 success, 1 certificate failure, 2 config error, 3 numerical
abort.
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
    RankInstabilityError,
    SkewCanonicalForm,
    canonical_form,
    canonical_skew_matrix,
    frozen_casimir_gradients,
    leaf_dimensions,
    lie_poisson_casimirs,
)
from .dynamics import FlowDivergenceError, IntegratorConfig, Trajectory, integrate
from .verify import (
    casimir_certificate,
    independence_certificate,
    integrability_summary,
    involution_certificate,
    lax_certificate,
    leaf_dimension_certificate,
    recursion_certificate,
    sectional_certificate,
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

DEFAULT_TOLERANCES = {
    "identity": 1e-10,
    "rank": 1e-9,
    "recursion": 1e-11,
    "lax": 1e-12,
    "casimir": 1e-11,
}


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


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {value!r}")
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

    integ = _object(raw.get("integrator", {}), "integrator")
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
    for key, value in _object(raw.get("tolerances", {}), "tolerances").items():
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


def _write_csv(path: Path, header: list, rows) -> None:
    """Write rows as "%.16e" CSV; columns whose float64 bytes agree in every row are formatted once."""
    table = np.asarray(rows, dtype=np.float64)
    if table.ndim == 1:  # a flat sequence is one column; an empty one writes the header only
        table = table[:, None]
    # equal bits give equal text: slot[j] numbers the bit pattern of column
    # j, picks[k] is the first column of slot k, and each row formats only
    # the picked columns and copies each text to every column of its slot
    seen, picks, slot = {}, [], []
    for j, column in enumerate(table.T):
        k = seen.setdefault(column.tobytes(), len(picks))
        if k == len(picks):
            picks.append(j)
        slot.append(k)
    picks = np.array(picks, dtype=np.intp)
    fmt = ",".join(["%.16e"] * len(picks))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in table:
            texts = (fmt % tuple(row[picks])).split(",")
            fh.write(",".join([texts[k] for k in slot]) + "\n")


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _echo_config(cfg: RunConfig) -> None:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(cfg.out_dir / "runconfig.json", {
        "n": cfg.n,
        "N": cfg.n_skew.tolist(),
        "X0": cfg.x0.tolist(),
        "integrator": {
            "step": cfg.integrator.step,
            "t_end": cfg.integrator.t_end,
            "scheme": cfg.integrator.scheme,
            "monitor_stride": cfg.integrator.monitor_stride,
        },
        "suites": cfg.suites,
        "samples": cfg.samples,
        "seed": cfg.seed,
        "tolerances": cfg.tolerances,
        "output": {"dir": str(cfg.out_dir), "formats": cfg.formats},
    })


def _inv_label(key) -> str:
    return f"h_{key[0]}_{key[1]}"


def _monitor_table(traj: Trajectory):
    inv_labels = [_inv_label(k) for k in traj.invariant_labels]
    cas_labels = [f"C_{i + 1}" for i in range(traj.casimir_values.shape[1])]
    eig_labels = [f"eig_{i + 1}" for i in range(traj.spectra.shape[1])]
    header = (["t"] + inv_labels + cas_labels + eig_labels
              + [f"drift_{name}" for name in inv_labels + cas_labels + eig_labels])
    blocks = np.hstack([traj.invariant_values, traj.casimir_values, traj.spectra])
    drifts = np.hstack([traj.invariant_drift(), traj.casimir_drift(), traj.spectrum_drift()])
    rows = np.hstack([traj.monitor_times[:, None], blocks, drifts])
    return header, rows


def cmd_simulate(cfg: RunConfig) -> int:
    _echo_config(cfg)
    traj = integrate(cfg.x0, cfg.n_skew, cfg.integrator, rank_tol=cfg.tolerances["rank"])
    n = cfg.n
    state_header = ["t"] + [f"X_{i}_{j}" for i in range(n) for j in range(n)]
    state_rows = np.hstack([traj.times[:, None], traj.states.reshape(len(traj.times), -1)])
    mon_header, mon_rows = _monitor_table(traj)
    if "csv" in cfg.formats:
        _write_csv(cfg.out_dir / "trajectory.csv", state_header, state_rows)
        _write_csv(cfg.out_dir / "monitors.csv", mon_header, mon_rows)
    if "json" in cfg.formats:
        _write_json(cfg.out_dir / "trajectory.json", {
            "times": traj.times.tolist(),
            "states": traj.states.tolist(),
        })
        _write_json(cfg.out_dir / "monitors.json", {
            "header": mon_header,
            "rows": mon_rows.tolist(),
        })
    return 0


def _run_suite(name: str, cfg: RunConfig, form: SkewCanonicalForm):
    tol = cfg.tolerances
    if name == "involution":
        return involution_certificate(form, cfg.samples, cfg.seed, tol=tol["identity"])
    if name == "independence":
        return independence_certificate(form, cfg.samples, rank_tol=tol["rank"], seed=cfg.seed)
    if name == "casimir":
        return casimir_certificate(form, cfg.samples, cfg.seed, tol=tol["casimir"], rank_tol=tol["rank"])
    if name == "leaf_dims":
        return leaf_dimension_certificate(form, min(cfg.samples, 5), cfg.seed, rank_tol=tol["rank"])
    if name == "recursion":
        return recursion_certificate(form, cfg.samples, cfg.seed, tol=tol["recursion"])
    if name == "lax":
        return lax_certificate(form, cfg.samples, cfg.seed, tol=tol["lax"])
    if name == "sectional2x2":
        return sectional_certificate(max(cfg.samples, 1000), cfg.seed)
    raise ConfigError(f"unknown suite {name!r}")


def cmd_verify(cfg: RunConfig) -> int:
    _echo_config(cfg)
    form = canonical_form(cfg.n_skew, cfg.tolerances["rank"])
    failed = False
    for name in cfg.suites:
        cert = _run_suite(name, cfg, form)
        payload = cert.to_dict()
        payload["verdict"] = (
            "not assessed" if cert.passed is None else ("pass" if cert.passed else "fail")
        )
        if name == "independence":
            payload["summary"] = integrability_summary(form).to_dict()
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
        "gradients": {_inv_label(k): table.gradients[k].tolist() for k in keys},
    }
    _write_json(cfg.out_dir / "invariants.json", payload)
    return 0


def cmd_casimirs(cfg: RunConfig) -> int:
    _echo_config(cfg)
    form = canonical_form(cfg.n_skew, cfg.tolerances["rank"])
    values = lie_poisson_casimirs(form, form.to_canonical(cfg.x0))
    mode = form.mode()
    frozen_count = None
    if mode in ("distinct", "equal"):
        frozen_count = len(frozen_casimir_gradients(form, mode))
    payload = {
        "n": form.n, "p": form.p, "d": form.d,
        "frequency_mode": mode,
        "lie_poisson_values": {f"C_{i + 1}": float(v) for i, v in enumerate(values)},
        "frozen_count": frozen_count,
    }
    _write_json(cfg.out_dir / "casimirs.json", payload)
    if "csv" in cfg.formats:
        rows = [[i + 1, v] for i, v in enumerate(values)]
        _write_csv(cfg.out_dir / "casimirs.csv", ["index", "value"], rows)
    return 0


def cmd_leaf_dims(cfg: RunConfig) -> int:
    _echo_config(cfg)
    form = canonical_form(cfg.n_skew, cfg.tolerances["rank"])
    dim_lp, dim_frozen = leaf_dimensions(form, cfg.x0, cfg.tolerances["rank"])
    mode = form.mode()
    expected_frozen = {
        "distinct": 2 * form.p * (form.p + form.d),
        "equal": form.p * (form.p + 1 + 2 * form.d),
    }.get(mode)
    payload = {
        "n": form.n, "p": form.p, "d": form.d,
        "frequency_mode": mode,
        "lie_poisson_dim": dim_lp,
        "frozen_dim": dim_frozen,
        "lie_poisson_expected": 2 * form.p * (form.p + form.d),
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return COMMANDS[args.command](cfg)
    except (ConfigError, ValueError) as exc:
        # library-level rejections of the resolved inputs (singular kernel
        # block, inconsistent sizes) count as configuration errors
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RankInstabilityError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except FlowDivergenceError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
