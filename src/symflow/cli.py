"""Batch command-line front end.

Subcommands: ``simulate`` (integrate and dump time series plus conserved
monitor drifts), ``verify`` (run certificate suites), ``invariants``,
``casimirs``, and ``leaf-dims`` (single-state dumps).  One JSON config
document drives everything; a few flags override its fields.  Outputs are
deterministic: given the same config and seeds, re-runs are byte-identical.
JSON files have ``json.dump(indent=2, sort_keys=True)``'s layout, and
trajectory.csv formats the upper triangle of each exactly symmetric state.

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
from .invariants import admissible_indices, gradient_table, invariant_count
from .poisson import (
    RankInstabilityError,
    SkewCanonicalForm,
    canonical_form,
    canonical_skew_matrix,
    leaf_dimensions,
    lie_poisson_casimirs,
)
from .dynamics import FlowDivergenceError, IntegratorConfig, Trajectory, integrate
from .verify import (
    casimir_certificate,
    expected_leaf_dimensions,
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


#: Rows the CSV writer formats at a time; keeps its transient buffers near half a megabyte.
CSV_CHUNK_ROWS = 64

#: Bytes of one formatted cell: six words hold the longest "%.16e" text,
#: "-1.0000000000000000e+308", and a seventh, left NUL, the CSV separator.
_CELL = 28


def _words(text: bytes) -> np.ndarray:
    """The four-byte groups of an ASCII text as native uint32 words."""
    return np.frombuffer(text, dtype=np.uint32).copy()


# The text of the exact path is six words: NUL, sign or NUL, leading digit
# and "."; four words of four digits; "e", exponent sign and two exponent
# digits.  NUL bytes are padding and never reach the file.
#: _DIGITS[g]: the four digits of 0 <= g < 10000.
_DIGITS = _words(np.stack(np.meshgrid(*[np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)] * 4,
                                       indexing="ij"), axis=-1).tobytes())
#: _HEAD[d + 10 * negative]: NUL, "-" or NUL, the digit d and ".".
_HEAD = _words(b"".join(b"\0%s%d." % (sign, d) for sign in (b"\0", b"-") for d in range(10)))
#: _EXPONENT[e + 6]: "e-06" .. "e+16", the exponents the exact path writes.
_EXPONENT = _words(b"".join(b"e%+03d" % e for e in range(-6, 17)))
#: The words that end a CSV cell: "," and NULs, "\n" and NULs.
_SEPARATORS = _words(b",\0\0\0\n\0\0\0")

#: 10^k for k = 0..22, every one an exact double, and its two 26-bit halves
#: (Veltkamp's split) for Dekker's product.
_POW10 = np.array([10 ** k for k in range(23)], dtype=np.float64)
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
#: The bits of 1e-6 and 1e17, the ends of the magnitudes converted in numpy.
_EXACT_BITS = np.array([1e-6, 1e17]).view(np.int64)


def _scaled_digits(a: np.ndarray, e: np.ndarray):
    """floor(a·10^(16-e)) as int64 and the exact fraction below it, for 0 <= 16-e <= 22.

    Dekker's TwoProduct writes a·10^p exactly as hi + lo; numpy has no fused
    multiply-add, so both factors are split with Veltkamp's constant 2^27+1.
    Wherever the product reaches 2^53, hi is an integer and the floor is
    hi + floor(lo).
    """
    p = 16 - e
    scale, scale_hi, scale_lo = _POW10.take(p), _POW10_HI.take(p), _POW10_LO.take(p)
    hi = a * scale
    split = a * 134217729.0
    a_hi = split - (split - a)
    a_lo = a - a_hi
    lo = ((a_hi * scale_hi - hi) + a_hi * scale_lo + a_lo * scale_hi) + a_lo * scale_lo
    whole = np.floor(lo)
    return hi.astype(np.int64) + whole.astype(np.int64), lo - whole


def _e16_cells(values: np.ndarray) -> np.ndarray:
    """``"%.16e" % v`` for every float64 ``v``, as ASCII rows of _CELL bytes padded with NUL bytes.

    Zeros and finite values with 1e-6 <= |v| < 1e17 (decimal exponents -6
    to 16) are converted in numpy: 17 significant digits, exact, rounded
    half to even.  All other values (smaller or larger magnitudes,
    subnormals, NaN, infinities) go through Python's ``%`` in one batch.
    """
    values = values.ravel()
    # |v| compared as the integers of its bits: the order is the same, and
    # NaN and the infinities lie above every finite value without a float
    # comparison that could signal
    bits = values.view(np.int64) & 0x7FFFFFFFFFFFFFFF
    exact = (bits >= _EXACT_BITS[0]) & (bits < _EXACT_BITS[1])
    a = np.where(exact, np.abs(values), 1.0)
    # floor(log10 a) may be one off near a power of ten; the digit count shows it
    e = np.minimum(np.maximum(np.floor(np.log10(a)), -6), 16).astype(np.int64)
    digits, fraction = _scaled_digits(a, e)
    redo = np.flatnonzero((digits < 10 ** 16) | (digits >= 10 ** 17))
    if redo.size:
        e[redo] = np.clip(e[redo] + np.where(digits[redo] < 10 ** 16, -1, 1), -6, 16)
        digits[redo], fraction[redo] = _scaled_digits(a[redo], e[redo])
        # still off: the exponent is outside -6..16 (a double just below 1e-6), left to Python
        exact[redo] &= (digits[redo] >= 10 ** 16) & (digits[redo] < 10 ** 17)
    # zeros get the digits of 0 (a = 1 gave them e = 0); Python overwrites the rest below
    digits = np.where(exact, digits, 0)
    # no carry to 10^17: the double below each power of ten in the range is
    # more than half a unit of the 17th digit below it
    digits += (fraction > 0.5) | ((fraction == 0.5) & (digits & 1 == 1))

    lead = digits // 10 ** 16
    high = (digits - lead * 10 ** 16) // 10 ** 8
    low = digits - lead * 10 ** 16 - high * 10 ** 8
    words = np.zeros((len(values), _CELL // 4), dtype=np.uint32)
    words[:, 0] = _HEAD.take(lead + 10 * np.signbit(values))
    for column, group in ((1, high), (3, low)):
        top = group // 10 ** 4
        words[:, column] = _DIGITS.take(top)
        words[:, column + 1] = _DIGITS.take(group - top * 10 ** 4)
    words[:, 5] = _EXPONENT.take(e + 6)
    python = np.flatnonzero(~exact & (bits != 0))
    if python.size:
        texts = ("%-24.16e" * len(python) % tuple(values[python].tolist())).encode("ascii")
        padded = np.frombuffer(texts, dtype=np.uint8).reshape(len(python), 24)
        words[python, :6] = np.where(padded == ord(" "), np.uint8(0), padded).view(np.uint32)
    return words.view(np.uint8)


def _write_cells(fh, values: np.ndarray, slot=None) -> None:
    """Write the rows of ``values`` as "%.16e" CSV lines; output column j repeats column ``slot[j]``."""
    cells = _e16_cells(values).view(np.uint32).reshape(values.shape + (_CELL // 4,))
    if slot is not None:
        cells = cells.take(slot, axis=1)
    cells[:, :, -1] = _SEPARATORS[0]
    cells[:, -1, -1] = _SEPARATORS[1]
    text = cells.view(np.uint8)
    fh.write(text[text != 0])


def _write_csv(path: Path, header, rows) -> None:
    """Write a table as "%.16e" CSV, every column formatted, CSV_CHUNK_ROWS rows at a time.

    A flat sequence is one column, and an empty one writes the header only.
    Every number is byte for byte Python's ``"%.16e" % v``: 17 significant
    digits, correctly rounded, ties to even.  Zeros and finite values with
    1e-6 <= |v| < 1e17 are converted exactly in numpy (:func:`_e16_cells`);
    all other values go through Python's ``%``.
    """
    table = np.asarray(rows, dtype=np.float64)
    table = table[:, None] if table.ndim == 1 else table
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for start in range(0, len(table), CSV_CHUNK_ROWS):
            _write_cells(fh, table[start:start + CSV_CHUNK_ROWS])


@functools.cache
def _trajectory_layout(n: int):
    """trajectory.csv's header, a state's upper triangle (formatted after t), each column's slot."""
    rows, cols = np.triu_indices(n)
    flat = np.arange(n * n).reshape(n, n)
    slot = np.append(0, 1 + np.searchsorted(flat[rows, cols], np.minimum(flat, flat.T)))
    for index in (rows, cols, slot):
        index.flags.writeable = False  # shared by every call
    header = ",".join(["t"] + [f"X_{i}_{j}" for i in range(n) for j in range(n)]) + "\n"
    return header.encode("ascii"), rows, cols, slot


def _write_trajectory_csv(path: Path, times: np.ndarray, states: np.ndarray) -> None:
    """Write ``[t | X]`` as :func:`_write_csv` would, formatting t and each state's upper triangle.

    :func:`integrate` returns exactly symmetric states; each chunk's int64 views (0.0 and -0.0
    differ) are checked against their transpose before X_j_i takes the text of X_i_j.
    """
    header, rows, cols, slot = _trajectory_layout(states.shape[1])
    with open(path, "wb") as fh:
        fh.write(header)
        for start in range(0, len(states), CSV_CHUNK_ROWS):
            stop = start + CSV_CHUNK_ROWS
            bits = states[start:stop].view(np.int64)
            if not np.array_equal(bits, bits.transpose(0, 2, 1)):
                raise ArithmeticError(f"trajectory state not exactly symmetric in rows {start}..{stop - 1}")
            _write_cells(fh, np.column_stack((times[start:stop], states[start:stop, rows, cols])), slot)


#: json's spelling of the non-finite floats, keyed by their repr.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_texts(values: np.ndarray) -> np.ndarray:
    """Every entry of a float64 array as json writes it, each distinct bit pattern formatted once."""
    if values.dtype != np.float64:
        raise TypeError(f"Object of type ndarray of {values.dtype} is not JSON serializable")
    bits = np.ascontiguousarray(values).view(np.int64).ravel().tolist()
    patterns = list(dict.fromkeys(bits))  # not np.unique: its sort kernels add half a megabyte of RSS
    texts = list(map(float.__repr__, np.array(patterns, dtype=np.int64).view(np.float64).tolist()))
    text_of = dict(zip(patterns, map(_NON_FINITE.get, texts, texts)))
    return np.array(list(map(text_of.__getitem__, bits)), dtype=object).reshape(values.shape)


def _bracket(items: list, pad: str, ends: str) -> str:
    return ends[0] + pad + "  " + ("," + pad + "  ").join(items) + pad + ends[1] if items else ends


def _array_text(texts: np.ndarray, pad: str) -> str:
    """The nested JSON list of an object array of number texts, one join per innermost row."""
    if texts.ndim < 2:
        return texts.item() if texts.ndim == 0 else _bracket(texts.tolist(), pad, "[]")
    return _bracket([_array_text(row, pad + "  ") for row in texts], pad, "[]")


def _json_text(value, pad: str = "\n") -> str:
    """The text of ``json.dump(value, indent=2, sort_keys=True)``, at the depth of ``pad``.

    ``pad`` is a newline and the indentation of the line ``value`` starts on.  Takes dicts
    with str keys, lists, tuples, str, int, float, bool, None and float64 arrays (as their
    nested lists); anything else, a non-str key included, raises TypeError, as json does.
    """
    if isinstance(value, str):
        return json.encoder.encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return {None: "null", True: "true", False: "false"}[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _NON_FINITE.get(text := float.__repr__(value), text)
    if isinstance(value, np.ndarray):
        return _array_text(_float_texts(value), pad)
    if isinstance(value, (list, tuple)):
        return _bracket([_json_text(item, pad + "  ") for item in value], pad, "[]")
    if not isinstance(value, dict):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return _bracket([json.encoder.encode_basestring_ascii(key) + ": " + _json_text(value[key], pad + "  ")
                     for key in sorted(value)], pad, "{}")


def _write_json(path: Path, payload) -> None:
    path.write_text(_json_text(payload) + "\n", encoding="utf-8")


def _write_trajectory_json(path: Path, times: np.ndarray, states: np.ndarray) -> None:
    """``{"states": states, "times": times}`` in :func:`_write_json`'s layout, one state's texts at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{\n  "states": [')
        for k, state in enumerate(states):
            fh.write(("," if k else "") + "\n    " + _json_text(state, "\n    "))
        fh.write(("\n  ]" if len(states) else "]") + ',\n  "times": ' + _json_text(times, "\n  ") + "\n}\n")


def _echo_config(cfg: RunConfig) -> None:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(cfg.out_dir / "runconfig.json", {
        "n": cfg.n,
        "N": cfg.n_skew,
        "X0": cfg.x0,
        "integrator": {name: getattr(cfg.integrator, name) for name in INTEGRATOR_FIELDS},
        "suites": cfg.suites,
        "samples": cfg.samples,
        "seed": cfg.seed,
        "tolerances": cfg.tolerances,
        "output": {"dir": str(cfg.out_dir), "formats": cfg.formats},
    })


def _inv_label(key) -> str:
    return f"h_{key[0]}_{key[1]}"


@functools.cache
def _monitor_header(n: int, casimirs: int) -> tuple:
    """The column names of monitors.csv for n x n states and the given number of Casimirs."""
    names = ([_inv_label(key) for key in admissible_indices(n)] + [f"C_{i + 1}" for i in range(casimirs)]
             + [f"eig_{i + 1}" for i in range(n)])
    return ("t", *names, *[f"drift_{name}" for name in names])


def _monitor_table(traj: Trajectory):
    blocks = np.hstack([traj.invariant_values, traj.casimir_values, traj.spectra])
    drifts = np.hstack([traj.invariant_drift(), traj.casimir_drift(), traj.spectrum_drift()])
    rows = np.hstack([traj.monitor_times[:, None], blocks, drifts])
    return _monitor_header(traj.spectra.shape[1], traj.casimir_values.shape[1]), rows


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
    for name in cfg.suites:
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
