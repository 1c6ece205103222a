"""The output layer of the CLI: exact "%.16e" CSV tables and json.dump-layout JSON files.

Every CSV number is byte for byte Python's ``"%.16e" % v``, converted in
numpy (:func:`_e16_cells`); every JSON file has the layout of
``json.dump(value, indent=2, sort_keys=True)`` plus a final newline
(:func:`_json_text`).  trajectory.csv formats the upper triangle of each
exactly symmetric state.  This module imports only numpy and the standard
library.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from pathlib import Path

import numpy as np

#: Rows the CSV writer formats at a time; keeps its transient buffers near half a megabyte.
CSV_CHUNK_ROWS = 64

#: Bytes of one formatted cell: six words hold the longest "%.16e" text,
#: "-1.2345678901234567e-308".  A text with a two-digit exponent leaves the
#: last byte NUL, for the CSV separator.
_CELL = 24


def _words(text: bytes) -> np.ndarray:
    """The four-byte groups of an ASCII text as native uint32 words."""
    return np.frombuffer(text, dtype=np.uint32).copy()


def _digit_texts(width: int) -> np.ndarray:
    """The zero-padded ASCII digits of 0 .. 10^width - 1, one row each."""
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    return np.stack(np.meshgrid(*[digits] * width, indexing="ij"), axis=-1).reshape(-1, width)


# A cell's text is six words: "-" or NUL, the first digit, "." and the
# second digit; three words of four digits; three digits and "e"; the
# exponent's sign and digits, two and a NUL or three.  NUL bytes are padding
# and never reach the file.
#: _DIGITS[g]: the four digits of 0 <= g < 10000.
_DIGITS = _words(_digit_texts(4).tobytes())
#: _HEAD[g + 100 * negative]: "-" or NUL, the first digit of 0 <= g < 100, "." and its second digit.
_HEAD = _words(b"".join(b"%s%d.%d" % (sign, g // 10, g % 10) for sign in (b"\0", b"-") for g in range(100)))
#: _TAIL[g]: the three digits of 0 <= g < 1000 and "e".
_TAIL = _words(np.column_stack([_digit_texts(3), np.full(1000, ord("e"), np.uint8)]).tobytes())

#: The bits of 1e17: from there on, and for NaN and the infinities, Python's ``%`` writes the text.
_PERCENT_BITS = int(np.float64(1e17).view(np.int64))

#: From 10^23 on the table's powers are rounded: a fraction this close to 0, 1/2 or 1 may
#: round either way, since its computed value is within 5.7e-15 of the exact one (see
#: :func:`_scaled_digits`).
_UNCERTAIN = 2.0 ** -44


@functools.cache
def _exponent_words() -> np.ndarray:
    """[e + 324]: the exponent's sign and digits, "-324" .. "+16" padded with NUL, built on first use."""
    return _words(b"".join((b"%+03d" % e).ljust(4, b"\0") for e in range(-324, 17)))


@functools.cache
def _power_tables():
    """The powers of ten 10^0 .. 10^340, built from integers on first use.

    For p = 0..340, 10^p = c·2^s with 1 <= c < 2; c is rounded to 106 bits
    and kept as hi + lo (|c - hi - lo| <= 2^-106), hi with its Veltkamp
    halves.  Up to p = 22, 5^p < 2^53, so hi = c exactly and lo = 0.
    Returns s, hi, hi's halves and lo, indexed by p.
    """
    shifts, hi, lo = [], [], []
    for p in range(341):
        power = 10 ** p
        s = power.bit_length() - 1
        m = (power + (1 << (s - 106))) >> (s - 105) if s > 105 else power << (105 - s)
        head = float(m)
        shifts.append(s)
        hi.append(math.ldexp(head, -105))
        lo.append(math.ldexp(float(m - int(head)), -105))
    hi = np.array(hi)
    hi_hi = hi * 134217729.0 - (hi * 134217729.0 - hi)
    return np.array(shifts, dtype=np.int32), hi, hi_hi, hi - hi_hi, np.array(lo)


def _scaled_digits(a: np.ndarray, e: np.ndarray):
    """floor(a·10^(16-e)) as int64 and the fraction above it, for 0 <= 16-e <= 340.

    a·10^p is (a·2^s)·(hi + lo) with a·2^s exact (subnormals become
    normal).  Dekker's TwoProduct writes the product with hi exactly as a
    head and a tail; numpy has no fused multiply-add, so a·2^s is split with
    Veltkamp's constant 2^27+1.  Where the digits fall in [10^16, 10^17) the
    head is an integer, and the floor is the head plus the floor of the tail
    and the product with lo.  Up to p = 22, lo = 0 and the fraction is exact.
    From p = 23 on, the product with lo adds at most 2^-50 of roundoff, the
    table at most 10^17·2^-106 and the sum at most 2^-48: 5.7e-15 together.
    """
    shifts, hi, hi_hi, hi_lo, lo = _power_tables()
    p = 16 - e
    x = np.ldexp(a, shifts.take(p))
    c, c_hi, c_lo = hi.take(p), hi_hi.take(p), hi_lo.take(p)
    head = x * c
    split = x * 134217729.0
    x_hi = split - (split - x)
    x_lo = x - x_hi
    tail = ((x_hi * c_hi - head) + x_hi * c_lo + x_lo * c_hi) + x_lo * c_lo + x * lo.take(p)
    whole = np.floor(tail)
    return head.astype(np.int64) + whole.astype(np.int64), tail - whole


def _percent_cells(values: np.ndarray) -> np.ndarray:
    """``"%.16e" % v`` through Python's ``%``, in one batch, as rows of six NUL-padded words."""
    texts = ("%-24.16e" * len(values) % tuple(values.tolist())).encode("ascii")
    padded = np.frombuffer(texts, dtype=np.uint8).reshape(len(values), 24)
    return np.where(padded == ord(" "), np.uint8(0), padded).view(np.uint32)


def _e16_cells(values: np.ndarray) -> np.ndarray:
    """``"%.16e" % v`` for every float64 ``v``, as ASCII rows of _CELL bytes padded with NUL bytes.

    Zeros and every finite |v| < 1e17, subnormals included, are converted
    in numpy with one product by a power of ten (:func:`_scaled_digits`):
    17 significant digits, correctly rounded, half to even.  The product is
    exact from 1e-6 on and certified below.  Only NaN, the infinities,
    |v| >= 1e17 and the rare cells below 1e-6 whose rounding the certified
    product cannot decide go through Python's ``%``, in one batch.
    """
    values = values.ravel()
    # |v| compared as the integers of its bits: the order is the same, and
    # NaN and the infinities lie above every finite value without a float
    # comparison that could signal
    bits = values.view(np.int64) & 0x7FFFFFFFFFFFFFFF
    nonzero = bits != 0
    converted = nonzero & (bits < _PERCENT_BITS)
    a = np.where(converted, bits.view(np.float64), 1.0)
    # floor(log10 a) may be one off near a power of ten; the digit count shows it
    e = np.minimum(np.maximum(np.floor(np.log10(a)), -324), 16).astype(np.int64)
    digits, fraction = _scaled_digits(a, e)
    redo = np.flatnonzero((digits < 10 ** 16) | (digits >= 10 ** 17))
    if redo.size:
        e[redo] += np.where(digits[redo] < 10 ** 16, -1, 1)
        digits[redo], fraction[redo] = _scaled_digits(a[redo], e[redo])
    # up to 10^22 (e >= -6) the fraction is exact; beyond, one within _UNCERTAIN of 0, 1/2 or 1
    # may round either way (half is below _UNCERTAIN near 1/2, above 1/2 - _UNCERTAIN near 0 and 1)
    half = np.abs(fraction - 0.5)
    sure = converted & ((e > -7) | ((half > _UNCERTAIN) & (half < 0.5 - _UNCERTAIN)))
    # zeros get the digits of 0 (a = 1 gave them e = 0); Python's % overwrites the cells left
    digits = np.where(sure, digits + ((fraction > 0.5) | ((fraction == 0.5) & (digits & 1 == 1))), 0)
    # a carry to 10^17 comes only below 1e-6: the double nearest 1e-14 is "1.0000000000000000e-14"
    carry = digits == 10 ** 17
    digits[carry], e[carry] = 10 ** 16, e[carry] + 1
    python = np.flatnonzero(nonzero & ~sure)

    words = np.empty((len(values), _CELL // 4), dtype=np.uint32)
    head = digits // 10 ** 15
    words[:, 0] = _HEAD.take(head + 100 * np.signbit(values))
    rest = digits - head * 10 ** 15
    for column, unit in ((1, 10 ** 11), (2, 10 ** 7), (3, 10 ** 3)):
        group = rest // unit
        words[:, column] = _DIGITS.take(group)
        rest -= group * unit
    words[:, 4] = _TAIL.take(rest)
    words[:, 5] = _exponent_words().take(e + 324)
    if python.size:
        words[python] = _percent_cells(values[python])
    return words.view(np.uint8)


def _write_cells(fh, values: np.ndarray, slot=None) -> None:
    """Write the rows of ``values`` as "%.16e" CSV lines; output column j repeats column ``slot[j]``.

    Each cell's last byte takes its separator, so a cell of a numpy-converted
    text with a two-digit exponent keeps one NUL at most, a positive sign's
    slot, and one ``bytes.replace`` removes the padding.  A positive text
    that fills its cell (a three-digit exponent) moves into its sign's slot.
    A chunk with a text that still fills its cell (a negative one, or
    Python's "-1.0000000000000000e+300") takes the general path: a separator
    byte after every cell.
    """
    cells = _e16_cells(values).reshape(values.shape + (_CELL,))
    if slot is not None:
        cells = cells.take(slot, axis=1)
    if cells[:, :, -1].any():
        full = cells[:, :, -1] != 0
        if cells[:, :, 0][full].any():
            cells = np.concatenate([cells, np.zeros(cells.shape[:-1] + (1,), np.uint8)], axis=-1)
        else:
            up = np.flatnonzero(full)
            flat = cells.reshape(-1, _CELL)  # a view: the cells are a fresh contiguous array
            flat[up, :-1] = flat[up, 1:]  # the last byte takes the separator below
    cells[:, :, -1] = ord(",")
    cells[:, -1, -1] = ord("\n")
    fh.write(cells.tobytes().replace(b"\0", b""))


def _write_csv(path: Path, header, rows) -> None:
    """Write a table as "%.16e" CSV, every column formatted, CSV_CHUNK_ROWS rows at a time.

    A flat sequence is one column, and an empty one writes the header only.
    Every number is byte for byte Python's ``"%.16e" % v``: 17 significant
    digits, correctly rounded, ties to even.  Zeros and every finite
    |v| < 1e17 take one product by a power of ten (:func:`_e16_cells`);
    only NaN, the infinities, |v| >= 1e17 and the rare cells below 1e-6
    whose rounding that product leaves open go through Python's ``%``.
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


def _echo_config(cfg) -> None:
    """Write runconfig.json, the resolved run config ``cfg``, into its output directory."""
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(cfg.out_dir / "runconfig.json", {
        "n": len(cfg.n_skew),
        "N": cfg.n_skew,
        "X0": cfg.x0,
        "integrator": dataclasses.asdict(cfg.integrator),
        "suites": cfg.suites,
        "samples": cfg.samples,
        "seed": cfg.seed,
        "tolerances": cfg.tolerances,
        "output": {"dir": str(cfg.out_dir), "formats": cfg.formats},
    })


def _inv_label(key) -> str:
    return f"h_{key[0]}_{key[1]}"


@functools.cache
def _monitor_header(labels: tuple, casimirs: int, n: int) -> tuple:
    """The column names of monitors.csv for the (k, 2r) labels, the Casimir count and n x n states."""
    names = ([_inv_label(key) for key in labels] + [f"C_{i + 1}" for i in range(casimirs)]
             + [f"eig_{i + 1}" for i in range(n)])
    return ("t", *names, *[f"drift_{name}" for name in names])


def _monitor_table(traj):
    """monitors.csv's header and rows for a :class:`~symflow.dynamics.Trajectory`."""
    rows = np.hstack([traj.monitor_times[:, None], traj.monitors, traj.drift()])
    header = _monitor_header(tuple(traj.invariant_labels), traj.casimir_values.shape[1], traj.spectra.shape[1])
    return header, rows
