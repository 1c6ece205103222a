"""The committed verdict ledger of the ``verify-mixed`` benchmark plans.

``verdict_ledger.txt`` holds one row per certificate of the plans at seeds
1-10 (12 requests of 7 suites each per seed): seed, kind, suite, verdict and
a measure of the verdict's distance from its cut.  A change that moves a
verdict rewrites the ledger in the same diff:

    PYTHONPATH=src python tests/test_verdict_ledger.py
"""

import importlib.util
import json
import math
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from symflow.cli import main

ROOT = Path(__file__).resolve().parent.parent
LEDGER = Path(__file__).with_name("verdict_ledger.txt")
SEEDS = range(1, 11)
#: The suites held to tolerance 0, whose rows match exactly on every host.
EXACT_SUITES = ("independence", "leaf_dims", "sectional2x2")
#: The decades within a factor of 10 of a cut: 0.1 <= r < 10.
NEAR = ("1e-01", "1e+00")

_spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)


def host() -> str:
    """numpy's version, its BLAS build and the machine with its SIMD extensions, on which the last bits depend."""
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        blas = blas.get("openblas configuration") or f"{blas['name']} {blas['version']}"
        simd = " ".join(config["SIMD Extensions"]["found"])
    except (TypeError, KeyError):  # numpy before 1.26 has no mode="dicts"
        blas = simd = "unknown"
    return f"numpy {np.__version__}; blas {blas}; machine {platform.machine()} {simd}"


def decade(ratio: float) -> str:
    """10^floor(log10 ratio) as text, "0" for 0 and "inf" past the float range."""
    if ratio == 0.0 or not math.isfinite(ratio):
        return "0" if ratio == 0.0 else "inf"
    return f"1e{math.floor(math.log10(ratio)):+03d}"


def measure(cert: dict) -> str:
    """The ledger's distance of a certificate from its cut; the verdict passes where the ratio is at most 1.

    ``independence`` and ``leaf_dims`` give their count of missed ranks or
    dimensions, ``sectional2x2`` the decade of its separation over the
    smallest difference it drew, every other suite the decade of
    max_residual / tolerance.
    """
    if cert["name"] in ("independence", "leaf_dims"):
        return str(int(cert["max_residual"]))
    if cert["name"] == "sectional2x2":
        spread = cert["details"][0]
        return decade(spread["separation"] / spread["min_difference"] if spread["min_difference"] else math.inf)
    return decade(cert["max_residual"] / cert["tolerance"])


def certificate_rows(root: Path) -> list:
    """One [seed, kind, suite, verdict, measure] row per certificate, the plans written under ``root``.

    ``root`` must be the ROOT of ``bench_run`` already: ``plan_requests``
    deletes and rewrites ``ROOT/bench/.work/verify-mixed``.
    """
    rows = []
    for seed in SEEDS:
        for req in bench_run.plan_requests("verify-mixed", seed, "full"):
            out = root / req["out"]
            code = main(["verify", "--config", str(root / req["config"]), "--out", str(out)])
            certs = [json.loads((out / f"certificate_{suite}.json").read_text()) for suite in req["suites"]]
            assert code == int(any(cert["verdict"] == "fail" for cert in certs)), req
            rows += [[str(seed), req["kind"], cert["name"], cert["verdict"], measure(cert)] for cert in certs]
    return rows


def read_ledger() -> tuple[str, list]:
    """The recorded host and the rows of the ledger."""
    lines = LEDGER.read_text().splitlines()
    recorded = next(line for line in lines if line.startswith("# host: "))[len("# host: "):]
    return recorded, [line.split("\t") for line in lines if not line.startswith("#")]


def test_verdicts_match_the_ledger(monkeypatch, tmp_path):
    """Every certificate of the plans keeps its ledger verdict, by these rules.

    Each row's measure is 10^floor(log10 r), with r = max_residual /
    tolerance: a verdict passes where r <= 1, and it is near its cut where
    0.1 <= r < 10, the decades 1e-01 and 1e+00.  Rows are compared in
    their order, and both lists name the same (seed, kind, suite) triples.
    - A verdict more than a factor of 10 from its cut must match exactly,
      on every host.
    - A near verdict must stay near on every host, and must match exactly
      only on the host that wrote the ledger (its ``# host:`` line): its
      last bits depend on numpy, the BLAS kernels and the CPU.
    - The tolerance-0 suites have no ratio, and their verdict and measure
      must match exactly on every host.  ``independence`` and
      ``leaf_dims`` count missed ranks or dimensions, and a rank that
      flips between hosts is a defect to mend, not a band to widen.
      ``sectional2x2`` records r = separation / smallest difference drawn:
      its draws come from numpy's seeded generator, and its arithmetic is
      elementwise and exactly rounded, with no BLAS call and no sum, so r
      has the same bits on every host.  Most of its rows are near, since
      the smallest of 1000 differences lies within a factor of 10 of the
      separation.
    """
    monkeypatch.setattr(bench_run, "ROOT", tmp_path)
    recorded, ledger = read_ledger()
    fresh = certificate_rows(tmp_path)
    assert [row[:3] for row in fresh] == [row[:3] for row in ledger]
    moved = []
    for old, new in zip(ledger, fresh):
        if old[2] in EXACT_SUITES:
            same = new[3:] == old[3:]
        elif old[4] in NEAR:
            same = new[4] in NEAR and (new[3] == old[3] or recorded != host())
        else:
            same = new[3] == old[3]
        if not same:
            moved.append(f"{' '.join(old[:3])}: {old[3]} {old[4]} -> {new[3]} {new[4]}")
    assert not moved, "verdicts moved from the ledger:\n" + "\n".join(moved)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        bench_run.ROOT = Path(tmp)
        rows = certificate_rows(Path(tmp))
    header = [
        "# Verdicts of the verify-mixed plans of bench/run.py at seeds 1-10, one row per certificate;",
        "# the rules that compare them are in test_verdict_ledger.py.  Rewrite with",
        "#     PYTHONPATH=src python tests/test_verdict_ledger.py",
        f"# host: {host()}",
        "# seed\tkind\tsuite\tverdict\tmeasure",
    ]
    LEDGER.write_text("".join(line + "\n" for line in header + ["\t".join(row) for row in rows]))
    print(f"{LEDGER}: {len(rows)} rows", file=sys.stderr)
