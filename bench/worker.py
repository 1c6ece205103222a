"""Closed-loop client for one benchmark run.

``run.py`` starts this script in a fresh process with BLAS/OpenMP threads
pinned and ``src`` on ``PYTHONPATH``; it reads the run plan written by
``run.py``, drives ``symflow.cli.main`` with one request at a time, checks
every request's outputs, and prints one JSON result line.

Usage: python3 bench/worker.py PLAN_JSON
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import symflow.cli

from calibrate import normalise, probe
from tracer import Tracer

#: Maximum relative drift of any monitored conserved quantity (criterion C03).
DRIFT_TOL = 1e-8

#: Requests a measured pass makes at least, so that the latency tail (ten
#: samples beyond it) sits at or above the 75th percentile.
MIN_SAMPLES = 40

#: Modules whose public functions the traced run wraps.  lie_structure is
#: left out on purpose: only ``integrate_blocks`` reaches it and no CLI
#: command calls that.
TRACED_MODULES = ["symflow.matrix_core", "symflow.poisson", "symflow.invariants",
                  "symflow.dynamics", "symflow.verify", "symflow.cli"]

VERDICT_PASSED = {"pass": True, "fail": False, "not assessed": None}


def _digest(out: Path) -> tuple[str, int]:
    """SHA-256 over the request's output files (names and bytes) and their total size."""
    sha, size = hashlib.sha256(), 0
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        sha.update(path.name.encode() + b"\0" + data)
        size += len(data)
    return sha.hexdigest(), size


def _simulate_problem(req: dict, code: int, out: Path):
    """None if the command exited 0 and wrote finite CSV outputs, one row per
    step, with every monitored drift within DRIFT_TOL; else what went wrong."""
    if code != 0:
        return f"exit code {code}"
    try:
        traj = (out / "trajectory.csv").read_bytes()
        header, *rows = (out / "monitors.csv").read_text().splitlines()
    except (OSError, ValueError) as exc:
        return f"missing output: {exc}"
    if b"nan" in traj or b"inf" in traj:
        return "non-finite trajectory"
    n_rows = traj.count(b"\n") - 1
    if n_rows != req["steps"] + 1:
        return f"trajectory has {n_rows} rows, expected {req['steps'] + 1}"
    table = np.array([row.split(",") for row in rows], dtype=float)
    if not np.isfinite(table).all():
        return "non-finite monitors"
    drift_cols = [i for i, name in enumerate(header.split(",")) if name.startswith("drift_")]
    worst = table[:, drift_cols].max()
    if worst > DRIFT_TOL:
        return f"monitor drift {worst:.3e} > {DRIFT_TOL:.0e}"
    return None


def _check_simulate(req: dict, code: int, out: Path) -> dict:
    problem = _simulate_problem(req, code, out)
    return {"attempted": 1, "failed": int(problem is not None), "fail_verdicts": [],
            "work": 0 if problem else req["steps"], "problem": problem}


def _read_certificate(path: Path, suite: str):
    """The certificate as a dict if present and well formed, else None."""
    try:
        cert = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    residual = cert.get("max_residual")
    verdict = cert.get("verdict")
    if (cert.get("name") != suite or verdict not in VERDICT_PASSED
            or cert.get("passed") is not VERDICT_PASSED[verdict]
            or not isinstance(residual, (int, float)) or not math.isfinite(residual)
            or not isinstance(cert.get("details"), list)):
        return None
    return cert


def _check_verify(req: dict, code: int, out: Path) -> dict:
    """Every requested certificate present and well formed; exit 1 exactly on a fail verdict.

    A ``fail`` verdict is a well-formed result, not a failed operation: it
    goes to ``fail_verdicts``.  ``failed`` counts certificates the program
    did not deliver (missing, malformed, or a request whose exit code is
    neither 0 nor 1, or disagrees with the verdicts).
    """
    certs = {s: _read_certificate(out / f"certificate_{s}.json", s) for s in req["suites"]}
    good = {s: c for s, c in certs.items() if c is not None}
    fails = [[req["kind"], s, c["max_residual"]] for s, c in good.items() if c["verdict"] == "fail"]
    problem = None
    if code not in (0, 1):
        problem, good = f"exit code {code}", {}
    elif len(good) < len(certs):
        problem = f"missing or malformed: {sorted(set(certs) - set(good))}"
    elif code != (1 if fails else 0):
        problem, good = f"exit code {code} with {len(fails)} fail verdicts", {}
    independence = good.get("independence")
    samples = len(independence["details"]) if independence else 0
    resamples = sum(d.get("resamples", 0) for d in independence["details"]) if independence else 0
    return {"attempted": len(certs), "failed": len(certs) - len(good),
            "fail_verdicts": fails if problem is None else [], "work": len(good),
            "problem": problem, "samples": samples, "resamples": resamples}


CHECKS = {"simulate": _check_simulate, "verify": _check_verify}


def serve(req: dict) -> dict:
    """Run one request through the public CLI entry; time it, then check its outputs."""
    out = Path(req["out"])
    shutil.rmtree(out, ignore_errors=True)
    start = time.perf_counter()
    code = symflow.cli.main([req["command"], "--config", req["config"], "--out", req["out"]])
    latency = time.perf_counter() - start
    result = CHECKS[req["command"]](req, code, out)
    result["latency"] = latency
    result["digest"], result["bytes"] = _digest(out) if out.is_dir() else ("", 0)
    return result


def closed_loop(requests: list, seconds: float, deadline: float) -> list:
    """Whole rotations over ``requests`` until ``seconds`` have passed and the
    tail has enough samples, or the deadline is reached.

    The host-speed probe runs between requests, outside the timed region;
    each result carries its latency normalised by the probes around it.
    """
    results = []
    start = time.perf_counter()
    before = probe()
    while True:
        for index, req in enumerate(requests):
            result = serve(req)
            after = probe()
            result["ref_latency"] = normalise(result["latency"], before, after)
            results.append(dict(result, index=index))
            before = after
        now = time.perf_counter()
        if now >= deadline or (now - start >= seconds and len(results) >= MIN_SAMPLES):
            return results


def traced_replay(requests: list, rotations: int, deadline: float) -> tuple[list, dict]:
    """Replay ``rotations`` whole rotations with every traced module wrapped.

    Returns the request results and the trace totals: per span name
    ``[calls, self_s]``, plus the RK4 right-hand-side evaluations made
    inside ``integrate`` and the computed flops of all ``vector_field``
    calls (three n x n products, 6 n^3 flops per call).
    """
    tracer = Tracer(TRACED_MODULES)
    totals = {"spans": {}, "rhs_evals_in_integrate": 0, "vector_field_flops": 0.0}
    results = []
    tracer.install()
    try:
        for _ in range(rotations):
            for index, req in enumerate(requests):
                tracer.request = len(results)
                results.append(dict(serve(req), index=index))
                vf_calls = sum(1 for span in tracer.spans if span[0] == "dynamics.vector_field")
                totals["rhs_evals_in_integrate"] += tracer.calls_under(
                    "dynamics.vector_field", "dynamics.integrate")
                totals["vector_field_flops"] += 6.0 * req["n"] ** 3 * vf_calls
                tracer.fold(totals["spans"])
            if time.perf_counter() >= deadline:
                break
    finally:
        tracer.uninstall()
    return results, totals


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "machine": platform.machine(),
    }


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    src = Path(plan["src"]).resolve()
    if src not in Path(symflow.cli.__file__).resolve().parents:
        print(f"worker: symflow imported from {symflow.cli.__file__}, not {src}", file=sys.stderr)
        return 1
    requests = plan["requests"]
    deadline = time.perf_counter() + plan["max_seconds"]
    serve(requests[0])  # warm-up: first-call costs are not part of a request
    probe()  # and of the probe
    report = {"machine": machine()}
    if plan["trace"]:
        untraced = closed_loop(requests, plan["seconds"] / 2, deadline)
        traced, totals = traced_replay(requests, len(untraced) // len(requests), deadline)
        report["untraced"], report["traced"], report["totals"] = untraced, traced, totals
    else:
        report["untraced"] = closed_loop(requests, plan["seconds"], deadline)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
