"""Closed-loop benchmark of the symflow command line.

Run from the repository root:

    python3 bench/run.py --workload sim-long --seed 1 --seconds 30 --trace 0

One client sends one request at a time to the public CLI entry
``symflow.cli.main`` in a worker process of its own, with BLAS/OpenMP
threads pinned to 1.  The seed generates the JSON configs; the program
receives only those.  Every request's outputs are checked.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` replays the same
requests with every public function of the measured modules wrapped in a
span and prints the per-layer metrics.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``--size tiny`` shrinks every workload for the smoke test.  Workloads,
metrics and the verdicts the seed code fails are described in NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = Path(BENCH.name) / ".work"  # relative to ROOT, the working directory of every run

THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

#: Fresh processes timed for ``setup_s``, after one untimed run that fills
#: the bytecode cache.
SETUP_RUNS = 9

#: Wall-clock limits: the worker's measuring stops at WORKER_SECONDS and the
#: whole run is killed at RUN_LIMIT, below the 180 s a run may take.
WORKER_SECONDS = 110.0
RUN_LIMIT = 170.0

SUITES = ["involution", "independence", "casimir", "leaf_dims", "recursion", "lax", "sectional2x2"]

# (family, n): the structure-matrix kinds verify-mixed rotates over.  Cost and
# rank behaviour depend on the nullity and on the frequency pattern.
VERIFY_KINDS = [
    ("distinct", 8), ("distinct", 12), ("distinct", 16),
    ("nullity1", 9), ("nullity1", 13),
    ("nullity2", 10), ("nullity2", 14),
    ("equal", 8), ("equal", 12),
    ("random", 8), ("random", 12),
    ("wide", 8),
]
TINY_VERIFY_KINDS = [("distinct", 4), ("nullity1", 5), ("nullity2", 6),
                     ("equal", 4), ("random", 4), ("wide", 4)]

WORKLOADS = {
    "sim-long": {
        "command": "simulate",
        "full": {"n": 8, "steps": 2000, "stride": 100, "requests": 4},
        "tiny": {"n": 4, "steps": 100, "stride": 10, "requests": 2},
    },
    "sim-monitored": {
        "command": "simulate",
        "full": {"n": 32, "steps": 4, "stride": 1, "requests": 4},
        "tiny": {"n": 6, "steps": 2, "stride": 1, "requests": 2},
    },
    "verify-mixed": {
        "command": "verify",
        "full": {"kinds": VERIFY_KINDS, "samples": 2},
        "tiny": {"kinds": TINY_VERIFY_KINDS, "samples": 1},
    },
}

#: The gated end-to-end metrics.  Their times are normalised by the
#: host-speed probe (calibrate.py): the host's speed changes by up to 2x over
#: seconds to minutes.  The raw wall-clock figures are printed, not gated.
E2E_METRICS = {
    "setup_s": "s", "ref_latency_p50_s": "s", "ref_work_per_s": "1/s", "peak_rss_mb": "MB",
}
SPAN_CALLS = [
    "matrix_core.eig_sym", "matrix_core.numerical_rank", "matrix_core.as_square",
    "dynamics.vector_field",
    "invariants.invariant_table", "invariants.gradient_table", "invariants.poly_power",
    "invariants.recursion_residual",
    "poisson.tensor_as_matrix", "poisson.lie_poisson_bracket", "poisson.frozen_bracket",
    "poisson.canonical_form", "poisson.lie_poisson_casimirs",
]
SPAN_SELF = [
    "matrix_core.eig_sym", "matrix_core.numerical_rank",
    "dynamics.integrate", "dynamics.vector_field",
    "invariants.invariant_table", "invariants.gradient_table", "invariants.poly_power",
    "poisson.tensor_as_matrix", "poisson.leaf_dimensions", "poisson.canonical_form",
    "poisson.lie_poisson_casimirs",
    "verify.involution_certificate", "verify.independence_certificate",
    "verify.casimir_certificate", "verify.leaf_dimension_certificate",
    "verify.recursion_certificate", "verify.lax_certificate", "verify.sectional_certificate",
    "cli.resolve_config", "cli.cmd_simulate", "cli.cmd_verify",
]
LAYER_METRICS = {
    **{f"{name}.calls": "count" for name in SPAN_CALLS},
    **{f"{name}.self_s": "s" for name in SPAN_SELF},
    "dynamics.rhs_evals_per_step": "count",
    "dynamics.vector_field.gflops": "GFLOP/s",
    "verify.independence.useful_ratio": "ratio",
    "verify.fail_verdict_ratio": "ratio",
    "cli.bytes_written": "B",
    "trace.overhead_ratio": "ratio",
}

SETUP_PROBE = (
    "import sys\n"
    "import symflow.cli as cli\n"
    "command, path = sys.argv[1:3]\n"
    "args = cli.build_parser().parse_args([command, '--config', path])\n"
    "cli.resolve_config(cli.load_config(path), args)\n"
)


def _frequencies(rng: random.Random, p: int) -> list:
    """p unit-scale frequencies in [0.5, 1.5], descending, pairwise >= 1e-3 apart."""
    while True:
        v = sorted((rng.uniform(0.5, 1.5) for _ in range(p)), reverse=True)
        if all(a - b >= 1e-3 for a, b in zip(v, v[1:])):
            return v


def _structure(rng: random.Random, family: str, n: int) -> dict:
    if family == "random":
        return {"random": {"seed": rng.randrange(2**31)}}
    d = {"nullity1": 1, "nullity2": 2}.get(family, 0)
    p = (n - d) // 2
    if family == "equal":
        v = [rng.uniform(0.5, 1.5)] * p
    elif family == "wide":
        v = [float(i) for i in range(1, p + 1)]  # integer frequencies, the README convention
    else:
        v = _frequencies(rng, p)
    return {"canonical": {"v": v, "d": d}}


def plan_requests(workload: str, seed: int, size: str) -> list:
    """Write the workload's request configs; return one descriptor per request."""
    spec = WORKLOADS[workload]
    params = spec[size]
    rng = random.Random(f"{workload}:{seed}")
    if spec["command"] == "simulate":
        kinds = [("distinct", params["n"])] * params["requests"]
    else:
        kinds = params["kinds"]
    work = WORK / workload
    shutil.rmtree(ROOT / work, ignore_errors=True)
    (ROOT / work).mkdir(parents=True)
    requests = []
    for index, (family, n) in enumerate(kinds):
        config = {
            "n": n,
            "N": _structure(rng, family, n),
            "X0": {"random": {"seed": rng.randrange(2**31)}},
            "seed": rng.randrange(2**31),
            "output": {"formats": ["csv"]},
        }
        req = {"command": spec["command"], "kind": f"{family}-{n}", "n": n,
               "config": str(work / f"r{index:02d}.json"), "out": str(work / f"r{index:02d}")}
        if spec["command"] == "simulate":
            config["integrator"] = {"step": 1e-3, "t_end": params["steps"] * 1e-3,
                                    "scheme": "rk4", "monitor_stride": params["stride"]}
            req["steps"] = params["steps"]
        else:
            config["suites"] = SUITES
            config["samples"] = params["samples"]
            req["suites"] = SUITES
        (ROOT / req["config"]).write_text(json.dumps(config, indent=1) + "\n")
        requests.append(req)
    return requests


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)


def _timed_run(argv: list, timeout: float) -> float:
    """Wall time from start to exit of a child process that must exit 0.

    Waits on a pidfd: ``subprocess`` waits with a timeout by polling every
    50 ms, which would quantise the time.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_env())
    pidfd = os.pidfd_open(proc.pid)
    try:
        exited = select.select([pidfd], [], [], timeout)[0]
    finally:
        os.close(pidfd)
    elapsed = time.perf_counter() - start
    if not exited:
        proc.kill()
    if proc.wait() != 0 or not exited:
        raise RuntimeError(f"{argv[:2]} failed with exit code {proc.returncode}")
    return elapsed


def measure_setup(req: dict) -> tuple[list, list]:
    """Wall times of fresh processes that import symflow.cli and resolve the
    first config: raw, and normalised by the host-speed probes around each."""
    from calibrate import normalise, probe  # imports numpy: after the thread pin

    argv = [sys.executable, "-c", SETUP_PROBE, req["command"], req["config"]]
    _timed_run(argv, 60)
    probe()
    raw, ref = [], []
    before = probe()
    for _ in range(SETUP_RUNS):
        raw.append(_timed_run(argv, 60))
        after = probe()
        ref.append(normalise(raw[-1], before, after))
        before = after
    return raw, ref


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    sha = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sha.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def _tail(latencies: list) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(latencies)
    k = len(ordered)
    if k < 11:
        return 100.0, ordered[-1]
    return 100.0 * (k - 10) / k, ordered[k - 11]


def _per_request_summary(results: list, requests: list) -> list:
    """Per distinct request: kind, repeats, median latency (raw and normalised),
    output digest (or 'varies'), fail verdicts."""
    rows = []
    for index, req in enumerate(requests):
        mine = [r for r in results if r["index"] == index]
        digests = {r["digest"] for r in mine}
        rows.append({"request": index, "kind": req["kind"], "repeats": len(mine),
                     "latency_p50_s": statistics.median(r["latency"] for r in mine),
                     "ref_latency_p50_s": statistics.median(
                         [r["ref_latency"] for r in mine if "ref_latency" in r] or [float("nan")]),
                     "sha256": digests.pop() if len(digests) == 1 else "varies",
                     "fail_verdicts": mine[0]["fail_verdicts"]})
    return rows


def end_to_end(results: list, setup: tuple, peak_rss_mb: float) -> tuple[dict, dict]:
    """The gated end-to-end metrics, and the raw ones printed beside them.

    ``ref_latency_p50_s`` is the median over the distinct requests of each
    one's median normalised latency, so that on a mix of request kinds it
    does not jump between kinds as the number of repeats changes.
    """
    raw_setup, ref_setup = setup
    ref_by_request = {}
    for r in results:
        ref_by_request.setdefault(r["index"], []).append(r["ref_latency"])
    latencies = [r["latency"] for r in results]
    percentile, tail = _tail(latencies)
    return {
        "setup_s": statistics.median(ref_setup),
        "ref_latency_p50_s": statistics.median(statistics.median(v) for v in ref_by_request.values()),
        "ref_work_per_s": sum(r["work"] for r in results) / sum(r["ref_latency"] for r in results),
        "peak_rss_mb": peak_rss_mb,
    }, {
        "setup_s": statistics.median(raw_setup),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "tail_percentile": percentile,
        "work_per_s": sum(r["work"] for r in results) / sum(latencies),
    }


def per_layer(untraced: list, traced: list, totals: dict, requests: list) -> dict:
    count = len(traced)
    spans = totals["spans"]
    metrics = {}
    for name in SPAN_CALLS:
        metrics[f"{name}.calls"] = spans.get(name, [0, 0.0])[0] / count
    for name in SPAN_SELF:
        metrics[f"{name}.self_s"] = spans.get(name, [0, 0.0])[1] / count
    steps = sum(requests[r["index"]].get("steps", 0) for r in traced)
    metrics["dynamics.rhs_evals_per_step"] = totals["rhs_evals_in_integrate"] / steps if steps else 0.0
    vf_self = spans.get("dynamics.vector_field", [0, 0.0])[1]
    metrics["dynamics.vector_field.gflops"] = totals["vector_field_flops"] / vf_self / 1e9 if vf_self else 0.0
    samples = sum(r.get("samples", 0) for r in traced)
    resamples = sum(r.get("resamples", 0) for r in traced)
    metrics["verify.independence.useful_ratio"] = samples / (samples + resamples) if samples else 0.0
    verify_ops = sum(r["attempted"] for r in traced if "samples" in r)
    verdicts = sum(len(r["fail_verdicts"]) for r in traced)
    metrics["verify.fail_verdict_ratio"] = verdicts / verify_ops if verify_ops else 0.0
    metrics["cli.bytes_written"] = sum(r["bytes"] for r in traced) / count
    untraced_wall = sum(r["latency"] for r in untraced[:count])
    metrics["trace.overhead_ratio"] = sum(r["latency"] for r in traced) / untraced_wall
    return metrics


def run_worker(plan: dict, deadline: float) -> dict:
    plan_path = ROOT / WORK / plan["workload"] / "plan.json"
    plan_path.write_text(json.dumps(plan))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(plan_path)],
        cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT

    if not (SRC / "symflow" / "cli.py").is_file():
        print(f"bench: no symflow sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2

    requests = plan_requests(args.workload, args.seed, args.size)
    os.environ.update(THREAD_ENV)
    setup = ([], []) if args.trace else measure_setup(requests[0])
    report = run_worker({"workload": args.workload, "src": str(SRC), "requests": requests,
                         "seconds": args.seconds, "trace": args.trace,
                         "max_seconds": WORKER_SECONDS}, deadline)

    results = report["traced"] if args.trace else report["untraced"]
    if args.trace:
        metrics = per_layer(report["untraced"], results, report["totals"], requests)
        units = LAYER_METRICS
        results = report["untraced"] + results
    else:
        metrics, raw = end_to_end(results, setup, report["peak_rss_mb"])
        units = E2E_METRICS
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    verdicts = sum(len(r["fail_verdicts"]) for r in results)

    machine = dict(report["machine"], nproc=os.cpu_count(),
                   cpus_allowed=len(os.sched_getaffinity(0)), threads=THREAD_ENV,
                   commit=_commit(), src_sha256=_source_digest())
    print(f"symflow benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size}")
    print("machine: " + json.dumps(machine, sort_keys=True))
    for row in _per_request_summary(results, requests):
        print("request: " + json.dumps(row))
    for result in results:
        if result["problem"]:
            print(f"problem: request {result['index']}: {result['problem']}")
    if args.trace:
        print(f"traced requests: {len(report['traced'])}")
    else:
        work_name = "steps_per_s" if WORKLOADS[args.workload]["command"] == "simulate" else "certs_per_s"
        print(f"  requests         {len(results)} (closed loop, 1 client)")
        from calibrate import REFERENCE_S
        print("  gated, times normalised to a host where the speed probe takes "
              f"{REFERENCE_S * 1e3:g} ms:")
        print(f"  setup_s          {metrics['setup_s']:.6f} s   median of {SETUP_RUNS} fresh processes")
        print(f"  ref_latency_p50_s {metrics['ref_latency_p50_s']:.6f} s   "
              f"median over {len(requests)} distinct requests of each one's median")
        print(f"  ref_work_per_s   {metrics['ref_work_per_s']:.3f} 1/s   ({work_name})")
        print(f"  peak_rss_mb      {metrics['peak_rss_mb']:.3f} MB")
        print("  raw wall clock, not gated:")
        print(f"  setup_s          {raw['setup_s']:.6f} s")
        print(f"  latency_p50_s    {raw['latency_p50_s']:.6f} s")
        print(f"  latency_tail_s   {raw['latency_tail_s']:.6f} s   "
              f"p{raw['tail_percentile']:.1f} of {len(results)} samples")
        print(f"  {work_name:<16} {raw['work_per_s']:.3f} 1/s")
    print(f"  fail_ratio       {(failed + verdicts) / attempted:.6f}   "
          f"({failed} not delivered + {verdicts} fail verdicts) / {attempted} operations")
    if args.trace:
        for name, value in metrics.items():
            print(f"  {name:<40} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
