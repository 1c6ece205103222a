"""The command line's outputs on a table of configs, each run twice through ``cli.main``.

Each run goes from its own fresh working directory with the same relative
``--out``, so every output file of the two runs compares byte for byte,
``runconfig.json`` (which echoes the output directory) included. pytest's
``filterwarnings`` turns any RuntimeWarning into an error. The checks of
single messages and exit codes live in ``test_cli.py``; CI runs the
installed ``symflow`` entry point once and compares its outputs with
``cli.main``'s.
"""

import contextlib
import io
import json

import pytest

from symflow.cli import ALL_SUITES, main

#: X0 with three-digit exponents: with N = 0 the state stays put, so every 64-row chunk of
#: trajectory.csv takes the writer's general path; with a canonical N only the first chunk does.
SMALL_X0 = {"explicit": [[-3e-150, 2e-200, 1.0, 0.5], [2e-200, 1.0, -2e-200, 0.1],
                         [1.0, -2e-200, 3.0, 1e-120], [0.5, 0.1, 1e-120, -0.5]]}
STEPS_400 = {"step": 0.001, "t_end": 0.4, "monitor_stride": 50}

CONFIGS = {
    "tiny": {"n": 4, "N": {"canonical": {"v": [1.0, 2.0], "d": 0}}, "X0": {"random": {"seed": 1}},
             "integrator": {"step": 0.01, "t_end": 0.5, "monitor_stride": 10}, "samples": 2, "seed": 1},
    # 400 steps: trajectory.csv spans several of the writer's 64-row chunks
    "long": {"n": 6, "N": {"canonical": {"v": [0.7, 1.1, 1.4], "d": 0}}, "X0": {"random": {"seed": 2}},
             "integrator": STEPS_400, "seed": 2},
    # 400 steps in monitor segments of 7: the last segment is short; verify on a singular N
    "stride7": {"n": 5, "N": {"canonical": {"v": [0.8, 1.3], "d": 1}}, "X0": {"random": {"seed": 3}},
                "integrator": {"step": 0.001, "t_end": 0.4, "monitor_stride": 7}, "seed": 3},
    "tiny_zero_n": {"n": 4, "N": {"explicit": [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]},
                    "X0": SMALL_X0, "integrator": STEPS_400},
    "tiny_canonical_n": {"n": 4, "N": {"canonical": {"v": [1.0, 2.0], "d": 0}}, "X0": SMALL_X0,
                         "integrator": STEPS_400},
    # the sim-monitored shape: n = 32, a monitor record at each of 4 steps
    "monitored": {"n": 32, "N": {"random": {"seed": 5}}, "X0": {"random": {"seed": 6}},
                  "integrator": {"step": 0.001, "t_end": 0.004, "monitor_stride": 1}, "seed": 7},
    # n = 32 beside a kernel of 2 (n - d is even), 21 monitor points: more than one record group
    "kernel32": {"n": 32, "N": {"canonical": {"v": [1.48, 1.41, 1.34, 1.27, 1.2, 1.13, 1.06, 0.99, 0.92, 0.85,
                                                    0.78, 0.71, 0.64, 0.57, 0.5], "d": 2}},
                 "X0": {"random": {"seed": 8}}, "integrator": {"step": 0.001, "t_end": 0.02, "monitor_stride": 1},
                 "seed": 8},
    # the gradient walk at even n = 32 goes on past the zeroed window of m = 16
    "invariants32": {"n": 32, "N": {"random": {"seed": 5}}, "X0": {"random": {"seed": 6}}},
    # overflows at step 16; one finiteness check per segment must still name t = 8
    "diverge": {"n": 2, "N": {"canonical": {"v": [1.0], "d": 0}}, "X0": {"explicit": [[10.0, 0.3], [0.3, -4.0]]},
                "integrator": {"step": 0.5, "t_end": 50.0}},
    # clusters of sizes 1 and 2 and a kernel: 1 + 4 + 1 frozen Casimirs
    "mixed": {"n": 7, "N": {"canonical": {"v": [1.7, 1.0, 1.0], "d": 1}}, "X0": {"random": {"seed": 1}},
              "samples": 2, "seed": 1, "suites": ["casimir", "leaf_dims"]},
    # n = 10 beside a kernel of 2: the recursion reads families of both parities, the last of them
    # past the members, from each draw's one table
    "kernel10": {"n": 10, "N": {"canonical": {"v": [0.6, 0.9, 1.2, 1.45], "d": 2}}, "X0": {"random": {"seed": 4}},
                 "samples": 3, "seed": 4},
    # passes every suite: casimir ranks the unit rows of its gradients and reads all 8 Casimirs
    "distinct16": {"n": 16, "N": {"canonical": {"v": [1.6, 1.45, 1.3, 1.15, 1.0, 0.85, 0.7, 0.55], "d": 0}},
                   "X0": {"random": {"seed": 9}}, "samples": 2, "seed": 9},
}

#: name -> (command, config, extra flags)
RUNS = {
    **{name: ("simulate", name, ()) for name in
       ("tiny", "long", "stride7", "tiny_zero_n", "tiny_canonical_n", "monitored", "kernel32", "diverge")},
    "tiny-json": ("simulate", "tiny", ("--format", "json")),
    **{f"verify-{name}": ("verify", name, ()) for name in ("tiny", "stride7", "mixed", "kernel10", "distinct16")},
    "invariants-tiny": ("invariants", "tiny", ()),
    "invariants-invariants32": ("invariants", "invariants32", ()),
    **{f"{command}-{name}": (command, name, ())
       for command in ("casimirs", "leaf-dims") for name in ("tiny", "mixed")},
}

#: The exit code and stderr of a run that fails; every other run exits 0 and writes nothing to stderr.
FAILURES = {"diverge": (3, "numerical abort: non-finite state at t = 8\n")}

#: Each sampled suite alone, and every suite in reverse order, of these verify configs.
VARIANTS = [(name, suites) for name in ("tiny", "kernel10", "distinct16")
            for suites in (*ALL_SUITES[:-1], "reversed")]


def cli(tmp_path_factory, command, config, extra=()):
    """``cli.main`` from a fresh working directory: its exit code, its stderr and each file it writes."""
    cwd = tmp_path_factory.mktemp(command)
    (cwd / "config.json").write_text(json.dumps(config))
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stderr(io.StringIO()) as err:
        patch.chdir(cwd)
        code = main([command, "--config", "config.json", "--out", "out", *extra])
    return code, err.getvalue(), {path.name: path.read_bytes() for path in sorted((cwd / "out").iterdir())}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Each of RUNS twice: name -> [(code, stderr, files), (code, stderr, files)]."""
    return {name: [cli(tmp_path_factory, command, CONFIGS[config], extra) for _ in range(2)]
            for name, (command, config, extra) in RUNS.items()}


@pytest.fixture(scope="module")
def variants(tmp_path_factory):
    """Each of VARIANTS once: (config, suites) -> (code, stderr, files)."""
    return {(name, suites): cli(tmp_path_factory, "verify", dict(
        CONFIGS[name], suites=list(ALL_SUITES[::-1]) if suites == "reversed" else [suites]))
        for name, suites in VARIANTS}


def text(outputs, run, name) -> str:
    return outputs[run][0][2][name].decode()


def percent_e16(csv) -> str:
    """The CSV text with every number rewritten as Python's "%.16e"."""
    header, *rows = csv.splitlines()
    lines = [header] + [",".join("%.16e" % float(v) for v in row.split(",")) for row in rows]
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("run", list(RUNS))
def test_rerun_byte_identical(outputs, run):
    first, second = outputs[run]
    assert first == second
    assert first[:2] == FAILURES.get(run, (0, ""))


def test_line_counts(outputs):
    assert len(text(outputs, "long", "trajectory.csv").splitlines()) == 402  # the header and 401 states
    # the header, t = 0, 57 strides and t = 0.4
    assert len(text(outputs, "stride7", "monitors.csv").splitlines()) == 60
    assert len(text(outputs, "kernel32", "monitors.csv").splitlines()) == 22  # the header and 21 monitor points


def test_frozen_counts(outputs):
    assert json.loads(text(outputs, "leaf-dims-mixed", "leaf_dims.json"))["frozen_expected"] == 22
    assert json.loads(text(outputs, "casimirs-mixed", "casimirs.json"))["frozen_count"] == 6


@pytest.mark.parametrize("run, name", [
    ("monitored", "monitors.csv"), ("kernel32", "monitors.csv"), ("invariants-tiny", "invariants.csv"),
    ("invariants-invariants32", "invariants.csv"), ("casimirs-tiny", "casimirs.csv"),
    ("casimirs-mixed", "casimirs.csv"),
])
def test_tables_are_percent_e16(outputs, run, name):
    # the n = 32 monitors hold numbers far below 1e-6, the integer columns take the exact powers of ten
    csv = text(outputs, run, name)
    assert csv == percent_e16(csv)
    if name == "monitors.csv":
        assert min(abs(float(v)) for row in csv.splitlines()[1:] for v in row.split(",") if float(v)) < 1e-30


def test_trajectories_are_percent_e16(outputs):
    csvs = [files["trajectory.csv"].decode() for runs in outputs.values() for _, _, files in runs
            if "trajectory.csv" in files]
    assert len(csvs) >= 10
    assert "e-150" in text(outputs, "tiny_zero_n", "trajectory.csv").splitlines()[-1]
    for csv in csvs:
        assert csv == percent_e16(csv)


@pytest.mark.parametrize("name, suites", VARIANTS)
def test_suites_alone_and_reversed(outputs, variants, name, suites):
    code, _, files = variants[name, suites]
    certificates = {key: data for key, data in files.items() if key.startswith("certificate_")}
    # exit 1 comes exactly when a certificate written fails
    assert code == any(json.loads(data)["passed"] is False for data in certificates.values())
    everything = {key: data for key, data in outputs[f"verify-{name}"][0][2].items()
                  if key.startswith("certificate_")}
    assert len(everything) == 7
    if suites != "reversed":
        everything = {f"certificate_{suites}.json": everything[f"certificate_{suites}.json"]}
    assert certificates == everything


def test_json_files_in_json_dump_layout(outputs, variants):
    runs = [*(run for runs in outputs.values() for run in runs), *variants.values()]
    texts = [data.decode() for _, _, files in runs for key, data in files.items() if key.endswith(".json")]
    assert len(texts) >= 30
    for data in texts:
        assert data == json.dumps(json.loads(data), indent=2, sort_keys=True) + "\n"
