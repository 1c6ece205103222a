import io
import json

import numpy as np
import pytest

from symflow.cli import _write_csv, main
from symflow.dynamics import IntegratorConfig, integrate


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


BASE = {
    "n": 4,
    "N": {"canonical": {"v": [1.0, 2.0], "d": 0}},
    "X0": {"random": {"seed": 11}},
    "integrator": {"step": 0.001, "t_end": 0.2, "monitor_stride": 50},
    "samples": 5,
    "seed": 3,
}


def run(tmp_path, command, config, out="out", extra=()):
    cfg = write_config(tmp_path, config)
    out_dir = tmp_path / out
    code = main([command, "--config", cfg, "--out", str(out_dir), *extra])
    return code, out_dir


class TestSimulate:
    def test_writes_series_and_echo(self, tmp_path):
        code, out = run(tmp_path, "simulate", BASE)
        assert code == 0
        assert (out / "trajectory.csv").exists()
        assert (out / "monitors.csv").exists()
        assert (out / "runconfig.json").exists()
        header = (out / "monitors.csv").read_text().splitlines()[0].split(",")
        assert header[:7] == ["t", "h_1_0", "h_2_0", "h_3_0", "h_3_2", "C_1", "C_2"]
        assert "drift_h_1_0" in header and "drift_C_2" in header

    def test_deterministic_rerun(self, tmp_path):
        code1, out1 = run(tmp_path, "simulate", BASE, out="a")
        code2, out2 = run(tmp_path, "simulate", BASE, out="a2")
        assert code1 == code2 == 0
        for name in ("trajectory.csv", "monitors.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_zero_structure_constant_series(self, tmp_path):
        config = dict(BASE, n=3, N={"canonical": {"v": [], "d": 3}})
        code, out = run(tmp_path, "simulate", config)
        assert code == 0
        rows = (out / "trajectory.csv").read_text().splitlines()[1:]
        first, last = rows[0].split(",")[1:], rows[-1].split(",")[1:]
        assert first == last

    def test_zero_horizon_single_row(self, tmp_path):
        config = dict(BASE, integrator={"step": 0.001, "t_end": 0.0})
        code, out = run(tmp_path, "simulate", config)
        assert code == 0
        assert len((out / "trajectory.csv").read_text().splitlines()) == 2

    def test_numerical_abort_exit_3(self, tmp_path):
        # the second state overflows inside an RK4 stage, not at a step end
        for i, x0 in enumerate(([[100.0, 3.0], [3.0, -40.0]], [[10.0, 0.3], [0.3, -4.0]])):
            config = dict(
                BASE,
                n=2,
                N={"canonical": {"v": [1.0], "d": 0}},
                X0={"explicit": x0},
                integrator={"step": 0.5, "t_end": 50.0},
            )
            code, _ = run(tmp_path, "simulate", config, out=f"out{i}")
            assert code == 3

    def test_json_format(self, tmp_path):
        code, out = run(tmp_path, "simulate", BASE, extra=("--format", "json"))
        assert code == 0
        assert (out / "trajectory.json").exists()
        assert not (out / "trajectory.csv").exists()

    def test_trajectory_matches_savetxt(self, tmp_path):
        code, out = run(tmp_path, "simulate", BASE)
        assert code == 0
        echo = json.loads((out / "runconfig.json").read_text())
        traj = integrate(np.asarray(echo["X0"]), np.asarray(echo["N"]),
                         IntegratorConfig(**echo["integrator"]))
        n = echo["n"]
        header = ["t"] + [f"X_{i}_{j}" for i in range(n) for j in range(n)]
        expected = io.StringIO()
        np.savetxt(expected, np.hstack([traj.times[:, None], traj.states.reshape(len(traj.times), -1)]),
                   fmt="%.16e", delimiter=",", header=",".join(header), comments="")
        assert (out / "trajectory.csv").read_bytes() == expected.getvalue().encode()

    def test_values_round_trip(self, tmp_path):
        _, out = run(tmp_path, "simulate", BASE)
        line = (out / "monitors.csv").read_text().splitlines()[1]
        values = [float(v) for v in line.split(",")]
        assert values[0] == 0.0
        assert all(np.isfinite(values))


class TestVerify:
    def test_all_suites_pass(self, tmp_path):
        config = dict(BASE, suites="all")
        code, out = run(tmp_path, "verify", config)
        assert code == 0
        for suite in ("involution", "independence", "casimir", "leaf_dims",
                      "recursion", "lax", "sectional2x2"):
            payload = json.loads((out / f"certificate_{suite}.json").read_text())
            assert payload["verdict"] in ("pass", "not assessed")

    def test_degenerate_independence_not_assessed(self, tmp_path):
        config = dict(
            BASE, n=6, N={"canonical": {"v": [1.0, 2.0], "d": 2}},
            suites=["independence"],
        )
        code, out = run(tmp_path, "verify", config)
        assert code == 0
        payload = json.loads((out / "certificate_independence.json").read_text())
        assert payload["verdict"] == "not assessed"
        assert payload["summary"]["counted"] == 9
        assert payload["summary"]["required"] == 8

    def test_rank_tol_sets_reported_structure(self, tmp_path):
        # a frequency of 1e-11 is kernel at the default rank tolerance and
        # image at 1e-12; every certificate must report the form of --rank-tol
        config = dict(
            BASE, N={"canonical": {"v": [1.0, 1e-11], "d": 0}},
            suites=["involution", "independence", "recursion", "lax"], samples=1,
        )
        run(tmp_path, "verify", config, extra=("--rank-tol", "1e-12"))
        for suite in config["suites"]:
            payload = json.loads((tmp_path / "out" / f"certificate_{suite}.json").read_text())
            assert (payload["p"], payload["d"]) == (2, 0), suite

    def test_rank_tol_above_canonical_tol(self, tmp_path):
        # a frequency of 1e-6 is kernel at --rank-tol 1e-5, far above the
        # 1e-10 the canonical form meets elsewhere; the run must not exit 2
        suites = ["involution", "independence", "casimir", "leaf_dims", "recursion", "lax"]
        config = dict(BASE, N={"canonical": {"v": [1.0, 1e-6], "d": 0}}, suites=suites)
        code, out = run(tmp_path, "verify", config, extra=("--rank-tol", "1e-5"))
        assert code in (0, 1)
        for suite in suites:
            payload = json.loads((out / f"certificate_{suite}.json").read_text())
            assert (payload["p"], payload["d"]) == (1, 2), suite

    def test_malformed_structure_exit_2(self, tmp_path):
        config = {"n": 2, "N": {"explicit": [[0.0, 1.0], [1.0, 0.0]]}}
        code, _ = run(tmp_path, "verify", config)
        assert code == 2

    def test_unknown_suite_exit_2(self, tmp_path):
        config = dict(BASE, suites=["nonsense"])
        code, _ = run(tmp_path, "verify", config)
        assert code == 2

    @pytest.mark.parametrize("fields", [
        {"samples": "abc"},
        {"seed": "s"},
        {"N": {"canonical": {"v": [1.0], "d": "x"}}},
        {"N": {"canonical": [1.0]}},
        {"suites": 5},
        {"tolerances": {"lax": "big"}},
        {"samples": [1]},
        {"n": "x"},
        {"N": {"canonical": {"v": 5}}},
        {"N": {"random": 3}},
        {"X0": {"random": [1]}},
        {"integrator": 5},
        {"integrator": {"step": [1]}},
        {"output": {"formats": 5}},
        {"samples": 2.7},
        {"samples": True},
        {"seed": True},
        {"seed": 3.5},
        {"n": 4.5},
        {"N": {"canonical": {"v": [1.0, 2.0], "d": 0.5}}},
        {"N": {"random": {"seed": 2.5}}},
        {"X0": {"random": {"seed": True}}},
        {"integrator": {"step": 0.001, "t_end": 0.2, "monitor_stride": 1.9}},
        {"seed": -1, "X0": {"random": {}}},
        {"seed": -1, "N": {"random": {}}},
        {"X0": {"random": {"seed": -5}}},
        {"N": {"random": {"seed": -5}}},
        {"n": -1, "N": {"random": {}}},
        {"integrator": {"step": 0.001, "t_end": True, "monitor_stride": 50}},
        {"integrator": {"step": True, "t_end": 0.2, "monitor_stride": 50}},
        {"integrator": {"step": "0.001", "t_end": 0.2, "monitor_stride": 50}},
        {"tolerances": {"rank": True}},
        {"tolerances": {"identity": "1e-10"}},
        {"N": {"canonical": {"v": [True, 2.0], "d": 0}}},
        {"N": {"canonical": {"v": ["1.0", 2.0], "d": 0}}},
        {"integrator": {"step": 0.001, "t_end": float("inf"), "monitor_stride": 50}},
        {"integrator": {"step": 0.001, "t_end": 10**400, "monitor_stride": 50}},
        {"tolerances": {"rank": float("nan")}},
        {"n": 2, "N": {"explicit": [[False, True], [-1, 0]]}, "X0": {"random": {"seed": 1}}},
        {"n": 2, "N": {"explicit": [[0, 1], [-1, 0]]}, "X0": {"explicit": [[True, 0], [0, 1]]}},
        {"n": 2, "N": {"explicit": [[0, "1"], [-1, 0]]}, "X0": {"random": {"seed": 1}}},
    ])
    def test_malformed_field_exit_2(self, tmp_path, capsys, fields):
        code, _ = run(tmp_path, "verify", dict(BASE, **fields))
        assert code == 2
        assert "config error:" in capsys.readouterr().err

    def test_integral_floats_accepted(self, tmp_path):
        # JSON does not tell 3 from 3.0; a count without a fractional part is accepted
        floats = dict(
            BASE, n=4.0, seed=3.0, samples=5.0,
            N={"canonical": {"v": [1.0, 2.0], "d": 0.0}},
            X0={"random": {"seed": 11.0}},
            integrator={"step": 0.001, "t_end": 0.2, "monitor_stride": 50.0},
        )
        code_int, out_int = run(tmp_path, "simulate", BASE, out="ints")
        code_float, out_float = run(tmp_path, "simulate", floats, out="floats")
        assert code_int == code_float == 0
        echo = json.loads((out_float / "runconfig.json").read_text())
        assert [echo["n"], echo["seed"], echo["samples"], echo["integrator"]["monitor_stride"]] == [4, 3, 5, 50]
        for name in ("trajectory.csv", "monitors.csv"):
            assert (out_int / name).read_bytes() == (out_float / name).read_bytes()

    @pytest.mark.parametrize("config", [BASE, dict(BASE, X0={"random": {}})])
    def test_negative_seed_flag_exit_2(self, tmp_path, capsys, config):
        code, _ = run(tmp_path, "simulate", config, extra=("--seed", "-1"))
        assert code == 2
        assert "config error: seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [("--tol", "nan"), ("--rank-tol", "inf")])
    def test_non_finite_tolerance_flag_exit_2(self, tmp_path, capsys, flag):
        code, _ = run(tmp_path, "verify", BASE, extra=flag)
        assert code == 2
        assert "config error:" in capsys.readouterr().err

    def test_malformed_output_dir_exit_2(self, tmp_path, capsys):
        config = write_config(tmp_path, dict(BASE, output={"dir": 5}))
        assert main(["verify", "--config", config]) == 2
        assert "config error:" in capsys.readouterr().err


class TestInvariantsCommand:
    def test_n4_count(self, tmp_path):
        code, out = run(tmp_path, "invariants", BASE)
        assert code == 0
        payload = json.loads((out / "invariants.json").read_text())
        assert payload["count"] == payload["count_expected"] == 4
        assert set(payload["values"]) == {"h_1_0", "h_2_0", "h_3_0", "h_3_2"}

    def test_n9_count(self, tmp_path):
        config = dict(BASE, n=9, N={"random": {"seed": 2}})
        code, out = run(tmp_path, "invariants", config)
        assert code == 0
        payload = json.loads((out / "invariants.json").read_text())
        assert payload["count"] == payload["count_expected"] == 20

    def test_zero_state_all_zero(self, tmp_path):
        config = dict(BASE, X0={"explicit": [[0.0] * 4] * 4})
        code, out = run(tmp_path, "invariants", config)
        assert code == 0
        payload = json.loads((out / "invariants.json").read_text())
        assert all(v == 0.0 for v in payload["values"].values())


class TestOtherCommands:
    def test_casimirs(self, tmp_path):
        code, out = run(tmp_path, "casimirs", BASE)
        assert code == 0
        payload = json.loads((out / "casimirs.json").read_text())
        assert len(payload["lie_poisson_values"]) == 2
        assert payload["frequency_mode"] == "distinct"

    def test_leaf_dims(self, tmp_path):
        code, out = run(tmp_path, "leaf-dims", BASE)
        assert code == 0
        payload = json.loads((out / "leaf_dims.json").read_text())
        assert payload["lie_poisson_dim"] == payload["lie_poisson_expected"] == 8


class TestConfigHandling:
    def test_missing_config_file(self, tmp_path):
        code = main(["simulate", "--config", str(tmp_path / "absent.json")])
        assert code == 2

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path)]) == 2

    def test_size_mismatch(self, tmp_path):
        config = dict(BASE, n=6)
        code, _ = run(tmp_path, "simulate", config)
        assert code == 2

    def test_x0_size_mismatch(self, tmp_path):
        config = dict(BASE, X0={"explicit": [[1.0, 0.0], [0.0, 1.0]]})
        code, _ = run(tmp_path, "simulate", config)
        assert code == 2

    def test_x0_not_symmetric(self, tmp_path):
        config = dict(BASE, X0={"explicit": [[1.0, 2.0, 0, 0], [0.0, 1.0, 0, 0],
                                             [0, 0, 1.0, 0], [0, 0, 0, 1.0]]})
        code, _ = run(tmp_path, "simulate", config)
        assert code == 2

    def test_bad_integrator(self, tmp_path):
        config = dict(BASE, integrator={"step": -0.1, "t_end": 1.0})
        code, _ = run(tmp_path, "simulate", config)
        assert code == 2

    def test_seed_override_changes_random_state(self, tmp_path):
        config = dict(BASE, X0={"random": {}})
        _, out1 = run(tmp_path, "invariants", config, out="s1", extra=("--seed", "1"))
        _, out2 = run(tmp_path, "invariants", config, out="s2", extra=("--seed", "2"))
        v1 = json.loads((out1 / "invariants.json").read_text())["values"]
        v2 = json.loads((out2 / "invariants.json").read_text())["values"]
        assert v1 != v2

    def test_seed_flag_does_not_outlive_its_call(self, tmp_path):
        # the parser is built once per process; a flag must not leak into the next call
        _, out1 = run(tmp_path, "simulate", BASE, out="flag", extra=("--seed", "5"))
        _, out2 = run(tmp_path, "simulate", BASE, out="config")
        assert json.loads((out1 / "runconfig.json").read_text())["seed"] == 5
        assert json.loads((out2 / "runconfig.json").read_text())["seed"] == BASE["seed"]

    def test_runconfig_echo_resolves_matrices(self, tmp_path):
        code, out = run(tmp_path, "simulate", BASE)
        assert code == 0
        payload = json.loads((out / "runconfig.json").read_text())
        n = np.asarray(payload["N"])
        assert n.shape == (4, 4)
        assert np.array_equal(n, -n.T)
        assert np.asarray(payload["X0"]).shape == (4, 4)


def per_value_csv(header, rows) -> str:
    """The per-value formatter the CSV writer replaced, the reference form."""
    lines = [",".join(header)] + [",".join(f"{float(v):.16e}" for v in row) for row in rows]
    return "".join(line + "\n" for line in lines)


def state_table(n, steps, seed=0):
    """[t | X] rows of exactly symmetric states, as simulate writes them."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((steps, n, n))
    states = (a + a.transpose(0, 2, 1)) / 2.0
    return np.hstack([np.arange(steps)[:, None] * 1e-3, states.reshape(steps, -1)])


def nan_with_payload(payload):
    return np.array([0x7FF8000000000000 | payload], dtype=np.uint64).view(np.float64)[0]


def one_row_differs():
    rows = np.repeat(np.random.default_rng(1).standard_normal((6, 1)), 3, axis=1)
    rows[4, 1] = np.nextafter(rows[4, 1], np.inf)
    return rows


class TestCsvWriter:
    @pytest.mark.parametrize("rows", [
        np.array([[0.0, -0.0, 5e-324, -5e-324],
                  [1e300, -1e300, np.nan, np.inf],
                  [-np.inf, 1.0 / 3.0, -2.5e-17, 123456789.125]]),
        [[1, 0, 0.25], [3, 2, -1.5e-8], [4, 2, 7.0]],  # (k, two_r, value), as in invariants.csv
        [],
        pytest.param(np.array([[1.5, 1.5], [0.0, -0.0], [2.0, 2.0]]), id="signed-zeros"),
        pytest.param(np.array([[np.nan, np.nan, nan_with_payload(1), -np.nan],
                               [np.nan, np.nan, nan_with_payload(1), -np.nan]]), id="nan-columns"),
        pytest.param(np.full((4, 5), 0.1), id="all-equal"),
        pytest.param(np.arange(5.0)[:, None] / 3.0, id="one-column"),
        pytest.param(np.array([[1.0, 2.0, 1.0, -0.0, 0.0]]), id="one-row"),
        pytest.param(state_table(1, 40), id="states-n1"),
        pytest.param(state_table(2, 40), id="states-n2"),
        pytest.param(state_table(8, 40), id="states-n8"),
        pytest.param(state_table(32, 5), id="states-n32"),
        pytest.param(one_row_differs(), id="one-row-differs"),
    ])
    def test_bytes_match_per_value_formatter(self, tmp_path, rows):
        header = [f"c{i}" for i in range(len(rows[0]) if len(rows) else 2)]
        _write_csv(tmp_path / "table.csv", header, rows)
        assert (tmp_path / "table.csv").read_bytes() == per_value_csv(header, rows).encode()
