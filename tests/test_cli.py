import importlib
import inspect
import io
import json
import math
import pkgutil
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import symflow._io
import symflow.cli
import symflow.verify
from symflow._io import (
    CSV_CHUNK_ROWS,
    _e16_cells,
    _json_text,
    _power_tables,
    _scaled_digits,
    _write_csv,
    _write_trajectory_csv,
    _write_trajectory_json,
)
from symflow.cli import ALL_SUITES, main
from symflow.dynamics import IntegratorConfig, integrate
from symflow.poisson import canonical_form


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

    def test_unallocatable_horizon_exit_2(self, tmp_path, capsys):
        # 1e17 steps: the times alone need 8e17 bytes, past any address space,
        # so the allocation fails at once
        integrator = {"step": 1e-8, "t_end": 1e9}
        code, out = run(tmp_path, "simulate", dict(BASE, integrator=integrator))
        assert code == 2
        n_steps = IntegratorConfig(**integrator).n_steps
        assert n_steps >= 10**17
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"{n_steps} steps of a 4x4 state" in err
        assert [path.name for path in out.iterdir()] == ["runconfig.json"]

    def test_unallocatable_n_exit_2(self, tmp_path, capsys):
        # a random N of n = 5e6 needs 2e14 bytes, past the 2^47-byte user
        # address space, so the allocation fails at once
        code, out = run(tmp_path, "simulate", {"n": 5_000_000, "N": {"random": {"seed": 1}}})
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    def test_json_format(self, tmp_path):
        code, out = run(tmp_path, "simulate", BASE, extra=("--format", "json"))
        assert code == 0
        assert (out / "trajectory.json").exists()
        assert not (out / "trajectory.csv").exists()

    def test_trajectory_matches_savetxt(self, tmp_path):
        code, out = run(tmp_path, "simulate", BASE)
        assert code == 0
        echo = json.loads((out / "runconfig.json").read_text())
        traj = integrate(np.asarray(echo["X0"]), canonical_form(np.asarray(echo["N"])),
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


def overflowing_config():
    """n = 32, X0 = 1e9·(A + Aᵀ): (|X|_F + |N|_F)^31 passes the float range."""
    a = np.random.default_rng(0).standard_normal((32, 32))
    return dict(
        BASE,
        n=32,
        N={"canonical": {"v": np.linspace(1.5, 0.5, 16).tolist(), "d": 0}},
        X0={"explicit": (1e9 * (a + a.T)).tolist()},
        integrator={"step": 1e-3, "t_end": 2e-3, "monitor_stride": 1},
    )


def dumped_json(path):
    """A JSON file's text as json.dump(indent=2, sort_keys=True) writes what it holds."""
    with open(path, encoding="utf-8") as fh:
        return json.dumps(json.load(fh), indent=2, sort_keys=True) + "\n"


class TestNumericalAbort:
    @pytest.mark.parametrize("command", ["invariants", "simulate"])
    def test_overflow_exit_3(self, tmp_path, capsys, command):
        code, out = run(tmp_path, command, overflowing_config())
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical abort: ") and "float range" in err
        assert [path.name for path in out.iterdir()] == ["runconfig.json"]

    def test_singular_kernel_block_exit_2(self, tmp_path, capsys):
        # the monitor record at t = 0 fails; the records are evaluated after
        # the steps, and still nothing but runconfig.json is written
        x0 = [[1.0, 0.2, 0.1, 0.3], [0.2, 2.0, 0.4, 0.1], [0.1, 0.4, 1.0, 1.0], [0.3, 0.1, 1.0, 1.0]]
        config = dict(BASE, N={"canonical": {"v": [1.0], "d": 2}}, X0={"explicit": x0})
        code, out = run(tmp_path, "simulate", config)
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: kernel block of the state is singular; the trace-power Casimirs "
            "are only defined where it is invertible\n")
        assert [path.name for path in out.iterdir()] == ["runconfig.json"]

    def test_entry_past_the_squares_range_exit_3(self, tmp_path, capsys):
        # |X|_F as a plain sum of squares overflows to inf here, and inf^k
        # would pass the range check and write inf into invariants.csv
        config = dict(BASE, X0={"explicit": [[1e200, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]]})
        code, out = run(tmp_path, "invariants", config)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical abort: ")
        assert "(|X|_F + |N|_F)^k = 1.000e+200^k passes the float range before k = 3" in err
        assert [path.name for path in out.iterdir()] == ["runconfig.json"]

    def test_casimir_past_the_float_range_exit_3(self, tmp_path, capsys):
        # trace((X core^-1)^4) / 4 at X = diag(1e200, 1, 2, 3) passes the float range: one
        # line, no RuntimeWarning on the way, and no casimirs.json holding an Infinity
        config = dict(BASE, X0={"explicit": [[1e200, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]]})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out = run(tmp_path, "casimirs", config)
        assert code == 3
        assert capsys.readouterr().err == "numerical abort: Casimir C_2 passes the float range at X0\n"
        assert [path.name for path in out.iterdir()] == ["runconfig.json"]


SUITE_ORDER_KINDS = {
    "distinct-8": {"v": [0.6, 0.9, 1.2, 1.45], "d": 0},
    "nullity1-9": {"v": [0.6, 0.9, 1.2, 1.45], "d": 1},
    "nullity2-10": {"v": [0.6, 0.9, 1.2, 1.45], "d": 2},
    "equal-8": {"v": [1.3] * 4, "d": 0},
}


class TestSuiteOrder:
    """Certificates do not depend on which suites run or in what order.

    Every listed suite but ``sectional2x2`` runs in one pass over the draws;
    the equal-8 kind makes ``independence`` resample, so its later samples
    read draws that the other suites read as other samples.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        # the draws, their gradient tables and every walk of the powers
        calls = {"random_sym": 0, "gradient_table": 0, "_power_stacks": 0}
        for module, name in [(symflow.verify, "random_sym"), (symflow.verify, "gradient_table"),
                             (symflow.invariants, "_power_stacks")]:
            def counted(*args, name=name, original=getattr(module, name), **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return calls

    @staticmethod
    def certificates(tmp_path, canonical, suites, out):
        n = len(canonical["v"]) * 2 + canonical["d"]
        config = dict(BASE, n=n, N={"canonical": canonical}, samples=2, seed=5, suites=suites)
        code, out_dir = run(tmp_path, "verify", config, out=out)
        assert code in (0, 1)
        return {suite: (out_dir / f"certificate_{suite}.json").read_bytes() for suite in suites}

    @pytest.mark.parametrize("kind", sorted(SUITE_ORDER_KINDS))
    def test_alone_and_reversed_match_all(self, tmp_path, kind):
        canonical = SUITE_ORDER_KINDS[kind]
        everything = self.certificates(tmp_path, canonical, list(ALL_SUITES), "all")
        assert self.certificates(tmp_path, canonical, list(ALL_SUITES)[::-1], "reversed") == everything
        for suite in ALL_SUITES:
            alone = self.certificates(tmp_path, canonical, [suite], f"alone_{suite}")
            assert alone[suite] == everything[suite], suite
        if kind == "equal-8":
            details = json.loads(everything["independence"])["details"]
            assert sum(d["resamples"] for d in details) > 0

    def test_one_gradient_table_per_draw(self, tmp_path, calls):
        # recursion reads the draw's table too: nothing else walks the powers
        certs = self.certificates(tmp_path, SUITE_ORDER_KINDS["equal-8"], list(ALL_SUITES), "all")
        resamples = sum(d["resamples"] for d in json.loads(certs["independence"])["details"])
        assert resamples > 0
        draws = 2 + resamples
        assert calls == {"random_sym": draws, "gradient_table": draws, "_power_stacks": draws}

    def test_recursion_alone_walks_once_per_draw(self, tmp_path, calls):
        self.certificates(tmp_path, SUITE_ORDER_KINDS["nullity2-10"], ["recursion"], "recursion")
        assert calls == {"random_sym": 2, "gradient_table": 2, "_power_stacks": 2}

    def test_no_gradient_table_without_member_suites(self, tmp_path, calls):
        self.certificates(tmp_path, SUITE_ORDER_KINDS["equal-8"], ["casimir", "lax"], "pair")
        assert calls == {"random_sym": 2, "gradient_table": 0, "_power_stacks": 0}

    @pytest.mark.parametrize("suites,written", [
        (["involution", "casimir", "independence"], ["certificate_involution.json", "runconfig.json"]),
        (["independence", "involution"], ["runconfig.json"]),
        (["recursion", "sectional2x2", "lax", "involution"],
         ["certificate_recursion.json", "certificate_sectional2x2.json", "runconfig.json"]),
    ])
    def test_failing_suite_raises_at_its_turn(self, tmp_path, monkeypatch, suites, written):
        # the suites run in one pass, but a failure stops the run where the suite runs alone
        def broken(*args):
            raise ArithmeticError("broken")

        # casimir and independence both rank through numerical_rank
        monkeypatch.setattr(symflow.verify, "numerical_rank", broken)
        monkeypatch.setattr(symflow.verify, "lax_residual", broken)
        code, out = run(tmp_path, "verify", dict(BASE, suites=suites))
        assert code == 3
        assert sorted(path.name for path in out.iterdir()) == written


class TestVerify:
    def test_all_suites_pass(self, tmp_path):
        config = dict(BASE, suites="all")
        code, out = run(tmp_path, "verify", config)
        assert code == 0
        for suite in ("involution", "independence", "casimir", "leaf_dims",
                      "recursion", "lax", "sectional2x2"):
            payload = json.loads((out / f"certificate_{suite}.json").read_text())
            assert payload["verdict"] in ("pass", "not assessed")

    def test_distinct16_casimir_passes(self, tmp_path):
        # the CI's distinct16.json: the Lie-Poisson rank reads all 8 Casimirs on each draw
        config = {"n": 16, "N": {"canonical": {"v": [1.6, 1.45, 1.3, 1.15, 1.0, 0.85, 0.7, 0.55], "d": 0}},
                  "X0": {"random": {"seed": 9}}, "samples": 2, "seed": 9}
        code, out = run(tmp_path, "verify", config)
        payload = json.loads((out / "certificate_casimir.json").read_text())
        assert payload["verdict"] == "pass"
        assert [item["lie_poisson_rank"] for item in payload["details"][:-1]] == [8, 8]
        assert code == 0

    def test_json_files_in_json_dump_layout(self, tmp_path):
        code, out = run(tmp_path, "verify", dict(BASE, n=5, N={"canonical": {"v": [1.0, 2.0], "d": 1}}))
        assert code == 0
        for path in out.glob("*.json"):
            assert path.read_text() == dumped_json(path), path.name

    def test_unallocatable_samples_exit_2(self, tmp_path, capsys, monkeypatch):
        # 1e13 samples of 5 draws need 4e14 bytes, past the user address space;
        # the run stops there, before lax, which would take 1e13 draws
        lax_calls = []

        def lax_residual(*args):
            lax_calls.append(args)
            raise ArithmeticError("lax ran")

        monkeypatch.setattr(symflow.verify, "lax_residual", lax_residual)
        for suites in (["sectional2x2"], ["sectional2x2", "lax"]):
            code, _ = run(tmp_path, "verify", dict(BASE, suites=suites, samples=10**13))
            assert code == 2
            assert capsys.readouterr().err.startswith("config error: ")
        assert lax_calls == []

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
        {"tolerances": {"rank_tol": 1e-3}},
        {"integrator": {"dt": 0.5}},
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

    @pytest.mark.parametrize("command", ["simulate", "verify", "invariants", "casimirs", "leaf-dims"])
    @pytest.mark.parametrize("fields, extra, message", [
        ({"tolerances": {"rank": 0}}, (), "tolerance rank must be > 0, got 0.0"),
        ({"tolerances": {"lax": -1}}, (), "tolerance lax must be > 0, got -1.0"),
        ({}, ("--tol", "-5"), "--tol must be > 0, got -5.0"),
    ], ids=["rank-zero", "lax-negative", "tol-flag-negative"])
    def test_non_positive_tolerance_exit_2(self, tmp_path, capsys, command, fields, extra, message):
        # every command rejects it, whether or not it reads that tolerance
        code, _ = run(tmp_path, command, dict(BASE, **fields), extra=extra)
        assert code == 2
        assert f"config error: {message}" in capsys.readouterr().err

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

    def test_overflow_beyond_the_table_is_not_computed(self, tmp_path):
        # (X + tN)^4 at X = diag(1e90, ...) passes the float range, but only
        # k <= 3 is in the table, and every value kept is finite
        config = dict(BASE, X0={"explicit": [[1e90, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]]})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run(tmp_path, "invariants", config)
        assert code == 0 and not caught
        values = json.loads((out / "invariants.json").read_text())["values"]
        assert values["h_2_0"] == pytest.approx(0.5e180, rel=1e-15)
        assert all(np.isfinite(list(values.values())))
        assert (out / "invariants.json").read_text() == dumped_json(out / "invariants.json")

    def test_zero_state_all_zero(self, tmp_path):
        config = dict(BASE, X0={"explicit": [[0.0] * 4] * 4})
        code, out = run(tmp_path, "invariants", config)
        assert code == 0
        payload = json.loads((out / "invariants.json").read_text())
        assert all(v == 0.0 for v in payload["values"].values())


class TestOneByOne:
    """n = 1: no members, rank 0 expected and found."""

    CONFIG = {"N": {"canonical": {"v": [], "d": 1}}}

    def test_invariants(self, tmp_path):
        code, out = run(tmp_path, "invariants", self.CONFIG)
        assert code == 0
        payload = json.loads((out / "invariants.json").read_text())
        assert payload["count"] == payload["count_expected"] == 0

    def test_verify(self, tmp_path):
        code, out = run(tmp_path, "verify", self.CONFIG)
        assert code == 0
        payload = json.loads((out / "certificate_independence.json").read_text())
        assert payload["verdict"] == "pass"
        assert payload["summary"]["counted"] == payload["summary"]["required"] == 0


#: Structures whose frozen or Lie-Poisson leaf rank straddles the decade above the rank cut: the
#: rank pair leaf-dims reports at X0 seed 3, then each leaf_dims sample at seed 3, an unstable rank
#: pair as a tuple or a stable sample's dimensions, equal to the expected ones, as a list.
RANK_INSTABILITY_CASES = [
    ([1.0, 1.000000003], 0, (8, 6), [(8, 6)] * 5),
    ([1.0, 1.000000003], 1, (12, 10), [(12, 10)] * 5),
    ([2.0, 1.0, 4e-9], 0, (18, 16), [(18, 16)] * 5),
    ([2.0, 1.0, 4e-9], 1, (23, 20), [(23, 20), (22, 20), (22, 20), (22, 20), (23, 20)]),
    ([1.0, 1.2e-8], 0, (8, 6), [(8, 6), (8, 6), [8, 8], (8, 6), (8, 6)]),
    ([1.0, 1.2e-8], 1, (12, 10), [(12, 10), (12, 8), (12, 10), (12, 8), (12, 10)]),
    ([1.0, 3e-9], 0, (8, 6), [(8, 6)] * 5),
    ([1.0, 3e-9], 1, (12, 8), [(12, 8), (12, 8), (10, 8), (10, 8), (12, 8)]),
]


def unstable_rank(r, r_loose):
    return f"rank {r} at tol 1.0e-09 but {r_loose} at 1.0e-08"


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

    @pytest.mark.parametrize("freqs, d, ranks, samples", RANK_INSTABILITY_CASES,
                             ids=["frozen-0", "frozen-1", "frozen-kernel-0", "frozen-kernel-1",
                                  "lie-poisson-0", "lie-poisson-1", "both-0", "both-1"])
    def test_rank_instability(self, tmp_path, capsys, freqs, d, ranks, samples):
        # leaf-dims exits 1 with one line; the leaf_dims certificate counts each unstable sample n(n+1)/2
        config = {"N": {"canonical": {"v": freqs, "d": d}}, "X0": {"random": {"seed": 3}},
                  "samples": 5, "seed": 3, "suites": ["leaf_dims"]}
        code, out = run(tmp_path, "leaf-dims", config, out="leaves")
        assert code == 1 and not (out / "leaf_dims.json").exists()
        assert capsys.readouterr().err == f"verification failure: {unstable_rank(*ranks)}\n"
        code, out = run(tmp_path, "verify", config, out="verify")
        assert code == 1 and capsys.readouterr().err == ""
        n = 2 * len(freqs) + d
        details = [{"sample": s, "unstable": unstable_rank(*r)} if isinstance(r, tuple)
                   else {"dims": r, "expected": r, "sample": s} for s, r in enumerate(samples)]
        assert json.loads((out / "certificate_leaf_dims.json").read_text()) == {
            "name": "leaf_dims", "n": n, "p": len(freqs), "d": d, "sample_count": 5,
            "max_residual": n * (n + 1) / 2, "tolerance": 0.0, "passed": False, "verdict": "fail",
            "seed": 3, "details": details,
        }


#: The public functions that no command reaches, each with the reason it stays.
UNREACHED_REFERENCES = {
    "matrix_core.frobenius_inner": "the trace pairing of the two bracket references",
    "poisson.lie_poisson_bracket": "pair-by-pair reference for the involution suite",
    "poisson.poisson_jacobi_defect": "compatibility of the two Poisson structures, acceptance C09",
    "verify.flow_generation_defect": "the flow generated through each Poisson structure, acceptance C10",
}


def public_functions() -> dict:
    """Code object -> "module.name" of every public function and method that symflow defines."""
    found = {}
    for info in pkgutil.iter_modules(symflow.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"symflow.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members = [(f"{name}.{attr}", value) for attr, value in vars(obj).items()
                           if not attr.startswith("_")]
            for label, value in members:
                # property, cached_property, staticmethod, functools.cache
                for unwrap in ("fget", "func", "__func__", "__wrapped__"):
                    value = getattr(value, unwrap, value)
                if inspect.isfunction(value):
                    found[value.__code__] = f"{info.name}.{label}"
    return found


class TestEveryPublicFunctionReached:
    """Every public function and method of symflow runs under some command, or is a listed reference."""

    CONFIGS = [
        {"N": {"canonical": {"v": [0.8, 1.3], "d": 1}}, "X0": {"random": {"seed": 4}}},
        {"N": {"explicit": [[0.0, 1.0, 0.5, 0.0], [-1.0, 0.0, 0.2, 0.3],
                            [-0.5, -0.2, 0.0, 0.9], [0.0, -0.3, -0.9, 0.0]]},
         "X0": {"explicit": [[1.0, 0.2, 0.0, 0.1], [0.2, -0.5, 0.3, 0.0],
                             [0.0, 0.3, 0.7, 0.4], [0.1, 0.0, 0.4, 0.2]]}},
        {"n": 4, "N": {"random": {"seed": 5}}},
    ]
    COMMON = {"integrator": {"step": 0.01, "t_end": 0.04, "monitor_stride": 2},
              "suites": "all", "samples": 2, "seed": 6}

    def test_unreached_are_the_references(self, tmp_path):
        functions = public_functions()
        called = set()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in functions:
                called.add(functions[frame.f_code])

        symflow.cli.build_parser.cache_clear()  # a cached parser would skip its body
        codes = []
        sys.setprofile(profile)
        try:
            for i, config in enumerate(self.CONFIGS):
                for command in ("simulate", "verify", "invariants", "casimirs", "leaf-dims"):
                    codes.append(run(tmp_path, command, dict(self.COMMON, **config), out=f"{i}-{command}")[0])
        finally:
            sys.setprofile(None)
        assert set(codes) <= {0, 1}
        assert sorted(set(functions.values()) - called) == sorted(UNREACHED_REFERENCES)


class TestCanonicalFormOncePerRun:
    @pytest.mark.parametrize("command, calls", [
        ("simulate", 1), ("verify", 1), ("casimirs", 1), ("leaf-dims", 1), ("invariants", 0),
    ])
    def test_call_count(self, tmp_path, monkeypatch, command, calls):
        seen = []

        def counted(*args, **kwargs):
            seen.append(args)
            return canonical_form(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "symflow" and getattr(module, "canonical_form", None) is canonical_form:
                monkeypatch.setattr(module, "canonical_form", counted)
        code, _ = run(tmp_path, command, BASE)
        assert code == 0
        assert len(seen) == calls


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

    def test_scaled_explicit_n_accepted(self, tmp_path):
        # 1e10 q J q^T carries roundoff asymmetry of about 2e-6, within the relative bound
        q = np.linalg.qr(np.random.default_rng(3).standard_normal((6, 6)))[0]
        j = np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(3))
        code, out = run(tmp_path, "leaf-dims", dict(BASE, n=6, N={"explicit": (1e10 * q @ j @ q.T).tolist()}))
        assert code == 0
        payload = json.loads((out / "leaf_dims.json").read_text())
        assert payload["frequency_mode"] == "equal"
        assert payload["frozen_dim"] == payload["frozen_expected"] == 12

    def test_tiny_symmetric_n_rejected(self, tmp_path, capsys):
        # entries of about 1e-10: symmetric at every scale, so not a skew N
        a = 1e-10 * np.random.default_rng(4).standard_normal((6, 6))
        code, _ = run(tmp_path, "leaf-dims", dict(BASE, n=6, N={"explicit": (a + a.T).tolist()}))
        assert code == 2
        assert "config error: explicit N rejected: matrix is not skew-symmetric" in capsys.readouterr().err

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


class TestOneWayIn:
    """Every config object is checked against its keys; main echoes the config once, then dispatches."""

    @pytest.mark.parametrize("fields, message", [
        ({"sample": 5}, "unknown config fields ['sample']"),
        ({"N": {"canonical": {"v": [1.0, 2.0], "nullity": 1}}},
         "unknown canonical N fields ['nullity']; valid: ['v', 'd']"),
        ({"N": {"random": {"sed": 1}}}, "unknown random N fields ['sed']; valid: ['seed']"),
        ({"X0": {"random": {"sed": 1}}}, "unknown random X0 fields ['sed']; valid: ['seed']"),
        ({"output": {"format": ["json"]}}, "unknown output fields ['format']; valid: ['dir', 'formats']"),
    ], ids=["top-level", "canonical-N", "random-N", "random-X0", "output"])
    def test_misspelled_key_exit_2(self, tmp_path, capsys, fields, message):
        code, out = run(tmp_path, "simulate", dict(BASE, **fields))
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not out.exists()

    ROWS = "rows must be JSON lists of numbers, got a JSON"

    @pytest.mark.parametrize("fields, message", [
        ({"N": None}, "config is missing N"),
        ({"N": [1]}, "N must be an object with exactly one of: canonical, explicit, random"),
        ({"N": {"diagonal": [1]}}, "unknown N kind 'diagonal'"),
        ({"N": {"canonical": {}}}, "canonical N needs a frequency list v"),
        ({"N": {"canonical": {"v": ["a"]}}}, "canonical N field v must be real, got 'a'"),
        ({"N": {"canonical": {"v": [1.0], "d": -1}}}, "canonical N field d must be >= 0, got -1"),
        ({"N": {"canonical": {"v": [0.0, 1.0]}}}, "canonical N rejected: frequencies must be positive"),
        ({"N": {"explicit": [[0, "a"], [1, 0]]}}, "explicit N entry must be real, got 'a'"),
        ({"N": {"explicit": [[0, 1, 2], [1, 0, 3]]}},
         "explicit N rejected: expected a square matrix, got shape (2, 3)"),
        ({"N": {"explicit": 3}}, f"explicit N rejected: {ROWS} number"),
        ({"N": {"explicit": {"a": 1}}}, f"explicit N rejected: {ROWS} object"),
        ({"N": {"explicit": [[0, 1], 2]}}, f"explicit N rejected: {ROWS} number"),
        ({"N": {"explicit": [[0, 1], [1]]}}, "explicit N rejected: rows have lengths [2, 1]"),
        ({"n": None, "N": {"random": {"seed": 1}}}, "random N needs the config field n"),
        ({"N": {"random": 5}}, "random N must be a JSON object, got 5"),
        ({"N": {"random": {"seed": -1}}}, "random N field seed must be >= 0, got -1"),
        ({"X0": [[1]]}, "X0 must be an object with exactly one of: explicit, random"),
        ({"X0": {"canonical": {"v": [1.0]}}}, "unknown X0 kind 'canonical'"),
        ({"X0": {"explicit": [[1, True], [True, 1]]}}, "explicit X0 entry must be real, got True"),
        ({"X0": {"explicit": [[1, 2, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}},
         "explicit X0 rejected: matrix is not symmetric (defect 2.000e+00 > bound 2.000e-08)"),
        ({"X0": {"explicit": None}}, "explicit X0 rejected: rows must be JSON lists of numbers, got null"),
        ({"X0": {"explicit": ["ab", "cd"]}}, f"explicit X0 rejected: {ROWS} string"),
        ({"X0": {"explicit": "abcd"}}, f"explicit X0 rejected: {ROWS} string"),
        ({"X0": {"explicit": [[1, 0], True]}}, f"explicit X0 rejected: {ROWS} boolean"),
        ({"X0": {"explicit": [[1, 0, 0, 0], [0, 1], [0, 0, 1, 0], [0, 0, 0, 1]]}},
         "explicit X0 rejected: rows have lengths [4, 2, 4, 4]"),
        ({"X0": {"explicit": [[1, 0], [0, 1]]}}, "X0 size 2 does not match n = 4"),
        ({"X0": {"random": []}}, "random X0 must be a JSON object, got []"),
        ({"X0": {"random": {"seed": True}}}, "random X0 field seed must be integral, got True"),
    ], ids=["N-missing", "N-one-key", "N-kind", "canonical-N-v-missing", "canonical-N-v-entry",
            "canonical-N-d", "canonical-N-rejected", "explicit-N-entry", "explicit-N-rejected",
            "explicit-N-rows", "explicit-N-object", "explicit-N-number-row", "explicit-N-ragged",
            "random-N-size", "random-N-object", "random-N-seed",
            "X0-one-key", "X0-kind", "explicit-X0-entry", "explicit-X0-rejected", "explicit-X0-rows",
            "explicit-X0-string-rows", "explicit-X0-string", "explicit-X0-boolean-row",
            "explicit-X0-ragged", "explicit-X0-size", "random-X0-object", "random-X0-seed"])
    def test_matrix_config_error_exit_2(self, tmp_path, capsys, fields, message):
        # N and X0 share one reader; each class of error keeps its one line, byte for byte
        code, out = run(tmp_path, "simulate", dict(BASE, **fields))
        assert code == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", list(symflow.cli.COMMANDS))
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    def test_unusable_out_exit_2(self, tmp_path, capsys, command, below):
        (tmp_path / "afile").write_text("")
        code, _ = run(tmp_path, command, BASE, out="afile/sub" if below else "afile")
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert (tmp_path / "afile").read_text() == ""

    def test_deeply_nested_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "out").exists()

    @pytest.fixture
    def events(self, monkeypatch):
        """What main calls, in order: "echo" for each _echo_config, the command's name for each dispatch."""
        events, echo = [], symflow.cli._echo_config
        monkeypatch.setattr(symflow.cli, "_echo_config", lambda cfg: events.append("echo") or echo(cfg))
        for name, command in symflow.cli.COMMANDS.items():
            monkeypatch.setitem(symflow.cli.COMMANDS, name,
                                lambda cfg, name=name, command=command: events.append(name) or command(cfg))
        return events

    @pytest.mark.parametrize("command", list(symflow.cli.COMMANDS))
    def test_echoed_once_then_dispatched(self, tmp_path, events, command):
        code, out = run(tmp_path, command, BASE)
        assert code == 0
        assert events == ["echo", command]
        assert (out / "runconfig.json").exists()

    def test_echoed_once_before_a_numerical_abort(self, tmp_path, events):
        config = dict(BASE, n=2, N={"canonical": {"v": [1.0], "d": 0}}, X0={"explicit": [[10.0, 0.3], [0.3, -4.0]]},
                      integrator={"step": 0.5, "t_end": 50.0})
        code, out = run(tmp_path, "simulate", config)
        assert code == 3
        assert events == ["echo", "simulate"]
        assert [path.name for path in out.iterdir()] == ["runconfig.json"]


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


def ulps(values, steps):
    """values moved by ``steps`` units in the last place, away from zero for positive steps."""
    return (np.asarray(values, dtype=np.float64).view(np.int64) + steps).view(np.float64)


#: 10^k for k = -30..30, each the double nearest to it.
POWERS_OF_TEN = np.array([float(f"1e{k}") for k in range(-30, 31)])


def range_edges():
    """1e-6 and 1e17 with their neighbours, and 10^k +- 1 ulp for k = -30..30, with both signs."""
    edges = ulps([1e-6, 1e17], np.arange(-3, 4)[:, None]).ravel()
    tens = ulps(POWERS_OF_TEN, np.array([-1, 0, 1])[:, None]).ravel()
    values = np.concatenate([edges, tens])
    return np.stack([values, -values], axis=1)


def exact_ties(rng, count):
    """Doubles whose exact decimal expansion has 18 significant digits, the last a 5.

    m / 2^k with m odd is m·5^k / 10^k, so the 18 digits of m·5^k end in 5;
    k = 2..23 puts the ties at decimal exponents -6..15.
    """
    k = 2 + np.arange(count) % 22
    low = np.array([-(-10 ** 17 // 5 ** j) for j in range(24)])[k]
    high = np.array([min(10 ** 18 // 5 ** j, 2 ** 53) for j in range(24)])[k]
    m = rng.integers(low, high) | 1
    return m.astype(np.float64) / 2.0 ** k * rng.choice([-1.0, 1.0], count)


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
        pytest.param(state_table(8, CSV_CHUNK_ROWS - 1), id="chunk-1-rows"),
        pytest.param(state_table(8, CSV_CHUNK_ROWS), id="chunk-rows"),
        pytest.param(state_table(8, CSV_CHUNK_ROWS + 1), id="chunk+1-rows"),
        pytest.param(state_table(8, 2001), id="2001-rows"),
        pytest.param(range_edges(), id="range-edges"),
        pytest.param(exact_ties(np.random.default_rng(2), 440).reshape(-1, 11), id="exact-ties"),
        pytest.param(np.array([[np.inf, -np.inf, nan_with_payload(5), 0.0, -0.0]] * 3), id="non-finite"),
    ])
    def test_bytes_match_per_value_formatter(self, tmp_path, rows):
        header = [f"c{i}" for i in range(len(rows[0]) if len(rows) else 2)]
        _write_csv(tmp_path / "table.csv", header, rows)
        assert (tmp_path / "table.csv").read_bytes() == per_value_csv(header, rows).encode()


#: The classes of float64 values the "%.16e" kernel must match Python on, as (rng, count) -> values.
KERNEL_CLASSES = {
    "normal": lambda rng, count: rng.standard_normal(count),
    "uniform": lambda rng, count: rng.uniform(-1.0, 1.0, count),
    "log-uniform": lambda rng, count: rng.choice([-1.0, 1.0], count) * 10.0 ** rng.uniform(-30.0, 45.0, count),
    "powers-of-ten": lambda rng, count: rng.choice([-1.0, 1.0], count) * ulps(
        POWERS_OF_TEN[rng.integers(0, len(POWERS_OF_TEN), count)], rng.integers(-3, 4, count)),
    "range-edges": lambda rng, count: rng.choice([-1.0, 1.0], count) * ulps(
        rng.choice([1e-6, 1e16, 1e17], count), rng.integers(-count, count, count)),
    "exact-ties": exact_ties,
    "zeros": lambda rng, count: rng.choice([-0.0, 0.0], count),
    "subnormal": lambda rng, count: rng.choice([-1.0, 1.0], count) * rng.integers(1, 2 ** 52, count).view(np.float64),
    "log-uniform-wide": lambda rng, count: rng.choice([-1.0, 1.0], count) * 10.0 ** rng.uniform(-330.0, 17.0, count),
    "integers": lambda rng, count: rng.choice([-1.0, 1.0], count) * np.where(
        rng.random(count) < 0.5, rng.integers(0, 100, count), rng.integers(0, 10 ** 17, count)).astype(np.float64),
    "halves": lambda rng, count: rng.integers(-2 ** 52, 2 ** 52, count) + 0.5,
    "short-dyadics": lambda rng, count: short_dyadics(rng, count),
    "bit-patterns": lambda rng, count: rng.integers(0, 2 ** 64, count, dtype=np.uint64).view(np.float64),
    "deep": lambda rng, count: deep_values(rng, count),
}


def short_dyadics(rng, count):
    """m·2^j with m odd below 2^20 and both signs: j = -19..36 puts half of them in [1e-6, 1e17), where
    their expansions end within 20 digits; j = -1100..-150 puts the rest below 1e-38, subnormals included."""
    m = rng.integers(0, 2 ** 19, count) * 2 + 1
    j = np.where(np.arange(count) % 2 == 0, rng.integers(-19, 37, count), rng.integers(-1100, -149, count))
    return rng.choice([-1.0, 1.0], count) * np.ldexp(m.astype(np.float64), j)


def deep_values(rng, count):
    """Log-uniform magnitudes in [1e-323, 1e-6] with both signs, then 10^k +- 3 ulps for k = -323..-7.

    Below 1e-6 the kernel takes its certified path: subnormals, three-digit
    exponents, and the doubles nearest 10^k, some of which round up to
    "1.0000000000000000e<k>" (k = -14, say).
    """
    tens = np.array([float(f"1e{k}") for k in range(-323, -6)])
    # 1e-323 is two ulps above zero; its lower neighbours stop at +0.0
    near = np.maximum(tens.view(np.int64)[:, None] + np.arange(-3, 4), 0).view(np.float64).ravel()
    logs = 10.0 ** rng.uniform(-323.0, -6.0, count - 2 * len(near))
    return np.concatenate([rng.choice([-1.0, 1.0], len(logs)) * logs, -near, near])


def boundary_value(p, half):
    """A normal double v = m·2^q, 2^52 <= m < 2^53, with v·10^p near 3e16 and its fraction within about
    1e-16 of 1/2 (``half``) or of 0, or None where the search leaves that range.

    Such an m minimises |m·5^p - n·2^k - r| with 2^k = 2^-(q+p) and r = 2^(k-1) or 0, a closest
    vector in a 2-D lattice: Gauss reduction, then Babai rounding.
    """
    q = math.floor(math.log2(3e16) - 52.5 - p * math.log2(5)) - p
    a, b, size = 5 ** p, 2 ** -(q + p), 2 ** 52
    u, v = (b, a * size * size), (0, -b * size * size)
    while True:
        if u[0] ** 2 + u[1] ** 2 > v[0] ** 2 + v[1] ** 2:
            u, v = v, u
        mu = round(Fraction(u[0] * v[0] + u[1] * v[1], u[0] ** 2 + u[1] ** 2))
        if mu == 0:
            break
        v = (v[0] - mu * u[0], v[1] - mu * u[1])
    target = (3 * size // 2 * b, (b // 2 if half else 0) * size * size)
    det = u[0] * v[1] - u[1] * v[0]
    i = round(Fraction(target[0] * v[1] - target[1] * v[0], det))
    j = round(Fraction(u[0] * target[1] - u[1] * target[0], det))
    m = (i * u[0] + j * v[0]) // b
    scaled = Fraction(m * a, b)
    return math.ldexp(m, q) if size <= m < 2 * size and 10 ** 16 <= scaled < 10 ** 17 else None


def boundary_values():
    """The normal doubles of :func:`boundary_value` for p = 24, 29, .., 319, near 1/2 and near 0."""
    found = [boundary_value(p, half) for p in range(24, 324, 5) for half in (True, False)]
    return np.array([v for v in found if v is not None])


def short_decimals(above=False):
    """The doubles m·2^-k, m odd below 16 and k <= 25, whose expansion m·5^k·10^-k has at most 18 digits,
    both signs: the 18 below 1e-6, or with ``above`` the 184 from 1e-6 on, the even integers of the k,
    two_r and index columns, 1e16 and 2^53.

    Their fractions are exactly 0 or 1/2.
    """
    short = [m * 2.0 ** -k for k in range(26) for m in range(1, 16, 2)
             if (m * 2.0 ** -k >= 1e-6) == above and len(str(m * 5 ** k)) <= 18]
    short += [float(i) for i in range(2, 100, 2)] + [1e16, 2.0 ** 53] if above else []
    return np.array(short + [-v for v in short])


def percent_inputs(monkeypatch, values):
    """The values that _e16_cells(values) sends through Python's ``%``."""
    sent = []
    percent = symflow._io._percent_cells
    monkeypatch.setattr(symflow._io, "_percent_cells", lambda batch: sent.append(batch) or percent(batch))
    _e16_cells(values)
    return np.concatenate(sent) if sent else np.empty(0)


class TestE16Kernel:
    @pytest.mark.parametrize("name", list(KERNEL_CLASSES))
    def test_matches_python_percent(self, name):
        values = KERNEL_CLASSES[name](np.random.default_rng(13), 100_000)
        cells = _e16_cells(values)
        assert cells.shape == (len(values), 24)
        # the general path of the CSV writer: a separator byte after every cell
        text = np.column_stack([cells, np.full(len(values), ord(","), np.uint8)])
        got = text[text != 0].tobytes().decode("ascii")
        want = "%.16e," * len(values) % tuple(values.tolist())
        if got != want:
            i, g, w = next((i, g, w) for i, (g, w) in enumerate(zip(got.split(","), want.split(","))) if g != w)
            pytest.fail(f"{values[i]!r}: kernel {g!r}, Python {w!r}")
        # the fast path puts the separator in the last byte, which every
        # two-digit exponent leaves free
        two_digit = np.array([len(w.partition("e")[2]) == 3 for w in want.split(",")[:-1]])
        assert not cells[two_digit, -1].any()

    @pytest.mark.parametrize("name", list(KERNEL_CLASSES))
    def test_only_non_finite_and_huge_values_take_percent(self, name, monkeypatch):
        values = KERNEL_CLASSES[name](np.random.default_rng(13), 100_000)
        sent = percent_inputs(monkeypatch, values)
        bits = np.abs(values).view(np.int64)
        assert len(sent) == np.count_nonzero(bits >= np.float64(1e17).view(np.int64))  # NaN and inf included
        assert (np.abs(sent[np.isfinite(sent)]) >= 1e17).all()

    @pytest.mark.parametrize("values, uncertain", [pytest.param(short_decimals(), True, id="short-decimals"),
                                                   pytest.param(boundary_values(), True, id="lattice"),
                                                   pytest.param(short_decimals(True), False, id="exact-rows")])
    def test_uncertain_cells_take_percent(self, monkeypatch, values, uncertain):
        # each exact fraction lies within 1e-15 of 0 or 1/2: inside the certified path's error bound
        # below 1e-6, where Python's % decides it, and decided exactly from 1e-6 on
        assert len(values) >= 36
        for v in np.abs(values).tolist():
            fraction = Fraction(v) * 10 ** (16 - math.floor(math.log10(v))) % 1
            assert min(abs(fraction - Fraction(1, 2)), fraction, 1 - fraction) < 1e-15
        sent = sorted(values.tolist()) if uncertain else []
        assert sorted(percent_inputs(monkeypatch, values).tolist()) == sent
        texts = [cell.tobytes().replace(b"\0", b"").decode() for cell in _e16_cells(values)]
        assert texts == ["%.16e" % v for v in values]

    def test_power_table_rows(self):
        # 10^p = c·2^s with |c - hi - lo| <= 2^-106; up to p = 22 the row is 10^p itself
        shifts, hi, hi_hi, hi_lo, lo = _power_tables()
        assert len(shifts) == 341
        assert np.array_equal(hi_hi + hi_lo, hi)
        for p, (s, h, l) in enumerate(zip(shifts.tolist(), hi.tolist(), lo.tolist())):
            assert abs(Fraction(10 ** p, 2 ** s) - Fraction(h) - Fraction(l)) <= Fraction(1, 2 ** 106)
            if p <= 22:
                assert Fraction(h) * 2 ** s == 10 ** p and l == 0.0

    def test_certified_fraction_within_its_bound(self):
        # the error bound behind _UNCERTAIN, against exact rationals: none up to 10^22 (from 1e-6
        # on, exact ties included) and 5.7e-15 beyond
        rng = np.random.default_rng(5)
        a = np.concatenate([10.0 ** rng.uniform(-323.0, -6.0, 1500), 10.0 ** rng.uniform(-6.0, 17.0, 1000),
                            rng.integers(1, 2 ** 52, 500).view(np.float64), np.abs(exact_ties(rng, 500)),
                            ulps([1e-6, 1e16, 1e17], np.arange(-3, 4)[:, None]).ravel()])
        a = a[a < 1e17]
        e = np.minimum(np.floor(np.log10(a)), 16).astype(np.int64)
        digits, fraction = _scaled_digits(a, e)
        e += (digits >= 10 ** 17).astype(np.int64) - (digits < 10 ** 16)
        digits, fraction = _scaled_digits(a, e)
        assert ((digits >= 10 ** 16) & (digits < 10 ** 17)).all()
        assert (e >= -6).sum() >= 1000 and (fraction == 0.5).sum() >= 500
        for v, k, d, f in zip(a.tolist(), e.tolist(), digits.tolist(), fraction.tolist()):
            error = abs(Fraction(v) * Fraction(10) ** (16 - k) - d - Fraction(f))
            assert error == 0 if 16 - k <= 22 else error <= Fraction(57, 10 ** 16)

    def test_no_rounding_reaches_a_power_of_ten(self):
        # from 1e-6 on no rounding carries from 9.99..9 up to 1.00..0 with the next exponent; the
        # kernel's carry serves only smaller values, such as the double nearest 1e-14 (the deep class)
        for k in range(-6, 18):
            below = max(v for v in ulps(float(f"1e{k}"), np.array([-1, 0])) if Fraction(v) < Fraction(10) ** k)
            assert not ("%.16e" % below).startswith("1.0000000000000000e")
            assert _e16_cells(np.array([below])).tobytes().replace(b"\0", b"").decode() == "%.16e" % below


def mixed_blocks(columns):
    """Rows of ordinary cells in CSV_CHUNK_ROWS-row blocks, then one block for each kind of cell
    that takes the writer's general path or the Python path: three-digit exponents of both signs,
    NaN, the infinities, -0.0 and magnitudes from 1e17 on; the last block holds them all."""
    rng = np.random.default_rng(9)
    kinds = [3e-150, -2e-200, 1.5e-300, np.nan, np.inf, -np.inf, -0.0, 1e17, -2.5e300, 1e300, -1e17]
    rows = rng.standard_normal((CSV_CHUNK_ROWS * (len(kinds) + 2) - 5, columns))
    for i, value in enumerate(kinds, start=1):
        rows[CSV_CHUNK_ROWS * i + 7 * i % CSV_CHUNK_ROWS, i % columns] = value
    rows[-len(kinds):, 0] = kinds
    return rows


def symmetric_table(values, n):
    """[t | X] rows from consecutive runs of ``values``: the first of each run is t, the rest fill the
    state's upper triangle, mirrored in bits."""
    rows, cols = np.triu_indices(n)
    upper = len(rows)
    values = values[:len(values) // (upper + 1) * (upper + 1)].reshape(-1, upper + 1)
    states = np.empty((len(values), n, n))
    states[:, rows, cols] = states[:, cols, rows] = values[:, 1:]
    return np.hstack([values[:, :1], states.reshape(len(values), -1)])


class TestCsvPaths:
    """Both CSV writers against Python's "%.16e", on the fast path and the general one."""

    @pytest.mark.parametrize("name", list(KERNEL_CLASSES))
    def test_table_every_kernel_class(self, tmp_path, name):
        rows = KERNEL_CLASSES[name](np.random.default_rng(17), 6_000).reshape(-1, 6)
        header = [f"c{i}" for i in range(6)]
        _write_csv(tmp_path / "table.csv", header, rows)
        assert (tmp_path / "table.csv").read_bytes() == per_value_csv(header, rows).encode()

    @pytest.mark.parametrize("name", list(KERNEL_CLASSES))
    def test_trajectory_every_kernel_class(self, tmp_path, name):
        table = symmetric_table(KERNEL_CLASSES[name](np.random.default_rng(18), 7_000), 3)
        times, states = states_from(table)
        _write_trajectory_csv(tmp_path / "trajectory.csv", times, states)
        header = ["t"] + [f"X_{i}_{j}" for i in range(3) for j in range(3)]
        assert (tmp_path / "trajectory.csv").read_bytes() == per_value_csv(header, table).encode()

    def test_mixed_blocks(self, tmp_path):
        rows = mixed_blocks(5)
        header = [f"c{i}" for i in range(5)]
        _write_csv(tmp_path / "table.csv", header, rows)
        assert (tmp_path / "table.csv").read_bytes() == per_value_csv(header, rows).encode()
        table = symmetric_table(mixed_blocks(7).ravel(), 3)
        times, states = states_from(table)
        _write_trajectory_csv(tmp_path / "trajectory.csv", times, states)
        header = ["t"] + [f"X_{i}_{j}" for i in range(3) for j in range(3)]
        assert (tmp_path / "trajectory.csv").read_bytes() == per_value_csv(header, table).encode()

    def test_full_cells_on_some_rows(self, tmp_path):
        # texts that fill their cell: positive three-digit exponents move into their sign's
        # slot and keep the fast path; a chunk with a negative one, or Python's -1e300, takes
        # the general path, with such rows inside a chunk, across a chunk boundary, on a
        # chunk's first and last rows and over a whole chunk; the last chunk has positive ones only
        c = CSV_CHUNK_ROWS
        rows = np.random.default_rng(21).standard_normal((4 * c + 9, 7))
        rows[0, 2], rows[1, 3], rows[2, 1] = 3e-150, -2e-200, 5e-324
        rows[5:9, 1] = -1e-120
        rows[7, 4] = 4e-250
        rows[c - 2:c + 3, 0] = -7e-101
        rows[c + 10] = 1e-300
        rows[2 * c:3 * c, 5] = -5e-324
        rows[3 * c + 3, 2], rows[3 * c + 4, 2], rows[-1, -1] = -1e300, 1e300, 1.5e-300
        header = [f"c{i}" for i in range(7)]
        _write_csv(tmp_path / "table.csv", header, rows)
        assert (tmp_path / "table.csv").read_bytes() == per_value_csv(header, rows).encode()
        table = symmetric_table(rows.ravel(), 3)
        times, states = states_from(table)
        _write_trajectory_csv(tmp_path / "trajectory.csv", times, states)
        header = ["t"] + [f"X_{i}_{j}" for i in range(3) for j in range(3)]
        assert (tmp_path / "trajectory.csv").read_bytes() == per_value_csv(header, table).encode()


def dumped_trajectory(path, times, states):
    """trajectory.json as json.dump writes it from nested lists of every state."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"times": times.tolist(), "states": states.tolist()}, fh, indent=2, sort_keys=True)
        fh.write("\n")


class TestTrajectoryJson:
    @pytest.mark.parametrize("steps,n", [(1, 1), (3, 2), (5, 3), (0, 2), (4, 4)])
    def test_bytes_match_json_dump(self, tmp_path, steps, n):
        rng = np.random.default_rng(steps + 10 * n)
        states = rng.standard_normal((steps, n, n))
        times = np.arange(steps) * 0.1
        _write_trajectory_json(tmp_path / "streamed.json", times, states)
        dumped_trajectory(tmp_path / "dumped.json", times, states)
        assert (tmp_path / "streamed.json").read_bytes() == (tmp_path / "dumped.json").read_bytes()

    def test_simulate_output_matches_json_dump(self, tmp_path):
        code, out = run(tmp_path, "simulate", BASE, extra=("--format", "json"))
        assert code == 0
        echo = json.loads((out / "runconfig.json").read_text())
        traj = integrate(np.asarray(echo["X0"]), canonical_form(np.asarray(echo["N"])),
                         IntegratorConfig(**echo["integrator"]))
        dumped_trajectory(tmp_path / "dumped.json", traj.times, traj.states)
        assert (out / "trajectory.json").read_bytes() == (tmp_path / "dumped.json").read_bytes()

    def test_peak_below_half_of_nested_lists(self, tmp_path):
        rng = np.random.default_rng(7)
        states = rng.standard_normal((100, 8, 8))
        times = np.arange(100) * 1e-3
        peaks = []
        for write in (dumped_trajectory, _write_trajectory_json):
            tracemalloc.start()
            try:
                write(tmp_path / "trajectory.json", times, states)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] / 2


def states_from(table):
    """The times and n x n states of a [t | X] table."""
    n = int(round(np.sqrt(table.shape[1] - 1)))
    return table[:, 0].copy(), table[:, 1:].reshape(len(table), n, n).copy()


class TestTrajectoryCsv:
    @pytest.mark.parametrize("n, steps", [(1, 3), (2, 40), (3, 5), (8, CSV_CHUNK_ROWS + 1), (8, 2001), (32, 5)])
    def test_bytes_match_per_value_formatter(self, tmp_path, n, steps):
        table = state_table(n, steps, seed=n)
        table[1, 1:] = 0.0
        table[-1, 1:] = -0.0  # symmetric in bits: the mirror copies the sign
        times, states = states_from(table)
        _write_trajectory_csv(tmp_path / "trajectory.csv", times, states)
        header = ["t"] + [f"X_{i}_{j}" for i in range(n) for j in range(n)]
        assert (tmp_path / "trajectory.csv").read_bytes() == per_value_csv(header, table).encode()

    @pytest.mark.parametrize("row", [0, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, 99])
    @pytest.mark.parametrize("changed", ["ulp", "signed-zero"])
    def test_asymmetric_state_raises(self, tmp_path, row, changed):
        times, states = states_from(state_table(3, 100, seed=row))
        if changed == "ulp":
            states[row, 2, 0] = np.nextafter(states[row, 2, 0], np.inf)
        else:
            states[row, 0, 2], states[row, 2, 0] = 0.0, -0.0
        with pytest.raises(ArithmeticError, match="not exactly symmetric"):
            _write_trajectory_csv(tmp_path / "trajectory.csv", times, states)


def plain(value):
    """value with every array turned into its nested lists, as json.dump takes it."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    return value


#: float64 bit patterns with texts of their own: both zeros, NaNs with
#: payloads and either sign, the infinities, subnormals.
SPECIAL_BITS = [0, 1 << 63, 0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000005,
                0x7FF0000000000000, 0xFFF0000000000000, 1, 0x800FFFFFFFFFFFFF]

float_arrays = arrays(
    np.uint64, array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4),
    elements=st.one_of(st.sampled_from(SPECIAL_BITS), st.integers(0, 2**64 - 1)),
).map(lambda bits: bits.view(np.float64))

json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**200, 2**200),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, 5e-324, -5e-324, 1e-310]),
    st.text(), st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é ü ☃ 😀", "\u2028\n\t"]),
    float_arrays,
)
json_values = st.recursive(
    json_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=5), children, max_size=4),
    ),
    max_leaves=12,
)


class TestJsonText:
    @settings(max_examples=300, deadline=None)
    @given(json_values)
    @example([math.nan, math.inf, -math.inf, -0.0, 5e-324, np.array(SPECIAL_BITS, dtype=np.uint64).view(np.float64),
              {"é": (2**100, True, None, "\x00\"")}])
    def test_matches_json_dump(self, value):
        assert _json_text(value, "\n") + "\n" == json.dumps(plain(value), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 2), (2, 0, 3), (2, 3, 1), ()])
    def test_array_shapes(self, shape):
        value = np.arange(float(np.prod(shape))).reshape(shape) - 1.5
        assert _json_text({"a": value}) == json.dumps({"a": value.tolist()}, indent=2, sort_keys=True)

    def test_signed_zeros_and_nan_payloads(self):
        values = np.array([[0.1, -0.0, 0.0], [-0.0, 0.1, np.nan], [0.0, nan_with_payload(3), -np.nan]])
        assert _json_text(values) == json.dumps(values.tolist(), indent=2)

    @pytest.mark.parametrize("value", [np.int64(3), [1, np.int64(2)], {"a": np.float32(1.0)}, {(1, 2): 0},
                                       np.bool_(True), {1, 2}, b"bytes"])
    def test_rejects_what_json_rejects(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            _json_text(value)

    @pytest.mark.parametrize("value", [{1: "a"}, {None: 0}, np.arange(3), np.ones(2, dtype=np.float32)])
    def test_rejects_non_str_keys_and_other_dtypes(self, value):
        with pytest.raises(TypeError):
            _json_text(value)
