import json
import math
import warnings
from dataclasses import fields

import click
import numpy as np
import pytest
from click.testing import CliRunner

from rcc.cli import main
from rcc.errors import ConfigError, LeakageError, ProtocolInvalidError
from rcc import io as rcc_io
from rcc import RunConfig, pipeline, validate_density
from rcc.records import PROTOCOLS


@pytest.fixture
def runner():
    return CliRunner()


def witness_with(i: int, j: int, value: float) -> list:
    """The rank-1 projector onto basis state 0 of 32 with entry (i, j) set to value."""
    m = np.zeros((32, 32))
    m[0, 0] = 1.0
    m[i, j] = value
    return m.tolist()


@pytest.fixture
def files(tmp_path):
    """Logical-pure-state setup: d_R = 8 inside 32 dims, gamma = 6."""
    state = np.zeros((32, 32))
    state[0, 0] = 1.0
    state_path = tmp_path / "state.json"
    rcc_io.dump_state(validate_density(state), state_path)
    diag = [1.0] * 8 + [0.0] * 24
    ref_cfg = {
        "type": "projectors", "g": 2, "addressable_units": 3,
        "projectors": [{"dim": 32, "re": np.diag(diag).tolist()}],
    }
    ref_path = tmp_path / "ref.json"
    ref_path.write_text(json.dumps(ref_cfg))
    return str(state_path), str(ref_path), tmp_path


@pytest.mark.parametrize("error, code, prefix", [
    (ConfigError("bad file"), 2, "config error"),
    (ProtocolInvalidError("cannot certify"), 3, "protocol invalid"),
    (LeakageError(0.5, "leaked"), 4, "error"),
])
def test_every_command_exits_with_its_errors_code(runner, monkeypatch, error, code, prefix):
    # the group maps errors to exit codes, so a command added without any
    # handling of its own still exits with one stderr line
    @click.command()
    def failing():
        raise error

    monkeypatch.setitem(main.commands, "failing", failing)
    result = runner.invoke(main, ["failing"])
    assert result.exit_code == code
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == f"{prefix}: {error}\n"


class TestOptions:
    @pytest.mark.parametrize("command, args", [
        ("compute", []),
        ("simulate", ["--protocol", "witness"]),
        ("coverage", ["--trials", "2"]),
        ("sweep", ["--windows", "windows.json"]),
    ])
    def test_a_command_without_a_state_is_a_usage_error(self, runner, files, command, args):
        # click's own error, as for a missing --reference
        _, ref, _ = files
        result = runner.invoke(main, [command, "--reference", ref, *args])
        assert result.exit_code == 2, result.output
        assert "Missing option '--state'" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("args", [
        ["compute", "--state", "STATE", "--unit", "bits"],
        ["certify", "--record", "RECORD", "--unit", "structons"],
        ["certify", "--record", "RECORD", "--state", "STATE"],
    ])
    def test_options_that_no_run_read_are_unknown(self, runner, files, tmp_path, args):
        state, ref, _ = files
        record = tmp_path / "record.json"
        record.write_text(json.dumps({"protocol": "witness", "n": 10,
                                      "counts": {"success": 9, "failure": 1}}))
        paths = {"STATE": state, "RECORD": str(record)}
        result = runner.invoke(main, [*(paths.get(a, a) for a in args), "--reference", ref])
        assert result.exit_code == 2, result.output
        assert "No such option" in result.stderr and args[-2] in result.stderr
        assert result.stdout == ""


class TestCompute:
    def test_logical_state_value(self, runner, files):
        state, ref, _ = files
        result = runner.invoke(main, ["compute", "--state", state, "--reference", ref])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["exact"]["rcc_structons"] == pytest.approx(
            3 / math.log2(6), abs=1e-12
        )

    def test_missing_file_is_config_error(self, runner, files):
        _, ref, _ = files
        result = runner.invoke(main, ["compute", "--state", "nope.json", "--reference", ref])
        assert result.exit_code == 2

    def test_nan_state_is_config_error(self, runner, files, tmp_path):
        _, ref, _ = files
        nan_state = tmp_path / "nan.json"
        nan_state.write_text(json.dumps({"dim": 2, "re": [[math.nan] * 2] * 2}))
        result = runner.invoke(main, ["compute", "--state", str(nan_state), "--reference", ref])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "non-finite" in result.output
        assert "Traceback" not in result.output

    def test_overflowing_asymmetry_is_a_one_line_config_error(self, runner, files, tmp_path):
        # finite entries whose asymmetry 3.4e308 overflows a float
        _, ref, _ = files
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"dim": 2, "re": [[0.5, 1.7e308], [-1.7e308, 0.5]]}))
        result = runner.invoke(main, ["compute", "--state", str(path), "--reference", ref])
        assert result.exit_code == 2, result.output
        assert result.stderr.count("\n") == 1, result.stderr
        assert "not Hermitian" in result.stderr

    def test_bad_epsilon_is_config_or_validation(self, runner, files):
        state, ref, _ = files
        result = runner.invoke(
            main, ["compute", "--state", state, "--reference", ref, "--epsilon", "2.0"]
        )
        assert result.exit_code == 4

    @pytest.mark.parametrize("text, message", [
        ('{"c1": NaN}', "c1 must be finite, got nan"),
        ('{"c1": Infinity, "c1_prime": Infinity}', "c1 must be finite, got inf"),
    ])
    def test_non_finite_constants_exit_4(self, runner, files, text, message):
        state, ref, tmp_path = files
        constants = tmp_path / "constants.json"
        constants.write_text(text)
        result = runner.invoke(main, [
            "compute", "--state", state, "--reference", ref, "--constants", str(constants),
        ])
        assert result.exit_code == 4, result.output
        assert result.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("text, key, value", [
        ('{"c1": true, "c1_prime": "2"}', "c1", "True"),
        ('{"c1_prime": "2"}', "c1_prime", "'2'"),
        ('{"c2_prime": null}', "c2_prime", "None"),
    ])
    def test_constants_that_are_not_numbers_exit_2(self, runner, files, text, key, value):
        state, ref, tmp_path = files
        constants = tmp_path / "constants.json"
        constants.write_text(text)
        result = runner.invoke(main, [
            "compute", "--state", state, "--reference", ref, "--constants", str(constants),
        ])
        assert result.exit_code == 2, result.output
        assert result.stderr == (
            f"config error: {constants}: {key!r} must be a number, got {value}\n")

    def test_block_reference_over_the_dimension_cap_exits_2(self, runner, files):
        state, _, tmp_path = files
        ref = tmp_path / "blocks.json"
        ref.write_text(json.dumps({"type": "blocks", "blocks": [[600, 1]], "g": 2,
                                   "addressable_units": 2}))
        result = runner.invoke(main, ["compute", "--state", state, "--reference", str(ref)])
        assert result.exit_code == 2, result.output
        assert result.stderr == (
            f"config error: {ref}: block dimension 600 exceeds the dimension cap 512\n")

    def test_an_unknown_reference_type_exits_2(self, runner, files):
        state, _, tmp_path = files
        ref = tmp_path / "torus.json"
        ref.write_text(json.dumps({"type": "torus", "g": 2, "addressable_units": 2}))
        result = runner.invoke(main, ["compute", "--state", state, "--reference", str(ref)])
        assert result.exit_code == 2, result.output
        assert result.stderr == f"config error: {ref}: unknown reference type 'torus'\n"

    def test_out_file(self, runner, files):
        state, ref, tmp_path = files
        out = tmp_path / "report.json"
        result = runner.invoke(
            main, ["compute", "--state", state, "--reference", ref, "--out", str(out)]
        )
        assert result.exit_code == 0
        assert json.loads(out.read_text())["schema"] == "rcc-report/3"


def _keys(obj) -> set:
    """The keys of every dict nested in obj."""
    if isinstance(obj, dict):
        return set(obj).union(*map(_keys, obj.values()))
    if isinstance(obj, list):
        return set().union(*map(_keys, obj))
    return set()


def test_reports_state_no_constants(runner, files, tmp_path):
    # every report field is a figure of its run: the bound method, the units,
    # the bound direction and a display copy would read the same in every one
    state, ref, _ = files
    assert "echo" not in {f.name for f in fields(RunConfig)}
    config = RunConfig(state=rcc_io.load_state(state), reference=rcc_io.load_reference(ref),
                       protocols=("exact", *PROTOCOLS), n_samples=800, seed=5)
    record = tmp_path / "record.json"
    result = runner.invoke(main, ["simulate", "--state", state, "--reference", ref,
                                  "--protocol", "dephase", "--n", "800", "--out", str(record)])
    assert result.exit_code == 0, result.output
    computed, certified = (runner.invoke(main, args) for args in (
        ["compute", "--state", state, "--reference", ref],
        ["certify", "--reference", ref, "--record", str(record)]))
    assert computed.exit_code == certified.exit_code == 0, computed.output + certified.output
    reports = [pipeline(config), json.loads(computed.stdout), json.loads(certified.stdout)]
    for report in reports:
        assert report["schema"] == "rcc-report/3"
        assert not _keys(report) & {"method", "unit", "direction", "display", "note"}
    assert "combined" in reports[0] and "exact" in reports[0]
    # the CLI adds the paths it read to the report's inputs
    assert reports[1]["inputs"]["state_path"] == state
    assert reports[1]["inputs"]["reference_path"] == ref
    assert reports[2]["inputs"]["state_path"] is None
    assert reports[2]["inputs"]["reference_path"] == ref
    assert reports[2]["inputs"]["record_paths"] == [str(record)]


class TestSimulateAndCertify:
    def test_simulate_then_certify(self, runner, files, tmp_path):
        state, ref, _ = files
        record_path = tmp_path / "record.json"
        result = runner.invoke(main, [
            "simulate", "--state", state, "--reference", ref,
            "--protocol", "dephase", "--n", "800", "--seed", "5",
            "--out", str(record_path),
        ])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, [
            "certify", "--reference", ref, "--record", str(record_path),
            "--delta", "0.05",
        ])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["combined"]["winner"] == "dephase"
        assert report["certified_bounds"][0]["value_bits"] > 1.0

    def test_two_records_of_one_protocol_exit_2(self, runner, files, tmp_path):
        # one record certified twice would count twice into the combined confidence
        state, ref, _ = files
        record = tmp_path / "record.json"
        result = runner.invoke(main, ["simulate", "--state", state, "--reference", ref,
                                      "--protocol", "dephase", "--out", str(record)])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["certify", "--reference", ref, "--record", str(record),
                                      "--record", str(record)])
        assert result.exit_code == 2, result.output
        assert result.stderr == "config error: duplicate record for protocol 'dephase'\n"

    def test_simulate_determinism(self, runner, files, tmp_path):
        state, ref, _ = files
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out_a, out_b):
            result = runner.invoke(main, [
                "simulate", "--state", state, "--reference", ref,
                "--protocol", "witness", "--n", "500", "--seed", "17",
                "--out", str(out),
            ])
            assert result.exit_code == 0, result.output
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.parametrize("witness, message", [
        ({"dim": 32, "re": (2.0 * np.eye(32)).tolist()}, "not a projector"),
        ({"dim": 4, "re": np.eye(4).tolist()}, "32x32"),
        ({"dim": 32, "re": np.diag([1.0, 0.4] + [0.0] * 30).tolist()}, "not a projector"),
        ({"dim": 32, "re": witness_with(0, 1, math.nan)}, "non-finite"),
        ({"dim": 32, "re": witness_with(0, 1, math.inf)}, "non-finite"),
        # oblique: P^2 = P and Tr P = 1, but P is not Hermitian
        ({"dim": 32, "re": witness_with(0, 1, 6e-5)}, "not Hermitian"),
        # d_R = 8: the zero projector, one outside H_R and one of rank 9
        ({"dim": 32, "re": witness_with(0, 0, 0.0)}, "witness rank 0"),
        ({"dim": 32, "re": np.diag([0.0] * 31 + [1.0]).tolist()}, "leaks outside"),
        ({"dim": 32, "re": np.diag([1.0] * 9 + [0.0] * 23).tolist()}, "leaks outside"),
    ])
    def test_bad_witness_projector_exits_4(self, runner, files, tmp_path, witness, message):
        state, ref, _ = files
        path, out = tmp_path / "witness.json", tmp_path / "record.json"
        path.write_text(json.dumps(witness))
        result = runner.invoke(main, [
            "simulate", "--state", state, "--reference", ref,
            "--protocol", "witness", "--witness", str(path), "--out", str(out),
        ])
        assert result.exit_code == 4, result.output
        assert isinstance(result.exception, SystemExit)
        assert message in result.output
        assert result.stderr.count("\n") == 1, result.stderr
        assert "Traceback" not in result.output
        assert not out.exists()

    @pytest.mark.parametrize("rank_args, exit_code", [
        ([], 0), (["--witness-rank", "2"], 0), (["--witness-rank", "1"], 2),
        (["--witness-rank", "3"], 2),
    ])
    def test_witness_rank_must_be_the_projectors(self, runner, files, tmp_path, rank_args,
                                                 exit_code):
        state, ref, _ = files
        path, out = tmp_path / "witness.json", tmp_path / "record.json"
        path.write_text(json.dumps({"dim": 32, "re": np.diag([1.0] * 2 + [0.0] * 30).tolist()}))
        result = runner.invoke(main, [
            "simulate", "--state", state, "--reference", ref, "--protocol", "witness",
            "--witness", str(path), "--out", str(out), *rank_args,
        ])
        assert result.exit_code == exit_code, result.output
        if exit_code:
            assert result.stderr == (f"config error: {' '.join(rank_args)} conflicts with the "
                                     "rank 2 of the --witness projector\n")
            assert not out.exists()
        else:
            assert json.loads(out.read_text())["meta"]["rank"] == 2

    @pytest.mark.parametrize("protocol, witness", [
        ("hypothesis_test", None), ("witness", None), ("witness", [0.0, 1.0, 0.0, 0.0]),
    ])
    def test_a_leaking_state_exits_4(self, runner, tmp_path, protocol, witness):
        # 0.1% of the mass is outside the weight-1 sector of 2 qubits
        state, ref = tmp_path / "state.json", tmp_path / "ref.json"
        state.write_text(json.dumps({"dim": 4, "re": np.diag([0.001, 0.6, 0.399, 0.0]).tolist()}))
        ref.write_text(json.dumps({"type": "sector", "n_qubits": 2, "hamming_weight": 1,
                                   "g": 2, "addressable_units": 2}))
        args = ["simulate", "--state", str(state), "--reference", str(ref),
                "--protocol", protocol, "--out", str(tmp_path / "record.json")]
        if witness is not None:
            (tmp_path / "witness.json").write_text(
                json.dumps({"dim": 4, "re": np.diag(witness).tolist()}))
            args += ["--witness", str(tmp_path / "witness.json")]
        result = runner.invoke(main, args)
        assert result.exit_code == 4, result.output
        assert result.stderr.startswith("error: support leakage 1.000e-03 outside")
        assert not (tmp_path / "record.json").exists()

    @pytest.mark.parametrize("command", ["simulate", "coverage"])
    @pytest.mark.parametrize("n", [2**53 + 1, 2**63, 10**23])
    def test_a_sample_size_past_the_samplers_range_exits_4(self, runner, files, command, n):
        state, ref, _ = files
        args = [command, "--state", state, "--reference", ref, "--n", str(n)]
        args += ["--protocol", "witness"] if command == "simulate" else ["--trials", "2"]
        result = runner.invoke(main, args)
        assert result.exit_code == 4, result.output
        assert result.stderr == f"error: N = {n} is past the shot range [1, 2**53]\n"

    @pytest.mark.parametrize("protocol", ["hypothesis_test", "dephase"])
    def test_witness_file_with_another_protocol_exits_2(self, runner, files, tmp_path, protocol):
        state, ref, _ = files
        path = tmp_path / "witness.json"
        path.write_text(json.dumps({"dim": 32, "re": np.eye(32).tolist()}))
        result = runner.invoke(main, [
            "simulate", "--state", state, "--reference", ref,
            "--protocol", protocol, "--witness", str(path),
        ])
        assert result.exit_code == 2, result.output
        assert f"only the witness protocol reads a projector, not '{protocol}'" in result.output

    @pytest.mark.parametrize("n, counts", [
        (10, {"success": 10.7, "failure": -0.7}),
        (True, {"success": True, "failure": False}),
    ])
    def test_non_integer_counts_are_config_errors(self, runner, files, tmp_path, n, counts):
        _, ref, _ = files
        path = tmp_path / "record.json"
        path.write_text(json.dumps({"protocol": "witness", "n": n, "counts": counts}))
        result = runner.invoke(main, ["certify", "--reference", ref, "--record", str(path)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "must be an integer" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("payload, problem", [
        ({"protocol": "witness", "n": 10, "counts": [9, 1]}, "'counts' is not an object"),
        ({"n": 10, "counts": {"success": 9, "failure": 1}}, "missing 'protocol'"),
        ({"protocol": "witness", "n": 10}, "missing 'counts'"),
        ([{"protocol": "witness", "n": 10, "counts": {"success": 10}}], "does not hold an object"),
    ])
    def test_record_of_the_wrong_shape_exits_2(self, runner, files, tmp_path, payload, problem):
        _, ref, _ = files
        path = tmp_path / "record.json"
        path.write_text(json.dumps(payload))
        result = runner.invoke(main, ["certify", "--reference", ref, "--record", str(path)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output.count("\n") == 1
        assert problem in result.output
        assert "a record is an object with a string 'protocol'" in result.output
        assert "Traceback" not in result.output

    def test_record_meta_that_is_not_an_object_exits_2(self, runner, files, tmp_path):
        _, ref, _ = files
        path = tmp_path / "record.json"
        path.write_text(json.dumps({
            "protocol": "witness", "n": 10, "counts": {"success": 9, "failure": 1}, "meta": [1],
        }))
        result = runner.invoke(main, ["certify", "--reference", ref, "--record", str(path)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "meta must be a mapping" in result.output

    @pytest.mark.parametrize("n", [10**400, 2**64, 2**53 + 6])
    def test_a_count_past_the_shot_range_exits_2(self, runner, files, tmp_path, n):
        _, ref, _ = files
        path = tmp_path / "record.json"
        path.write_text(json.dumps({
            "protocol": "witness", "n": n, "counts": {"success": n - 5, "failure": 5}}))
        result = runner.invoke(main, ["certify", "--reference", ref, "--record", str(path)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == (f"config error: {path}: count 'success' = {n - 5} is past "
                                 "the shot range [1, 2**53]\n")

    def test_a_binomial_run_past_the_shot_range_exits_4(self, runner, files, tmp_path):
        # each count is in the range, but the null run's n, their sum, is not
        _, ref, _ = files
        path = tmp_path / "record.json"
        top = 2**53
        path.write_text(json.dumps({
            "protocol": "hypothesis_test", "n": top + 11,
            "counts": {"null_accept_h1": 1, "null_accept_h0": top, "alt_accept_h1": 10,
                       "alt_accept_h0": 0}}))
        result = runner.invoke(main, ["certify", "--reference", ref, "--record", str(path)])
        assert result.exit_code == 4, result.output
        assert result.stderr == ("error: stage 'hypothesis_test': N = 9007199254740993 is "
                                 "past the shot range [1, 2**53]\n")

    def test_fractional_witness_rank_exits_4(self, runner, files, tmp_path):
        _, ref, _ = files
        path = tmp_path / "record.json"
        path.write_text(json.dumps({
            "protocol": "witness", "n": 10, "counts": {"success": 9, "failure": 1},
            "meta": {"rank": 1.7},
        }))
        result = runner.invoke(main, ["certify", "--reference", ref, "--record", str(path)])
        assert result.exit_code == 4, result.output
        assert isinstance(result.exception, SystemExit)
        assert "must be an integer" in result.output

    @pytest.mark.parametrize("rank_args, exit_code", [
        ([], 0), (["--witness-rank", "2"], 0), (["--witness-rank", "1"], 2),
        (["--witness-rank", "3"], 2),
    ])
    def test_witness_rank_must_be_the_records(self, runner, files, tmp_path, rank_args,
                                              exit_code):
        _, ref, _ = files
        path = tmp_path / "record.json"
        path.write_text(json.dumps({
            "protocol": "witness", "n": 2000, "counts": {"success": 1990, "failure": 10},
            "meta": {"rank": 2},
        }))

        def certify(*args):
            result = runner.invoke(main, ["certify", "--reference", ref, "--record", str(path),
                                          *args])
            return result, json.loads(result.stdout or "{}")

        result, report = certify(*rank_args)
        assert result.exit_code == exit_code, result.output
        if exit_code:
            assert result.stderr == (f"config error: {' '.join(rank_args)} conflicts with the "
                                     f"rank 2 of the witness record {path}\n")
            assert result.stdout == ""
        else:
            _, alone = certify()
            report.pop("timestamp"), alone.pop("timestamp")
            assert report == alone
            assert report["certified_bounds"][0]["params"]["rank"] == 2

    def test_a_record_without_a_rank_takes_the_flag(self, runner, files, tmp_path):
        _, ref, _ = files
        path = tmp_path / "record.json"
        path.write_text(json.dumps({
            "protocol": "witness", "n": 2000, "counts": {"success": 1990, "failure": 10},
        }))
        result = runner.invoke(main, ["certify", "--reference", ref, "--record", str(path),
                                      "--witness-rank", "3"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.stdout)["certified_bounds"][0]["params"]["rank"] == 3

    def test_alpha_failure_exits_3(self, runner, files, tmp_path):
        _, ref, _ = files
        record = {
            "protocol": "hypothesis_test", "n": 200,
            "counts": {"null_accept_h1": 60, "null_accept_h0": 40,
                       "alt_accept_h1": 100, "alt_accept_h0": 0},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(record))
        result = runner.invoke(main, [
            "certify", "--reference", ref, "--record", str(path), "--eta", "0.25",
        ])
        assert result.exit_code == 3


class TestPlan:
    def test_ht_plan(self, runner):
        result = runner.invoke(main, [
            "plan", "--protocol", "hypothesis_test", "--target-bits", "10",
            "--delta", "0.05",
        ])
        assert result.exit_code == 0
        assert json.loads(result.output)["n"] == 3068

    @pytest.mark.parametrize("args, n", [
        (["hypothesis_test", "--target-bits", "0"], 745),
        (["witness", "--target-bits", "1", "--p0", "0.5", "--dr", "8"], 5956),
    ])
    def test_subnormal_delta_plans(self, runner, args, n):
        result = runner.invoke(main, ["plan", "--protocol", *args, "--delta", "5e-324"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["n"] == n

    def test_witness_plan_needs_args(self, runner):
        result = runner.invoke(main, [
            "plan", "--protocol", "witness", "--target-bits", "2", "--delta", "0.05",
        ])
        assert result.exit_code == 2

    @pytest.mark.parametrize("args, message", [
        (["hypothesis_test", "--target-bits", "2000"],
         "the sample size 2^L ln(1/delta) for target L = 2000.0 bits overflows a float"),
        (["hypothesis_test", "--target-bits", "inf"], "target must be finite, got inf"),
        (["hypothesis_test", "--target-bits", "nan"], "target must be finite, got nan"),
        (["witness", "--target-bits", "nan", "--p0", "0.5", "--dr", "8"],
         "target must be finite, got nan"),
        (["witness", "--target-bits", "1", "--p0", "nan", "--dr", "8"],
         "anticipated occupation p0 = nan must be in (0,1]"),
        (["witness", "--target-bits", "1", "--p0", "1.5", "--dr", "8"],
         "anticipated occupation p0 = 1.5 must be in (0,1]"),
        (["witness", "--target-bits", "1", "--p0", "0", "--dr", "8"],
         "anticipated occupation p0 = 0.0 must be in (0,1]"),
        (["witness", "--target-bits", "2000", "--p0", "0.5", "--dr", "8"],
         "the target is unreachable"),
        # p0 - p* squares to 0, and d_R overflows a float
        (["witness", "--target-bits", "-2000", "--p0", "5e-324", "--dr", "1"],
         "for p0 = 5e-324 and p* = 0.0 overflows a float"),
        (["witness", "--target-bits", "1", "--p0", "0.5", "--dr", str(10**400)],
         "rank 1 and d_R = 1000"),
        # a plan of n = 0, which no record can certify
        (["hypothesis_test", "--target-bits", "10", "--delta", "1"], "delta 1.0 must be in (0,1)"),
        (["hypothesis_test", "--target-bits", "-1"], "target must be nonnegative, got -1.0"),
        # plans past the shot range, which neither the sampler nor a record takes
        (["hypothesis_test", "--target-bits", "70"],
         "N = 3536736420070561415168 is past the shot range [1, 2**53]"),
        (["witness", "--target-bits", "2", "--p0", "0.5000000001", "--dr", "8"],
         "N = 149786588890902659072 is past the shot range"),
    ])
    def test_bad_plan_inputs_exit_4(self, runner, args, message):
        result = runner.invoke(main, ["plan", "--protocol", *args])
        assert result.exit_code == 4, result.output
        assert message in result.output


class TestCoverageDeterminism:
    def test_byte_identical_summaries(self, runner, files, tmp_path):
        state, ref, _ = files
        out_a, out_b = tmp_path / "cov_a.json", tmp_path / "cov_b.json"
        for out in (out_a, out_b):
            result = runner.invoke(main, [
                "coverage", "--state", state, "--reference", ref,
                "--protocol", "witness", "--protocol", "dephase",
                "--trials", "30", "--n", "200", "--seed", "123",
                "--out", str(out),
            ])
            assert result.exit_code == 0, result.output
        assert out_a.read_bytes() == out_b.read_bytes()


class TestCoverage:
    def test_a_state_with_no_mass_in_the_reference_exits_4_without_a_warning(
            self, runner, tmp_path):
        # diag(0.5, 0, 0, 0.5) lies outside the weight-1 sector of 2 qubits
        state, ref = tmp_path / "state.json", tmp_path / "ref.json"
        state.write_text(json.dumps({"dim": 4, "re": np.diag([0.5, 0.0, 0.0, 0.5]).tolist()}))
        ref.write_text(json.dumps({"type": "sector", "n_qubits": 2, "hamming_weight": 1,
                                   "g": 2, "addressable_units": 2}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, ["coverage", "--state", str(state), "--reference",
                                          str(ref), "--protocol", "dephase", "--trials", "5"])
        assert result.exit_code == 4, result.output
        assert result.stderr == (
            "error: state mass inside the reference subspace is 0.000e+00; projection is "
            "undefined, and so are project_renormalize and leakage_adjusted_divergence\n")


    def test_a_protocol_given_twice_exits_4_naming_it(self, runner, files):
        state, ref, _ = files
        result = runner.invoke(main, ["coverage", "--state", state, "--reference", ref,
                                      "--protocol", "witness", "--protocol", "witness",
                                      "--trials", "5"])
        assert result.exit_code == 4, result.output
        assert result.stderr == "error: protocols listed more than once: ['witness']\n"


class TestTestCalibration:
    @pytest.mark.parametrize("command", ["simulate", "coverage"])
    @pytest.mark.parametrize("protocol", ["hypothesis_test", "witness", "dephase"])
    @pytest.mark.parametrize("calibration", ["nan", "0", "1", "3"])
    def test_a_calibration_outside_the_unit_interval_exits_4(self, runner, files, command,
                                                             protocol, calibration):
        state, ref, _ = files
        result = runner.invoke(main, [command, "--state", state, "--reference", ref,
                                      "--protocol", protocol, "--test-calibration", calibration])
        assert result.exit_code == 4, result.output
        assert result.stderr == f"error: test_calibration {float(calibration)} must be in (0,1)\n"

    @pytest.mark.parametrize("command", ["simulate", "coverage"])
    def test_a_test_level_that_underflows_names_both_inputs(self, runner, files, command):
        # each is a valid level, but their product is 0
        state, ref, _ = files
        result = runner.invoke(main, [command, "--state", state, "--reference", ref,
                                      "--protocol", "hypothesis_test", "--eta", "1e-200",
                                      "--test-calibration", "1e-200"])
        assert result.exit_code == 4, result.output
        assert result.stderr == ("error: the test level eta * test_calibration = 1e-200 * "
                                 "1e-200 underflows to 0\n")


class TestEta:
    @pytest.mark.parametrize("protocol, eta", [
        ("hypothesis_test", "1.5"), ("hypothesis_test", "7"), ("dephase", "7"), ("witness", "-1"),
    ])
    def test_simulate_exits_4_naming_the_eta_given(self, runner, files, protocol, eta):
        # the eta given, not the test's eta * test_calibration, for every protocol
        state, ref, _ = files
        result = runner.invoke(main, ["simulate", "--state", state, "--reference", ref,
                                      "--protocol", protocol, "--eta", eta])
        assert result.exit_code == 4, result.output
        assert result.stderr == f"error: eta {float(eta)} must be in (0,1)\n"


class TestEpsilon:
    RECORDS = {
        "hypothesis_test": {"protocol": "hypothesis_test", "n": 4000, "counts": {
            "null_accept_h1": 100, "null_accept_h0": 1900, "alt_accept_h1": 2000,
            "alt_accept_h0": 0}},
        "witness": {"protocol": "witness", "n": 1000, "counts": {"success": 990, "failure": 10}},
    }

    @pytest.mark.parametrize("records", [
        (), ("hypothesis_test",), ("witness",), ("hypothesis_test", "witness"),
    ])
    @pytest.mark.parametrize("epsilon, code", [("0.6", 4), ("0.5", 0)])
    def test_every_path_takes_one_epsilon_rule(self, runner, files, tmp_path, records, epsilon,
                                               code):
        # both bound forms take 0 < epsilon <= 1/2, which the run checks
        # before any stage; () is compute's exact path
        state, ref, _ = files
        args = ["compute", "--state", state, "--reference", ref] if not records else [
            "certify", "--reference", ref]
        for protocol in records:
            path = tmp_path / f"{protocol}.json"
            path.write_text(json.dumps(self.RECORDS[protocol]))
            args += ["--record", str(path)]
        result = runner.invoke(main, [*args, "--epsilon", epsilon])
        assert result.exit_code == code, result.output
        if code:
            assert result.stderr == "error: epsilon 0.6 must be in (0, 0.5]\n"


class TestSweep:
    def test_csv_output(self, runner, files, tmp_path):
        state, ref, _ = files
        wf = {
            "windows": [
                {"xi": 0.0, "blocks": [[i] for i in range(32)]},
                {"xi": 1.0, "blocks": [list(range(32))]},
            ]
        }
        wf_path = tmp_path / "wf.json"
        wf_path.write_text(json.dumps(wf))
        out = tmp_path / "sweep.csv"
        result = runner.invoke(main, [
            "sweep", "--state", state, "--reference", ref,
            "--windows", str(wf_path), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "xi,S_bits,C_structons"
        assert len(lines) == 3
        # stdout holds the same bytes as the file
        result = runner.invoke(main, ["sweep", "--state", state, "--reference", ref,
                                      "--windows", str(wf_path)])
        assert result.exit_code == 0, result.output
        assert result.stdout_bytes == out.read_bytes()
        assert b"\r" not in result.stdout_bytes


class TestRectThermo:
    def test_rect_identity(self, runner):
        result = runner.invoke(main, [
            "rect", "--sigma-avail", "2", "--delta-t", "3", "--c-opt", "1",
            "--s-e", "1.5", "--gamma-j", "1",
        ])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["eta_qsl"] == pytest.approx(math.pi / 12)
        assert abs(payload["identity_residual"]) < 1e-12

    @pytest.mark.parametrize("args, message", [
        (["--sigma-avail", "nan"], "sigma_avail must be finite, got nan"),
        (["--delta-t", "inf"], "delta_t must be finite, got inf"),
        (["--c-opt", "inf"], "c_opt must be finite, got inf"),
        (["--c-opt", "-1"], "instruction-step count c_opt must be >= 0"),
        (["--s-e", "nan"], "s_e must be finite, got nan"),
        (["--gamma-j", "inf"], "gamma_j must be finite, got inf"),
        (["--hbar", "nan"], "hbar must be finite, got nan"),
        (["--c-r", "nan"], "c_r must be finite, got nan"),
        (["--j", "-inf"], "j must be finite, got -inf"),
        # finite inputs whose results leave the float range
        (["--delta-t", "1e-310"], "eta_qsl must be finite, got inf"),
        (["--sigma-avail", "1e-200", "--delta-t", "1e-200"],
         "sigma_avail * delta_t or gamma_j * delta_t underflows to 0"),
        (["--s-e", "1e308"], "identity_residual must be finite, got nan"),
        (["--c-r", "1e300", "--j", "1e-10"], "margin_dimensionless must be finite, got -inf"),
    ])
    def test_rect_rejects_non_finite_input_and_output(self, runner, args, message):
        result = runner.invoke(main, [
            "rect", "--sigma-avail", "2", "--delta-t", "3", "--c-opt", "1", "--s-e", "1.5",
            "--gamma-j", "1", "--c-r", "1", "--j", "1", *args,
        ])
        assert result.exit_code == 4, result.output
        assert result.stderr == f"error: {message}\n"

    def test_thermo(self, runner, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_text("t,Pi,T,C\n0,0.5,3,0\n1,0.5,3,1\n2,0.5,3,2\n")
        result = runner.invoke(main, [
            "thermo", "--trace", str(trace), "--gamma-r", "2",
        ])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["w_info"] == pytest.approx(3 * 2 * math.log(2), abs=1e-9)
        assert payload["time_bound"]["value"] == pytest.approx(2.0, abs=1e-12)

    def test_thermo_round_trip_keeps_its_work(self, runner, tmp_path):
        # C returns to 0: no weighted temperature, but a work of ln 2 * 1
        trace = tmp_path / "trace.csv"
        trace.write_text("t,Pi,T,C\n0,.5,3,0\n1,.5,5,1\n2,.5,1,0\n")
        result = runner.invoke(main, [
            "thermo", "--trace", str(trace), "--gamma-r", "2", "--delta-c", "1",
        ])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["w_info"] == pytest.approx(math.log(2), abs=1e-12)
        assert payload["t_avg_weighted"] is None

    @pytest.mark.parametrize("trace, args, constants, message", [
        (None, ["--delta-c", "nan"], None, "delta_c must be finite, got nan"),
        (None, ["--gamma-r", "nan"], None, "gamma_r must be finite, got nan"),
        (None, [], '{"hbar": NaN, "k_b": Infinity}', "hbar must be finite, got nan"),
        (None, [], '{"k_b": 0}', "hbar and k_b must be positive"),
        (None, ["--gamma-r", "1e308", "--delta-c", "1e308", "--pi-avg", "1e-308"], None,
         "time_bound must be finite, got inf"),
        (None, ["--variant", "isothermal", "--temperature", "1e-300"], '{"k_b": 1e-300}',
         "k_b * temperature underflows to 0"),
        # trace-derived defaults that overflow: the mean potential, the time span
        ("t,Pi,T,C\n0,1e308,3,0\n10,1e308,3,1\n", [], None, "pi_avg must be finite, got inf"),
        ("t,Pi,T,C\n-1e308,1,3,0\n1e308,1,3,1\n", [], None, "pi_avg must be finite, got nan"),
    ])
    def test_thermo_rejects_non_finite_input_and_output(self, runner, tmp_path, trace, args,
                                                          constants, message):
        path = tmp_path / "trace.csv"
        path.write_text(trace or "t,Pi,T,C\n0,0.5,3,0\n1,0.5,3,1\n2,0.5,3,2\n")
        if constants is not None:
            (tmp_path / "constants.json").write_text(constants)
            args = [*args, "--constants", str(tmp_path / "constants.json")]
        result = runner.invoke(main, ["thermo", "--trace", str(path), "--gamma-r", "2", *args])
        assert result.exit_code == 4, result.output
        assert result.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("trace, args, code, message", [
        ("t,Pi,T,C\n0,0.5,3,0\n1,0.7,2.5,1.25\n2.5,0.2,3,2\n", ["--pi-avg", "2"], 2,
         "config error: pi_avg = 2.0 cannot be given with the sign_robust variant, which "
         "averages the trace's positive potential"),
        ("t,Pi,T,C\n0,1e308,3,0\n10,1e308,3,1\n", ["--delta-c", "0.5", "--pi-avg", "2"], 2,
         "config error: pi_avg = 2.0 cannot be given with the sign_robust variant, which "
         "averages the trace's positive potential"),
        # with no --pi-avg, the trace's average is checked as before
        ("t,Pi,T,C\n0,1e308,3,0\n10,1e308,3,1\n", ["--delta-c", "0.5"], 4,
         "error: pi_avg must be finite, got inf"),
    ], ids=["given", "given-on-an-overflowing-trace", "overflowing-default"])
    def test_sign_robust_rejects_pi_avg(self, runner, tmp_path, trace, args, code, message):
        path = tmp_path / "trace.csv"
        path.write_text(trace)
        result = runner.invoke(main, ["thermo", "--trace", str(path), "--gamma-r", "3",
                                      "--variant", "sign_robust", *args])
        assert result.exit_code == code, result.output
        assert result.stderr == f"{message}\n"

    @pytest.mark.parametrize("args, message", [
        (["--variant", "isothermal", "--temperature", "1.5", "--pi-avg", "2"],
         "pi_avg = 2.0 cannot be given with the isothermal variant, which reads temperature"),
        (["--temperature", "1.5"],
         "temperature = 1.5 cannot be given with the envelope variant, which reads pi_avg"),
        (["--variant", "net_gain", "--log-correction", "5"],
         "log_correction = 5.0 cannot be given with the net_gain variant, which reads pi_avg"),
    ], ids=["isothermal-pi_avg", "envelope-temperature", "net_gain-log_correction"])
    def test_a_flag_the_variant_does_not_read_exits_2(self, runner, tmp_path, args, message):
        path = tmp_path / "trace.csv"
        path.write_text("t,Pi,T,C\n0,0.5,3,0\n1,0.7,2.5,1.25\n2.5,0.2,3,2\n")
        result = runner.invoke(main, ["thermo", "--trace", str(path), "--gamma-r", "3", *args])
        assert result.exit_code == 2, result.output
        assert result.stderr == f"config error: {message}\n"

    @pytest.mark.parametrize("text, key, value", [
        ('{"hbar": true, "k_b": "2"}', "hbar", "True"),
        ('{"k_b": "2"}', "k_b", "'2'"),
        ('{"hbar": null}', "hbar", "None"),
    ])
    def test_thermo_constants_that_are_not_numbers_exit_2(self, runner, tmp_path, text, key,
                                                          value):
        trace, constants = tmp_path / "trace.csv", tmp_path / "constants.json"
        trace.write_text("t,Pi,T,C\n0,0.5,3,0\n1,0.5,3,1\n")
        constants.write_text(text)
        result = runner.invoke(main, ["thermo", "--trace", str(trace), "--gamma-r", "2",
                                      "--constants", str(constants)])
        assert result.exit_code == 2, result.output
        assert result.stderr == (
            f"config error: {constants}: {key!r} must be a number, got {value}\n")

    def test_bad_trace_exits_2(self, runner, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_text("a,b\n1,2\n")
        result = runner.invoke(main, ["thermo", "--trace", str(trace), "--gamma-r", "2"])
        assert result.exit_code == 2

    def test_trace_that_is_not_utf8_is_named_as_one(self, runner, tmp_path):
        # a UTF-16 byte-order mark: the file is text, but not UTF-8 text
        trace = tmp_path / "trace.csv"
        trace.write_bytes(b"\xff\xfet,Pi,T,C\n0,0.5,3,0\n1,0.5,3,1\n")
        result = runner.invoke(main, ["thermo", "--trace", str(trace), "--gamma-r", "2"])
        assert result.exit_code == 2, result.output
        assert result.stderr == (f"config error: {trace}: cannot be decoded as UTF-8 text "
                                 "(invalid start byte at byte 0)\n")
