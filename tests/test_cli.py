import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from rcc.cli import main
from rcc import io as rcc_io
from rcc import validate_density


@pytest.fixture
def runner():
    return CliRunner()


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

    def test_bad_epsilon_is_config_or_validation(self, runner, files):
        state, ref, _ = files
        result = runner.invoke(
            main, ["compute", "--state", state, "--reference", ref, "--epsilon", "2.0"]
        )
        assert result.exit_code == 4

    def test_out_file(self, runner, files):
        state, ref, tmp_path = files
        out = tmp_path / "report.json"
        result = runner.invoke(
            main, ["compute", "--state", state, "--reference", ref, "--out", str(out)]
        )
        assert result.exit_code == 0
        assert json.loads(out.read_text())["schema"] == "rcc-report/2"


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
        ({"dim": 32, "re": (2.0 * np.eye(32)).tolist()}, "not a POVM"),
        ({"dim": 4, "re": np.eye(4).tolist()}, "32x32"),
        ({"dim": 32, "re": np.diag([1.0, 0.4] + [0.0] * 30).tolist()}, "not a projector"),
    ])
    def test_bad_witness_projector_exits_4(self, runner, files, tmp_path, witness, message):
        state, ref, _ = files
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(witness))
        result = runner.invoke(main, [
            "simulate", "--state", state, "--reference", ref,
            "--protocol", "witness", "--witness", str(path),
        ])
        assert result.exit_code == 4, result.output
        assert isinstance(result.exception, SystemExit)
        assert message in result.output
        assert "Traceback" not in result.output

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
        assert "--witness applies only to --protocol witness" in result.output

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

    def test_witness_plan_needs_args(self, runner):
        result = runner.invoke(main, [
            "plan", "--protocol", "witness", "--target-bits", "2", "--delta", "0.05",
        ])
        assert result.exit_code == 2

    @pytest.mark.parametrize("args, message", [
        (["hypothesis_test", "--target-bits", "2000"],
         "the sample size 2^L ln(1/delta) for target L = 2000.0 bits overflows a float"),
        (["hypothesis_test", "--target-bits", "inf"], "target must be finite and nonnegative"),
        (["hypothesis_test", "--target-bits", "nan"], "target must be finite and nonnegative"),
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

    def test_bad_trace_exits_2(self, runner, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_text("a,b\n1,2\n")
        result = runner.invoke(main, ["thermo", "--trace", str(trace), "--gamma-r", "2"])
        assert result.exit_code == 2
