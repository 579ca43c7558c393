"""Malformed input files never end the CLI in a traceback.

Hypothesis writes state, reference and record files with non-finite
entries, ragged arrays, booleans, strings, dimensions over a small
RCC_DIM_CAP and states just inside and just outside the PSD tolerance,
then runs `compute`, `simulate`, `coverage` (each protocol, 2 trials of 20
shots) and `certify` in process; it writes window families for `sweep`
and process-trace CSVs for `thermo` the same way. Whatever the input, the
exit code is one of the documented ones and an error is one line on
stderr.
"""

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from rcc.cli import main

DIM_CAP = 4
EXIT_CODES = {0, 2, 3, 4}
FUZZ = settings(
    max_examples=100, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

# scalars a JSON file can hold where a number belongs
junk = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 3),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.just([]),
    st.just({}),
)


def square(dim: int, entry) -> st.SearchStrategy:
    return st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim)


def ragged(entry) -> st.SearchStrategy:
    return st.lists(st.lists(entry, max_size=DIM_CAP + 1), max_size=DIM_CAP + 1)


# the sector reference of two qubits at Hamming weight 1: basis states 1 and
# 2 span its subspace, d_R = 2 inside dim = DIM_CAP
REFERENCE = {"type": "sector", "n_qubits": 2, "hamming_weight": 1, "g": 2,
             "addressable_units": 2}


def near_psd(seed: int, scale: float, inside: bool) -> dict:
    """A rotated state with least eigenvalue -scale * 1e-10, inside the
    reference subspace or spread over the whole space."""
    rng = np.random.default_rng(seed)
    support = [1, 2] if inside else list(range(DIM_CAP))
    k = len(support)
    w = np.zeros(k)
    w[0] = 1.0 + scale * 1e-10
    w[-1] = -scale * 1e-10
    u, _ = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
    m = np.zeros((DIM_CAP, DIM_CAP), dtype=complex)
    m[np.ix_(support, support)] = (u * w) @ u.conj().T
    m = 0.5 * (m + m.conj().T)
    return {"dim": DIM_CAP, "re": m.real.tolist(), "im": m.imag.tolist()}


def diagonal_state(weights: list) -> dict:
    """Normalised nonnegative weights on the diagonal; a zero vector has trace 0."""
    w = np.asarray(weights)
    if w.sum() > 0.0:
        w = w / w.sum()
    return {"dim": DIM_CAP, "re": np.diag(w).tolist()}


dims = st.integers(1, DIM_CAP)
near_psd_states = st.builds(
    near_psd, st.integers(0, 99), st.sampled_from([0.5, 0.99, 1.01, 2.0]), st.booleans(),
)
matrix_payloads = st.one_of(
    # well-formed shape, any entries
    dims.flatmap(lambda d: st.fixed_dictionaries(
        {"dim": st.just(d), "re": square(d, junk)},
        optional={"im": square(d, junk)},
    )),
    # well-formed shape, numeric entries: mostly not Hermitian or not unit trace
    dims.flatmap(lambda d: st.fixed_dictionaries(
        {"dim": st.just(d), "re": square(d, st.floats(-1.0, 1.0))},
    )),
    # states, inside the reference subspace or leaking out of it
    st.builds(diagonal_state, st.lists(st.floats(0.0, 1.0), min_size=DIM_CAP,
                                       max_size=DIM_CAP)),
    st.builds(diagonal_state, st.tuples(st.just(0.0), st.floats(0.0, 1.0),
                                        st.floats(0.0, 1.0), st.just(0.0)).map(list)),
    # just inside and just outside the PSD tolerance
    near_psd_states,
    near_psd_states,
    # dimension over the cap, or shape and dimension that disagree
    st.fixed_dictionaries({
        "dim": st.one_of(st.integers(-2, 3 * DIM_CAP), junk),
        "re": st.one_of(ragged(st.floats(-1.0, 1.0)), junk),
    }, optional={"im": st.one_of(ragged(junk), junk)}),
    junk,
    st.lists(junk, max_size=3),
)

reference_payloads = st.one_of(
    st.just(REFERENCE),
    st.fixed_dictionaries({
        "type": st.sampled_from(["projectors", "sector", "stabilizer", "blocks", "other"]),
        "g": st.one_of(st.just(2), junk),
        "addressable_units": st.one_of(st.just(2), junk),
    }, optional={
        "projectors": st.one_of(st.lists(matrix_payloads, max_size=2), junk),
        "n_qubits": st.one_of(st.integers(-1, 3), junk),
        "hamming_weight": st.one_of(st.integers(-1, 3), junk),
        "generators": st.one_of(st.lists(st.sampled_from(["ZZ", "XX", "ZI", "Z"]),
                                         max_size=2), junk),
        "blocks": st.one_of(st.lists(st.lists(st.integers(0, 3), max_size=3), max_size=3),
                            junk),
    }),
    junk,
)

LABELS = {
    "witness": ["success", "failure"],
    "dephase": ["0", "1"],
    "hypothesis_test": ["null_accept_h1", "null_accept_h0", "alt_accept_h1", "alt_accept_h0"],
}


def consistent_record(protocol: str, values: list) -> dict:
    counts = dict(zip(LABELS[protocol], values))
    return {"protocol": protocol, "n": sum(counts.values()), "counts": counts}


counts = st.dictionaries(
    st.sampled_from([label for labels in LABELS.values() for label in labels]),
    st.one_of(st.integers(-2, 60), junk),
    max_size=4,
)
record_payloads = st.one_of(
    # labels and n that agree: certified, or refused at the level
    st.builds(consistent_record, st.sampled_from(sorted(LABELS)),
              st.lists(st.integers(0, 400), min_size=4, max_size=4)),
    st.fixed_dictionaries(
        {"protocol": st.one_of(st.sampled_from(sorted(LABELS)), junk),
         "n": st.one_of(st.integers(-1, 60), junk),
         "counts": st.one_of(counts, junk)},
        optional={"meta": st.one_of(st.fixed_dictionaries({"rank": junk}), junk)},
    ),
    junk,
)


@pytest.fixture
def run(tmp_path):
    runner = CliRunner()

    def invoke(command: str, *options: str, **payloads):
        args = [command]
        for option, payload in payloads.items():
            # a process trace is CSV text, written as it is; every other
            # option is a JSON file, whatever the payload
            if option == "trace":
                path = tmp_path / "trace.csv"
                path.write_text(payload)
            else:
                path = tmp_path / f"{option}.json"
                path.write_text(json.dumps(payload))
            args += [f"--{option}", str(path)]
        if command == "simulate":
            args += ["--protocol", "dephase", "--n", "50"]
        if command == "coverage":
            args += ["--trials", "2", "--n", "20"]
        if command == "thermo":
            args += ["--gamma-r", "2"]
        # options given by the test come last, so they override the above
        result = runner.invoke(main, [*args, *options], env={"RCC_DIM_CAP": str(DIM_CAP)})
        assert result.exit_code in EXIT_CODES, (result.exit_code, result.exception)
        assert "Traceback" not in result.output
        if result.exit_code:
            assert isinstance(result.exception, SystemExit)
            assert result.stderr.count("\n") == 1, result.stderr
        return result

    return invoke


@FUZZ
@given(state=matrix_payloads, reference=st.one_of(st.just(REFERENCE), reference_payloads))
def test_compute(run, state, reference):
    run("compute", state=state, reference=reference)


@FUZZ
@given(state=matrix_payloads)
def test_simulate(run, state):
    run("simulate", state=state, reference=REFERENCE)


@FUZZ
@given(state=matrix_payloads, reference=st.one_of(st.just(REFERENCE), reference_payloads),
       protocol=st.sampled_from(["all", *LABELS]))
def test_coverage(run, state, reference, protocol):
    run("coverage", "--protocol", protocol, state=state, reference=reference)


@pytest.mark.parametrize("protocol", sorted(LABELS))
def test_state_and_reference_of_different_dimensions_exit_4(run, protocol):
    state = {"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]]}
    for command in ("simulate", "coverage"):
        result = run(command, "--protocol", protocol, state=state, reference=REFERENCE)
        assert result.exit_code == 4
        assert "dimension mismatch: state 2, reference 4" in result.stderr


@FUZZ
@given(record=record_payloads, reference=st.one_of(st.just(REFERENCE), reference_payloads))
def test_certify(run, record, reference):
    run("certify", record=record, reference=reference)


@pytest.mark.parametrize("scale, inside, compute_exit, simulate_exit", [
    (0.5, True, 0, 0),
    (0.99, True, 0, 0),
    (1.01, True, 2, 2),
    (0.99, False, 4, 4),
    (2.0, False, 2, 2),
])
def test_near_psd_states(run, scale, inside, compute_exit, simulate_exit):
    state = near_psd(7, scale, inside)
    assert run("compute", state=state, reference=REFERENCE).exit_code == compute_exit
    assert run("simulate", state=state, reference=REFERENCE).exit_code == simulate_exit


def test_unreadable_bytes_exit_2(tmp_path):
    path = tmp_path / "bytes.json"
    path.write_bytes(b"\xff\xfe{")
    result = CliRunner().invoke(main, ["compute", "--state", str(path), "--reference", str(path)])
    assert result.exit_code == 2, result.exception
    assert result.stderr.count("\n") == 1


def test_directory_or_list_where_a_file_belongs_exit_2(tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_text("t,Pi,T,C\n0,1,1,0\n1,1,1,2\n")
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    for args in (
        ["compute", "--state", str(tmp_path), "--reference", str(tmp_path)],
        ["thermo", "--trace", str(tmp_path), "--gamma-r", "2"],
        ["thermo", "--trace", str(trace), "--gamma-r", "2", "--constants", str(listed)],
    ):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, (args, result.exception)
        assert result.stderr.count("\n") == 1


@pytest.mark.parametrize("payload, message", [
    ({"dim": DIM_CAP + 1, "re": []}, f"dim {DIM_CAP + 1} exceeds the cap {DIM_CAP}"),
    ({"dim": math.inf, "re": []}, "'dim' must be a positive integer"),
    ({"dim": 2, "re": [[True, False], [False, False]]}, "'re' entries must be numbers"),
    ({"dim": 2, "re": [[0.5, "0"], [0, 0.5]]}, "'re' entries must be numbers"),
    ({"dim": 2, "re": 5}, "'re' must be a 2x2 array"),
])
def test_malformed_state_message(run, payload, message):
    result = run("compute", state=payload, reference=REFERENCE)
    assert result.exit_code == 2
    assert message in result.stderr


@pytest.mark.parametrize("field, value", [
    ("g", 2.9), ("addressable_units", True), ("n_qubits", "2"), ("hamming_weight", 1.0),
])
def test_reference_numbers_are_not_truncated(run, field, value):
    result = run("compute", state=near_psd(0, 0.5, True), reference={**REFERENCE, field: value})
    assert result.exit_code == 2
    assert f"{field!r} must be an integer, got {value!r}" in result.stderr


@pytest.mark.parametrize("blocks", [[[2.7, 1], [2, 1]], [[True, True], [3, 1]], [[2, 1], 2]])
def test_reference_blocks_are_not_truncated(run, blocks):
    reference = {"type": "blocks", "blocks": blocks, "g": 2, "addressable_units": 2}
    result = run("compute", state=near_psd(0, 0.5, True), reference=reference)
    assert result.exit_code == 2
    assert "'blocks' must be a list of lists of integers" in result.stderr


# a nested family over the DIM_CAP basis states that fixes REFERENCE's
# subspace {1, 2}: singletons, then {1, 2} joined
WINDOWS = {"windows": [{"xi": 0.0, "blocks": [[0], [1], [2], [3]]},
                       {"xi": 1.0, "blocks": [[0], [1, 2], [3]]}]}
window_payloads = st.one_of(
    st.just(WINDOWS),
    st.fixed_dictionaries({"windows": st.lists(
        st.fixed_dictionaries({
            "xi": st.one_of(st.floats(allow_nan=True, allow_infinity=True), junk),
            "blocks": st.one_of(
                st.lists(st.lists(st.one_of(st.integers(-1, DIM_CAP + 1),
                                            st.floats(-1.0, DIM_CAP), junk),
                                  max_size=3), max_size=DIM_CAP + 1),
                junk),
        }), max_size=3)}),
    st.fixed_dictionaries({"windows": junk}),
    junk,
    st.lists(junk, max_size=3),
)


@FUZZ
@given(windows=window_payloads)
def test_sweep(run, windows):
    run("sweep", state=near_psd(0, 0.5, True), reference=REFERENCE, windows=windows)


TRACE_HEADER = "t,Pi,T,C"
csv_cells = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-3, 10).map(str),
    st.sampled_from(["", " ", "abc", "nan", "inf", "-inf", "1e400", "True"]),
)
trace_texts = st.one_of(
    st.builds(
        lambda header, rows: "\n".join([header, *rows]) + "\n",
        st.sampled_from([TRACE_HEADER, "t,Pi,T", "C,T,Pi,t", TRACE_HEADER + ",extra", ""]),
        st.lists(st.lists(csv_cells, max_size=5).map(",".join), max_size=4),
    ),
    # four well-formed columns, any numbers
    st.lists(st.tuples(*[st.floats(allow_nan=True, allow_infinity=True)] * 4),
             max_size=4).map(lambda rows: "\n".join(
                 [TRACE_HEADER] + [",".join(map(repr, r)) for r in rows]) + "\n"),
    st.just(""),
)


@FUZZ
@given(trace=trace_texts)
def test_thermo(run, trace):
    run("thermo", trace=trace)


@pytest.mark.parametrize("window, message", [
    ({"xi": 0.0, "blocks": [[0, 1.5], [2], [3]]}, "'blocks' must be a list of lists of integers"),
    ({"xi": 0.0, "blocks": [[True], [1, 2], [3]]}, "'blocks' must be a list of lists of integers"),
    ({"xi": 0.0, "blocks": [["0"], [1, 2], [3]]}, "'blocks' must be a list of lists of integers"),
    ({"xi": math.nan, "blocks": [[0], [1, 2], [3]]}, "'xi' must be a finite number"),
    ({"xi": math.inf, "blocks": [[0], [1, 2], [3]]}, "'xi' must be a finite number"),
    ({"xi": "1", "blocks": [[0], [1, 2], [3]]}, "'xi' must be a finite number"),
])
def test_malformed_window_exit_2(run, window, message):
    result = run("sweep", state=near_psd(0, 0.5, True), reference=REFERENCE,
                 windows={"windows": [window]})
    assert result.exit_code == 2
    assert message in result.stderr


@pytest.mark.parametrize("text, message", [
    ("t,Pi,T,C\n0,1,1,0\n1,1,1\n", "line 3 has 3 entries, not 4"),
    ("t,Pi,T,C\n0,1,1,0\n1,1,1,2,5\n", "line 3 has 5 entries, not 4"),
    ("t,Pi,T,C\n0,1,1,0\n1,nan,1,2\n", "trace entries must be finite"),
    ("t,Pi,T,C\n0,1,1,0\ninf,1,1,2\n", "trace entries must be finite"),
    ("t,Pi,T,C\n0,1,1,0\n1,x,1,2\n", "bad numeric value"),
    ("", "trace CSV needs columns t, Pi, T, C"),
])
def test_malformed_trace_exit_2(run, text, message):
    result = run("thermo", trace=text)
    assert result.exit_code == 2
    assert message in result.stderr
