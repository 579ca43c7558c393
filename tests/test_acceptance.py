"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Expected values are frozen from the independent oracles in oracles.py;
tolerances are fixed here and nowhere else.
"""

import math
import time

import numpy as np

from rcc import (
    BlockPartition,
    ObservationWindow,
    RunConfig,
    coverage_experiment,
    hypothesis_testing_divergence,
    max_relative_to_reference,
    misspecification_gap,
    pinch,
    rcc,
    relative_to_reference,
    rect_efficiency,
    rect_identity_check,
    solve_bootstrap,
    spectral_skew,
    validate_density,
    von_neumann,
    windowed_rcc,
)
from rcc.stats import MeasurementRecord, dephase_protocol
from conftest import (
    coarsen,
    embed_state,
    embedded_reference,
    full_reference,
    random_density,
    random_partition,
)
from oracles import hypothesis_testing_grid_oracle


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nacceptance {num:02d} [{label}]: {status}{suffix}")


def diag_state(*p):
    return validate_density(np.diag(np.array(p, dtype=float)))


def basis_state(dim, index=0):
    d = np.zeros(dim)
    d[index] = 1.0
    return diag_state(*d)


def test_criterion_1_entropy_identity():
    """|(D_max - D) - spectral skew| <= 1e-9 bits, 1000 random cases, < 60 s."""
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for case in range(1000):
        d_r = int(rng.integers(2, 65))
        if case % 3 == 0:
            # embed in a larger space through a random basis rotation
            dim = d_r + int(rng.integers(1, 17))
            g = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
            diag = np.zeros(dim)
            diag[:d_r] = 1.0
            proj = g @ np.diag(diag) @ g.conj().T
            from rcc import build_reference

            ref = build_reference([0.5 * (proj + proj.conj().T)], 2, 2)
            rho_small = random_density(rng, d_r)
            rho = validate_density(
                g[:, :d_r] @ rho_small.matrix @ g[:, :d_r].conj().T
            )
        else:
            ref = full_reference(d_r)
            rho = random_density(rng, d_r)
        gap = (
            max_relative_to_reference(rho, ref)
            - relative_to_reference(rho, ref)
        )
        worst = max(worst, abs(gap - spectral_skew(rho)))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 60.0
    _verdict(1, "entropy identity", ok, f"worst {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 60.0


def test_criterion_2_logical_state_reproduction():
    """k=3 logical qubits at g_L=2 give 3/log2(6) structons, independent of
    the physical qubit count, bit-for-bit."""
    expected = 3 / math.log2(6)
    values = []
    for n in (5, 7, 9):
        dim = 2**n
        ref = embedded_reference(8, dim, g=2, units=3)
        values.append(rcc(basis_state(dim), ref))
    ok = all(abs(v - expected) <= 1e-12 for v in values)
    ok = ok and values[0] == values[1] == values[2]
    _verdict(2, "logical-state value and embedding invariance", ok,
             f"value {values[0]!r}")
    assert all(abs(v - expected) <= 1e-12 for v in values)
    assert values[0] == values[1] == values[2]


def test_criterion_3_bootstrap_solver():
    """Residual <= 1e-9 on 10^4 random (D, c); piecewise never above the
    closed form; asymptotic gap shrinks along D = 10, 100, 1000."""
    rng = np.random.default_rng(303)
    worst_residual = 0.0
    piecewise_ok = True
    for _ in range(10_000):
        d = float(10 ** rng.uniform(-1, 3))
        c = float(10 ** rng.uniform(-1, 1))
        x = solve_bootstrap(d, c)
        worst_residual = max(worst_residual, abs(x + c * math.log2(x) - d))
        if solve_bootstrap(d, c, "piecewise") > x + 1e-12:
            piecewise_ok = False
    gap_ok = True
    for c in (0.5, 1.0):
        gaps = [
            solve_bootstrap(d, c) - solve_bootstrap(d, c, "asymptotic")
            for d in (10.0, 100.0, 1000.0)
        ]
        gap_ok = gap_ok and gaps[0] > gaps[1] > gaps[2] > 0
    ok = worst_residual <= 1e-9 and piecewise_ok and gap_ok
    _verdict(3, "bootstrap solver", ok, f"worst residual {worst_residual:.2e}")
    assert worst_residual <= 1e-9
    assert piecewise_ok
    assert gap_ok


def test_criterion_4_hypothesis_testing_waterfilling():
    """Waterfilling matches the 501-point grid oracle within 1e-6 bits on
    200 random diagonal states; the vacuum rate is -log2(1 - eta)."""
    rng = np.random.default_rng(404)
    etas = (0.01, 0.1, 0.25, 0.5)
    worst = 0.0
    for _ in range(200):
        d_r = int(rng.integers(2, 33))
        p = rng.dirichlet(np.ones(d_r))
        rho = validate_density(np.diag(p))
        ref = full_reference(d_r)
        eta = float(etas[int(rng.integers(0, 4))])
        mine = hypothesis_testing_divergence(rho, ref, eta)
        oracle = hypothesis_testing_grid_oracle(p, d_r, eta)
        if math.isinf(mine) or math.isinf(oracle):
            assert mine == oracle
            continue
        worst = max(worst, abs(mine - oracle))
    vacuum_ok = True
    for d_r in (4, 12, 16):
        ref = full_reference(d_r)
        sigma = validate_density(ref.sigma_matrix())
        for eta in etas:
            got = hypothesis_testing_divergence(sigma, ref, eta)
            if abs(got - (-math.log2(1 - eta))) > 1e-12:
                vacuum_ok = False
    ok = worst <= 1e-6 and vacuum_ok
    _verdict(4, "hypothesis-testing exactness", ok, f"worst {worst:.2e}")
    assert worst <= 1e-6
    assert vacuum_ok


def test_criterion_5_statistical_coverage():
    """2000 seeded trials per protocol at delta = 0.05: certified bounds
    exceed their exact targets in at most 7% of trials; < 5 min."""
    p = [0.3, 0.2, 0.15, 0.1, 0.08, 0.06, 0.04, 0.03,
         0.015, 0.01, 0.005, 0.004, 0.003, 0.002, 0.0005, 0.0005]
    rho = diag_state(*p)
    ref = full_reference(16, g=2, units=2)
    config = RunConfig(
        state=rho, reference=ref,
        protocols=("hypothesis_test", "witness", "dephase"),
        delta=0.05, eta=0.25, n_samples=2000, seed=20240817,
        witness_rank=2, test_calibration=0.8,
    )
    start = time.monotonic()
    summary = coverage_experiment(config, trials=2000)
    elapsed = time.monotonic() - start
    fractions = {
        proto: res["violation_fraction"] for proto, res in summary["protocols"].items()
    }
    ok = all(f <= 0.07 for f in fractions.values()) and elapsed < 300.0
    detail = ", ".join(f"{k}={v:.4f}" for k, v in fractions.items())
    _verdict(5, "statistical coverage", ok, f"{detail}, {elapsed:.0f}s")
    for proto, fraction in fractions.items():
        assert fraction <= 0.07, f"{proto} violated coverage: {fraction}"
    assert elapsed < 300.0


def test_criterion_6_deterministic_limit():
    """Dephasing certification with exact empirical probabilities at
    N = 10^6 lands within 0.02 bits of the noiseless bound."""
    ref = full_reference(2, g=2, units=2)
    n = 10**6
    record = MeasurementRecord(
        "dephase", n, {"0": int(0.8 * n), "1": int(0.2 * n)}
    )
    bound = dephase_protocol(record, ref, delta=0.05)
    h = -(0.8 * math.log2(0.8) + 0.2 * math.log2(0.2))
    target = 1.0 - h
    gap = abs(bound.value - target)
    ok = gap < 0.02
    _verdict(6, "deterministic-limit convergence", ok, f"gap {gap:.4f} bits")
    assert gap < 0.02


def test_criterion_7_monotonicity_suites():
    """Six structural properties over 500 randomized cases each, 1e-10."""
    rng = np.random.default_rng(707)
    tol = 1e-10
    failures = []

    for _ in range(500):  # pinching never lowers entropy
        dim = int(rng.integers(2, 33))
        rho = random_density(rng, dim)
        part = random_partition(rng, range(dim))
        if von_neumann(pinch(rho, part)) < von_neumann(rho) - tol:
            failures.append("pinching-entropy")
            break

    for _ in range(500):  # complexity is monotone under compatible pinchings
        d_r = int(rng.integers(2, 17))
        ref = full_reference(d_r)
        rho = random_density(rng, d_r)
        part = random_partition(rng, range(d_r))
        if rcc(pinch(rho, part), ref) > rcc(rho, ref) + tol:
            failures.append("data-processing")
            break

    for _ in range(500):  # convexity of the divergence
        d_r = int(rng.integers(2, 13))
        ref = full_reference(d_r)
        states = [random_density(rng, d_r) for _ in range(3)]
        weights = rng.dirichlet(np.ones(3))
        mix = validate_density(sum(w * s.matrix for w, s in zip(weights, states)))
        lhs = relative_to_reference(mix, ref)
        rhs = sum(w * relative_to_reference(s, ref) for w, s in zip(weights, states))
        if lhs > rhs + tol:
            failures.append("convexity")
            break

    for _ in range(500):  # invariance under subspace-preserving unitaries
        d_r, dim = int(rng.integers(2, 9)), 10
        ref = embedded_reference(d_r, dim)
        rho = embed_state(random_density(rng, d_r), dim)
        u_in = np.linalg.qr(rng.normal(size=(d_r, d_r)) + 1j * rng.normal(size=(d_r, d_r)))[0]
        u = np.eye(dim, dtype=complex)
        u[:d_r, :d_r] = u_in
        rotated = validate_density(u @ rho.matrix @ u.conj().T)
        gap = abs(
            relative_to_reference(rotated, ref) - relative_to_reference(rho, ref)
        )
        if gap > tol:
            failures.append("unitary-invariance")
            break

    for _ in range(500):  # windowed hierarchy along nested partitions
        d = int(rng.integers(3, 13))
        ref = full_reference(d)
        rho = random_density(rng, d)
        fine = random_partition(rng, range(d))
        coarse = coarsen(rng, fine)
        c_fine = windowed_rcc(rho, ref, ObservationWindow(fine, 0.0))
        c_coarse = windowed_rcc(rho, ref, ObservationWindow(coarse, 1.0))
        if not (c_fine <= c_coarse + tol and c_coarse <= rcc(rho, ref) + tol):
            failures.append("windowed-hierarchy")
            break

    for _ in range(500):  # exact refinement difference between nested references
        d_b = int(rng.integers(2, 17))
        d_a = d_b + int(rng.integers(1, 17))
        ref_a = embedded_reference(d_a, d_a)
        ref_b = embedded_reference(d_b, d_a)
        rho = embed_state(random_density(rng, d_b), d_a)
        bound, exact = misspecification_gap(ref_a, ref_b, von_neumann(rho))
        measured = rcc(rho, ref_a) - rcc(rho, ref_b)
        if exact is None or abs(measured - exact) > tol or exact > bound + tol:
            failures.append("exact-refinement")
            break

    ok = not failures
    _verdict(7, "monotonicity suites", ok, "all six properties" if ok else ",".join(failures))
    assert not failures


def test_criterion_8_rect_identity():
    """Accounting-identity residual <= 1e-12 relative on 10^4 random
    positive inputs when the efficiency factors come from the definitions."""
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(10_000):
        sigma = float(10 ** rng.uniform(-2, 2))
        dt = float(10 ** rng.uniform(-2, 2))
        c_opt = float(10 ** rng.uniform(-2, 2))
        s_e = float(10 ** rng.uniform(-2, 2))
        gamma_j = float(10 ** rng.uniform(-2, 2))
        hbar = float(10 ** rng.uniform(-1, 1))
        eff = rect_efficiency(sigma, dt, c_opt, s_e, gamma_j, hbar=hbar)
        residual = rect_identity_check(sigma, s_e, eff.eta_qsl, eff.eta_lr, gamma_j, c_opt)
        worst = max(worst, abs(residual) / abs(sigma * s_e))
    ok = worst <= 1e-12
    _verdict(8, "resource-accounting identity", ok, f"worst relative {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_9_pure_state_degeneracy_breaking():
    """Two pure two-qubit states with equal full complexity split by
    exactly 1 structon under the diagonal window at Gamma_R = 4."""
    ref = full_reference(4, g=2, units=2)
    product = basis_state(4)
    v = np.full(4, 0.5)
    superposed = validate_density(np.outer(v, v))
    window = ObservationWindow(BlockPartition.singletons(4), xi=0.0)
    full_a, full_b = rcc(product, ref), rcc(superposed, ref)
    win_a = windowed_rcc(product, ref, window)
    win_b = windowed_rcc(superposed, ref, window)
    gap = win_a - win_b
    ok = (
        abs(full_a - 1.0) <= 1e-12
        and abs(full_b - 1.0) <= 1e-12
        and gap >= 1.0
    )
    _verdict(9, "pure-state degeneracy breaking", ok,
             f"full {full_a:.12f}/{full_b:.12f}, gap {gap!r}")
    assert abs(full_a - 1.0) <= 1e-12
    assert abs(full_b - 1.0) <= 1e-12
    assert gap >= 1.0


def test_criterion_10_coverage_determinism(tmp_path):
    """Two CLI coverage runs with one master seed emit byte-identical
    summaries."""
    import json

    from click.testing import CliRunner

    from rcc import io as rcc_io
    from rcc.cli import main

    state_path = tmp_path / "state.json"
    rcc_io.dump_state(diag_state(0.6, 0.25, 0.1, 0.05), state_path)
    ref_path = tmp_path / "ref.json"
    ref_path.write_text(json.dumps({
        "type": "projectors", "g": 2, "addressable_units": 2,
        "projectors": [{"dim": 4, "re": np.eye(4).tolist()}],
    }))
    runner = CliRunner()
    outputs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        result = runner.invoke(main, [
            "coverage", "--state", str(state_path), "--reference", str(ref_path),
            "--trials", "25", "--n", "400", "--seed", "424242",
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1]
    _verdict(10, "coverage determinism", ok, f"{len(outputs[0])} bytes")
    assert outputs[0] == outputs[1]
