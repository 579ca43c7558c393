"""Tests of the benchmark itself: input generators, the tracer, and a tiny
smoke configuration of every workload, traced and untraced.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def digest(obj, h=None):
    """Stable hash of nested dicts, lists, arrays and scalars."""
    h = h or hashlib.sha256()
    if isinstance(obj, dict):
        for k in sorted(obj):
            h.update(repr(k).encode())
            digest(obj[k], h)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            digest(v, h)
    elif isinstance(obj, np.ndarray):
        h.update(np.ascontiguousarray(obj).tobytes())
    else:
        h.update(repr(obj).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", run.NAMES)
@pytest.mark.parametrize("smoke", [True, False])
def test_generators_are_deterministic_and_seed_dependent(name, smoke):
    w = workloads.WORKLOADS[name]
    first = digest(w.generate(3, smoke))
    assert digest(w.generate(3, smoke)) == first
    assert digest(w.generate(4, smoke)) != first


def test_certify_pool_keeps_the_plan_sized_records():
    pool = workloads.WORKLOADS["certify"].generate(0, False)["pool"]
    plans = [e["hypothesis_test"]["meta"]["plan_bits"] for e in pool
             if "plan_bits" in e.get("hypothesis_test", {}).get("meta", {})]
    assert plans == list(workloads.PLAN_BITS)
    assert len(pool) == len(plans) * (workloads.SIM_PER_PLAN + 1)


def test_self_time_subtracts_child_spans():
    tr = tracer.Tracer()
    tr.current_op = 0
    spans = [("bench.op", 0.0, 10.0, -1), ("harness.pipeline", 1.0, 9.0, 0),
             ("stats.clopper_pearson_upper", 2.0, 5.0, 1), ("linalg.betainc", 3.0, 4.0, 2)]
    for name, start, end, parent in spans:
        i = tr.open(name)
        tr.start[i], tr.end[i], tr.parent[i] = start, end, parent
    tr._stack.clear()
    metrics, calls = tracer.summarize(tr, op_scales=[0.5])
    assert metrics["harness.self_ms"] == pytest.approx(2.5e3)
    assert metrics["stats.self_ms"] == pytest.approx(1.0e3)
    assert metrics["stats.betainc_per_endpoint"] == 1.0
    assert calls["linalg"] == 1 and calls["bench"] == 1


def test_install_patches_every_binding_and_uninstall_restores():
    import rcc
    import rcc.bounds
    import rcc.harness
    import rcc.stats

    original = rcc.bounds.rcc
    tr = tracer.Tracer()
    uninstall = tracer.install(tr)
    try:
        assert rcc.bounds.rcc is not original
        assert rcc.harness.rcc is rcc.bounds.rcc is rcc.rcc
        assert rcc.stats.betainc.__wrapped__ is not None
        rcc.stats.clopper_pearson_upper(3, 100, 0.05)
    finally:
        uninstall()
    assert rcc.bounds.rcc is original and rcc.harness.rcc is original and rcc.rcc is original
    names = [tr.names[i] for i in tr.name_id]
    assert names[0] == "stats.clopper_pearson_upper"
    assert names.count("linalg.betainc") >= 30


def test_binomial_tail_matches_scipy():
    from scipy.stats import binom

    cases = [(True, 1200, 2000, 0.58), (False, 37, 2000, 0.025), (False, 0, 3216643036, 1.1e-9),
             (True, 1, 50, 0.001), (False, 499, 2000, 0.27)]
    for lower, k, n, p in cases:
        want = binom.sf(k - 1, n, p) if lower else binom.cdf(k, n, p)
        assert workloads.binom_tail(lower, k, n, p) == pytest.approx(want, rel=1e-8)


def test_certify_check_exempts_only_the_known_defect():
    w = workloads.WORKLOADS["certify"]
    ctx = w.build(w.generate(0, False), None)
    raw = ctx["raw"]
    outs = [w.run(ctx, k) for k in range(len(raw))]
    plan_at = {e["hypothesis_test"]["meta"]["plan_bits"]: k for k, e in enumerate(raw)
               if "plan_bits" in e.get("hypothesis_test", {}).get("meta", {})}
    sim = next(k for k, e in enumerate(raw) if "witness" in e)
    assert w.check(ctx, sim, outs[sim]) is None
    for bits in (20, 30):
        assert w.check(ctx, plan_at[bits], outs[plan_at[bits]]).startswith(workloads.TAIL_DEFECT)

    def loosened(k, protocol, key, factor):
        out = json.loads(json.dumps(outs[k]))
        bound = next(b for b in out["certified_bounds"] if b["protocol"] == protocol)
        bound["params"][key] *= factor
        return w.check(ctx, k, out)

    for reason in (loosened(sim, "witness", "p_lower", 1.01),
                   loosened(sim, "hypothesis_test", "alpha_upper", 0.99),
                   loosened(plan_at[10], "hypothesis_test", "beta_upper", 0.99),
                   loosened(plan_at[20], "hypothesis_test", "alpha_upper", 0.99)):
        assert reason is not None and not reason.startswith(workloads.TAIL_DEFECT)


def betaincinv_endpoints(monkeypatch):
    """Replace rcc.stats' bisection by closed-form endpoints that import
    scipy.special inside the function, and remove its `betainc` name."""
    import rcc.stats

    def binom_cdf(k, n, p):
        from scipy.special import betainc

        if k >= n or p <= 0.0:
            return 1.0
        return 0.0 if p >= 1.0 else float(betainc(n - k, k + 1, 1.0 - p))

    def clopper_pearson_upper(k, n, delta):
        from scipy.special import betaincinv

        return 1.0 if k == n else float(betaincinv(k + 1, n - k, 1.0 - delta))

    def clopper_pearson_lower(k, n, delta):
        from scipy.special import betaincinv

        return 0.0 if k == 0 else float(betaincinv(k, n - k + 1, delta))

    for fn in (binom_cdf, clopper_pearson_upper, clopper_pearson_lower):
        fn.__module__ = rcc.stats.__name__
    monkeypatch.delattr(rcc.stats, "betainc")
    monkeypatch.setattr(rcc.stats, "_binom_cdf", binom_cdf)
    monkeypatch.setattr(rcc.stats, "clopper_pearson_upper", clopper_pearson_upper)
    monkeypatch.setattr(rcc.stats, "clopper_pearson_lower", clopper_pearson_lower)


def test_traced_certify_passes_with_betaincinv_endpoints(monkeypatch):
    betaincinv_endpoints(monkeypatch)
    result = run.run_workload("certify", 5, 0.4, True, True)
    assert result["problems"] == [] and result["correct"] is True
    assert result["failed"] == 0
    values = result["values"]
    assert values["stats.cp_endpoints"] > 0
    assert values["stats.betainc_per_endpoint"] == 1.0
    assert values["linalg.betainc.calls"] == values["stats.cp_endpoints"]


def test_tracer_patches_scipy_special_when_it_is_first_imported():
    code = f"""
import sys
sys.path.insert(0, {str(BENCH)!r})
import tracer
tracer.MODULES = ()
tr = tracer.Tracer()
tr.current_op = 0
uninstall = tracer.install(tr)
assert "scipy.special" not in sys.modules
from scipy.special import betaincinv
betaincinv(2.0, 3.0, 0.5)
uninstall()
import scipy.special
assert not hasattr(scipy.special.betaincinv, "__wrapped__")
print([tr.names[i] for i in tr.name_id])
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["['linalg.betaincinv']"]


def test_smoke_runs_every_workload_traced_and_untraced():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--smoke",
         "--seconds", "0.4", "--seed", "5"],
        capture_output=True, text=True, cwd=str(ROOT), timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is True
    for name in run.NAMES:
        assert {k for k in line["metrics"] if k.startswith(f"{name}.trace0.")} == \
            {f"{name}.trace0.{k}" for k in run.END_TO_END}
        assert {k for k in line["metrics"] if k.startswith(f"{name}.trace1.")} == \
            {f"{name}.trace1.{k}" for k in run.PER_LAYER}
        assert line["metrics"][f"{name}.trace0.p50_ms"]["value"] > 0
    assert line["metrics"]["exact.trace1.linalg.eig.calls_on_rho"]["value"] > 0
    assert line["metrics"]["certify.trace1.stats.cp_endpoints"]["value"] > 0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=str(tmp_path), timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
