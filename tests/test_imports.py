"""The import graph: scipy loads only at a binomial tail, the
package keeps every public name, whichever module defines it, each public
name reaches a command, a criterion or README, and one module each raises
the level and finiteness, shot-range and dimension messages."""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import rcc

# every name `rcc` exports, grouped by a module that exports the same object
EXPORTS = {
    "bounds": ("BoundBreakdown", "BoundConstants", "bound_from_divergence", "main_lower_bound",
               "rcc", "smoothed_lower_bound", "solve_bootstrap"),
    "entropy": ("PurityCeiling", "bernoulli_kl", "binary_entropy",
                "hypothesis_testing_divergence", "leakage_adjusted_divergence",
                "max_relative_to_reference", "min_entropy", "purity_upper_bound",
                "relative_to_reference", "shannon", "spectral_skew", "von_neumann"),
    "errors": ("CompleteLeakageError", "ConfigError", "ExclusiveSectorsError", "LeakageError",
               "ProtocolInvalidError", "RccError", "ValidationError"),
    "harness": ("RunConfig", "coverage_experiment", "pipeline", "protocol_ground_truth",
                "simulate_record", "stream", "sweep_windows"),
    "operators": ("BlockPartition", "DensityOperator", "Projector", "SpectralDecomposition",
                  "eig_hermitian", "pinch", "project_renormalize", "validate_density"),
    "reference": ("ReferenceSet", "block_reference", "build_reference", "misspecification_gap",
                  "sector_reference", "stabilizer_reference"),
    "stats": ("CertifiedBound", "CombinedBound", "MeasurementRecord", "bonferroni",
              "clopper_pearson_lower", "clopper_pearson_upper", "combine_bounds",
              "dephase_protocol", "ht_protocol", "ht_sample_plan", "witness_protocol",
              "witness_sample_plan"),
    "windows": ("ObservationWindow", "ProcessTrace", "RectEfficiency", "RectPerformance",
                "TimeBound", "WindowFamily", "info_work", "process_time_bound",
                "rect_efficiency", "rect_identity_check", "rect_performance_check",
                "windowed_rcc"),
}

# runs CLI commands in one interpreter and prints, after each step, whether
# scipy has been loaded; only the last step, a witness certificate, computes
# a binomial tail
CHILD = """
import sys

def loaded(step):
    print("step:", step, "scipy" in sys.modules)

import rcc
loaded("import-rcc")
import rcc.cli
loaded("import-rcc.cli")

def run(*args):
    try:
        rcc.cli.main(list(args), prog_name="rcc")
    except SystemExit as exc:
        assert exc.code in (0, None), (args, exc.code)
    loaded(args[0] if args[0] != "--help" else "help")

state, ref, windows, trace, record, dephase, out = sys.argv[1:]
run("--help")
run("compute", "--state", state, "--reference", ref, "--out", out)
for protocol in ("hypothesis_test", "witness", "dephase"):
    run("simulate", "--state", state, "--reference", ref, "--protocol", protocol,
        "--n", "50", "--out", out)
run("sweep", "--state", state, "--reference", ref, "--windows", windows, "--out", out)
run("rect", "--sigma-avail", "2", "--delta-t", "3", "--c-opt", "1", "--s-e", "1.5",
    "--gamma-j", "1", "--out", out)
run("thermo", "--trace", trace, "--gamma-r", "2", "--out", out)
run("plan", "--protocol", "hypothesis_test", "--target-bits", "20", "--out", out)
run("plan", "--protocol", "witness", "--target-bits", "1", "--p0", "0.5", "--dr", "8",
    "--out", out)
run("certify", "--reference", ref, "--record", dephase, "--out", out)
run("coverage", "--state", state, "--reference", ref, "--protocol", "dephase",
    "--trials", "20", "--n", "100", "--out", out)
run("certify", "--reference", ref, "--record", record, "--out", out)
"""


def run_child(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this checkout's rcc."""
    src = str(Path(rcc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, timeout=300)


def test_scipy_loads_only_when_something_certifies(tmp_path):
    state = np.diag([0.5, 0.5, 0.0, 0.0])
    files = {
        "state.json": {"dim": 4, "re": state.tolist()},
        "ref.json": {"type": "projectors", "g": 2, "addressable_units": 1,
                     "projectors": [{"dim": 4, "re": np.diag([1.0, 1.0, 0, 0]).tolist()}]},
        "windows.json": {"windows": [{"xi": 0.0, "blocks": [[0], [1], [2], [3]]},
                                     {"xi": 1.0, "blocks": [[0, 1, 2, 3]]}]},
        "record.json": {"protocol": "witness", "n": 100,
                        "counts": {"success": 90, "failure": 10}},
        "dephase.json": {"protocol": "dephase", "n": 100, "counts": {"0": 60, "1": 40}},
    }
    for name, payload in files.items():
        (tmp_path / name).write_text(json.dumps(payload))
    (tmp_path / "trace.csv").write_text("t,Pi,T,C\n0,0.5,3,0\n1,0.5,3,1\n2,0.5,3,2\n")
    args = [str(tmp_path / n) for n in ("state.json", "ref.json", "windows.json", "trace.csv",
                                        "record.json", "dephase.json", "out.json")]
    proc = run_child(CHILD, *args)
    assert proc.returncode == 0, proc.stderr
    steps = [line.split()[1:] for line in proc.stdout.splitlines() if line.startswith("step:")]
    assert [s for s, _ in steps] == [
        "import-rcc", "import-rcc.cli", "help", "compute", "simulate", "simulate", "simulate",
        "sweep", "rect", "thermo", "plan", "plan", "certify", "coverage", "certify",
    ]
    assert [flag for _, flag in steps] == ["False"] * 14 + ["True"]


def test_rcc_stats_imports_scipy_at_its_first_tail():
    proc = run_child("""
import sys
import rcc.stats
assert "scipy" not in sys.modules
rcc.stats.clopper_pearson_upper(3, 100, 0.05)
import scipy.special
assert rcc.stats.betainc is scipy.special.betainc
""")
    assert proc.returncode == 0, proc.stderr


def test_every_exported_name_resolves_to_its_defining_object():
    names = dir(rcc)
    for module, exported in EXPORTS.items():
        mod = importlib.import_module(f"rcc.{module}")
        for name in exported:
            assert getattr(rcc, name) is getattr(mod, name), name
            assert name in names, name
    assert rcc.stats is importlib.import_module("rcc.stats")
    assert "stats" in names
    assert rcc.MeasurementRecord is rcc.records.MeasurementRecord


def _raised(message: str) -> list[str]:
    """"module:line" of each raise statement in `rcc` whose string
    constants contain message."""
    found = []
    for path in sorted(Path(rcc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise):
                text = "".join(c.value for c in ast.walk(node)
                               if isinstance(c, ast.Constant) and isinstance(c.value, str))
                if message in text:
                    found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_errors_raises_the_level_and_finiteness_messages():
    """errors._check_level and errors._check_finite own these two rules; a
    module raising either message itself holds a second copy of its rule."""
    copies = [site for message in ("must be in (0,1)", "must be finite")
              for site in _raised(message) if not site.startswith("errors.py:")]
    assert copies == []


def test_one_module_raises_the_shot_range_and_dimension_messages():
    """records._check_shots and operators._check_same_dim own these two
    rules; a second module raising either message holds a second copy."""
    modules = {message: {site.partition(":")[0] for site in _raised(message)}
               for message in ("shot range", "dimension mismatch")}
    assert modules == {"shot range": {"records.py"}, "dimension mismatch": {"operators.py"}}


# exports that no command, criterion or README sentence reaches yet, each
# mapped to the ROADMAP item that routes it into a report
PENDING = {"bonferroni": 14}


def _identifiers(node: ast.AST) -> set[str]:
    """The names, attributes and imported names referenced inside node."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.alias):
            found.add((n.asname or n.name).rpartition(".")[2])
    return found


def test_every_export_reaches_a_command_a_criterion_or_readme():
    """A public name stays if a CLI command reads it, an acceptance
    criterion uses it or README names it, directly or through the top-level
    definitions (def, class or assignment) of `rcc` that reference it."""
    package = Path(rcc.__file__).parent
    edges: dict[str, set[str]] = {}
    for path in package.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                edges.setdefault(node.name, set()).update(_identifiers(node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        edges.setdefault(target.id, set()).update(_identifiers(node.value))
    exports = {name for name in dir(rcc)
               if not name.startswith("_") and not inspect.ismodule(getattr(rcc, name))}
    tests = Path(__file__).parent
    readme = set(re.findall(r"\w+", (tests.parent / "README.md").read_text()))
    criteria = _identifiers(ast.parse((tests / "test_acceptance.py").read_text()))
    todo = list(_identifiers(ast.parse((package / "cli.py").read_text()))
                | exports & (readme | criteria))
    reached: set[str] = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(edges.get(name, ()))
    assert exports - reached == set(PENDING)
