"""tools/same_outputs.py: the byte-identity check between two source trees."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "same_outputs.py"
# the full battery's leaves for this tree, with the versions that computed them
STORED = ROOT / "tests" / "data" / "same_outputs.json"


def load_tool():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tree_has_the_same_outputs_as_itself():
    src = str(ROOT / "src")
    proc = subprocess.run([sys.executable, str(TOOL), src, src, "--small"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith("all identical\n")
    assert int(proc.stdout.split()[0]) > 1000


def test_compare_names_each_differing_field_with_its_largest_change():
    tool = load_tool()
    old = {"coverage[0].value": 1.0, "coverage[1].value": 2.0, "coverage[2].value": 3,
           "records[0].n": 5, "cli[0].stderr": "", "pipeline[0].gone": 0.5,
           "endpoints[0].upper": 0.0}
    new = {**old, "coverage[0].value": 1.0 + 2**-52, "coverage[2].value": 3.5,
           "records[0].n": 5.0, "cli[0].stderr": "warning", "endpoints[0].upper": -0.0}
    del new["pipeline[0].gone"]
    assert tool.compare(old, new) == [
        "cli.stderr: 1 differing, non-numeric change",
        "coverage.value: 2 differing, largest absolute change 0.5",
        "endpoints.upper: 1 differing, largest absolute change 0",
        "pipeline.gone: 1 differing, non-numeric change",
        "records.n: 1 differing, largest absolute change 0",
    ]
    assert tool.compare(old, dict(old)) == []


def test_the_tree_computes_its_stored_outputs():
    # a moved leaf fails with each moved field and its largest change, and
    # another numpy, scipy or BLAS fails naming the mismatch; a change that
    # moves a leaf on purpose rewrites the file with --write
    proc = subprocess.run([sys.executable, str(TOOL), str(ROOT / "src"), "--against", str(STORED)],
                          capture_output=True, text=True, timeout=1200)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith("all identical\n")


def test_a_version_mismatch_fails_and_is_named(tmp_path):
    # it fails rather than skips, though every leaf agrees, and compares no leaf
    stored = json.loads(STORED.read_text())
    stored["versions"]["numpy"] = "0.0"
    path = tmp_path / "stored.json"
    path.write_text(json.dumps(stored))
    proc = subprocess.run([sys.executable, str(TOOL), str(ROOT / "src"), "--against", str(path)],
                          capture_output=True, text=True, timeout=1200)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout == (f"version mismatch: numpy {np.__version__} here, 0.0 in the stored "
                           "file\n0 leaves compared; differences: 1\n")
