"""tools/same_outputs.py: the byte-identity check between two source trees."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "same_outputs.py"


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
