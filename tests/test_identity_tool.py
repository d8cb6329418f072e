"""Smoke test of the differential harness `tools/identity.py` on one tree."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_identity_harness_agrees_with_itself():
    src = str(ROOT / "src")
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "identity.py"), src, src, "--cases", "6", "--timeout", "30"],
        capture_output=True, text=True, timeout=120, check=True).stdout
    rows = re.findall(r"^(\S+) +cases +(\d+) +both finished +(\d+) +differ +(\d+) +"
                      r"left (\w+) .* right (\w+) ", out, re.MULTILINE)
    assert [name for name, *_ in rows] == ["move_primitive_vector", "move_long_coordinates",
                                          "smith_normal_form", "_smith_mod", "short_vectors",
                                          "eichler_transvection", "reflection", "enumerate_lattices",
                                          "four_squares", "trace_form", "find_polarization_element", "phi_a",
                                          "project_endo_to_l", "cli"]
    for _, cases, finished, differ, left, right in rows:
        assert int(cases) == int(finished) > 0
        assert differ == "0" and left == right
    assert "did not finish" not in out
