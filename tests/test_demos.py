"""Every demo script runs to completion; the output of demos 06 and 08 is
pinned."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

DEMO_06 = """\
diag(2,2): naive F1-points: 0  chi = 2
identity:  naive F1-points: 2  chi = 2  torus count = 2
diag(2,3): naive = 0  torus count = 2
diag(5,5): torus count = 2  chi = 2
[4 choose 2]_2 = 35  chi of Gr(2,4) = 6
star quiver: 2 2 2
"""

DEMO_08 = """\
prime congruences of F1^2: ['-1/0/1', '-11/0']
residue field of the sign collapse: ('0', '1') with 1+1 = 0: True
residue fields of F2 x F3: [('0', '1'), ('0', '1', '(0,2)')] semirings: True
CSpec{0,e,1} -> ['0/1e', '0e/1']
absorbing-ideal map onto Spec: {0: 0, 1: 1} surjective: True
Be projective: True  free: False
K0(F1) = K0(Z^1)
K0(F1^3) = K0(Z^1)
K0({0,e,1}) = K0(Z^2)
"""


def run_demo(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    return subprocess.run([sys.executable, str(path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path):
    result = run_demo(path)
    assert result.returncode == 0, result.stderr


def test_demo_06_output():
    path = ROOT / "demos" / "06_quiver_grassmannians.py"
    assert run_demo(path).stdout == DEMO_06


def test_demo_08_output():
    path = ROOT / "demos" / "08_congruences_and_k0.py"
    assert run_demo(path).stdout == DEMO_08
