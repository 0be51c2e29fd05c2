"""Every demo script runs to completion; the output of demos 05, 06, 07 and
08 is pinned."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

DEMO_05 = """\
tilde(P^2 - generic): (6, 6) isomorphic to A2: True
A3: 24 chambers, thin: True
B3: 48 chambers, thin: True
D4: 192 chambers, thin: True
orbit A2 matches the abstract complex: True
orbit B2 matches the abstract complex: True
orbit C3 matches the abstract complex: True
orbit D3 matches the abstract complex: True
plain-flag D3 orbit panel counts: [1, 2] (not thin)
building A1(F_3): 4 chambers, panels in [4] chambers, apartment ok: True
building A2(F_2): 21 chambers, panels in [3] chambers, apartment ok: True
"""

DEMO_06 = """\
diag(2,2): naive F1-points: 0  chi = 2
identity:  naive F1-points: 2  chi = 2  torus count = 2
diag(2,3): naive = 0  torus count = 2
diag(5,5): torus count = 2  chi = 2
[4 choose 2]_2 = 35  chi of Gr(2,4) = 6
star quiver: 2 2 2
"""

DEMO_07 = """\
1/2 regular away from 2: True
1/2 regular globally:   False
2 regular away from oo: True
global sections carrier: ('0', '1', '-1') isomorphic to F1^2: True
ideal generated by {2/3, 1/2} at infinity: closed ball of radius 2/3
archimedean stalk primes: [('0', 'closed'), ('1', 'open')]
I^c_r = I^o_r for irrational r: True | for r = 1/2: False
stalk at p=3 has primes: [('0',), ('3',)]
the self-product has dimension 2; witness chain: (eta,eta) < (eta,2) < (2,2)
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


def test_demo_05_output():
    path = ROOT / "demos" / "05_coxeter_complexes_and_buildings.py"
    assert run_demo(path).stdout == DEMO_05


def test_demo_06_output():
    path = ROOT / "demos" / "06_quiver_grassmannians.py"
    assert run_demo(path).stdout == DEMO_06


def test_demo_07_output():
    path = ROOT / "demos" / "07_arithmetic_curve.py"
    assert run_demo(path).stdout == DEMO_07


def test_demo_08_output():
    path = ROOT / "demos" / "08_congruences_and_k0.py"
    assert run_demo(path).stdout == DEMO_08
