"""The independent Theta(q) oracle against facts from outside the program.

    python3 -m pytest perfbench/tests -q
"""

import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402


def test_constant_term_is_minus_two():
    constant, _ = oracle.degree_series(4)
    assert constant == -2


def test_degree_of_discriminant_divisor():
    # C_6 is the discriminant divisor: (n+2)(d-1)^(n+1) for hypersurfaces of
    # degree d in P^(n+1), here cubic fourfolds, n = 4 and d = 3
    n, d = 4, 3
    assert oracle.degree_series(4)[1][6] == (n + 2) * (d - 1) ** (n + 1) == 192


def test_degree_of_cubics_containing_a_plane():
    assert oracle.degree_series(4)[1][8] == 3402


def test_no_discriminant_two_members():
    assert oracle.degree_series(4)[1][2] == 0


def test_degrees_are_nonnegative_integers_on_the_right_grid():
    _, degrees = oracle.degree_series(45)
    assert sorted(degrees) == [d for d in range(2, 270, 2) if d % 6 in (0, 2)]
    assert all(type(v) is int and v >= 0 for v in degrees.values())


def test_lower_precision_is_a_prefix():
    _, high = oracle.degree_series(40)
    for prec in (2, 7, 16, 33):
        _, low = oracle.degree_series(prec)
        assert low == {d: v for d, v in high.items() if d < 6 * prec}


def test_oracle_never_imports_the_package():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import oracle; "
        "oracle.degree_series(10); "
        "assert not any(m.split('.')[0] == 'cubicforms' for m in sys.modules)"
    )
    subprocess.run([sys.executable, "-c", code, str(BENCH)], check=True)
