"""CSV rendering: every float cell is byte for byte Python's '{:.12e}', and
the rows do not depend on how many are rendered per block."""

import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import satcrb.cli as cli_mod
from satcrb.cli import main, render_rows

SEED = 20260819


def rendered(values) -> list[str]:
    """The float cells of a one-column CSV table of values."""
    text = render_rows(["x"], [np.asarray(values, dtype=float)], "csv")
    lines = text.split("\r\n")
    assert lines[0] == "x" and lines[-1] == ""
    return lines[1:-1]


def expected(values) -> list[str]:
    return list(map("{:.12e}".format, np.asarray(values, dtype=float).tolist()))


def with_neighbours(values) -> np.ndarray:
    """values, their negatives, and the adjacent doubles of each."""
    x = np.asarray(values, dtype=float)
    x = np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])
    return np.concatenate([x, -x])


def test_random_bit_patterns():
    """Every kind of double: normals of all exponents, subnormals, zeros,
    infinities and NaNs with any payload."""
    rng = np.random.default_rng(SEED)
    bits = rng.integers(0, 2**64, size=200_000, dtype=np.uint64)
    # force some subnormal and NaN/inf exponent fields as well
    mantissa = np.uint64(2**52 - 1)
    bits[:1000] &= mantissa
    bits[1000:2000] |= np.uint64(0x7FF) << np.uint64(52)
    x = bits.view(np.float64)
    assert rendered(x) == expected(x)


def test_special_values():
    x = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
         2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]
    assert rendered(x) == expected(x)
    assert rendered(x)[:6] == ["0.000000000000e+00", "-0.000000000000e+00", "nan",
                               "nan", "inf", "-inf"]


def test_powers_of_ten_and_their_neighbours():
    x = with_neighbours([float(f"1e{k}") for k in range(-323, 309)])
    assert rendered(x) == expected(x)


def test_exponent_width_edges():
    """The exponent takes two digits below 100 and three from 100 on, also
    where rounding carries across 1e±100, and at the array path's range ends
    1e±290."""
    x = with_neighbours(
        [float(f"{m}e{sign}{k}")
         for m in ("1", "9.9999999999995", "9.999999999999", "9.99999999999949")
         for sign in "+-" for k in (98, 99, 100, 101, 289, 290, 291)]
    )
    cells = rendered(x)
    assert cells == expected(x)
    for cell in ("1.000000000000e+100", "1.000000000000e-100", "9.999999999999e+99",
                 "-9.999999999999e-101"):
        assert cell in cells


def test_exact_halves_round_to_even():
    """Doubles whose decimal expansion ends in a 5 right after the 13th
    digit."""
    x = [1234567890123.5, 1234567890122.5, 12345678901235.0, 12345678901245.0,
         123456789012.25, 123456789012.75, 1234567890.4375, 9999999999999.5,
         1000000000000.5, 0.5, 2.5, 0.125]
    cells = rendered(x)
    assert cells == expected(x)
    assert cells[:4] == ["1.234567890124e+12", "1.234567890122e+12",
                         "1.234567890124e+13", "1.234567890124e+13"]


def test_carries_into_the_exponent():
    x = with_neighbours([float(f"9.9999999999995e{k}") for k in range(-300, 300)])
    x = np.concatenate([x, [float(f"9.99999999999951e{k}") for k in range(-300, 300)]])
    assert rendered(x) == expected(x)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_any_floats(values):
    assert rendered(values) == expected(values)


def _csv(args):
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0
    return result.stdout_bytes


@pytest.mark.parametrize(
    "args,cells",
    [
        (["bounds", "--grid", "500:40000:10"], (b"true", b"false")),
        (["--seed", "3", "montecarlo", "--trials", "3", "--n-list", "4,5,6,7"], (b"nan",)),
    ],
    ids=["bounds", "montecarlo"],
)
def test_rows_do_not_depend_on_the_block(args, cells, monkeypatch):
    """Float and flag columns (bounds), and int columns with nan cells
    (montecarlo), render the same split into blocks of 3 rows."""
    whole = _csv(args)
    assert all(cell in whole for cell in cells)
    monkeypatch.setattr(cli_mod, "_ROW_BLOCK", 3)
    assert _csv(args) == whole
