"""The integer DP and the enumeration reference agree with the package's
brute-force oracles and with each other."""

import random
from fractions import Fraction

import pytest

import exact
from problems import _composition
from tablehgm import EvalOptions, TableHgmError, TableProblem, evaluate, series


def small_problems(count, seed=7):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        r1, r2 = rng.randint(2, 4), rng.randint(2, 4)
        total = rng.randint(r1 + r2, 9)
        rows = _composition(rng, r1, total)
        cols = _composition(rng, r2, total)
        probs = [[Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(r2)] for _ in range(r1)]
        out.append((rows, cols, probs))
    return out


@pytest.mark.parametrize("rows, cols, probs", small_problems(25))
def test_dp_equals_the_enumeration_oracles(rows, cols, probs):
    z, e, g = exact.dp_reference(rows, cols, probs, gradients=True)
    assert z == series.oracle_Z(rows, cols, probs)
    assert e == tuple(tuple(row) for row in series.oracle_E(rows, cols, probs))
    assert g == exact.enumeration_gradients(rows, cols, probs, series.enumerate_tables)


def test_dp_handles_more_rows_than_columns():
    rows, cols = (2, 1, 3, 2, 1), (4, 5)
    probs = [[Fraction(i + 1, j + 2) for j in range(2)] for i in range(5)]
    assert exact.ShiftedZ(rows, cols, probs).transposed
    assert exact.dp_reference(rows, cols, probs, False)[0] == series.oracle_Z(rows, cols, probs)


def test_reference_matches_the_pipeline_and_catches_changes():
    checked = 0
    for rows, cols, probs in small_problems(12, seed=3):
        problem = TableProblem.of(rows, cols, [[str(v) for v in row] for row in probs])
        try:
            result = evaluate(problem, EvalOptions(gradients=True))
        except TableHgmError:
            continue
        for expected in (
            exact.reference(rows, cols, probs, True, series),
            exact.dp_reference(rows, cols, probs, True),
        ):
            assert exact.mismatch(result, expected, gradients=True) is None
            z, e, g = expected
            assert exact.mismatch(result, (z * 2, e, g), True) is not None
            g_bad = tuple(tuple(tuple(tuple(v + 1 for v in r) for r in b) for b in row) for row in g)
            assert exact.mismatch(result, (z, e, g_bad), True) is not None
        checked += 1
    assert checked >= 3
