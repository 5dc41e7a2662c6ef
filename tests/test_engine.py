import pytest

from tablehgm import (
    EvalOptions,
    ParamVector,
    Shape,
    TableProblem,
    build_path,
    evaluate,
    initial_alpha,
    map_problem,
)
from tablehgm.errors import InputError, RegimeError, XNotGenericError
from tablehgm.rationals import as_float, rat
from tablehgm.series import oracle_E, oracle_Z, series_polynomial
from tablehgm.engine import PathStep

from conftest import random_problem

PAPER = TableProblem.of(
    (2, 3, 3),
    (1, 3, 4),
    [["1", "1/2", "1/3"], ["1", "1/5", "1/7"], ["1", "1", "1"]],
)

FIGURE_STEPS = [(3, 1), (3, 1), (4, 1), (4, 1), (4, 1), (5, -1), (1, -1), (2, -1), (2, -1)]
FIGURE_VECTORS = [
    (-3, -1, -1, 2, 1, 2),
    (-4, -1, -1, 3, 1, 2),
    (-5, -1, -1, 3, 2, 2),
    (-6, -1, -1, 3, 3, 2),
    (-7, -1, -1, 3, 4, 2),
    (-6, -1, -1, 3, 4, 1),
    (-5, -2, -1, 3, 4, 1),
    (-4, -2, -2, 3, 4, 1),
    (-3, -2, -3, 3, 4, 1),
]


def test_int_weights_become_exact_rationals():
    prob = TableProblem((2, 1), (1, 2), ((1, 2), (3, 4)))
    assert all(type(v) is type(rat(1)) for row in prob.probs for v in row)
    res = evaluate(prob)
    assert type(res.Z) is type(rat(1))
    assert res.Z == oracle_Z(prob.row_sums, prob.col_sums, prob.probs) == 14
    assert res.expectations == oracle_E(prob.row_sums, prob.col_sums, prob.probs)


@pytest.mark.parametrize(
    "probs",
    [
        ((True, 4), (1, 2)),
        ((1, 4.0), (1, 2)),
        ((rat(1), 2), (3, 0.5)),
        ((1, 2), (3, "4")),
        ((1, 2), (3, None)),
    ],
)
def test_inexact_weights_refused(probs):
    with pytest.raises(InputError):
        TableProblem((2, 1), (1, 2), probs)


def test_bool_margins_refused():
    with pytest.raises(InputError):
        TableProblem((True, 1), (1, 1), ((1, 2), (3, 4)))


def test_exact_transport_builds_no_matrix_and_solves_nothing(rng, monkeypatch):
    """The exact path takes every downward shift frame-free: with
    contiguity_matrix and linalg.solve made to raise, evaluate still answers
    3x3 and 4x4 problems with down-steps, equal to the enumeration oracles."""
    from tablehgm import contiguity, engine, linalg

    def refuse(*args, **kwargs):
        raise AssertionError("matrix built or solved on the exact path")

    monkeypatch.setattr(contiguity, "contiguity_matrix", refuse)
    monkeypatch.setattr(engine, "contiguity_matrix", refuse)
    monkeypatch.setattr(linalg, "solve", refuse)
    for size, total in ((3, 9), (4, 9)):
        for _ in range(20):
            prob = random_problem(rng, size, size, total)
            try:
                res = evaluate(prob, EvalOptions(gradients=False))
            except XNotGenericError:
                continue
            break
        else:
            raise AssertionError(f"no generic {size}x{size} draw")
        assert any(d < 0 for _, d in res.diagnostics.path)
        assert res.Z == oracle_Z(prob.row_sums, prob.col_sums, prob.probs)
        assert res.expectations == oracle_E(prob.row_sums, prob.col_sums, prob.probs)
    with pytest.raises(AssertionError):
        evaluate(PAPER, EvalOptions(backend="float"))


def test_problem_validation():
    with pytest.raises(InputError):
        TableProblem.of((1, 2), (2, 2), [["1", "1"], ["1", "1"]])
    with pytest.raises(InputError):
        TableProblem.of((1, 1), (2,), [["1", "1"], ["1", "1"]])
    with pytest.raises(InputError):
        TableProblem.of((1, 1), (1, 1), [["1", "0"], ["1", "1"]])
    with pytest.raises(InputError):
        TableProblem.of((-1, 3), (1, 1), [["1", "1"], ["1", "1"]])


def test_map_problem_paper_example():
    alpha, x, u0, pref = map_problem(PAPER)
    assert alpha.entries == (-3, -2, -3, 3, 4, 1)
    assert x.entries == (
        (rat(1, 2), rat(1, 3)),
        (rat(1, 5), rat(1, 7)),
    )
    assert u0 == ((2, 0, 0), (3, 0, 0), (-4, 3, 4))
    assert pref == rat(1)
    assert sum(alpha.entries) == 0


def test_map_problem_unit_probabilities_degenerate():
    prob = TableProblem.of((1, 1), (1, 1), [["1", "1"], ["1", "1"]])
    alpha, x, u0, pref = map_problem(prob)
    assert x.entries == ((rat(1),),)
    with pytest.raises(XNotGenericError):
        evaluate(prob)


def test_initial_alpha():
    assert initial_alpha(Shape(2, 2)).entries == (-2, -1, -1, 1, 1, 2)
    assert initial_alpha(Shape(3, 3)).entries == (-3, -1, -1, -1, 1, 1, 1, 3)


def test_build_path_paper_example():
    alpha = ParamVector(Shape(2, 2), (-3, -2, -3, 3, 4, 1))
    path = build_path(alpha)
    assert len(path) == 9
    assert [(s.index, s.direction) for s in path] == FIGURE_STEPS
    assert [s.alpha_after.entries for s in path] == FIGURE_VECTORS


def test_build_path_empty_at_start():
    shape = Shape(2, 2)
    assert build_path(initial_alpha(shape)) == []


def test_build_path_zero_sum_and_conditions(rng):
    for _ in range(10):
        r1, r2 = rng.randint(2, 4), rng.randint(2, 4)
        total = rng.randint(max(r1, r2), 10)
        prob = random_problem(rng, r1, r2, total)
        alpha, _, _, _ = map_problem(prob)
        path = build_path(alpha)
        shape = alpha.shape
        cur = initial_alpha(shape)
        allowed_up = set(range(shape.k + 1, shape.last + 1))
        allowed_down = set(range(1, shape.k + 1)) | {shape.last}
        for step in path:
            assert sum(step.alpha_after.entries) == 0
            assert step.alpha_after.nonzero()
            diff = tuple(
                a - b for a, b in zip(step.alpha_after.entries, cur.entries)
            )
            assert diff[0] == -step.direction
            assert diff[step.index] == step.direction
            assert all(
                v == 0 for idx, v in enumerate(diff) if idx not in (0, step.index)
            )
            if step.direction > 0:
                assert step.index in allowed_up
            else:
                assert step.index in allowed_down
            cur = step.alpha_after
        assert cur == alpha


def test_build_path_regime_guard():
    shape = Shape(1, 1)
    with pytest.raises(RegimeError):
        build_path(ParamVector(shape, (1, -2, 2, -1)))


def test_evaluate_paper_example_matches_oracle():
    res = evaluate(PAPER, EvalOptions(oracle=True))
    assert res.Z == rat(57481, 6174000)
    assert res.diagnostics.e == 9
    assert res.diagnostics.oracle["match"] is True
    e = oracle_E(PAPER.row_sums, PAPER.col_sums, PAPER.probs)
    assert res.expectations == e


def test_evaluate_small_2x2():
    prob = TableProblem.of((1, 2), (2, 1), [["1", "1/2"], ["1", "1/3"]])
    res = evaluate(prob)
    assert res.Z == oracle_Z(prob.row_sums, prob.col_sums, prob.probs)


def test_evaluate_random_matches_oracle(rng):
    for _ in range(8):
        r1, r2 = rng.randint(2, 3), rng.randint(2, 3)
        total = rng.randint(max(r1, r2), 8)
        prob = random_problem(rng, r1, r2, total)
        try:
            res = evaluate(prob, EvalOptions(gradients=False))
        except XNotGenericError:
            continue
        assert res.Z == oracle_Z(prob.row_sums, prob.col_sums, prob.probs)
        assert res.expectations == oracle_E(prob.row_sums, prob.col_sums, prob.probs)


def test_expectation_margins(rng):
    prob = random_problem(rng, 3, 2, 7)
    try:
        res = evaluate(prob, EvalOptions(gradients=False))
    except XNotGenericError:
        pytest.skip("degenerate random variables")
    for i, s in enumerate(prob.row_sums):
        assert sum(res.expectations[i]) == s
    for j, s in enumerate(prob.col_sums):
        assert sum(row[j] for row in res.expectations) == s


def test_single_feasible_table():
    prob = TableProblem.of((4,), (1, 3), [["1", "1/2"]])
    res = evaluate(prob)
    want = rat(1, 1) ** 1 * rat(1, 2) ** 3 / (1 * 6)
    assert res.Z == want
    assert res.expectations == ((rat(1), rat(3)),)
    assert res.gradients == (((), ()),)


def test_zero_margins_strip():
    probs = [["1", "1", "1/2"], ["1", "1", "1"], ["1/3", "1", "1/7"]]
    prob = TableProblem.of((2, 0, 3), (1, 0, 4), probs)
    res = evaluate(prob, EvalOptions(gradients=False))
    reduced = TableProblem.of((2, 3), (1, 4), [["1", "1/2"], ["1/3", "1/7"]])
    assert res.Z == oracle_Z(reduced.row_sums, reduced.col_sums, reduced.probs)
    assert res.expectations[1] == (rat(0), rat(0), rat(0))
    assert all(row[1] == 0 for row in res.expectations)
    assert res.diagnostics.kept_rows == (0, 2)
    assert res.diagnostics.kept_cols == (0, 2)


def test_all_zero_margins():
    prob = TableProblem.of((0, 0), (0, 0), [["1", "1"], ["1", "1"]])
    res = evaluate(prob)
    assert res.Z == rat(1)
    assert all(v == 0 for row in res.expectations for v in row)


def test_gradients_match_polynomial_oracle(rng):
    """Quotient-rule differentiation of the expectation formula built from the
    series polynomial, fully independent of the connection machinery."""
    prob = random_problem(rng, 3, 3, 7)
    try:
        res = evaluate(prob)
    except XNotGenericError:
        pytest.skip("degenerate random variables")
    alpha, x, u0, _ = map_problem(prob)
    k, n = alpha.shape.k, alpha.shape.n
    r1, r2 = k + 1, n + 1
    poly = series_polynomial(alpha)
    parts = {(a, b): poly.partial(a, b) for a in range(1, k + 1) for b in range(1, n + 1)}
    s_val = poly.eval(x)

    def ell(a, b, i, j):
        if (i, j) == (a, b + 1) or (i, j) == (r1, 1):
            return 1
        if (i, j) == (a, 1) or (i, j) == (r1, b + 1):
            return -1
        return 0

    for i in range(1, r1 + 1):
        for j in range(1, r2 + 1):
            for c in range(1, k + 1):
                for d in range(1, n + 1):
                    num = sum(
                        ell(a, b, i, j) * x.entry(a, b) * parts[(a, b)].eval(x)
                        for a in range(1, k + 1)
                        for b in range(1, n + 1)
                    )
                    dnum = sum(
                        ell(a, b, i, j)
                        * (
                            (parts[(a, b)].eval(x) if (a, b) == (c, d) else rat(0))
                            + x.entry(a, b) * parts[(a, b)].partial(c, d).eval(x)
                        )
                        for a in range(1, k + 1)
                        for b in range(1, n + 1)
                    )
                    ds = parts[(c, d)].eval(x)
                    want = (s_val * dnum - num * ds) / (s_val * s_val)
                    assert res.gradients[i - 1][j - 1][c - 1][d - 1] == want


def test_gradient_row_sums_vanish(rng):
    prob = random_problem(rng, 2, 3, 6)
    try:
        res = evaluate(prob)
    except XNotGenericError:
        pytest.skip("degenerate random variables")
    r1, r2 = len(prob.row_sums), len(prob.col_sums)
    k, n = r1 - 1, r2 - 1
    for i in range(r1):
        for c in range(k):
            for d in range(n):
                assert sum(res.gradients[i][j][c][d] for j in range(r2)) == 0
    for j in range(r2):
        for c in range(k):
            for d in range(n):
                assert sum(res.gradients[i][j][c][d] for i in range(r1)) == 0


def test_single_table_after_stripping():
    """Margins forcing one table (through a stripped row): E is that table and
    no variable grid remains for gradients."""
    prob = TableProblem.of((4, 0), (1, 3), [["1", "1/2"], ["1/3", "1"]])
    from tablehgm.series import enumerate_tables

    tables = list(enumerate_tables(prob.row_sums, prob.col_sums))
    assert len(tables) == 1
    res = evaluate(prob)
    assert res.expectations == ((rat(1), rat(3)), (rat(0), rat(0)))
    assert res.Z == oracle_Z(prob.row_sums, prob.col_sums, prob.probs)
    assert res.gradients == (((), ()), ((), ()))


def test_scale_covariance(rng):
    prob = random_problem(rng, 3, 2, 6)
    lam = (rat(3, 2), rat(1, 5), rat(7))
    scaled = TableProblem(
        prob.row_sums,
        prob.col_sums,
        tuple(tuple(lam[i] * v for v in row) for i, row in enumerate(prob.probs)),
    )
    try:
        res = evaluate(prob, EvalOptions(gradients=False))
        res2 = evaluate(scaled, EvalOptions(gradients=False))
    except XNotGenericError:
        pytest.skip("degenerate random variables")
    factor = rat(1)
    for i, s in enumerate(prob.row_sums):
        factor *= lam[i] ** s
    assert res2.Z == factor * res.Z
    assert res2.expectations == res.expectations


def test_permutation_equivariance(rng):
    prob = random_problem(rng, 3, 3, 7)
    perm_r = [1, 2, 0]
    perm_c = [2, 0, 1]
    permuted = TableProblem(
        tuple(prob.row_sums[i] for i in perm_r),
        tuple(prob.col_sums[j] for j in perm_c),
        tuple(tuple(prob.probs[i][j] for j in perm_c) for i in perm_r),
    )
    try:
        res = evaluate(prob, EvalOptions(gradients=False))
        res2 = evaluate(permuted, EvalOptions(gradients=False))
    except XNotGenericError:
        pytest.skip("degenerate random variables")
    assert res2.Z == res.Z
    for a, i in enumerate(perm_r):
        for b, j in enumerate(perm_c):
            assert res2.expectations[a][b] == res.expectations[i][j]


def test_float_backend_close_to_exact():
    exact = evaluate(PAPER)
    approx = evaluate(PAPER, EvalOptions(backend="float"))
    z = as_float(exact.Z)
    assert abs(approx.Z - z) <= 1e-9 * abs(z)
    for i in range(3):
        for j in range(3):
            want = as_float(exact.expectations[i][j])
            assert abs(approx.expectations[i][j] - want) <= 1e-9 * max(1.0, abs(want))
    for i in range(3):
        for j in range(3):
            for c in range(2):
                for d in range(2):
                    want = as_float(exact.gradients[i][j][c][d])
                    got = approx.gradients[i][j][c][d]
                    assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_float_backend_oracle_tolerance():
    res = evaluate(PAPER, EvalOptions(oracle=True, backend="float"))
    assert res.diagnostics.oracle["match"] is True


def test_path_step_dataclass():
    alpha = ParamVector(Shape(1, 1), (-2, -1, 1, 2))
    step = PathStep(3, 1, alpha)
    assert step.index == 3 and step.direction == 1


def test_one_by_one_problem():
    prob = TableProblem.of((3,), (3,), [["1/2"]])
    res = evaluate(prob)
    assert res.Z == rat(1, 8) / 6
    assert res.expectations == ((rat(3),),)


def test_oracle_on_stripped_problem():
    probs = [["1", "1", "1/2"], ["1", "1", "1"], ["1/3", "1", "1/7"]]
    prob = TableProblem.of((2, 0, 3), (1, 0, 4), probs)
    res = evaluate(prob, EvalOptions(oracle=True, gradients=False))
    assert res.diagnostics.oracle["match"] is True


def test_bad_backend_rejected():
    with pytest.raises(InputError):
        EvalOptions(backend="decimal")


def test_transport_chain_matches_series_at_every_step():
    """Walk the 9-step example path and compare the transported vector with
    the series vector at every intermediate parameter point (up and down
    steps, including the down-step scalars)."""
    from tablehgm.contiguity import shift_down_series, shift_up_series
    from tablehgm.engine import initial_alpha
    from tablehgm.series import gm_vector_S

    alpha, x, _, _ = map_problem(PAPER)
    path = build_path(alpha)
    cur = initial_alpha(alpha.shape)
    sbar = gm_vector_S(cur, x)
    for step in path:
        if step.direction > 0:
            sbar = shift_up_series(cur, x, step.index, sbar)
        else:
            sbar = shift_down_series(cur, x, step.index, sbar)
        cur = step.alpha_after
        assert sbar == gm_vector_S(cur, x)
    assert cur == alpha
