import pytest

from tablehgm import GMVector, ParamVector, Shape, XMatrix
from tablehgm.contiguity import (
    D_matrix,
    apply_contiguity,
    contiguity_inverse_frame_free,
    contiguity_matrix,
    shift_down_series,
    shift_up_series,
)
from tablehgm.errors import PathStepError
from tablehgm.indexsets import enumerate_J_dot
from tablehgm.intersection import matrix_C
from tablehgm.linalg import det, solve
from tablehgm.rationals import rat
from tablehgm.series import gm_vector_S, require_statistical
from tablehgm.errors import RegimeError

from conftest import random_alpha_nonzero, random_alpha_statistical, random_x, small_shapes

A11 = ParamVector(Shape(1, 1), (-2, -1, 1, 2))
X11 = XMatrix.from_rows([[rat(1, 2)]])


def in_regime(alpha):
    try:
        require_statistical(alpha)
        return True
    except RegimeError:
        return False


def test_D_matrix_small():
    d = D_matrix(X11, 1)
    assert [J.elements for J in d.row_labels] == [(1, 3), (1, 2)]
    assert [J.elements for J in d.col_labels] == [(0, 3), (0, 2)]
    # |xt<13>|/|xt<03>| = -1/1, |xt<12>|/|xt<02>| = -1/(1/2)
    assert d.rows[0][0] == rat(-1)
    assert d.rows[1][1] == rat(-2)
    assert d.rows[0][1] == 0 and d.rows[1][0] == 0


def test_D_matrix_diagonal_and_nonzero(rng):
    shape = Shape(2, 2)
    x = random_x(rng, shape)
    for i in range(1, shape.last + 1):
        d = D_matrix(x, i)
        for a in range(d.size):
            for b in range(d.size):
                if a == b:
                    assert d.rows[a][b] != 0
                else:
                    assert d.rows[a][b] == 0


def test_contiguity_invertible(rng):
    for shape in small_shapes(4):
        alpha = random_alpha_nonzero(rng, shape)
        x = random_x(rng, shape)
        for i in range(1, shape.last + 1):
            if not alpha.shift_up(i).nonzero():
                continue
            c = contiguity_matrix(alpha, x, i)
            assert det([list(r) for r in c.rows]) != 0


def test_contiguity_series_consistency(rng):
    """Transporting the series vector agrees with evaluating the series at the
    shifted parameters, including the scalar for column-block shifts."""
    checked = 0
    for shape in small_shapes(5):
        for _ in range(4):
            alpha = random_alpha_statistical(rng, shape)
            x = random_x(rng, shape)
            sbar = gm_vector_S(alpha, x)
            for i in range(1, shape.last + 1):
                up = alpha.shift_up(i)
                if not up.nonzero() or not in_regime(up):
                    continue
                got = shift_up_series(alpha, x, i, sbar)
                want = gm_vector_S(up, x)
                assert got == want
                checked += 1
    assert checked >= 20


def test_shift_round_trip(rng):
    shape = Shape(2, 2)
    alpha = random_alpha_statistical(rng, shape)
    x = random_x(rng, shape)
    sbar = gm_vector_S(alpha, x)
    for i in range(1, shape.last + 1):
        up = alpha.shift_up(i)
        if not up.nonzero() or (i > shape.k and alpha[i] == -1):
            continue
        lifted = shift_up_series(alpha, x, i, sbar)
        back = shift_down_series(up, x, i, lifted)
        assert back == sbar


def test_shift_commutation(rng):
    shape = Shape(1, 2)
    alpha = ParamVector(shape, (-4, -2, 2, 1, 3))
    x = random_x(rng, shape)
    sbar = gm_vector_S(alpha, x)
    i1, i2 = 2, 3
    one = shift_up_series(alpha.shift_up(i1), x, i2, shift_up_series(alpha, x, i1, sbar))
    other = shift_up_series(alpha.shift_up(i2), x, i1, shift_up_series(alpha, x, i2, sbar))
    assert one == other
    assert one == gm_vector_S(alpha.shift_up(i1).shift_up(i2), x)


def test_scalar_pole_raises():
    """An upward column-block shift from alpha_i = -1 hits the scalar pole."""
    shape = Shape(1, 1)
    alpha = ParamVector(shape, (1, 1, -1, -1))
    jdot = enumerate_J_dot(shape)
    dummy = GMVector(jdot, tuple(rat(1) for _ in jdot))
    with pytest.raises(PathStepError):
        shift_up_series(alpha, X11, 2, dummy)
    with pytest.raises(PathStepError):
        shift_up_series(alpha, X11, 3, dummy)


def test_duality_identity(rng):
    """c_i(alpha;x) C(alpha) = C(alpha+delta_i) transpose(c_i(-alpha-delta_i;x))."""
    checked = 0
    for shape in small_shapes(4):
        for _ in range(3):
            alpha = random_alpha_nonzero(rng, shape)
            x = random_x(rng, shape)
            for i in range(1, shape.last + 1):
                up = alpha.shift_up(i)
                dual = up.negated()
                if not up.nonzero():
                    continue
                lhs = contiguity_matrix(alpha, x, i) @ matrix_C(alpha)
                rhs = matrix_C(up) @ contiguity_matrix(dual, x, i).transpose()
                assert lhs.rows == rhs.rows
                checked += 1
    assert checked >= 10


def test_apply_contiguity_matches_matrix(rng):
    shape = Shape(2, 2)
    alpha = random_alpha_nonzero(rng, shape)
    x = random_x(rng, shape)
    jdot = enumerate_J_dot(shape)
    vec = GMVector(jdot, tuple(rat(rng.randint(-5, 5), rng.randint(1, 5)) for _ in jdot))
    for i in range(1, shape.last + 1):
        if not alpha.shift_up(i).nonzero():
            continue
        assert apply_contiguity(alpha, x, i, vec) == contiguity_matrix(alpha, x, i).apply(vec)


def test_inverse_frame_free_matches_solve(rng):
    """The frame-free down-step equals exact elimination on the contiguity
    matrix: every shift index up to shape (3, 3), and the first row index,
    the first column index and the last index at (3, 4)."""
    cases = [(shape, range(1, shape.last + 1)) for shape in small_shapes(4)]
    cases += [(Shape(2, 3), range(1, 7)), (Shape(3, 3), range(1, 8)), (Shape(3, 4), (1, 4, 8))]
    for shape, indices in cases:
        alpha = random_alpha_nonzero(rng, shape)
        while not all(alpha.shift_up(i).nonzero() for i in indices):
            alpha = random_alpha_nonzero(rng, shape)
        x = random_x(rng, shape)
        jdot = enumerate_J_dot(shape)
        phi = GMVector(jdot, tuple(rat(rng.randint(-5, 5), rng.randint(1, 5)) for _ in jdot))
        for i in indices:
            c = contiguity_matrix(alpha, x, i)
            want = tuple(solve([list(r) for r in c.rows], list(phi.entries)))
            got = contiguity_inverse_frame_free(alpha, x, i, phi)
            assert got.entries == want


def test_inverse_frame_free_zero():
    shape = Shape(1, 1)
    phi = GMVector.zero(enumerate_J_dot(shape))
    got = contiguity_inverse_frame_free(A11, X11, 2, phi)
    assert got.is_zero()


def test_inverse_frame_free_2x2_adjugate(rng):
    shape = Shape(1, 1)
    alpha = ParamVector(shape, (-5, -2, 3, 4))
    x = X11
    jdot = enumerate_J_dot(shape)
    phi = GMVector(jdot, (rat(2, 3), rat(-1, 5)))
    for i in (1, 2, 3):
        c = contiguity_matrix(alpha, x, i)
        (a, b), (cc, d) = c.rows
        dt = a * d - b * cc
        inv = [[d / dt, -b / dt], [-cc / dt, a / dt]]
        want = tuple(
            inv[r][0] * phi.entries[0] + inv[r][1] * phi.entries[1] for r in range(2)
        )
        assert contiguity_inverse_frame_free(alpha, x, i, phi).entries == want
