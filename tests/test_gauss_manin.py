import pytest

from tablehgm import GMVector, IndexSet, ParamVector, Shape, XMatrix
from tablehgm.errors import ZeroAlphaError
from tablehgm.gauss_manin import (
    M_J,
    apply_connection_frame_free,
    psi_all,
    psi_coefficient,
    psi_coefficient_partial,
    label_plan,
    v_J,
    v_J_sparse,
)
from tablehgm.indexsets import (
    alpha_J,
    enumerate_J,
    enumerate_J_circ,
    enumerate_J_dot,
    enumerate_pJq,
)
from tablehgm.intersection import inverse_C, matrix_C, pairing_scaled
from tablehgm.linalg import vecmat
from tablehgm.rationals import rat

from conftest import random_alpha_nonzero, random_alpha_statistical, random_x, small_shapes

A11 = ParamVector(Shape(1, 1), (-2, -1, 1, 2))


def v_J_via_inverse_C(alpha, J):
    """Reference route for v_J: the row of pairings of J against J_dot times
    the closed-form inverse of the intersection matrix C(alpha)."""
    row = [pairing_scaled(alpha, J, Jp) for Jp in enumerate_J_dot(alpha.shape)]
    return tuple(vecmat(row, [list(r) for r in inverse_C(alpha).rows]))


@pytest.mark.parametrize("shape", [Shape(k, n) for k in range(1, 4) for n in range(1, 5)], ids=lambda s: f"{s.k}-{s.n}")
def test_v_J_closed_form_matches_inverse_C(rng, shape):
    """The closed form equals the C^-1 route at every label, for parameters
    with either sign of alpha_last, and its sparse form holds exactly the
    nonzero entries."""
    for _ in range(2):
        alpha = random_alpha_nonzero(rng, shape)
        for J in enumerate_J(shape):
            want = v_J_via_inverse_C(alpha, J)
            assert v_J(alpha, J).entries == want
            assert v_J_sparse(alpha, J) == {p: v for p, v in enumerate(want) if v}


def test_v_J_closed_form_matches_inverse_C_at_4x4(rng):
    shape = Shape(4, 4)
    alpha = random_alpha_nonzero(rng, shape)
    for J in enumerate_J(shape):
        assert v_J(alpha, J).entries == v_J_via_inverse_C(alpha, J)


def test_v_J_closed_form_is_sparse():
    """At shape (3, 3) (4x4 tables, r = 20) no label has more than 10
    nonzero entries."""
    plan = label_plan(Shape(3, 3))
    assert len(plan) == len(enumerate_J(Shape(3, 3)))
    assert max(len(form) for form in plan.values()) == 10


def test_v_J_unit_rows():
    s = Shape(2, 2)
    alpha = ParamVector(s, (-3, -2, -3, 3, 4, 1))
    for l, J in enumerate(enumerate_J_dot(s)):
        v = v_J(alpha, J)
        assert v.entries == tuple(rat(1) if i == l else rat(0) for i in range(s.rank))


def test_v_J_known_expansion():
    # phi<23> = 1/2 phi<01> - 3/2 phi<02> at alpha = (-2,-1,1,2)
    v = v_J(A11, IndexSet((2, 3)))
    assert v.entries == (rat(1, 2), rat(-3, 2))


def test_v_J_pairing_identity(rng):
    for shape in small_shapes(4):
        alpha = random_alpha_nonzero(rng, shape)
        c = matrix_C(alpha)
        labels = list(enumerate_J_circ(shape))
        for _ in range(6):
            J = rng.choice(labels)
            Jp = rng.choice(labels)
            v = v_J(alpha, J).entries
            vd = v_J(alpha.negated(), Jp).entries
            lhs = sum(
                v[a] * c.rows[a][b] * vd[b]
                for a in range(shape.rank)
                for b in range(shape.rank)
            )
            assert lhs == pairing_scaled(alpha, J, Jp)


def rank_at_most_one(m):
    """First nonzero row spans all other rows."""
    rows = [list(r) for r in m.rows]
    base = next((r for r in rows if any(v != 0 for v in r)), None)
    if base is None:
        return True
    piv = next(idx for idx, v in enumerate(base) if v != 0)
    for r in rows:
        scale = r[piv] / base[piv]
        if any(r[c] != scale * base[c] for c in range(len(r))):
            return False
    return True


def test_M_J_identities(rng):
    for shape in small_shapes(4):
        for _ in range(3):
            alpha = random_alpha_nonzero(rng, shape)
            for J in enumerate_J_circ(shape):
                m = M_J(alpha, J)
                aJ = alpha_J(alpha, J)
                assert m.trace() == aJ
                assert (m @ m) == m.scaled(aJ)
                assert rank_at_most_one(m)


def test_M_J_row_eigenvector(rng):
    for shape in small_shapes(4)[:3]:
        alpha = random_alpha_nonzero(rng, shape)
        for J in list(enumerate_J_circ(shape))[:6]:
            m = M_J(alpha, J)
            v = v_J(alpha, J).entries
            out = vecmat(list(v), [list(r) for r in m.rows])
            aJ = alpha_J(alpha, J)
            assert tuple(out) == tuple(aJ * t for t in v)


def test_M_J_zero_eigenvectors():
    """Rows expanding the complementary basis annihilate M_J from the left."""
    shape = Shape(1, 1)
    alpha = A11
    J = IndexSet((2, 3))  # contains k+j = 2, omits i = 1
    m = M_J(alpha, J)
    swap = IndexSet((1, 3))  # J with k+j replaced by i
    for Jp in enumerate_pJq(1, 2, shape):
        if Jp == swap:
            continue
        v = v_J(alpha, Jp).entries
        out = vecmat(list(v), [list(r) for r in m.rows])
        assert all(t == 0 for t in out)


def test_M_J_column_eigenvector():
    alpha = A11
    J = IndexSet((2, 3))
    m = M_J(alpha, J)
    c = matrix_C(alpha)
    vd = v_J(alpha.negated(), J).entries
    col = [sum(row[b] * vd[b] for b in range(len(vd))) for row in c.rows]
    out = [sum(m.rows[a][b] * col[b] for b in range(len(col))) for a in range(len(col))]
    aJ = alpha_J(alpha, J)
    assert out == [aJ * t for t in col]


def test_M_J_orthogonality(rng):
    """alpha_J-eigenvector against 0-eigenvectors of the dual matrix pairs to zero."""
    shape = Shape(2, 2)
    alpha = random_alpha_nonzero(rng, shape)
    c = matrix_C(alpha)
    for J in list(enumerate_J_circ(shape))[:5]:
        if alpha_J(alpha, J) == 0:
            continue
        v = v_J(alpha, J).entries
        i = next(t for t in range(1, shape.k + 1) if t not in J)
        col = next(t for t in J if shape.k + 1 <= t <= shape.k + shape.n)
        swap = IndexSet(tuple(sorted(tuple(e for e in J.elements if e != col) + (i,))))
        for Jp in enumerate_pJq(i, col, shape):
            if Jp == swap:
                continue
            w = v_J(alpha.negated(), Jp).entries
            pairing = sum(
                v[a] * c.rows[a][b] * w[b]
                for a in range(shape.rank)
                for b in range(shape.rank)
            )
            assert pairing == 0


def alpha_with_nonzero_sums(rng, shape, tries=200):
    """Random nonzero-entry alpha whose alpha_J is nonzero on all of J_circ."""
    for _ in range(tries):
        alpha = random_alpha_nonzero(rng, shape)
        if all(alpha_J(alpha, J) != 0 for J in enumerate_J_circ(shape)):
            return alpha
    raise AssertionError("could not sample alpha with nonzero eigenvalues")


def test_psi_nonzero_at_zero_alpha_J():
    """The rank-one summands stay valid (nilpotent, nonzero) at alpha_J = 0,
    so a parameter vector making every contributing alpha_J vanish still has
    a nonzero connection coefficient."""
    shape = Shape(1, 1)
    alpha = ParamVector(shape, (-1, 1, 1, -1))
    x = XMatrix.from_rows([[rat(1, 3)]])
    for J in enumerate_J_circ(shape):
        assert alpha_J(alpha, J) == 0
    psi = psi_coefficient(alpha, x, 1, 1)
    assert any(v != 0 for row in psi.rows for v in row)
    m = M_J(alpha, IndexSet((0, 2)))
    assert m.trace() == 0
    assert (m @ m).rows == tuple(tuple(rat(0) for _ in range(2)) for _ in range(2))


def test_psi_summation_range(rng):
    """Only labels containing the shifted column contribute to psi_{ij}."""
    shape = Shape(2, 2)
    alpha = random_alpha_nonzero(rng, shape)
    x = random_x(rng, shape)
    psi = psi_coefficient(alpha, x, 1, 1)
    rebuilt = [[rat(0)] * shape.rank for _ in range(shape.rank)]
    for J in enumerate_J_circ(shape):
        if (shape.k + 1) not in J:
            continue
        m = M_J(alpha, J)
        from tablehgm.minors import dlog_minor

        dl = dlog_minor(x, J, 1, 1)
        for a in range(shape.rank):
            for b in range(shape.rank):
                rebuilt[a][b] += m.rows[a][b] * dl
    assert [list(r) for r in psi.rows] == rebuilt


def test_frame_free_matches_matrix_action(rng):
    for shape in small_shapes(4):
        alpha = alpha_with_nonzero_sums(rng, shape)
        x = random_x(rng, shape)
        jdot = enumerate_J_dot(shape)
        phi = GMVector(
            jdot, tuple(rat(rng.randint(-4, 4), rng.randint(1, 4)) for _ in jdot)
        )
        for i in range(1, shape.k + 1):
            for j in range(1, shape.n + 1):
                got = apply_connection_frame_free(alpha, x, phi, i, j)
                want = psi_coefficient(alpha, x, i, j).apply(phi)
                assert got == want


def test_frame_free_zero_vector(rng):
    shape = Shape(1, 2)
    alpha = alpha_with_nonzero_sums(rng, shape)
    x = random_x(rng, shape)
    phi = GMVector.zero(enumerate_J_dot(shape))
    assert apply_connection_frame_free(alpha, x, phi, 1, 1).is_zero()


def test_frame_free_raises_at_zero_alpha_J():
    shape = Shape(1, 1)
    alpha = ParamVector(shape, (-1, 1, 1, -1))
    x = XMatrix.from_rows([[rat(1, 3)]])
    phi = GMVector.unit(enumerate_J_dot(shape), 0)
    with pytest.raises(ZeroAlphaError):
        apply_connection_frame_free(alpha, x, phi, 1, 1)


def test_integrability_small(rng):
    """Mixed derivative difference of the coefficients equals their commutator."""
    shape = Shape(2, 2)
    alpha = random_alpha_statistical(rng, shape)
    x = random_x(rng, shape)
    psi = psi_all(alpha, x)
    pairs = list(psi)
    for ij in pairs:
        for ij2 in pairs:
            lhs = psi_coefficient_partial(alpha, x, ij, ij2) - psi_coefficient_partial(
                alpha, x, ij2, ij
            )
            rhs = psi[ij2] @ psi[ij] - psi[ij] @ psi[ij2]
            assert lhs == rhs
