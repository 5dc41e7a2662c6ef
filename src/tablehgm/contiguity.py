"""Contiguity maps between neighboring parameter vectors.

The map multiplying by the i-th linear form factors through intersection
matrices and one diagonal matrix of minor ratios:

    c_i(alpha; x) = C(alpha + delta_i)
                    . P_i(alpha + delta_i)^(-1)
                    . D_i(x)
                    . Q_i(alpha)
                    . C(alpha)^(-1)

The two inverses inside the product use the closed forms from the
intersection module.  Upward shifts apply this product.  Downward shifts
never form c_i: its inverse is a sum of r rank-one terms, one per label J
containing i and not 0,

    c_i(alpha; x)^(-1) phi = sum over J of
        <v_J(alpha + delta_i), phi> / I_alpha(swap, J)
        . |xtilde<swap>| / |xtilde<J>| . I_alpha(., J),

where swap = J - {i} + {0}.  v_J is sparse and in closed form, and the
pairing column I_alpha(., J) has at most k+1 nonzero entries on J_dot, so a
downward shift is a short loop over a per-(shape, i) step plan.
contiguity_matrix and exact elimination remain as the reference the tests
compare against, and as the float backend's transport.

Series-level shifts carry scalar factors: none for the row indices
1 <= i <= k, and 1/(alpha_i + 1) (upward) or alpha_i (downward) for the
column-block indices k+1 <= i <= k+n+1.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import PathStepError, SingularMinorError
from .gauss_manin import GMVector, v_J_scaled
from .indexsets import (
    IndexSet,
    aligned_0Ji,
    aligned_iJ0,
    enumerate_J_dot,
    enumerate_pJq,
    j_dot_position,
)
from .intersection import (
    SquareMatrixR,
    inverse_C,
    inverse_P,
    matrix_C,
    matrix_Q,
)
from .minors import minor
from .rationals import rat


def _diag_of(x, i):
    """Diagonal entries of the minor-ratio matrix: tuple-order minor of the
    upper label over the tuple-order minor of the lower one (sorting signs
    folded in)."""
    shape = x.shape
    up = aligned_0Ji(i, shape)
    lo = aligned_iJ0(i, shape)
    out = []
    for (su, gu), (sl, gl) in zip(up, lo):
        num = minor(x, su)
        den = minor(x, sl)
        if num == 0 or den == 0:
            raise SingularMinorError(f"vanishing minor in diagonal ratio {su}/{sl}")
        out.append((num if gu > 0 else -num) / (den if gl > 0 else -den))
    return out


def D_matrix(x, i):
    """Diagonal matrix of minor ratios for the i-th multiplication map.

    Row labels are the aligned_0Ji sets, column labels the aligned_iJ0 sets.
    """
    shape = x.shape
    up = aligned_0Ji(i, shape)
    lo = aligned_iJ0(i, shape)
    r = shape.rank
    zero = rat(0)
    diag = _diag_of(x, i)
    rows = tuple(
        tuple(diag[a] if a == b else zero for b in range(r)) for a in range(r)
    )
    return SquareMatrixR(tuple(s for s, _ in up), tuple(s for s, _ in lo), rows)


@lru_cache(maxsize=2048)
def _left_factor(alpha_shifted, i):
    """x-independent left half C(alpha+delta_i) . P_i(alpha+delta_i)^(-1)."""
    return matrix_C(alpha_shifted) @ inverse_P(alpha_shifted, i)


@lru_cache(maxsize=2048)
def _right_factor(alpha, i):
    """x-independent right half Q_i(alpha) . C(alpha)^(-1)."""
    return matrix_Q(alpha, i) @ inverse_C(alpha)


def contiguity_matrix(alpha, x, i):
    """The matrix of the i-th contiguity map on the J_dot basis; invertible
    whenever all entries of alpha and alpha+delta_i are nonzero and x is
    generic."""
    alpha.require_nonzero()
    shifted = alpha.shift_up(i)
    shifted.require_nonzero()
    left = _left_factor(shifted, i)
    right = _right_factor(alpha, i)
    diag = _diag_of(x, i)
    scaled_right = SquareMatrixR(
        left.col_labels,
        right.col_labels,
        tuple(tuple(d * v for v in row) for d, row in zip(diag, right.rows)),
    )
    return left @ scaled_right


def apply_contiguity(alpha, x, i, vec):
    """c_i(alpha; x) applied to a J_dot-labeled vector without forming the
    full product (three matrix-vector passes and one diagonal scaling)."""
    alpha.require_nonzero()
    shifted = alpha.shift_up(i)
    shifted.require_nonzero()
    w = _right_factor(alpha, i).apply(vec)
    diag = _diag_of(x, i)
    w = GMVector(_left_factor(shifted, i).col_labels, tuple(d * v for d, v in zip(diag, w.entries)))
    return _left_factor(shifted, i).apply(w)


def shift_up_series(alpha, x, i, sbar):
    """Transport the series vector from alpha to alpha + delta_i."""
    shape = alpha.shape
    if i > shape.k:
        if alpha[i] == -1:
            raise PathStepError(f"scalar pole: alpha_{i} = -1 on an upward shift")
        out = apply_contiguity(alpha, x, i, sbar)
        return out.scaled(rat(1) / (alpha[i] + 1))
    return apply_contiguity(alpha, x, i, sbar)


def shift_down_series(alpha, x, i, sbar):
    """Transport the series vector from alpha to alpha - delta_i: the
    frame-free inverse of c_i at the target parameters, with the column-block
    scalar alpha_i folded into each rank-one term."""
    target = alpha.shift_down(i)
    scale = alpha[i] if i > alpha.shape.k else 1
    return GMVector(sbar.labels, tuple(_inverse_step(target, x, i, sbar.entries, scale)))


def contiguity_inverse_frame_free(alpha, x, i, phi):
    """c_i(alpha; x)^(-1) applied to a J_dot-coordinate column phi, as the sum
    of rank-one terms in the module docstring; equals solving
    contiguity_matrix(alpha, x, i) against phi."""
    return GMVector(phi.labels, tuple(_inverse_step(alpha, x, i, phi.entries, 1)))


@lru_cache(maxsize=None)
def _step_plan(shape, i):
    """Per label J in enumerate_pJq(i, 0): (J, swap, column), where swap is
    J - {i} + {0} and column lists (J_dot position, sign, e) for every e in J
    with {0} + J - {e} in J_dot (e = last only, when last is in J).

    The pairings there are I(swap, J) = (-1)^q_i / prod(alpha over J - {i})
    and I({0} + J - {e}, J) = (-1)^q_e / prod(alpha over J - {e}), with q the
    position inside J, so their quotient is sign . alpha_e / alpha_i with
    sign = (-1)^(q_i + q_e).
    """
    last = shape.last
    plan = []
    for J in enumerate_pJq(i, 0, shape):
        elems = J.elements
        q_i = elems.index(i)
        swap = IndexSet(tuple(sorted((0,) + tuple(e for e in elems if e != i))))
        column = tuple(
            (
                j_dot_position(shape, IndexSet((0,) + elems[:q] + elems[q + 1:])),
                -1 if (q + q_i) % 2 else 1,
                e,
            )
            for q, e in enumerate(elems)
            if e == last or last not in elems
        )
        plan.append((J, swap, column))
    return tuple(plan)


def _inverse_step(alpha, x, i, phi, scale):
    """scale . c_i(alpha; x)^(-1) phi on plain lists: for each label J of the
    step plan, <v_J(alpha + delta_i), phi> . |xtilde<swap>| / |xtilde<J>| /
    I_alpha(swap, J) times the pairing column of J."""
    alpha.require_nonzero()
    shifted = alpha.shift_up(i)
    shifted.require_nonzero()
    # v_J_scaled carries a factor shifted_last; I(swap, J) a factor 1/alpha_i.
    den = shifted[alpha.shape.last] * alpha[i]
    out = [rat(0)] * alpha.shape.rank
    for J, swap, column in _step_plan(alpha.shape, i):
        num = sum(value * phi[pos] for pos, value in v_J_scaled(shifted, J) if phi[pos])
        if not num:
            continue
        m_J = minor(x, J)
        m_swap = minor(x, swap)
        if m_J == 0 or m_swap == 0:
            raise SingularMinorError(f"vanishing minor in the ratio {swap}/{J}")
        base = num * scale * m_swap / (m_J * den)
        for pos, sign, e in column:
            out[pos] += sign * alpha[e] * base
    return out
