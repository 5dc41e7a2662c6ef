"""Connection coefficients: rank-one building blocks and their assembly.

Every label J whose minor depends on x contributes one x-independent
rank-one matrix M_J; the coefficient of dx_{ij} in the connection is the
sum of M_J . dlog|xtilde<J>|/dx_{ij} over the contributing J containing
column k+j.  Vectors and matrices are expressed on the ordered basis J_dot.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InputError, InternalCheckError, ZeroAlphaError
from .indexsets import (
    IndexSet,
    alpha_J,
    enumerate_J,
    enumerate_J_circ,
    enumerate_J_dot,
    j_dot_position,
)
from .intersection import SquareMatrixR, matrix_C, pairing_scaled
from .minors import dlog_minor, d2log_minor
from .rationals import rat


@dataclass(frozen=True)
class GMVector:
    """Length-r vector carrying its ordered label list (normally J_dot)."""

    labels: tuple
    entries: tuple

    def __post_init__(self):
        if len(self.labels) != len(self.entries):
            raise InputError("label/entry length mismatch")

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, idx):
        return self.entries[idx]

    def entry(self, J):
        return self.entries[self.labels.index(J)]

    def scaled(self, s):
        return GMVector(self.labels, tuple(s * v for v in self.entries))

    def __add__(self, other):
        if self.labels != other.labels:
            raise InternalCheckError("label mismatch in vector sum")
        return GMVector(self.labels, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other):
        if self.labels != other.labels:
            raise InternalCheckError("label mismatch in vector difference")
        return GMVector(self.labels, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def is_zero(self):
        return all(v == 0 for v in self.entries)

    @classmethod
    def zero(cls, labels):
        return cls(tuple(labels), tuple(rat(0) for _ in labels))

    @classmethod
    def unit(cls, labels, position):
        return cls(
            tuple(labels),
            tuple(rat(1) if i == position else rat(0) for i in range(len(labels))),
        )


def _sigma(I, j):
    """sigma(I, j) = (-1)^#{e in I : e < j}, the sign of inserting j into I."""
    return -1 if sum(1 for e in I if e < j) % 2 else 1


def _closed_form(shape, J):
    """alpha_last . v_J(alpha) as integer linear forms in alpha, one per
    nonzero J_dot position: ((position, ((slot, multiplier), ...)), ...).

    A label with 0 and without last is a basis element.  A label I + {last}
    with 0 in I reduces by the twisted relation
        sum over j not in I of sigma(I, j) alpha_j omega_{I+j} = 0.
    A label without 0 reduces by the Orlik-Solomon relation over K = (0, J):
        omega_J = sum over t >= 1 of (-1)^(t+1) omega_{K - K_t},
    each of whose terms contains 0.
    """
    last = shape.last
    acc = {}

    def add(L, slot, mult):
        form = acc.setdefault(j_dot_position(shape, IndexSet(tuple(sorted(L)))), {})
        form[slot] = form.get(slot, 0) + mult

    def reduce(L, sign):
        if last not in L:
            add(L, last, sign)
            return
        I = L[:-1]
        s_last = _sigma(I, last)
        for j in range(last):
            if j not in I:
                add(I + (j,), j, -sign * _sigma(I, j) * s_last)

    elems = J.elements
    if elems[0] == 0:
        reduce(elems, 1)
    else:
        K = (0,) + elems
        for t in range(1, len(K)):
            reduce(K[:t] + K[t + 1:], 1 if t % 2 else -1)
    return tuple(
        (pos, tuple((slot, m) for slot, m in sorted(form.items()) if m))
        for pos, form in sorted(acc.items())
    )


@lru_cache(maxsize=None)
def label_plan(shape):
    """The closed form of every (k+1)-label of the shape, keyed by label."""
    return {J: _closed_form(shape, J) for J in enumerate_J(shape)}


def v_J_scaled(alpha, J):
    """alpha_last . v_J(alpha) as ((J_dot position, value), ...) over the
    nonzero entries; the values are linear in alpha, so integer for integer
    alpha."""
    out = []
    for pos, form in label_plan(alpha.shape)[J]:
        value = sum(m * alpha[slot] for slot, m in form)
        if value:
            out.append((pos, value))
    return out


def v_J_sparse(alpha, J):
    """Coefficients of the class labeled J over the basis J_dot, as
    {J_dot position: coefficient} over the nonzero entries (closed form, see
    _closed_form)."""
    alpha.require_nonzero()
    last = alpha[alpha.shape.last]
    return {pos: rat(value) / last for pos, value in v_J_scaled(alpha, J)}


def v_J(alpha, J):
    """Coefficient row of the class labeled J over the basis J_dot: the dense
    form of v_J_sparse."""
    sparse = v_J_sparse(alpha, J)
    jdot = enumerate_J_dot(alpha.shape)
    zero = rat(0)
    return GMVector(jdot, tuple(sparse.get(pos, zero) for pos in range(len(jdot))))


@lru_cache(maxsize=65536)
def M_J(alpha, J):
    """The rank-one connection summand for label J:

        (product of alpha over J) . C(alpha) . column(v_J at -alpha) . v_J

    Valid even when the eigenvalue alpha_J vanishes (the matrix is then
    nilpotent, not zero).  Satisfies M_J^2 = alpha_J M_J and trace alpha_J.
    """
    jdot = enumerate_J_dot(alpha.shape)
    prod = 1
    for p in J:
        prod = prod * alpha[p]
    v = v_J(alpha, J).entries
    vdual = v_J(alpha.negated(), J).entries
    c = matrix_C(alpha)
    col = [sum(row[b] * vdual[b] for b in range(len(vdual))) for row in c.rows]
    rows = tuple(tuple(prod * col[a] * v[b] for b in range(len(v))) for a in range(len(col)))
    return SquareMatrixR(jdot, jdot, rows)


def psi_coefficient(alpha, x, i, j):
    """The dx_{ij}-coefficient of the connection matrix: sum over contributing
    labels J (J in J_circ, k+j in J) of M_J . dlog|xtilde<J>|/dx_{ij}."""
    shape = alpha.shape
    if not (1 <= i <= shape.k and 1 <= j <= shape.n):
        raise InputError(f"variable position out of range: ({i},{j})")
    jdot = enumerate_J_dot(shape)
    r = shape.rank
    acc = [[rat(0)] * r for _ in range(r)]
    col = shape.k + j
    for J in enumerate_J_circ(shape):
        if col not in J:
            continue
        dl = dlog_minor(x, J, i, j)
        if dl == 0:
            continue
        m = M_J(alpha, J)
        for a in range(r):
            row = m.rows[a]
            acc_a = acc[a]
            for b in range(r):
                if row[b]:
                    acc_a[b] += row[b] * dl
    return SquareMatrixR(jdot, jdot, tuple(tuple(row) for row in acc))


def psi_all(alpha, x):
    """All connection coefficients keyed by variable position (i, j)."""
    shape = alpha.shape
    return {
        (i, j): psi_coefficient(alpha, x, i, j)
        for i in range(1, shape.k + 1)
        for j in range(1, shape.n + 1)
    }


def psi_coefficient_partial(alpha, x, ij, ij2):
    """Exact derivative of the dx_{ij}-coefficient in the x-direction ij2,
    using second derivatives of the log-minors (the M_J are x-independent)."""
    shape = alpha.shape
    i, j = ij
    jdot = enumerate_J_dot(shape)
    r = shape.rank
    acc = [[rat(0)] * r for _ in range(r)]
    col = shape.k + j
    for J in enumerate_J_circ(shape):
        if col not in J:
            continue
        d2 = d2log_minor(x, J, ij, ij2)
        if d2 == 0:
            continue
        m = M_J(alpha, J)
        for a in range(r):
            for b in range(r):
                if m.rows[a][b]:
                    acc[a][b] += m.rows[a][b] * d2
    return SquareMatrixR(jdot, jdot, tuple(tuple(row) for row in acc))


def apply_connection_frame_free(alpha, x, phi, i, j):
    """Frame-free action of the dx_{ij} connection coefficient on a
    J_dot-coordinate column (the same convention the transported series
    vector uses): for each contributing J, weight

        alpha_J . <v_J, phi> / <J, J> . dlog|xtilde<J>|/dx_{ij}

    and emit that multiple of the pairing column (I(., J) against the basis).
    Per-label this is exactly the rank-one summand of the coefficient matrix,
    so the total equals psi_coefficient(alpha, x, i, j) applied to phi.

    Requires alpha_J != 0 for every contributing J (else the quotient form is
    undefined; callers fall back to psi_coefficient, whose rank-one summands
    stay valid at alpha_J = 0).
    """
    shape = alpha.shape
    jdot = enumerate_J_dot(shape)
    if tuple(phi.labels) != jdot:
        raise InternalCheckError("phi must be expressed on the J_dot basis")
    out = GMVector.zero(jdot)
    col = shape.k + j
    for J in enumerate_J_circ(shape):
        if col not in J:
            continue
        aJ = alpha_J(alpha, J)
        if aJ == 0:
            raise ZeroAlphaError(
                f"alpha_J vanishes for contributing label {J}; quotient form undefined"
            )
        num = sum(
            v * s for v, s in zip(v_J(alpha, J).entries, phi.entries) if v and s
        )
        if num == 0:
            continue
        den = pairing_scaled(alpha, J, J)
        coeff = aJ * num / den * dlog_minor(x, J, i, j)
        if coeff:
            pair_col = GMVector(
                jdot, tuple(pairing_scaled(alpha, Jp, J) for Jp in jdot)
            )
            out = out + pair_col.scaled(coeff)
    return out
