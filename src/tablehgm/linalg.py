"""Dense exact linear algebra on list-of-list matrices.

Determinants use fraction-free (Bareiss) elimination with partial pivoting;
solving and inversion use ordinary Gaussian elimination.  All routines are
generic over the scalar type: exact rationals by default, binary64 floats
when the opt-in float transport is active (pivot selection by |.| works for
both).
"""

from __future__ import annotations

from .errors import SingularMatrixError
from .rationals import rat


def det(rows):
    """Determinant via Bareiss elimination; exact over rationals."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return rat(1)
    sign = 1
    prev = 1
    for c in range(n - 1):
        piv, best = -1, None
        for r in range(c, n):
            v = abs(m[r][c])
            if v and (best is None or v > best):
                piv, best = r, v
        if piv < 0:
            return 0 * m[0][0]
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        pcc = m[c][c]
        for r in range(c + 1, n):
            mrc = m[r][c]
            row_r, row_c = m[r], m[c]
            for cc in range(c + 1, n):
                row_r[cc] = (row_r[cc] * pcc - mrc * row_c[cc]) / prev
            row_r[c] = 0 * mrc
        prev = pcc
    return sign * m[n - 1][n - 1]


def solve(rows, rhs):
    """Solve A x = b for one right-hand side; returns a list."""
    n = len(rows)
    m = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    for c in range(n):
        piv, best = -1, None
        for r in range(c, n):
            v = abs(m[r][c])
            if v and (best is None or v > best):
                piv, best = r, v
        if piv < 0:
            raise SingularMatrixError("singular system in solve()")
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
        f = m[c][c]
        for r in range(c + 1, n):
            g = m[r][c]
            if g:
                ratio = g / f
                row_r, row_c = m[r], m[c]
                for cc in range(c, n + 1):
                    row_r[cc] = row_r[cc] - ratio * row_c[cc]
    x = [None] * n
    for r in range(n - 1, -1, -1):
        acc = m[r][n]
        for cc in range(r + 1, n):
            acc = acc - m[r][cc] * x[cc]
        x[r] = acc / m[r][r]
    return x


def invert(rows):
    """Inverse via Gauss-Jordan elimination."""
    n = len(rows)
    zero = rows[0][0] * 0
    one = zero + 1
    m = [list(r) + [one if i == j else zero for j in range(n)] for i, r in enumerate(rows)]
    for c in range(n):
        piv, best = -1, None
        for r in range(c, n):
            v = abs(m[r][c])
            if v and (best is None or v > best):
                piv, best = r, v
        if piv < 0:
            raise SingularMatrixError("singular matrix in invert()")
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
        f = m[c][c]
        m[c] = [v / f for v in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                g = m[r][c]
                m[r] = [a - g * b for a, b in zip(m[r], m[c])]
    return [row[n:] for row in m]


def matmul(a, b):
    """Plain list-of-lists matrix product."""
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def matvec(a, v):
    """Matrix times column vector."""
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def vecmat(v, a):
    """Row vector times matrix."""
    return [sum(v[i] * a[i][j] for i in range(len(v))) for j in range(len(a[0]))]
