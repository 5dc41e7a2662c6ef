"""The scaled intersection pairing and the matrices built from it.

All pairings drop the common transcendental scale factor, which provably
cancels in every downstream formula (connection coefficients, contiguity
maps), keeping the whole pipeline inside exact rational arithmetic.

Conventions that matter:

* Matrix labels are always sorted IndexSets.  When an alignment rule defines
  a basis element through an out-of-order tuple, the sorting sign is folded
  into the corresponding matrix row or column at build time.
* Closed-form inverses follow the diagonal / full / diagonal factorization:
  a mixed pairing matrix between swap-matched label lists is diagonal, and

      Cpq(p1,q1 ; p2,q2)^(-1)
        = D(q2,p2 ; p2,q2)^(-1) . Cpq(q2,p2 ; q1,p1) . D(p1,q1 ; q1,p1)^(-1)

  where each D factor pairs a label list against its swap-matched partner.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import linalg
from .errors import InputError, InternalCheckError, ZeroAlphaError
from .indexsets import (
    IndexSet,
    Shape,
    aligned_0Ji,
    aligned_iJ0,
    enumerate_J_dot,
    enumerate_pJq,
)
from .rationals import rat


@dataclass(frozen=True)
class ParamVector:
    """Parameter vector (alpha_0, ..., alpha_{k+n+1}) with zero sum.

    Entries are integers in the statistical pipeline; exact rationals are
    accepted for property tests.
    """

    shape: Shape
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.shape.ncols:
            raise InputError(
                f"expected {self.shape.ncols} entries, got {len(self.entries)}"
            )
        if sum(self.entries) != 0:
            raise InputError(f"entries must sum to zero: {self.entries}")

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def shift_up(self, i):
        """alpha + delta_i: subtract 1 at slot 0, add 1 at slot i (1 <= i <= last)."""
        if not (1 <= i <= self.shape.last):
            raise InputError(f"shift index out of range: {i}")
        e = list(self.entries)
        e[0] -= 1
        e[i] += 1
        return ParamVector(self.shape, tuple(e))

    def shift_down(self, i):
        """alpha - delta_i."""
        if not (1 <= i <= self.shape.last):
            raise InputError(f"shift index out of range: {i}")
        e = list(self.entries)
        e[0] += 1
        e[i] -= 1
        return ParamVector(self.shape, tuple(e))

    def negated(self):
        """Dual parameters -alpha."""
        return ParamVector(self.shape, tuple(-a for a in self.entries))

    def nonzero(self):
        return all(a != 0 for a in self.entries)

    def require_nonzero(self):
        zeros = [i for i, a in enumerate(self.entries) if a == 0]
        if zeros:
            raise ZeroAlphaError(f"parameter entries vanish at slots {zeros}: {self.entries}")


@dataclass(frozen=True)
class SquareMatrixR:
    """r x r matrix of exact rationals with explicit ordered label lists.

    row_labels index the output stack, col_labels the input stack; a product
    A @ B demands A.col_labels == B.row_labels, identically ordered.
    """

    row_labels: tuple
    col_labels: tuple
    rows: tuple  # of row tuples

    def __post_init__(self):
        r, c = len(self.row_labels), len(self.col_labels)
        if len(self.rows) != r or any(len(row) != c for row in self.rows):
            raise InputError("matrix entries do not match label lists")

    @property
    def size(self):
        return len(self.row_labels)

    def entry(self, I, J):
        return self.rows[self.row_labels.index(I)][self.col_labels.index(J)]

    def __matmul__(self, other):
        if self.col_labels != other.row_labels:
            raise InternalCheckError(
                "label mismatch in matrix product: "
                f"{[str(l) for l in self.col_labels]} vs {[str(l) for l in other.row_labels]}"
            )
        prod = linalg.matmul([list(r) for r in self.rows], [list(r) for r in other.rows])
        return SquareMatrixR(self.row_labels, other.col_labels, tuple(tuple(r) for r in prod))

    def apply(self, vec):
        """Matrix times a labeled column vector (duck-typed: .labels/.entries)."""
        if self.col_labels != tuple(vec.labels):
            raise InternalCheckError("label mismatch in matrix-vector product")
        out = linalg.matvec([list(r) for r in self.rows], list(vec.entries))
        return type(vec)(self.row_labels, tuple(out))

    def transpose(self):
        return SquareMatrixR(self.col_labels, self.row_labels, tuple(zip(*self.rows)))

    def inverse(self):
        inv = linalg.invert([list(r) for r in self.rows])
        return SquareMatrixR(self.col_labels, self.row_labels, tuple(tuple(r) for r in inv))

    def scaled(self, s):
        return SquareMatrixR(
            self.row_labels, self.col_labels, tuple(tuple(s * v for v in r) for r in self.rows)
        )

    def __add__(self, other):
        self._require_same_labels(other)
        return SquareMatrixR(
            self.row_labels,
            self.col_labels,
            tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)),
        )

    def __sub__(self, other):
        self._require_same_labels(other)
        return SquareMatrixR(
            self.row_labels,
            self.col_labels,
            tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)),
        )

    def _require_same_labels(self, other):
        if self.row_labels != other.row_labels or self.col_labels != other.col_labels:
            raise InternalCheckError("label mismatch in matrix sum")

    def trace(self):
        if self.row_labels != self.col_labels:
            raise InternalCheckError("trace requires identical row/column labels")
        return sum(self.rows[i][i] for i in range(self.size))

    def is_identity(self):
        if self.row_labels != self.col_labels:
            return False
        return all(
            v == (1 if i == j else 0)
            for i, row in enumerate(self.rows)
            for j, v in enumerate(row)
        )


def pairing_scaled(alpha, J, Jp):
    """Scaled intersection number of the forms labeled J and Jp.

    J == Jp:        (sum of alpha over J) / (product of alpha over J)
    |J ∩ Jp| == k:  (-1)^(p+q) / (product of alpha over J ∩ Jp), where p and
                    q are the positions of the odd elements J \\ Jp and
                    Jp \\ J inside the ascending tuples
    otherwise:      0
    """
    a = tuple(J.elements if isinstance(J, IndexSet) else J)
    b = tuple(Jp.elements if isinstance(Jp, IndexSet) else Jp)
    if a == b:
        den = 1
        num = 0
        for j in a:
            den = den * alpha[j]
            num = num + alpha[j]
        if den == 0:
            raise ZeroAlphaError(f"zero parameter in denominator for {a}")
        return rat(num) / den
    common = set(a) & set(b)
    if len(common) != len(a) - 1:
        return rat(0)
    p = next(i for i, e in enumerate(a) if e not in common)
    q = next(i for i, e in enumerate(b) if e not in common)
    den = 1
    for j in common:
        den = den * alpha[j]
    if den == 0:
        raise ZeroAlphaError(f"zero parameter in denominator for {a} ∩ {b}")
    return rat(-1 if (p + q) % 2 else 1) / den


def _norm_labels(labels):
    """Accept a list of IndexSet or of (IndexSet, sign); return (sets, signs)."""
    sets, signs = [], []
    for item in labels:
        if isinstance(item, IndexSet):
            sets.append(item)
            signs.append(1)
        else:
            s, sg = item
            sets.append(s)
            signs.append(sg)
    return tuple(sets), tuple(signs)


def pairing_matrix(alpha, row_labels, col_labels):
    """Matrix of scaled pairings with alignment signs folded into the entries."""
    rsets, rsigns = _norm_labels(row_labels)
    csets, csigns = _norm_labels(col_labels)
    rows = []
    for R, rs in zip(rsets, rsigns):
        row = []
        for Cl, cs in zip(csets, csigns):
            v = pairing_scaled(alpha, R, Cl)
            row.append(v if rs * cs > 0 else -v)
        rows.append(tuple(row))
    return SquareMatrixR(rsets, csets, tuple(rows))


def _pairing_diagonal(alpha, row_labels, col_labels):
    """Diagonal entries of the pairing matrix of swap-matched label lists.

    Position l of the two lists must name labels differing by one element;
    anything else means the alignment is broken, which is a bug.
    """
    rsets, rsigns = _norm_labels(row_labels)
    csets, csigns = _norm_labels(col_labels)
    out = []
    for R, rs, Cl, cs in zip(rsets, rsigns, csets, csigns):
        v = pairing_scaled(alpha, R, Cl)
        if v == 0:
            raise InternalCheckError(f"labels {R} / {Cl} are not swap-matched")
        out.append(v if rs * cs > 0 else -v)
    return rsets, csets, tuple(out)


def matrix_Cpq(alpha, p1, q1, p2, q2):
    """Pairing matrix with rows labeled by the subsets containing p1 (not q1)
    and columns by those containing p2 (not q2), in the default shared-subset
    alignment."""
    alpha.require_nonzero()
    shape = alpha.shape
    return pairing_matrix(
        alpha, enumerate_pJq(p1, q1, shape), enumerate_pJq(p2, q2, shape)
    )


@lru_cache(maxsize=4096)
def matrix_C(alpha):
    """Intersection matrix of the standard basis J_dot (both sides)."""
    alpha.require_nonzero()
    jdot = enumerate_J_dot(alpha.shape)
    return pairing_matrix(alpha, jdot, jdot)


@lru_cache(maxsize=4096)
def matrix_P(alpha, i):
    """Pairing matrix with rows aligned_0Ji(i) (signs folded), columns J_dot."""
    alpha.require_nonzero()
    shape = alpha.shape
    return pairing_matrix(alpha, aligned_0Ji(i, shape), enumerate_J_dot(shape))


@lru_cache(maxsize=4096)
def matrix_Q(alpha, i):
    """Pairing matrix with rows aligned_iJ0(i) (signs folded), columns J_dot."""
    alpha.require_nonzero()
    shape = alpha.shape
    return pairing_matrix(alpha, aligned_iJ0(i, shape), enumerate_J_dot(shape))


def inverse_Cpq(alpha, p1, q1, p2, q2):
    """Closed-form exact inverse of matrix_Cpq(alpha, p1, q1, p2, q2):
    diagonal^(-1) . full . diagonal^(-1), no elimination."""
    alpha.require_nonzero()
    shape = alpha.shape
    rows_d1 = enumerate_pJq(q2, p2, shape)
    cols_d1 = enumerate_pJq(p2, q2, shape)
    _, _, d1 = _pairing_diagonal(alpha, rows_d1, cols_d1)
    mid = pairing_matrix(alpha, rows_d1, enumerate_pJq(q1, p1, shape))
    rows_d2 = enumerate_pJq(p1, q1, shape)
    cols_d2 = enumerate_pJq(q1, p1, shape)
    _, _, d2 = _pairing_diagonal(alpha, rows_d2, cols_d2)
    entries = tuple(
        tuple(mid.rows[a][b] / (d1[a] * d2[b]) for b in range(len(d2)))
        for a in range(len(d1))
    )
    return SquareMatrixR(cols_d1, rows_d2, entries)


@lru_cache(maxsize=4096)
def inverse_C(alpha):
    """Closed-form inverse of matrix_C(alpha); labels J_dot on both sides."""
    return inverse_Cpq(alpha, 0, alpha.shape.last, 0, alpha.shape.last)


@lru_cache(maxsize=4096)
def inverse_P(alpha, i):
    """Closed-form inverse of matrix_P(alpha, i), respecting its alignment.

    Chain: D(N,0 ; 0,N)^(-1) . Cpq(N,0 ; 0,i) . D(i,0 ; 0,i)^(-1), where the
    first diagonal pairs the 0 <-> k+n+1 swap of J_dot against J_dot and the
    second pairs aligned_0Ji against aligned_iJ0 (signs folded).  Result has
    rows J_dot, columns the aligned_0Ji labels.
    """
    alpha.require_nonzero()
    shape = alpha.shape
    jdot = enumerate_J_dot(shape)
    swapped = tuple(
        IndexSet(tuple(sorted(tuple(e for e in J.elements if e != 0) + (shape.last,))))
        for J in jdot
    )
    _, _, d1 = _pairing_diagonal(alpha, swapped, jdot)
    mid = pairing_matrix(alpha, swapped, aligned_iJ0(i, shape))
    up = aligned_0Ji(i, shape)
    lo = aligned_iJ0(i, shape)
    _, _, d2 = _pairing_diagonal(alpha, up, lo)
    entries = tuple(
        tuple(mid.rows[a][b] / (d1[a] * d2[b]) for b in range(len(d2)))
        for a in range(len(d1))
    )
    return SquareMatrixR(jdot, tuple(s for s, _ in up), entries)
