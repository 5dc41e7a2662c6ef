"""Exact reference values for the benchmark's checks, independent of the HGM
pipeline.

    Z(r, c; p) = sum over tables u with margins (r, c) of p^u / u!
               = [t^r] prod_j (sum_i p_ij t_i)^(c_j) / c_j!

`_expand` multiplies the linear forms out on integers (each column scaled
by the lcm of its denominators), over the shorter side of the table, so the
states are the row amounts used so far.  Shifted margins give the
derivatives in p:

    dZ/dp_ij          = Z(r - e_i, c - e_j)
    d2Z/dp_ij dp_kl   = Z(r - e_i - e_k, c - e_j - e_l)
    E[U_ij]           = p_ij Z(r - e_i, c - e_j) / Z

The package's gradients are in the variables x_ab = p_{a,b+1} p_{r1,1} /
(p_{a,1} p_{r1,b+1}); p_{a,b+1} enters no other x, so
d/dx_ab = (p_{a,b+1} / x_ab) d/dp_{a,b+1}.

Where the number of tables is small, Z and E come from the package's
enumeration oracles (`series.oracle_Z`, `series.oracle_E`) and the gradients
from enumerated covariances, dE_ij/dp_kl = Cov(U_ij, U_kl) / p_kl.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm

ENUMERATION_LIMIT = 2000  # tables; above it the DP is the reference


def _expand(row_caps, int_cols, col_counts):
    """Coefficients of prod_j (sum_i q_ij t_i)^(n_j), keeping t <= row_caps."""
    m = len(row_caps)
    states = {(0,) * m: 1}
    for q, n in zip(int_cols, col_counts):
        for _ in range(n):
            nxt = {}
            for s, v in states.items():
                for i in range(m):
                    if s[i] < row_caps[i]:
                        t = s[:i] + (s[i] + 1,) + s[i + 1 :]
                        nxt[t] = nxt.get(t, 0) + v * q[i]
            states = nxt
    return states


class ShiftedZ:
    """Z at margins shifted down by a few units, by the integer DP."""

    def __init__(self, row_sums, col_sums, probs):
        self.transposed = len(row_sums) > len(col_sums)
        if self.transposed:
            row_sums, col_sums = col_sums, row_sums
            probs = [list(col) for col in zip(*probs)]
        self.rows = tuple(row_sums)
        self.cols = tuple(col_sums)
        self.scale = []
        self.int_cols = []
        for j in range(len(self.cols)):
            col = [Fraction(probs[i][j]) for i in range(len(self.rows))]
            scale = lcm(*(v.denominator for v in col))
            self.scale.append(scale)
            self.int_cols.append([int(v * scale) for v in col])
        self._expanded = {}

    def __call__(self, rows_down=(), cols_down=()):
        """Z(r - sum of e_i over rows_down, c - sum of e_j over cols_down)."""
        if self.transposed:
            rows_down, cols_down = cols_down, rows_down
        counts = list(self.cols)
        for j in cols_down:
            counts[j] -= 1
        target = list(self.rows)
        for i in rows_down:
            target[i] -= 1
        if min(counts) < 0 or min(target) < 0:
            return Fraction(0)
        key = tuple(sorted(cols_down))
        if key not in self._expanded:
            self._expanded[key] = _expand(self.rows, self.int_cols, counts)
        coeff = self._expanded[key].get(tuple(target), 0)
        den = 1
        for n, scale in zip(counts, self.scale):
            den *= factorial(n) * scale**n
        return Fraction(coeff, den)


def _x_factor(probs, a, b):
    """p_{a,b+1} / x_ab: converts d/dp_{a,b+1} into d/dx_ab (0-based a, b)."""
    last = len(probs) - 1
    return probs[a][0] * probs[last][b + 1] / probs[last][0]


def dp_reference(row_sums, col_sums, probs, gradients):
    """(Z, E, G) by the integer DP; G is None unless gradients is true."""
    probs = [[Fraction(v) for v in row] for row in probs]
    r1, r2 = len(row_sums), len(col_sums)
    z = ShiftedZ(row_sums, col_sums, probs)
    z0 = z()
    z1 = [[z((i,), (j,)) for j in range(r2)] for i in range(r1)]
    e = tuple(tuple(probs[i][j] * z1[i][j] / z0 for j in range(r2)) for i in range(r1))
    if not gradients:
        return z0, e, None

    def de_dp(i, j, k, l):
        out = probs[i][j] * z((i, k), (j, l)) / z0 - probs[i][j] * z1[i][j] * z1[k][l] / z0**2
        if (i, j) == (k, l):
            out += z1[i][j] / z0
        return out

    return z0, e, _x_gradients(probs, de_dp)


def _x_gradients(probs, de_dp):
    r1, r2 = len(probs), len(probs[0])
    return tuple(
        tuple(
            tuple(
                tuple(_x_factor(probs, a, b) * de_dp(i, j, a, b + 1) for b in range(r2 - 1))
                for a in range(r1 - 1)
            )
            for j in range(r2)
        )
        for i in range(r1)
    )


def enumeration_gradients(row_sums, col_sums, probs, enumerate_tables):
    """dE/dx from enumerated covariances, dE_ij/dp_kl = Cov(U_ij, U_kl) / p_kl.

    Each table's weight p^u / u! is kept as the integer
    prod_j (c_j! / prod_i u_ij!) prod_ij q_ij^u_ij over the common
    denominator prod_j c_j! L_j^c_j, with q and L as in `ShiftedZ`."""
    probs = [[Fraction(v) for v in row] for row in probs]
    r1, r2 = len(row_sums), len(col_sums)
    scale = [lcm(*(probs[i][j].denominator for i in range(r1))) for j in range(r2)]
    q = [[int(probs[i][j] * scale[j]) for j in range(r2)] for i in range(r1)]
    cells = [(i, j) for i in range(r1) for j in range(r2)]
    col_fact = 1
    for c in col_sums:
        col_fact *= factorial(c)
    z = 0
    first = dict.fromkeys(cells, 0)
    second = {}
    for u in enumerate_tables(row_sums, col_sums):
        w = col_fact
        for i, j in cells:
            if u[i][j]:
                w = w * q[i][j] ** u[i][j] // factorial(u[i][j])
        z += w
        used = [(c, u[c[0]][c[1]]) for c in cells if u[c[0]][c[1]]]
        for c, uc in used:
            first[c] += uc * w
            for d, ud in used:
                second[c, d] = second.get((c, d), 0) + uc * ud * w

    def de_dp(i, j, k, l):
        cov = Fraction(second.get(((i, j), (k, l)), 0), z) - Fraction(first[i, j] * first[k, l], z * z)
        return cov / probs[k][l]

    return _x_gradients(probs, de_dp)


def table_count_bound(row_sums, col_sums):
    """Upper bound on the number of tables (every row but the last is one
    composition of its sum into len(col_sums) parts), cheap where
    `series.count_tables` is not."""
    bound = 1
    for r in row_sums[:-1]:
        bound *= comb(r + len(col_sums) - 1, len(col_sums) - 1)
    return bound


def reference(row_sums, col_sums, probs, gradients, series):
    """Exact (Z, E, G): enumeration through the package's oracles when the
    tables are few, the integer DP otherwise.  `series` is the package's
    series module; `probs` are Fractions."""
    few = (
        table_count_bound(row_sums, col_sums) <= 100 * ENUMERATION_LIMIT
        and series.count_tables(row_sums, col_sums) <= ENUMERATION_LIMIT
    )
    if few:
        z = Fraction(series.oracle_Z(row_sums, col_sums, probs))
        e = tuple(tuple(Fraction(v) for v in row) for row in series.oracle_E(row_sums, col_sums, probs))
        g = (
            enumeration_gradients(row_sums, col_sums, probs, series.enumerate_tables)
            if gradients
            else None
        )
        return z, e, g
    return dp_reference(row_sums, col_sums, probs, gradients)


def mismatch(result, expected, gradients):
    """None when the result equals the reference exactly and its gradients
    satisfy the margin identities; otherwise a short description."""
    z, e, g = expected
    if result.Z != z:
        return "Z differs from the exact reference"
    if tuple(tuple(row) for row in result.expectations) != e:
        return "expectations differ from the exact reference"
    if not gradients:
        return None
    got = result.gradients
    r1, r2 = len(got), len(got[0])
    k, n = len(got[0][0]), len(got[0][0][0])
    for a in range(k):
        for b in range(n):
            if any(sum(got[i][j][a][b] for i in range(r1)) != 0 for j in range(r2)):
                return f"column sums of dE/dx_{a + 1}{b + 1} are not zero"
            if any(sum(got[i][j][a][b] for j in range(r2)) != 0 for i in range(r1)):
                return f"row sums of dE/dx_{a + 1}{b + 1} are not zero"
    if got != g:
        return "gradients differ from the exact reference"
    return None
