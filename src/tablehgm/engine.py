"""End-to-end pipeline: margins and cell probabilities in, exact normalizing
constant, expectations, and expectation gradients out.

Steps: map the table problem to parameters alpha and variables x; build a
shift path from the canonical start vector to alpha; evaluate the series
vector once at the start (tiny support there); transport it along the path
with contiguity maps; read off the normalizing constant, the expectations,
and, via the connection matrices, their x-gradients.

Zero marginal rows/columns are stripped up front (their cells are forced to
zero); single-row or single-column problems short-circuit to the one feasible
table.  The exact backend is the default; the opt-in float backend runs the
same pipeline but converts each transport matrix and the running vector to
binary64, for totals where exact bit-length is more expensive than the caller
wants.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from numbers import Integral, Rational
from time import perf_counter

from . import linalg
from .contiguity import contiguity_matrix, shift_down_series, shift_up_series
from .errors import (
    InputError,
    InternalCheckError,
    PathStepError,
    PreconditionError,
    RegimeError,
    XNotGenericError,
)
from .gauss_manin import GMVector, psi_all
from .indexsets import IndexSet, Shape, j_dot_position
from .intersection import ParamVector
from .minors import XMatrix, check_in_X
from .rationals import as_float, rat, rat_from_str
from .series import gm_vector_S, oracle_E, oracle_Z


def _exact_weight(v):
    """An exact rational weight: ints become rationals; bools, floats and any
    other inexact scalar are refused, so no float reaches an exact result."""
    if isinstance(v, bool) or not isinstance(v, Rational):
        raise InputError(f"probabilities must be exact integers or rationals, got {v!r}")
    return rat(int(v)) if isinstance(v, Integral) else v


@dataclass(frozen=True)
class TableProblem:
    """Margins and positive cell probabilities of a two-way table."""

    row_sums: tuple
    col_sums: tuple
    probs: tuple  # row tuples of exact rationals

    def __post_init__(self):
        if not self.row_sums or not self.col_sums:
            raise InputError("row_sums and col_sums must be nonempty")
        for s in self.row_sums + self.col_sums:
            if not isinstance(s, int) or isinstance(s, bool) or s < 0:
                raise InputError(f"marginal sums must be nonnegative integers, got {s!r}")
        if sum(self.row_sums) != sum(self.col_sums):
            raise InputError(
                f"marginal totals differ: {sum(self.row_sums)} vs {sum(self.col_sums)}"
            )
        if len(self.probs) != len(self.row_sums) or any(
            len(row) != len(self.col_sums) for row in self.probs
        ):
            raise InputError("probability matrix does not match the margins")
        probs = tuple(tuple(_exact_weight(v) for v in row) for row in self.probs)
        for row in probs:
            for v in row:
                if v <= 0:
                    raise InputError(f"probabilities must be positive, got {v}")
        object.__setattr__(self, "probs", probs)

    @classmethod
    def of(cls, row_sums, col_sums, probs):
        """Convenience constructor accepting ints, rationals, or "num/den" strings."""
        def conv(v):
            if isinstance(v, int):
                return rat(v)
            if isinstance(v, str):
                return rat_from_str(v)
            return v

        grid = tuple(tuple(conv(v) for v in row) for row in probs)
        return cls(tuple(row_sums), tuple(col_sums), grid)


@dataclass
class EvalOptions:
    oracle: bool = False
    backend: str = "exact"  # "exact" or "float"
    gradients: bool = True

    def __post_init__(self):
        if self.backend not in ("exact", "float"):
            raise InputError(f"unknown backend {self.backend!r}")


@dataclass(frozen=True)
class PathStep:
    """One shift along the parameter path; alpha_after = previous +- delta_index."""

    index: int
    direction: int
    alpha_after: ParamVector


@dataclass
class Diagnostics:
    e: int
    path: tuple
    alpha: object
    x: object
    millis: float
    backend: str
    kept_rows: tuple
    kept_cols: tuple
    oracle: object = None
    # float backend only: decimal orders of magnitude the running vector
    # traversed along the path.  binary64 carries ~16 digits, so a span much
    # beyond that means the float result has lost most of its precision.
    dynamic_range_digits: object = None


@dataclass
class EvalResult:
    Z: object
    expectations: tuple
    gradients: object
    diagnostics: Diagnostics


def initial_alpha(shape):
    """Canonical start vector: (1-r2, -1 x (r1-1), 1 x (r2-1), r1-1)."""
    r1, r2 = shape.k + 1, shape.n + 1
    return ParamVector(
        shape, tuple([1 - r2] + [-1] * (r1 - 1) + [1] * (r2 - 1) + [r1 - 1])
    )


def map_problem(problem):
    """Map a (strictly positive) table problem to (alpha, x, u0, prefactor).

    alpha = (-b1_{r1}, -b1_1, ..., -b1_{r1-1}, b2_2, ..., b2_{r2}, b2_1);
    x_{ij} = p_{i,j+1} p_{r1,1} / (p_{i,1} p_{r1,j+1}); u0 is the base table
    carrying the margins in its first column and last row; the prefactor is
    p^{u0} (the last-row first-column exponent may be negative).
    """
    rs, cs, p = problem.row_sums, problem.col_sums, problem.probs
    r1, r2 = len(rs), len(cs)
    if r1 < 2 or r2 < 2:
        raise InputError("mapping requires at least two rows and two columns")
    if any(s == 0 for s in rs + cs):
        raise InputError("zero marginal sums must be stripped before mapping")
    shape = Shape(r1 - 1, r2 - 1)
    alpha = ParamVector(
        shape, tuple([-rs[-1]] + [-b for b in rs[:-1]] + list(cs[1:]) + [cs[0]])
    )
    x = XMatrix(
        shape,
        tuple(
            tuple(
                p[i][j] * p[r1 - 1][0] / (p[i][0] * p[r1 - 1][j])
                for j in range(1, r2)
            )
            for i in range(r1 - 1)
        ),
    )
    u0 = [[0] * r2 for _ in range(r1)]
    for i in range(r1 - 1):
        u0[i][0] = rs[i]
    u0[r1 - 1][0] = cs[0] - sum(rs[:-1])
    for j in range(1, r2):
        u0[r1 - 1][j] = cs[j]
    prefactor = rat(1)
    for i in range(r1):
        for j in range(r2):
            if u0[i][j]:
                prefactor *= p[i][j] ** u0[i][j]
    return alpha, x, tuple(tuple(row) for row in u0), prefactor


def build_path(alpha):
    """Shift sequence from the canonical start vector to alpha: raise the
    middle block left to right, adjust the last slot in either direction,
    then lower slots 1..k.  Every intermediate vector is checked for nonzero
    entries at runtime."""
    shape = alpha.shape
    k, n = shape.k, shape.n
    for a in alpha:
        if not isinstance(a, int):
            raise RegimeError(f"path construction needs integer parameters, got {a!r}")
    bad = [i for i in range(k + 1) if alpha[i] >= 0] + [
        k + j for j in range(1, n + 2) if alpha[k + j] <= 0
    ]
    if bad:
        raise RegimeError(
            f"target outside the statistical regime at slots {bad}: {alpha.entries}"
        )
    cur = list(initial_alpha(shape).entries)
    steps = []

    def push(i, d):
        cur[0] -= d
        cur[i] += d
        after = ParamVector(shape, tuple(cur))
        if not after.nonzero():
            raise PathStepError(
                f"zero entry after step {len(steps) + 1} ({'+' if d > 0 else '-'}delta_{i}): {after.entries}"
            )
        steps.append(PathStep(i, d, after))

    for slot in range(k + 1, k + n + 1):
        while cur[slot] < alpha[slot]:
            push(slot, +1)
    last = shape.last
    while cur[last] < alpha[last]:
        push(last, +1)
    while cur[last] > alpha[last]:
        push(last, -1)
    for i in range(1, k + 1):
        while cur[i] > alpha[i]:
            push(i, -1)
    if tuple(cur) != alpha.entries:
        raise InternalCheckError(f"path did not land on target: {cur} vs {alpha.entries}")
    return steps


def _ell(a, b, i, j, r1, r2):
    """Entry (i,j) of the move table for cell (a,b): +1 at (a,b+1) and
    (r1,1), -1 at (a,1) and (r1,b+1), 0 elsewhere.  All indices 1-based."""
    if (i, j) == (a, b + 1) or (i, j) == (r1, 1):
        return 1
    if (i, j) == (a, 1) or (i, j) == (r1, b + 1):
        return -1
    return 0


def _sbar_positions(shape):
    """Positions in J_dot of the first-derivative labels, keyed by (a, b)."""
    base = set(range(shape.k + 1))
    pos = {}
    for a in range(1, shape.k + 1):
        for b in range(1, shape.n + 1):
            label = IndexSet(tuple(sorted((base - {a}) | {shape.k + b})))
            pos[(a, b)] = j_dot_position(shape, label)
    return pos


def expectations(sbar, alpha, x, u0):
    """Expectation matrix from the transported vector: the base table plus the
    signed, parameter-weighted first-derivative entries divided by the value
    entry."""
    shape = alpha.shape
    k, n = shape.k, shape.n
    r1, r2 = k + 1, n + 1
    s_val = sbar.entries[0]
    if s_val == 0:
        raise PreconditionError("value entry of the transported vector vanishes")
    pos = _sbar_positions(shape)
    sign_k = -1 if k % 2 else 1
    out = []
    for i in range(1, r1 + 1):
        row = []
        for j in range(1, r2 + 1):
            acc = 0
            for a in range(1, k + 1):
                sa = -1 if a % 2 else 1
                for b in range(1, n + 1):
                    l = _ell(a, b, i, j, r1, r2)
                    if l:
                        acc = acc + sa * l * alpha[k + b] * sbar.entries[pos[(a, b)]]
            row.append(u0[i - 1][j - 1] + sign_k * acc / s_val)
        out.append(tuple(row))
    return tuple(out)


def expectation_gradients(sbar, psi_coeffs, alpha, x, u0, cast=None):
    """Gradient tensor d E[U_{ij}] / d x_{i'j'}.

    psi_coeffs maps (i', j') to the corresponding connection coefficient
    matrix; its action on sbar supplies the derivative entries.  `cast`
    converts exact scalars before they meet the vector entries (identity for
    the exact backend, float for the float backend).
    """
    shape = alpha.shape
    k, n = shape.k, shape.n
    r1, r2 = k + 1, n + 1
    if cast is None:
        cast = lambda v: v
    s_val = sbar.entries[0]
    if s_val == 0:
        raise PreconditionError("value entry of the transported vector vanishes")
    pos = _sbar_positions(shape)
    sign_k = -1 if k % 2 else 1
    applied = {}
    ratio = {}
    for (pi, pj), m in psi_coeffs.items():
        applied[(pi, pj)] = [
            sum(cast(e) * s for e, s in zip(row, sbar.entries) if e)
            for row in m.rows
        ]
        xv = x.entry(pi, pj)
        if xv == 0:
            raise PreconditionError(f"zero variable entry x_{pi}{pj}")
        ratio[(pi, pj)] = cast(rat(alpha[k + pj]) / xv)
    s_sq = s_val * s_val
    out = []
    for i in range(1, r1 + 1):
        row_i = []
        for j in range(1, r2 + 1):
            block = []
            for pi in range(1, k + 1):
                row_p = []
                sign_kp = -1 if (k - pi) % 2 else 1
                for pj in range(1, n + 1):
                    t_vec = applied[(pi, pj)]
                    acc = 0
                    for a in range(1, k + 1):
                        sa = -1 if a % 2 else 1
                        for b in range(1, n + 1):
                            l = _ell(a, b, i, j, r1, r2)
                            if not l:
                                continue
                            s_ab = sbar.entries[pos[(a, b)]]
                            term = s_val * t_vec[pos[(a, b)]]
                            term = term - sign_kp * ratio[(pi, pj)] * s_ab * sbar.entries[pos[(pi, pj)]]
                            acc = acc + sa * l * alpha[k + b] * term
                    row_p.append(sign_k * acc / s_sq)
                block.append(tuple(row_p))
            row_i.append(tuple(block))
        out.append(tuple(row_i))
    return tuple(out)


def _strip(problem):
    kept_rows = tuple(i for i, s in enumerate(problem.row_sums) if s > 0)
    kept_cols = tuple(j for j, s in enumerate(problem.col_sums) if s > 0)
    if not kept_rows or not kept_cols:
        return None, kept_rows, kept_cols
    if len(kept_rows) == len(problem.row_sums) and len(kept_cols) == len(problem.col_sums):
        return problem, kept_rows, kept_cols
    reduced = TableProblem(
        tuple(problem.row_sums[i] for i in kept_rows),
        tuple(problem.col_sums[j] for j in kept_cols),
        tuple(tuple(problem.probs[i][j] for j in kept_cols) for i in kept_rows),
    )
    return reduced, kept_rows, kept_cols


def _embed_matrix(reduced, kept_rows, kept_cols, full_r1, full_r2, zero):
    out = [[zero] * full_r2 for _ in range(full_r1)]
    for a, i in enumerate(kept_rows):
        for b, j in enumerate(kept_cols):
            out[i][j] = reduced[a][b]
    return tuple(tuple(row) for row in out)


def _embed_gradients(reduced, kept_rows, kept_cols, full_r1, full_r2):
    """Table indices are embedded to full size; x indices stay those of the
    reduced problem (stripped cells are constant, so their rows are zero)."""
    if not reduced:
        return tuple(tuple(() for _ in range(full_r2)) for _ in range(full_r1))
    sample = reduced[0][0]
    zero_block = tuple(tuple(0 * v for v in row) for row in sample)
    out = [[zero_block] * full_r2 for _ in range(full_r1)]
    for a, i in enumerate(kept_rows):
        for b, j in enumerate(kept_cols):
            out[i][j] = reduced[a][b]
    return tuple(tuple(row) for row in out)


def _single_table_result(problem, reduced, kept_rows, kept_cols, options, t0):
    """Closed form when at most one table is feasible (a single row or column,
    or empty margins): Z = p^u / u!, expectations equal the table, gradients
    vanish."""
    r1, r2 = len(problem.row_sums), len(problem.col_sums)
    if len(reduced.row_sums) == 1:
        table = {(0, j): s for j, s in enumerate(reduced.col_sums)}
    else:
        table = {(i, 0): s for i, s in enumerate(reduced.row_sums)}
    z = rat(1)
    for (i, j), v in table.items():
        z *= reduced.probs[i][j] ** v
        z /= factorial(v)
    e_red = [[rat(0)] * len(reduced.col_sums) for _ in range(len(reduced.row_sums))]
    for (i, j), v in table.items():
        e_red[i][j] = rat(v)
    expectations_full = _embed_matrix(e_red, kept_rows, kept_cols, r1, r2, rat(0))
    gradients = tuple(tuple(() for _ in range(r2)) for _ in range(r1)) if options.gradients else None
    if options.backend == "float":
        z = as_float(z)
        expectations_full = tuple(tuple(as_float(v) for v in row) for row in expectations_full)
    diag = Diagnostics(
        e=0,
        path=(),
        alpha=None,
        x=None,
        millis=(perf_counter() - t0) * 1000.0,
        backend=options.backend,
        kept_rows=kept_rows,
        kept_cols=kept_cols,
    )
    result = EvalResult(z, expectations_full, gradients, diag)
    if options.oracle:
        _cross_check(result, reduced, kept_rows, kept_cols, options)
    return result


def _empty_result(problem, options, t0):
    r1, r2 = len(problem.row_sums), len(problem.col_sums)
    zero = 0.0 if options.backend == "float" else rat(0)
    one = 1.0 if options.backend == "float" else rat(1)
    gradients = tuple(tuple(() for _ in range(r2)) for _ in range(r1)) if options.gradients else None
    diag = Diagnostics(
        e=0,
        path=(),
        alpha=None,
        x=None,
        millis=(perf_counter() - t0) * 1000.0,
        backend=options.backend,
        kept_rows=(),
        kept_cols=(),
    )
    return EvalResult(
        one,
        tuple(tuple(zero for _ in range(r2)) for _ in range(r1)),
        gradients,
        diag,
    )


def _float_rows(matrix):
    return [[as_float(v) for v in row] for row in matrix.rows]


def _transport(path, alpha_start, x, sbar, backend):
    """Fold the shift steps over the series vector.

    Returns (vector, digits): `digits` is None on the exact backend; on the
    float backend it is the base-10 span between the largest and smallest
    magnitude the running vector reaches along the path — a direct bound on
    how much precision a recessive solution can lose in binary64.
    """
    from math import log10

    cur = alpha_start
    k = alpha_start.shape.k
    if backend != "float":
        for step in path:
            if step.direction > 0:
                sbar = shift_up_series(cur, x, step.index, sbar)
            else:
                sbar = shift_down_series(cur, x, step.index, sbar)
            cur = step.alpha_after
        return sbar, None

    sbar = GMVector(sbar.labels, tuple(as_float(v) for v in sbar.entries))
    hi = lo = max(abs(v) for v in sbar.entries) or 1.0
    for step in path:
        i = step.index
        if step.direction > 0:
            c = contiguity_matrix(cur, x, i)
            out = linalg.matvec(_float_rows(c), list(sbar.entries))
            if i > k:
                scale = 1.0 / (cur[i] + 1)
                out = [v * scale for v in out]
            sbar = GMVector(c.row_labels, tuple(out))
        else:
            c = contiguity_matrix(step.alpha_after, x, i)
            out = linalg.solve(_float_rows(c), list(sbar.entries))
            if i > k:
                out = [v * cur[i] for v in out]
            sbar = GMVector(c.col_labels, tuple(out))
        cur = step.alpha_after
        mag = max(abs(v) for v in sbar.entries)
        if mag:
            hi = max(hi, mag)
            lo = min(lo, mag)
    digits = log10(hi / lo) if lo > 0 else float("inf")
    return sbar, digits


def _cross_check(result, reduced, kept_rows, kept_cols, options):
    """Compare against the enumeration oracles; any mismatch is a hard error."""
    oz = oracle_Z(reduced.row_sums, reduced.col_sums, reduced.probs)
    oe = oracle_E(reduced.row_sums, reduced.col_sums, reduced.probs)
    r1, r2 = len(result.expectations), len(result.expectations[0])
    oe_full = _embed_matrix(oe, kept_rows, kept_cols, r1, r2, rat(0))
    if options.backend == "exact":
        ok = result.Z == oz and result.expectations == oe_full
    else:
        def close(a, b):
            b = as_float(b) if not isinstance(b, float) else b
            return abs(a - b) <= 1e-9 * max(1.0, abs(b))

        ok = close(result.Z, oz) and all(
            close(result.expectations[i][j], oe_full[i][j])
            for i in range(r1)
            for j in range(r2)
        )
    if not ok:
        raise InternalCheckError(
            f"oracle cross-check failed: pipeline Z={result.Z}, oracle Z={oz}"
        )
    result.diagnostics.oracle = {"match": True, "z": oz, "expectations": oe_full}


def evaluate(problem, options=None):
    """Run the full pipeline on a table problem; see the module docstring."""
    options = options or EvalOptions()
    t0 = perf_counter()
    reduced, kept_rows, kept_cols = _strip(problem)
    if not kept_rows or not kept_cols:
        return _empty_result(problem, options, t0)
    if len(reduced.row_sums) == 1 or len(reduced.col_sums) == 1:
        return _single_table_result(problem, reduced, kept_rows, kept_cols, options, t0)

    alpha, x, u0, prefactor = map_problem(reduced)
    vanishing = check_in_X(x)
    if vanishing:
        raise XNotGenericError(vanishing)
    path = build_path(alpha)
    shape = alpha.shape
    sbar = gm_vector_S(initial_alpha(shape), x)
    sbar, range_digits = _transport(path, initial_alpha(shape), x, sbar, options.backend)

    s_val = sbar.entries[0]
    if s_val == 0:
        raise PreconditionError(
            "transported value entry is zero (float underflow or invalid input)"
        )
    if options.backend == "float":
        z = as_float(prefactor) * s_val
    else:
        z = prefactor * s_val
    e_red = expectations(sbar, alpha, x, u0)
    gradients = None
    if options.gradients:
        psi = psi_all(alpha, x)
        cast = as_float if options.backend == "float" else None
        g_red = expectation_gradients(sbar, psi, alpha, x, u0, cast=cast)
    r1, r2 = len(problem.row_sums), len(problem.col_sums)
    zero = 0.0 if options.backend == "float" else rat(0)
    e_full = _embed_matrix(e_red, kept_rows, kept_cols, r1, r2, zero)
    if options.gradients:
        gradients = _embed_gradients(g_red, kept_rows, kept_cols, r1, r2)
    diag = Diagnostics(
        e=len(path),
        path=tuple((s.index, s.direction) for s in path),
        alpha=alpha,
        x=x,
        millis=(perf_counter() - t0) * 1000.0,
        backend=options.backend,
        kept_rows=kept_rows,
        kept_cols=kept_cols,
        dynamic_range_digits=range_digits,
    )
    result = EvalResult(z, e_full, gradients, diag)
    if options.oracle:
        _cross_check(result, reduced, kept_rows, kept_cols, options)
    diag.millis = (perf_counter() - t0) * 1000.0
    return result
