"""Workload definitions and their seeded problem streams.

A workload fixes the table shape, the margin total, the last row sum and
whether gradients are asked for.  Every drawn problem also has a first
column sum of at least (rows - 1).  Under those rules the shift path that
`tablehgm.engine.build_path` walks has the same number of up-steps and
down-steps for every problem of the workload (see `path_steps`), so the
spread between runs measures the program and not the size of the draw.

Weights are a/b with a and b in 1..9, kept as "a/b" strings: any build of
the package parses them exactly.  The stream itself never redraws; the
runner skips, untimed, the draws that the genericity check flags (run.py).
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    cols: int
    total: int
    last_row: int
    gradients: bool
    refit: bool  # one margin vector for the whole stream
    answers_per_s: float  # answered draws per second of --seconds
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cold-4x4", 4, 4, 32, 8, False, False, 0.68,
            "new 4x4 margins on every call, total 32, no gradients: transport "
            "is nearly all of the time and few x-independent factors repeat",
        ),
        Workload(
            "refit-4x4", 4, 4, 36, 9, True, True, 2.6,
            "one 4x4 margin vector and a new weight matrix per call, with "
            "gradients: the conditional-MLE pattern, served by the caches",
        ),
        Workload(
            "wide-4x5", 4, 5, 9, 2, True, False, 0.55,
            "distinct 4x5 margins at total 9 with gradients: rank 35 and a "
            "short path, so the work scales with rank and the connection",
        ),
    )
}


@dataclass(frozen=True)
class Draw:
    index: int
    row_sums: tuple
    col_sums: tuple
    weights: tuple  # rows of "a/b" strings


def path_steps(row_sums, col_sums):
    """(up, down) step counts of the path from the canonical start vector to
    the parameters of these margins, counted from the margins alone."""
    r1 = len(row_sums)
    first = col_sums[0]
    up = sum(c - 1 for c in col_sums[1:]) + max(0, first - (r1 - 1))
    down = max(0, (r1 - 1) - first) + sum(r - 1 for r in row_sums[:-1])
    return up, down


def _composition(rng, parts, total):
    """Uniform composition of total into `parts` positive integers."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return tuple(b - a for a, b in zip((0,) + tuple(cuts), tuple(cuts) + (total,)))


def _margins(rng, w):
    rows = _composition(rng, w.rows - 1, w.total - w.last_row) + (w.last_row,)
    while True:
        cols = _composition(rng, w.cols, w.total)
        if cols[0] >= w.rows - 1:
            return rows, cols


def _weights(rng, w):
    return tuple(
        tuple(f"{rng.randint(1, 9)}/{rng.randint(1, 9)}" for _ in range(w.cols))
        for _ in range(w.rows)
    )


def draws(w, seed, count):
    """The first `count` problems of the workload's stream for `seed`."""
    rng = random.Random(f"{w.name}/{seed}")
    fixed = _margins(rng, w) if w.refit else None
    seen = set()
    out = []
    for index in range(count):
        margins = fixed
        tries = 0
        while margins is None or (not w.refit and margins in seen):
            margins = _margins(rng, w)
            tries += 1
            if tries > 10_000:
                raise ValueError(f"{w.name}: not enough distinct margin vectors for {count} draws")
        seen.add(margins)
        out.append(Draw(index, margins[0], margins[1], _weights(rng, w)))
    return out


def warm_up_draws(w, seed):
    """Problems for the untimed warm-up call, the first call at the
    workload's shape: at the refit margins on a refit workload.  They come
    from a stream of their own, so the measured draws do not depend on them."""
    fixed = _margins(random.Random(f"{w.name}/{seed}"), w) if w.refit else None
    rng = random.Random(f"{w.name}/{seed}/warm-up")
    index = 0
    while True:
        rows, cols = fixed or _margins(rng, w)
        yield Draw(index, rows, cols, _weights(rng, w))
        index += 1
