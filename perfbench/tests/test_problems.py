"""The seeded streams are reproducible and every draw of a workload has the
same path length."""

from problems import WORKLOADS, draws, path_steps
from tablehgm import TableProblem, build_path, map_problem


def test_same_seed_same_problems():
    for w in WORKLOADS.values():
        assert draws(w, 5, 12) == draws(w, 5, 12)
        assert draws(w, 5, 12) != draws(w, 6, 12)
        assert draws(w, 5, 12)[:4] == draws(w, 5, 4)


def test_margins_follow_the_workload():
    for w in WORKLOADS.values():
        stream = draws(w, 3, 20)
        margins = {(d.row_sums, d.col_sums) for d in stream}
        assert len(margins) == (1 if w.refit else len(stream))
        for d in stream:
            assert (len(d.row_sums), len(d.col_sums)) == (w.rows, w.cols)
            assert sum(d.row_sums) == sum(d.col_sums) == w.total
            assert d.row_sums[-1] == w.last_row and min(d.row_sums + d.col_sums) >= 1


def test_path_steps_match_the_path_the_package_builds():
    for w in WORKLOADS.values():
        steps = {path_steps(d.row_sums, d.col_sums) for d in draws(w, 9, 10)}
        assert len(steps) == 1
        d = draws(w, 9, 1)[0]
        path = build_path(map_problem(TableProblem.of(d.row_sums, d.col_sums, d.weights))[0])
        up = sum(1 for s in path if s.direction > 0)
        assert (up, len(path) - up) == steps.pop()
