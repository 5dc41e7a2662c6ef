"""Span bookkeeping: nesting, self time, and names the package lacks."""

from types import SimpleNamespace

from spans import Tracer


def test_self_time_excludes_children_and_missing_names_report_zero_calls():
    linalg = SimpleNamespace(solve=lambda rows, rhs: rhs)
    contiguity = SimpleNamespace()  # no contiguity_matrix
    engine = SimpleNamespace(
        shift_down_series=lambda v: linalg.solve(None, v),
        build_path=lambda alpha: [1, 2, 3],
    )
    tracer = Tracer()
    tracer.install({"engine": engine, "contiguity": contiguity, "linalg": linalg})

    def evaluate():
        engine.build_path(None)
        return engine.shift_down_series([3, 5])

    assert tracer.evaluate(7, evaluate) == [3, 5]
    layers = tracer.layers()
    assert layers["contiguity.matrix"][0] == 0 and layers["gauss_manin.psi"][0] == 0
    calls, total, own, _ = layers["contiguity.down"]
    assert calls == 1 and own <= total - layers["linalg.solve"][1] + 1e-12
    root = layers["engine.evaluate"]
    children = layers["contiguity.down"][1] + layers["engine.path"][1]
    assert abs(root[2] - (root[1] - children)) < 1e-9
    assert {s[4] for s in tracer.spans} == {7}
    summary = tracer.summary()
    assert summary["engine.path_len"] == 3 and summary["contiguity.down_steps"] == 1
    assert summary["contiguity.max_bits"] == 3 + 1  # 5 has 3 bits, its denominator 1 has 1
