"""Tiny runs of every workload: they complete, check out exactly, do not
fail, and skip exactly the draws that the genericity check flags."""

import json
from pathlib import Path

import pytest

import run as bench
from problems import WORKLOADS, draws

BENCHMARK = json.loads((Path(bench.ROOT) / "BENCHMARK.json").read_text())


def flagged_share(report, workload, seed):
    from tablehgm import TableProblem, map_problem
    from tablehgm.minors import check_in_X

    stream = draws(workload, seed, report["attempted"] + report["screened"])
    flagged = 0
    for d in stream:
        x = map_problem(TableProblem.of(d.row_sums, d.col_sums, d.weights))[1]
        flagged += bool(check_in_X(x))
    return flagged / len(stream)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_completes_and_skips_only_non_generic_draws(name):
    workload = WORKLOADS[name]
    seed = 4
    report = bench.run(workload, seed, 2.0, traced=False)
    assert report["mismatches"] == 0 and not report["stopped_early"]
    assert report["attempted"] >= 1 and report["failed"] == 0
    assert report["screened_ratio"] == flagged_share(report, workload, seed)
    line = json.loads(bench.result_line(report, traced=False))
    assert line["correct"] and line["attempted"] == report["attempted"] and line["failed"] == 0
    assert all(line["metrics"][m["name"]]["value"] > 0 for m in BENCHMARK["end_to_end"])


def test_traced_run_reports_every_per_layer_metric():
    workload = WORKLOADS["wide-4x5"]
    plain = bench.run(workload, 4, 2.0, traced=False)
    report = bench.run(workload, 4, 2.0, traced=True)
    assert report["failed"] == 0
    assert report["screened_ratio"] == plain["screened_ratio"]
    metrics = json.loads(bench.result_line(report, traced=True))["metrics"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert metrics["screened_ratio"]["value"] == report["screened_ratio"]
    assert metrics["contiguity.up_steps"]["value"] > 0
    assert report["per_layer"]["gauss_manin.psi_s"] > 0


def test_benchmark_json_matches_the_printed_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for key, units in (("end_to_end", bench.END_TO_END_UNITS), ("per_layer", bench.PER_LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in BENCHMARK[key]} == units
