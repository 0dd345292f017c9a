"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

They check that the output gate fails a corrupted input (negative
control), that traced call counts repeat exactly across two traced runs,
that the reported metrics are the ones BENCHMARK.json declares, that a
seed fixes the inputs, and that the benchmark refuses to run without the
program's sources.
"""
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _bench(workload, seed, trace, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_gate_fails_corrupted_cp3(tmp_path):
    from eqgenus.catalog import builtin
    from eqgenus.dataset import dataset_to_json

    payload = dataset_to_json(builtin("cp3-weighted").data)
    good = workloads.write_json(str(tmp_path / "cp3.json"), payload)
    payload["components"][0]["normals"][0]["weight"] = "-1"
    bad = workloads.write_json(str(tmp_path / "cp3-flipped.json"), payload)
    verdicts = {}
    for label, path in (("good", good), ("flipped", bad)):
        task = workloads.expand_vanishing_task(path, 16)
        [outcome], _ = run.run_pass([task], str(tmp_path), label, time.monotonic() + 120,
                                    False)
        verdicts[label] = (outcome.error, task.post_check())
    assert verdicts["good"] == (None, None)
    output_error, pole_error = verdicts["flipped"]
    assert output_error is not None and "nonzero" in output_error
    assert pole_error is not None and "survive" in pole_error


def test_traced_calls_repeat_exactly(declared):
    first = _result(_bench("numeric-checks", 5, 1))
    second = _result(_bench("numeric-checks", 5, 1))
    assert first["correct"] and second["correct"]
    calls = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")}
             for r in (first, second)]
    assert calls[0] == calls[1]
    assert set(calls[0]) == {name + ".calls" for name in tracer.SPAN_NAMES}
    assert calls[0]["theta.theta_numeric.calls"] > 0
    assert set(first["metrics"]) == {m["name"] for m in declared["per_layer"]}


def test_untraced_metrics_match_declaration(declared):
    res = _result(_bench("numeric-checks", 5, 0))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 4
    assert set(res["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())
    # every untraced command was timed between two calibration runs
    with open(os.path.join(run.WORK, "numeric-checks-seed5-trace0", "outcomes.json"),
              encoding="utf-8") as fh:
        passes = json.load(fh)["passes"]
    assert all(o["calib_s"] > 0 for p in passes for o in p)


def test_seed_fixes_inputs(tmp_path):
    dirs = []
    for i, seed in enumerate((7, 7, 8)):
        d = tmp_path / str(i)
        d.mkdir()
        tasks = workloads.build("expand-deep", seed, str(d))
        dirs.append((d, [t.name for t in tasks]))

    def files(d):
        return {p.name: p.read_text() for p in d.iterdir()}

    assert files(dirs[0][0]) == files(dirs[1][0])
    assert dirs[0][1] == dirs[1][1]
    cp3 = [json.loads(files(d)[name])["components"]
           for (d, _), name in zip(dirs[1:], ("cp3-seed-7.json", "cp3-seed-8.json"))]
    assert cp3[0] != cp3[1]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("expand-deep", 1, 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
