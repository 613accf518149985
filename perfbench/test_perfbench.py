"""Smoke-size runs of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload runs once at the smoke sizes, untraced and traced, and must
print exactly the metrics BENCHMARK.json declares, each with its unit.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import run

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _result(capsys, workload, trace, seed=0, digests=None):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace)]
    assert run.main(argv, sizes=run.SMOKE, digests=digests) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(capsys, workload, trace):
    res = _result(capsys, workload, trace)
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if trace:
        # One traced pass: the layers' self times add up to the traced main call.
        layers = sum(res["metrics"][f"{layer}.self_s"]["value"] for layer in run.LAYERS)
        assert layers == pytest.approx(res["metrics"]["trace.main_s"]["value"], rel=1e-9)


def test_seeded_coding_passes_the_oracle(capsys):
    res = _result(capsys, "one-shot", 0, seed=7)
    assert res["correct"] is True and res["failed"] == 0


def test_corrupted_digest_counts_as_failure(capsys):
    digests = run.load_digests()
    command = run.make_workload("sweep", 0, run.SMOKE).commands[0]
    digests[" ".join(command.argv)] = "0" * 64
    res = _result(capsys, "sweep", 0, digests=digests)
    assert res["correct"] is False and res["failed"] == res["attempted"]


def test_oracle_rejects_a_wrong_answer():
    witnesses = [{"x": 1, "y": 91, "kind": "semi_vortex"}, {"x": 7, "y": 13, "kind": "vortex"}]
    right = {"k": "91", "kind": "composite_natural", "witnesses": witnesses}
    assert checks.check_classify(right, 91) == []
    assert checks.check_classify({**right, "kind": "prime"}, 91)


def test_probe_is_independent_of_hypgold():
    with open(run.PROBE, encoding="utf-8") as fh:
        assert "hypgold" not in fh.read().split('"""')[2]  # the code after the docstring
    assert run.run_probe() > 0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
