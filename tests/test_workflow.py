"""The CI workflow parses, so GitHub runs its jobs.

A workflow that is not valid YAML fails before any job starts, and no
test in the jobs themselves can report it.
"""

import os

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        ".github", "workflows", "tests.yml")


def test_every_workflow_step_runs_a_command_or_an_action():
    with open(WORKFLOW, encoding="utf-8") as fh:
        workflow = yaml.safe_load(fh)
    jobs = workflow["jobs"]
    assert jobs
    for name, job in jobs.items():
        assert job["steps"], name
        for step in job["steps"]:
            assert "uses" in step or "run" in step, (name, step)
            if "run" in step:
                assert isinstance(step["run"], str), (name, step)
