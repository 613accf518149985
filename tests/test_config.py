"""Run configuration: each field's validation, bad ER_* values, and a
non-finite tolerance from every source."""

import json

import pytest

from hypgold.cli import main
from hypgold.config import RunConfig, resolve_config
from hypgold.construction import GoldbachSpec
from hypgold.errors import DomainError


@pytest.mark.parametrize("fields, message", [
    ({"precision_bits": 52}, "precision_bits must be at least 53"),
    ({"precision_bits": 8193}, "precision_bits must be at most 8192"),
    ({"tolerance_rel": 0.0}, "tolerance_rel must be positive"),
    ({"tolerance_rel": -1e-9}, "tolerance_rel must be positive"),
    ({"tolerance_rel": float("inf")}, "tolerance_rel must be finite, got inf"),
    ({"mode": "decimal"}, "mode must be one of"),
    ({"output_format": "xml"}, "output_format must be one of"),
    ({"seed": True}, "seed must be of type int"),
], ids=["precision-52", "precision-8193", "tol-zero", "tol-negative", "tol-inf", "mode", "format", "seed-bool"])
def test_run_config_rejects(fields, message):
    with pytest.raises(DomainError, match=f"^{message}"):
        RunConfig(**fields)


@pytest.mark.parametrize("record, change, refused", [
    (RunConfig(), {"seed": 3}, {"precision_bits": 52}),
    (GoldbachSpec(alpha=18, lambda_sq={3: 2}), {"seed": 3}, {"alpha": 16}),
], ids=["RunConfig", "GoldbachSpec"])
def test_records_compare_and_copy_by_field(record, change, refused):
    fields = record.as_dict()
    assert list(fields) == list(record.FIELDS)
    assert record == type(record)(**fields) and record != record.replace(**change)
    assert record.replace(**change).as_dict() == {**fields, **change}
    assert record.as_dict() == fields  # the copy left the record as it was
    with pytest.raises(DomainError):
        record.replace(**refused)  # a copy is validated like a new record
    with pytest.raises(AttributeError):
        record.seed = 3
    assert repr(record).startswith(f"{type(record).__name__}(")


def test_run_config_accepts_a_huge_finite_tolerance():
    assert RunConfig(tolerance_rel=10 ** 400).tolerance_rel == 10 ** 400


@pytest.mark.parametrize("name, raw, message", [
    ("ER_SEED", "nine", r"^bad value for ER_SEED: 'nine'$"),
    ("ER_PRECISION", "1.5", r"^bad value for ER_PRECISION: '1.5'$"),
    ("ER_TOL", "tiny", r"^bad value for ER_TOL: 'tiny'$"),
    ("ER_TOL", "inf", "^tolerance_rel must be finite, got inf$"),
    ("ER_MODE", "decimal", "^mode must be one of"),
])
def test_environment_rejects(name, raw, message):
    with pytest.raises(DomainError, match=message):
        resolve_config(environ={name: raw})


@pytest.mark.parametrize("source", ["flag", "environment", "config-file"])
def test_non_finite_tolerance_exit_1(tmp_path, capsys, monkeypatch, source):
    # An infinite tolerance would print "tolerance_rel": Infinity, which is
    # not JSON, and build-g's junction-gap bound could never fail.
    monkeypatch.delenv("ER_TOL", raising=False)
    args = ["regions", "--k0", "17"]
    if source == "flag":
        args += ["--tol", "inf"]
    elif source == "environment":
        monkeypatch.setenv("ER_TOL", "inf")
    else:
        path = tmp_path / "cfg.json"
        path.write_text('{"tolerance_rel": 1e999}')
        args += ["--config", str(path)]
    rc = main(args)
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert json.loads(captured.err) == {"error": "DomainError",
                                        "message": "tolerance_rel must be finite, got inf"}
