"""CLI surface: worked-example outputs, determinism, configuration
precedence, and the exit-code contract."""

import dataclasses
import gc
import hashlib
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import time
from enum import IntEnum
from fractions import Fraction
from typing import NamedTuple

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypgold
import hypgold.areas as areas_mod
import hypgold.cli as cli_mod
import hypgold.hyperbola as hyperbola_mod
import hypgold.points as points_mod
from hypgold.cli import main
from hypgold.coding import PrimeCoding, coding_from_json, coding_to_json, default_coding
from hypgold.config import RunConfig
from hypgold.construction import GoldbachSpec, build_goldbach, verify_continuity
from hypgold.errors import TheoremViolationError
from hypgold.numeric import BinaryFloat
from hypgold.oracles import goldbach_partitions_oracle, primes_in


def run(capsys, args):
    rc = main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_regions_17(capsys):
    rc, out, err = run(capsys, ["regions", "--k0", "17"])
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert payload["count"] == 7
    assert [(r["n"], r["n_prime"]) for r in payload["records"]] == [
        (2, 5), (2, 6), (2, 7), (2, 8), (3, 4), (3, 5), (4, 4),
    ]


def test_regions_18_types(capsys):
    rc, out, _ = run(capsys, ["regions", "--k0", "18"])
    payload = json.loads(out)
    types = {(r["n"], r["n_prime"]): r["type"] for r in payload["records"]}
    assert types[(2, 9)] == "T2" and types[(3, 6)] == "T2"
    assert types[(2, 6)] == "T5" and types[(3, 4)] == "T5"
    assert types[(4, 4)] == "T7"


def test_regions_deterministic_bytes(capsys):
    rc1, out1, _ = run(capsys, ["regions", "--k0", "44"])
    rc2, out2, _ = run(capsys, ["regions", "--k0", "44"])
    assert rc1 == rc2 == 0
    assert out1 == out2


# Each command's arguments and the CSV header of its records.
ENVELOPE_CASES = {
    "regions": (["--k0", "17"], "n,n_prime,type"),
    "areas": (["--k0", "17", "--k", "35/2"], "n,n_prime,type,area,d1,d2,hat_area"),
    "points": (["--alpha", "18"], "k0,x,y"),
    "goldbach-check": (["--alpha-range", "16..20"],
                       "alpha,k0_list,sieve_window,sieve_outside_window,sieve_agreement"),
    "build-g": (["--alpha", "18"], "alpha,seed,max_junction_gap,coding_file"),
    "scalar-limit": (["--alpha", "18", "--u", "1e-1,1e-2"], "u,k0,x_k0,y_k0"),
    "classify": (["--k", "91"], "x,y,kind"),
}


@pytest.mark.parametrize("command", sorted(ENVELOPE_CASES))
def test_every_command_writes_one_envelope(tmp_path, capsys, monkeypatch, command):
    # emit writes the command name and the resolved configuration around
    # every JSON payload; a CSV carries the records alone.
    for name in [k for k in os.environ if k.startswith("ER_")]:
        monkeypatch.delenv(name)
    args, header = ENVELOPE_CASES[command]
    args = [command, *args]
    if command == "build-g":
        args += ["--out", str(tmp_path / "coding.json")]
    rc, out, err = run(capsys, args)
    assert (rc, err) == (0, "")
    payload = json.loads(out)
    assert payload["command"] == command
    assert payload["config"] == RunConfig().as_dict()
    rows = payload.get("records") or payload.get("witnesses") or [payload]
    envelope = {"command", "config"} if command == "build-g" else set()
    assert set(header.split(",")) == set(rows[0]) - envelope
    rc, out, err = run(capsys, [*args, "--csv"])
    assert (rc, err) == (0, "")
    assert out.splitlines()[0] == header


def test_regions_csv(capsys):
    rc, out, _ = run(capsys, ["regions", "--k0", "18", "--csv"])
    lines = out.strip().splitlines()
    assert lines[0] == "n,n_prime,type"
    assert len(lines) == 9


def test_classify_prime(capsys):
    rc, out, _ = run(capsys, ["classify", "--k", "17"])
    payload = json.loads(out)
    assert rc == 0
    assert payload["kind"] == "prime"
    assert payload["witnesses"] == [{"x": 1, "y": 17, "kind": "semi_vortex"}]


def test_classify_composite(capsys):
    rc, out, _ = run(capsys, ["classify", "--k", "12"])
    payload = json.loads(out)
    assert payload["kind"] == "composite_natural"
    assert {(w["x"], w["y"]) for w in payload["witnesses"]} == {(1, 12), (2, 6), (3, 4)}


def test_classify_walks_each_lattice_point_once(capsys, monkeypatch):
    calls = []
    original = hyperbola_mod._jump_kind

    def spy(c, k, x, y):
        calls.append((x, y))
        return original(c, k, x, y)

    monkeypatch.setattr(hyperbola_mod, "_jump_kind", spy)
    rc, out, _ = run(capsys, ["classify", "--k", "12"])
    assert rc == 0 and json.loads(out)["kind"] == "composite_natural"
    assert len(calls) == 3  # (1, 12), (2, 6), (3, 4)


def test_classify_non_natural(capsys):
    rc, out, _ = run(capsys, ["classify", "--k", "15/2"])
    assert json.loads(out)["kind"] == "non_natural"


def test_areas_command(capsys):
    rc, out, _ = run(capsys, ["areas", "--k0", "18", "--k", "37/2"])
    payload = json.loads(out)
    assert rc == 0
    by_cell = {(r["n"], r["n_prime"]): r for r in payload["records"]}
    t2 = by_cell[(2, 9)]
    assert abs(float(t2["area"]) - 0.006881022480117189) < 1e-12
    assert t2["hat_area"] == t2["area"]  # identity coding by default


@pytest.mark.parametrize("k0, k", [("5", "4"), ("18", "30"), ("18", "191/10")])
def test_areas_k_outside_the_interval_exit_1(capsys, k0, k):
    rc, out, err = run(capsys, ["areas", "--k0", k0, "--k", k])
    assert rc == 1 and out == ""
    assert json.loads(err) == {
        "error": "DomainError",
        "message": f"--k must lie in [k0, k0+1] = [{k0}, {int(k0) + 1}], got {k}",
    }


@pytest.mark.parametrize("k", ["18", "19"])
def test_areas_at_either_endpoint(capsys, k):
    rc, out, _ = run(capsys, ["areas", "--k0", "18", "--k", k])
    assert rc == 0
    assert len(json.loads(out)["records"]) == 8


def test_areas_evaluates_each_region_once(capsys, monkeypatch):
    calls = []
    original = areas_mod.area_closed

    def spy(rtype, n, n_prime, *args, **kwargs):
        calls.append((n, n_prime))
        return original(rtype, n, n_prime, *args, **kwargs)

    monkeypatch.setattr(areas_mod, "area_closed", spy)
    rc, out, _ = run(capsys, ["areas", "--k0", "400", "--k", "400.5"])
    assert rc == 0
    assert calls == [(r["n"], r["n_prime"]) for r in json.loads(out)["records"]]


def test_points_command(capsys):
    rc, out, _ = run(capsys, ["points", "--alpha", "18"])
    payload = json.loads(out)
    assert rc == 0
    first = payload["records"][0]
    # Default coding for alpha=18 has max index 16: xi_2 = 9/8, x_4 = 81/128.
    assert first["k0"] == 4 and first["x"] == "81/128"
    assert all(Fraction(r["y"]) < 0 for r in payload["records"])


def test_goldbach_check(capsys):
    rc, out, _ = run(capsys, ["goldbach-check", "--alpha-range", "16..60"])
    payload = json.loads(out)
    assert rc == 0 and payload["all_agree"]
    rec18 = next(r for r in payload["records"] if r["alpha"] == 18)
    assert rec18["k0_list"] == [5, 7]
    assert rec18["sieve_agreement"] is True
    assert "timing_ms" not in rec18


def test_goldbach_check_scans_each_alpha_once(capsys, monkeypatch):
    asked = []

    def counted(alpha):
        asked.append(alpha)
        return goldbach_partitions_oracle(alpha)

    monkeypatch.setattr(points_mod, "goldbach_partitions_oracle", counted)
    rc, out, _ = run(capsys, ["goldbach-check", "--alpha-range", "16..60"])
    assert rc == 0
    # One scan per alpha; the record reuses the report the reconciliation used.
    assert asked == [r["alpha"] for r in json.loads(out)["records"]] == list(range(16, 61, 2))


def test_goldbach_check_timing_flag(capsys):
    rc, out, _ = run(capsys, ["goldbach-check", "--alpha-range", "18..20", "--timing"])
    payload = json.loads(out)
    assert rc == 0
    assert all("timing_ms" in r for r in payload["records"])


def test_goldbach_check_prints_a_spoiled_repeat_bit(capsys, monkeypatch):
    # R[7] cleared, in both copies, after the table recorded its facts: each
    # alpha with the partition 7 + (alpha - 7) disagrees with the sieve and
    # gets its full record, and the command exits 2.  The digest is of the
    # bytes printed when the reconciliation compared two partition lists.
    record = points_mod.PointTable.record

    def spoiled(self, top):
        record(self, top)
        self.repeats &= ~(1 << 7)
        self.mirror &= ~(1 << (self.top + 5 - 7))

    monkeypatch.setattr(points_mod.PointTable, "record", spoiled)
    rc, out, err = run(capsys, ["goldbach-check", "--alpha-range", "16..40"])
    assert rc == 2
    assert json.loads(err) == {"error": "TheoremViolationError",
                               "message": "characterization disagreed with the sieve"}
    records = json.loads(out)["records"]
    assert [r["alpha"] for r in records if not r["sieve_agreement"]] == [18, 20, 24, 26, 30, 36, 38]
    assert records[1] == {
        "alpha": 18,
        "error": "characterization/sieve mismatch at alpha=18: points gave [5], sieve gives [5, 7]",
        "k0_list": [], "sieve_agreement": False, "sieve_outside_window": [], "sieve_window": [5, 7],
    }
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "37c698cb30526bbbc17ac80f65f92bc57466abfdbca5056fbf387a59a02f0efc")


def _dipped(max_index, at):
    """The default coding through max_index with xi_at lowered to xi_{at-1}."""
    slopes = list(default_coding(max_index).slopes)
    slopes[at] = slopes[at - 1]
    return PrimeCoding(slopes=tuple(slopes))


@pytest.mark.parametrize("coding, alpha_range, payload", [
    # Each payload is the one the per-alpha loop printed: the error of the
    # first alpha the coding fails, not of the last.
    pytest.param(default_coding(40), "16..60",
                 ("RangeError", "coding defines slopes through 40, need index 41"), id="short"),
    pytest.param(_dipped(60, 20), "16..60",
                 ("DomainError", "essential points need slopes strictly increasing through 20"),
                 id="not-strict"),
    pytest.param(_dipped(44, 21), "16..60",
                 ("DomainError", "essential points need slopes strictly increasing through 21"),
                 id="not-strict-before-short"),
    pytest.param(_dipped(40, 30), "16..70",
                 ("RangeError", "coding defines slopes through 40, need index 41"),
                 id="short-before-not-strict"),
])
def test_goldbach_check_prints_the_first_alphas_coding_error(tmp_path, capsys, coding,
                                                              alpha_range, payload):
    path = tmp_path / "coding.json"
    path.write_text(json.dumps(coding_to_json(coding)))
    rc, out, err = run(capsys, ["goldbach-check", "--alpha-range", alpha_range,
                                "--coding", str(path)])
    assert (rc, out) == (1, "")
    assert json.loads(err) == dict(zip(("error", "message"), payload))


@pytest.mark.parametrize("workers", ["2", "5000"])
def test_goldbach_check_workers_match(capsys, monkeypatch, workers):
    # --workers is checked and accepted; the sweep starts no process.
    rc1, out1, _ = run(capsys, ["goldbach-check", "--alpha-range", "16..40"])

    def no_fork():
        raise AssertionError("goldbach-check forked a process")

    monkeypatch.setattr(os, "fork", no_fork)
    rc2, out2, _ = run(capsys, ["goldbach-check", "--alpha-range", "16..40",
                                "--workers", workers])
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_build_g_writes_verifiable_coding(tmp_path, capsys):
    target = tmp_path / "coding.json"
    rc, out, _ = run(capsys, ["build-g", "--alpha", "18", "--seed", "1",
                              "--out", str(target)])
    assert rc == 0
    report = json.loads(out)
    assert float(report["max_junction_gap"]) <= 1e-9
    stored = json.loads(target.read_text())
    coding = coding_from_json(stored)
    assert coding.mode == "float"
    cc = build_goldbach(GoldbachSpec(alpha=18, seed=1))
    assert verify_continuity(cc) <= 1e-9
    assert all(a == b for a, b in zip(coding.slopes, cc.prime_coding.slopes))


def test_build_g_coding_passes_goldbach_check(tmp_path, capsys):
    # At alpha 410, seed 0, x_404 and x_405 differ by a relative 8.5e-10: a
    # tolerance of 1e-9 read that as a repeat and failed the check.
    target = tmp_path / "coding.json"
    rc, _, _ = run(capsys, ["build-g", "--alpha", "410", "--out", str(target)])
    assert rc == 0
    rc, out, err = run(capsys, ["goldbach-check", "--coding", str(target),
                                "--alpha-range", "410..410"])
    assert (rc, err) == (0, "")
    assert json.loads(out)["all_agree"]


def test_build_g_refuses_slopes_that_round_together(tmp_path, capsys):
    # At 128 bits alpha 4396's squares still increase at index 2197, but
    # the rounded slopes xi_2196 and xi_2197 are equal, which the
    # characterization refuses: a precision shortfall, so exit 1.  At 256
    # bits the slopes stay apart and the written coding passes the check.
    target = tmp_path / "coding.json"
    rc, out, err = run(capsys, ["build-g", "--alpha", "4396", "--out", str(target)])
    assert (rc, out) == (1, "")
    payload = json.loads(err)
    assert payload["error"] == "DomainError"
    assert payload["message"] == "xi_2197 rounds to xi_2196 at 128 bits; raise --precision"
    assert not target.exists()
    rc, _, _ = run(capsys, ["build-g", "--alpha", "4396", "--precision", "256",
                            "--out", str(target)])
    assert rc == 0
    rc, out, err = run(capsys, ["goldbach-check", "--coding", str(target),
                                "--alpha-range", "4396..4396"])
    assert (rc, err) == (0, "")
    record, = json.loads(out)["records"]
    assert json.loads(out)["all_agree"]
    assert record["k0_list"] == list(goldbach_partitions_oracle(4396).inside_window)


def test_build_g_reports_a_256_bit_junction_gap(tmp_path, capsys):
    # The gap is measured at the construction's own precision: a 256-bit
    # build's gaps lie far below 2^-128 but are not zero.
    target = tmp_path / "coding.json"
    rc, out, _ = run(capsys, ["build-g", "--alpha", "102", "--seed", "5",
                              "--precision", "256", "--out", str(target)])
    assert rc == 0
    gap = json.loads(out)["max_junction_gap"]
    assert 0 < float(gap) < 2.0 ** -200
    assert json.loads(target.read_text())["max_junction_gap"] == gap


def test_build_g_csv(tmp_path, capsys):
    target = tmp_path / "coding.json"
    rc, out, _ = run(capsys, ["build-g", "--alpha", "18", "--out", str(target)])
    report = json.loads(out)
    rc_csv, out_csv, _ = run(capsys, ["build-g", "--alpha", "18", "--out", str(target),
                                      "--csv"])
    assert rc == rc_csv == 0
    assert out_csv == (f"alpha,seed,max_junction_gap,coding_file\n"
                       f"18,0,{report['max_junction_gap']},{target}\n")


def test_build_g_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, ["build-g", "--alpha", "24", "--seed", "5", "--out", str(a)])
    run(capsys, ["build-g", "--alpha", "24", "--seed", "5", "--out", str(b)])
    assert a.read_text() == b.read_text()


def test_scalar_limit_csv(capsys):
    rc, out, _ = run(capsys, ["scalar-limit", "--alpha", "18",
                              "--u", "1e-1,1e-2,1e-3", "--csv"])
    lines = out.strip().splitlines()
    assert rc == 0
    assert lines[0] == "u,k0,x_k0,y_k0"
    assert len(lines) == 1 + 3 * 5  # three u values, k0 = 4..8


def test_scalar_limit_failure_exit_2_with_payload(capsys):
    # A repeated u cannot approach 1 strictly: the sweep is not monotone.
    rc, out, err = run(capsys, ["scalar-limit", "--alpha", "18", "--u", "1e-3,1e-3"])
    assert rc == 2
    payload = json.loads(out)
    assert (payload["monotone"], payload["converged"]) == (False, False)
    assert len(payload["records"]) == 2 * 5
    assert json.loads(err)["error"] == "ConstructionFailureError"


def test_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ER_SEED", "9")
    target = tmp_path / "c.json"
    rc, out, _ = run(capsys, ["build-g", "--alpha", "18", "--out", str(target)])
    assert json.loads(out)["seed"] == 9


def test_config_file_and_flag_precedence(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5}))
    rc, out, _ = run(capsys, ["regions", "--k0", "17", "--config", str(cfg)])
    assert json.loads(out)["config"]["seed"] == 5
    monkeypatch.setenv("ER_SEED", "9")
    rc, out, _ = run(capsys, ["regions", "--k0", "17", "--config", str(cfg)])
    assert json.loads(out)["config"]["seed"] == 9
    rc, out, _ = run(capsys, ["regions", "--k0", "17", "--config", str(cfg),
                              "--seed", "3"])
    assert json.loads(out)["config"]["seed"] == 3


def test_usage_error_exit_1(capsys):
    rc, out, err = run(capsys, ["regions"])
    assert rc == 1
    payload = json.loads(err)
    assert "error" in payload and "message" in payload


def test_domain_error_exit_1(capsys):
    rc, out, err = run(capsys, ["regions", "--k0", "3"])
    assert rc == 1
    assert "error" in json.loads(err)


@pytest.mark.parametrize("command, message", [
    pytest.param(["classify", "--k", "1"], "classification needs k > 1", id="classify-k-1"),
    pytest.param(["classify", "--k", "7", "--coding", "ALTERNATING"],
                 "number classification needs a coding that identifies primes",
                 id="classify-coding-not-identifying-primes"),
    pytest.param(["build-g", "--alpha", "18", "--xi-half", "0"],
                 "xi_half_sq must be positive", id="build-g-xi-half-0"),
    # The run configuration refuses a precision past the ceiling before any
    # command runs; at 16384 bits build-g would build the whole construction
    # and then fail to write its coding file.
    pytest.param(["points", "--alpha", "40", "--mode", "float", "--precision", "100000000"],
                 "precision_bits must be at most 8192", id="points-precision-1e8"),
    pytest.param(["build-g", "--alpha", "30", "--precision", "16384"],
                 "precision_bits must be at most 8192", id="build-g-precision-16384"),
])
def test_domain_errors_exit_1_with_payload(tmp_path, capsys, command, message):
    # Slopes 1, 2, 1, 2, ...: xi_0 xi_1 = xi_1 xi_2, so the coding does not identify primes.
    coding = tmp_path / "alternating.json"
    coding.write_text(json.dumps({"slopes": [str(1 + i % 2) for i in range(20)]}))
    command = [str(coding) if arg == "ALTERNATING" else arg for arg in command]
    rc, out, err = run(capsys, command + ["--out", str(tmp_path / "out.json")])
    assert rc == 1 and out == ""
    assert json.loads(err) == {"error": "DomainError", "message": message}
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", [
    pytest.param(["build-g", "--alpha", "18", "--precision", "2200"], id="build-g-wide-slopes"),
    pytest.param(["classify", "--k", "7" * 641], id="classify-wide-k"),
])
def test_values_beyond_the_digit_limit_exit_1(tmp_path, capsys, low_digit_limit, command):
    # At 2200 bits the constructed slopes have denominators of 663 digits.
    rc, out, err = run(capsys, command + ["--out", str(tmp_path / "out.json")])
    assert rc == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "DomainError"
    assert "640-digit limit" in payload["message"] and len(payload["message"]) < 100


@pytest.mark.parametrize("k, n", [
    pytest.param("1e18", 10 ** 18 + 1, id="memory-error"),
    pytest.param("1e19", 10 ** 19 + 1, id="overflow-error"),
    pytest.param("10000000000000000000", 10 ** 19 + 1, id="overflow-error-digits"),
])
def test_a_k_past_the_default_codings_memory_exits_1(capsys, k, n):
    # The tuple of N + 1 slopes cannot be allocated: a RangeError naming N.
    rc, out, err = run(capsys, ["classify", "--k", k])
    assert rc == 1 and out == ""
    assert json.loads(err) == {
        "error": "RangeError",
        "message": f"a default coding with N = {n} does not fit in memory",
    }


def test_a_k_past_memory_and_the_digit_limit_names_no_digits(capsys, low_digit_limit):
    # N = 10**640 + 1 has 641 digits, one more than str() may print.
    rc, out, err = run(capsys, ["classify", "--k", "1e640"])
    assert rc == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "RangeError"
    assert payload["message"].startswith("a default coding with N = <a number beyond the 640-digit")


_DEEP = "[" * 100_000 + "]" * 100_000  # nested past the JSON parser's recursion limit


@pytest.mark.parametrize("option, content", [
    pytest.param("--coding", b'{"slopes": ["1", "2"', id="coding-truncated"),
    pytest.param("--coding", _DEEP.encode(), id="coding-nested-too-deep"),
    pytest.param("--coding", b"\xff\xfe", id="coding-not-utf8"),
    pytest.param("--coding", b'[1, 2, 3]', id="coding-not-object"),
    pytest.param("--coding", b'{"slopes": "123"}', id="coding-slopes-string"),
    pytest.param("--coding", b'{"slopes": ["1", "2"], "mode": "float", "precision": "abc"}',
                 id="coding-precision-string"),
    pytest.param("--coding", b'{"slopes": ["1", "2"], "mode": "float", "precision": 8}',
                 id="coding-precision-8"),
    pytest.param("--coding", b'{"slopes": ["1", "2"], "mode": "float", "precision": 100000000}',
                 id="coding-precision-1e8"),
    pytest.param("--config", b'{"seed": 1', id="config-truncated"),
    pytest.param("--config", _DEEP.encode(), id="config-nested-too-deep"),
    pytest.param("--config", b'{"tolerance_rel": "x"}', id="config-tol-string"),
    pytest.param("--config", b'{"precision_bits": "x"}', id="config-precision-string"),
    pytest.param("--config", b'{"precision_bits": 100000000}', id="config-precision-1e8"),
    pytest.param("--config", b'{"seed": "x"}', id="config-seed-string"),
    pytest.param("--config", b'[1, 2]', id="config-not-object"),
    pytest.param("--config", b'{"seed": 1, "colour": "red"}', id="config-unknown-key"),
])
@pytest.mark.parametrize("command", [["areas", "--k0", "18", "--k", "37/2"],
                                     ["classify", "--k", "91"]], ids=["areas", "classify"])
def test_malformed_input_file_exit_1(tmp_path, capsys, option, content, command):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    rc, out, err = run(capsys, command + [option, str(path)])
    assert rc == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "DomainError"


@pytest.mark.parametrize("alpha_range", ["abc", "30..20", "1..10"])
def test_bad_alpha_range_exit_1(capsys, alpha_range):
    rc, out, err = run(capsys, ["goldbach-check", "--alpha-range", alpha_range])
    assert rc == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "UsageError"


def _cli_with_address_limit(cwd, limit: int, *args, timeout: float = 60):
    """``python -m hypgold ARGS`` in a fresh process whose address space is capped at ``limit`` bytes."""
    def cap():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = os.path.dirname(os.path.dirname(hypgold.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "hypgold", *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=timeout, preexec_fn=cap)


_SLOPES = ", ".join(map(str, range(1, 20)))


def _pden_file() -> str:
    """Slope m is m + 1/p_m, p_m the m-th prime, for m = 0..12000: 226 KB.

    The lcm of its denominators is 184,277 bits wide.
    """
    primes = primes_in(2, 130_000)[:12_001]
    return json.dumps({"slopes": [f"{m * p + 1}/{p}" for m, p in enumerate(primes)]})


def _digit_limit_error(what: str) -> dict:
    return {"error": "DomainError", "message": f"cannot parse a number of {what} characters: "
            f"beyond the {sys.get_int_max_str_digits()}-digit limit of Python's int/str "
            "conversion"}


@pytest.mark.parametrize("argv, files", [
    pytest.param(["classify", "--k", "13", "--coding", "deep.json"], {"deep.json": _DEEP},
                 id="deep-coding-file"),
    pytest.param(["classify", "--k", "13", "--config", "deep.json"], {"deep.json": _DEEP},
                 id="deep-config-file"),
    pytest.param(["classify", "--k", "1e100000"], {}, id="k-1e100000"),
    pytest.param(["classify", "--k", "1000000000000000000"], {}, id="k-10-to-18"),
    pytest.param(["points", "--alpha", "40", "--mode", "float", "--precision", "100000000"], {},
                 id="points-precision-1e8"),
    pytest.param(["build-g", "--alpha", "30", "--precision", "100000000"], {},
                 id="build-g-precision-1e8"),
    pytest.param(["goldbach-check", "--alpha-range", "16..16", "--precision", "100000000",
                  "--mode", "float"], {}, id="goldbach-check-precision-1e8"),
    pytest.param(["classify", "--k", "13", "--coding", "nan.json"],
                 {"nan.json": '{"slopes": [NaN, ' + _SLOPES + "]}"}, id="coding-nan-slope"),
    pytest.param(["classify", "--k", "13", "--coding", "wide.json"],
                 {"wide.json": '{"slopes": [' + _SLOPES + '], "mode": "float", '
                               '"precision": 100000000}'}, id="coding-precision-1e8"),
    # Long and huge coding files, built when the case runs.
    pytest.param(["classify", "--k", "11989", "--coding", "pden.json"],
                 {"pden.json": _pden_file}, id="coding-12001-prime-denominators"),
    pytest.param(["classify", "--k", "13", "--coding", "ints.json"],
                 {"ints.json": lambda: '{"slopes": [' + ", ".join(map(str, range(1, 10 ** 6 + 1)))
                               + "]}"}, id="coding-10-to-6-integer-slopes"),
    pytest.param(["classify", "--k", "13", "--coding", "num.json"],
                 {"num.json": lambda: '{"slopes": ["1", "1' + "0" * 10 ** 6 + '"]}'},
                 id="coding-10-to-6-digit-numerator"),
    pytest.param(["classify", "--k", "13", "--coding", "den.json"],
                 {"den.json": lambda: '{"slopes": ["1", "2/1' + "0" * 10 ** 6 + '"]}'},
                 id="coding-10-to-6-digit-denominator"),
])
def test_hostile_inputs_exit_in_time_with_a_payload(tmp_path, argv, files):
    # Each command line runs in a child capped at 1.5 GB of address space
    # and 20 s: it must exit 0, 1 or 2, and a failure prints nothing on
    # stdout and one JSON error payload on stderr.
    for name, text in files.items():
        (tmp_path / name).write_text(text() if callable(text) else text)
    proc = _cli_with_address_limit(tmp_path, 1536 << 20, *argv, timeout=20)
    assert proc.returncode in (0, 1, 2)
    if proc.returncode:
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert set(json.loads(proc.stderr)) == {"error", "message"}
    # A slope past the int/str digit limit is refused as it is parsed.
    wide = {"num.json": "1000001", "den.json": "1000003"}.get(argv[-1])
    if wide:
        assert proc.returncode == 1 and json.loads(proc.stderr) == _digit_limit_error(wide)


def test_huge_alpha_range_is_refused_before_any_list(tmp_path):
    # 16..10^11 names 5*10^10 alphas.  The range is kept lazy, so the default
    # coding's RangeError comes back at once; a list of the alphas would
    # grow until the 2 GB address-space limit ends it with a MemoryError.
    start = time.perf_counter()
    proc = _cli_with_address_limit(tmp_path, 2 << 30, "goldbach-check",
                                   "--alpha-range", "16..100000000000")
    assert time.perf_counter() - start < 10
    assert proc.returncode == 1 and proc.stdout == ""
    assert json.loads(proc.stderr) == {
        "error": "RangeError",
        "message": "a default coding with N = 99999999996 does not fit in memory"}


def test_running_out_of_memory_exits_1_with_a_payload(tmp_path):
    # The float default coding for k = 10^7 + 1 holds 10^7 + 3 rational
    # slopes and then rounds them into a second tuple, more than a 512 MB
    # address space allows.  The MemoryError comes back as a payload naming
    # the command, not as a traceback.
    start = time.perf_counter()
    proc = _cli_with_address_limit(tmp_path, 512 << 20, "classify", "--k", "10000001",
                                   "--mode", "float")
    assert time.perf_counter() - start < 30
    assert proc.returncode == 1 and proc.stdout == ""
    assert json.loads(proc.stderr) == {"error": "MemoryError",
                                       "message": "the classify command ran out of memory"}


def test_a_rational_k_of_10_to_7_classifies_in_512_mb(tmp_path):
    # Each lattice point is decided at (d, k/d) from the slopes alone, so
    # classify keeps the 10^7 + 3 slopes and no table of their partial sums.
    proc = _cli_with_address_limit(tmp_path, 512 << 20, "classify", "--k", "10000001")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["kind"] == "composite_natural"


@pytest.mark.parametrize("argv, error", [
    # A value option takes the next token whatever it looks like, so a
    # negative value reaches the command's own domain check.
    (["scalar-limit", "--alpha", "18", "--u", "-1e-3"], "DomainError"),
    (["classify", "--k", "-3/2"], "DomainError"),
    # Option names match only in full.
    (["classify", "--kk", "91"], "UsageError"),
    (["points", "--alp", "40"], "UsageError"),
    (["goldbach-check", "--alpha", "16..20"], "UsageError"),
    # Values the option's type refuses.
    (["regions", "--k0", "x"], "BadParameter"),
    (["regions", "--k0", "17", "--mode", "decimal"], "BadParameter"),
    (["goldbach-check", "--alpha-range", "16..20", "--workers", "two"], "BadParameter"),
    (["build-g", "--alpha", "18", "--out", "."], "BadParameter"),
    # Command lines the parser cannot read.
    ([], "UsageError"),
    (["nope", "--k0", "17"], "UsageError"),
    (["regions"], "UsageError"),
    (["regions", "--k0"], "UsageError"),
    (["regions", "--k0", "17", "extra"], "UsageError"),
    (["regions", "--k0", "17", "--json=yes"], "UsageError"),
    # A missing input file is the reader's domain error.
    (["classify", "--k", "91", "--coding", "missing.json"], "DomainError"),
    (["regions", "--k0", "17", "--config", "missing.json"], "DomainError"),
])
def test_command_line_errors_exit_1(tmp_path, monkeypatch, capsys, argv, error):
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(capsys, argv)
    assert rc == 1 and out == ""
    assert json.loads(err)["error"] == error
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, same_as", [
    (["regions", "--k0=17"], ["regions", "--k0", "17"]),
    (["regions", "--k0", "16", "--k0", "17"], ["regions", "--k0", "17"]),
    (["regions", "--k0", "17", "--json", "--csv"], ["regions", "--k0", "17", "--csv"]),
    (["regions", "--k0", "17", "--csv", "--json"], ["regions", "--k0", "17"]),
    (["goldbach-check", "--alpha-range=16..20", "--workers=2", "--workers", "3"],
     ["goldbach-check", "--alpha-range", "16..20"]),
], ids=["equals-sign", "repeated-value", "csv-last", "json-last", "workers"])
def test_equivalent_command_lines_print_the_same_bytes(capsys, argv, same_as):
    assert run(capsys, argv) == run(capsys, same_as)


@pytest.mark.parametrize("command", [
    ["build-g", "--alpha", "18", "--scalar-u", "1.00000000000000000000000000000000000000001"],
    ["scalar-limit", "--alpha", "18", "--u", "1e-40"],
], ids=["build-g", "scalar-limit"])
def test_u_that_rounds_to_one_exit_1(capsys, command):
    # u > 1 exactly, but u^2 rounds to 1 at 128 bits: the input needs more
    # precision, which is a domain error, not a failed verification.
    rc, out, err = run(capsys, command)
    assert rc == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "DomainError"
    assert payload["message"] == "lambda_3^2 rounds to 1 at 128 bits; raise --precision"


@pytest.mark.parametrize("command", [["points", "--alpha", "18"], ["build-g", "--alpha", "18"]],
                         ids=["points", "build-g"])
def test_failed_write_exit_1(tmp_path, capsys, command):
    target = tmp_path / "missing" / "out.json"
    rc, out, err = run(capsys, command + ["--out", str(target)])
    assert rc == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "DomainError"
    assert str(target) in payload["message"]


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exit_1(capsys, workers):
    rc, out, err = run(capsys, ["goldbach-check", "--alpha-range", "16..20",
                                "--workers", workers])
    assert rc == 1 and out == ""
    assert json.loads(err)["error"] == "BadParameter"


@pytest.mark.parametrize("offset, precision", [(60, "53"), (200, "128"), (9000, "8192")])
def test_float_classify_reads_k_exactly(capsys, offset, precision):
    # k = 1000 + 2**-offset lies within half an ulp of 1000 at the coding's
    # precision; rounding it would classify 1000 instead.
    k = str(1000 + Fraction(1, 2 ** offset))
    kinds = []
    for mode in ("rational", "float"):
        rc, out, _ = run(capsys, ["classify", "--k", k, "--mode", mode,
                                  "--precision", precision])
        payload = json.loads(out)
        assert rc == 0 and payload["witnesses"] == []
        kinds.append(payload["kind"])
    assert kinds == ["non_natural", "non_natural"]


def test_verification_error_exit_2(capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise TheoremViolationError("forced failure for the exit-code contract")

    monkeypatch.setattr(cli_mod, "goldbach_sweep", explode)
    rc, out, err = run(capsys, ["goldbach-check", "--alpha-range", "18..18"])
    assert rc == 2
    assert json.loads(err)["error"] == "TheoremViolationError"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "regions.json"
    rc, _, _ = run(capsys, ["regions", "--k0", "17", "--out", str(target)])
    assert rc == 0
    assert json.loads(target.read_text())["count"] == 7


def test_classify_with_coding_file(tmp_path, capsys):
    path = tmp_path / "coding.json"
    path.write_text(json.dumps(coding_to_json(default_coding(40))))
    rc, out, _ = run(capsys, ["classify", "--k", "25", "--coding", str(path)])
    assert rc == 0
    assert json.loads(out)["kind"] == "composite_natural"


def _fresh_python(cwd, script, *args):
    """``python -c SCRIPT ARGS`` in a fresh process that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(hypgold.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", script, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120, check=True)


_SCIPY_FREE_RUN = """
import json
import sys
import time
import hypgold.cli
print([m for m in ('scipy', 'concurrent.futures', 'multiprocessing', 'csv', 'mpmath',
                   'hypgold.areas', 'hypgold.reference', 'click', 'dataclasses', 'inspect')
       if m in sys.modules])
sys.modules['scipy'] = None
from hypgold.cli import main
for args in sys.argv[1:]:
    rc = main(args.split())
    loaded = [m for m in ('mpmath', 'hypgold.areas', 'hypgold.reference') if m in sys.modules]
    print(json.dumps([rc, loaded]), file=sys.stderr)
"""


def test_cli_import_leaves_scipy_out(tmp_path):
    # scipy is a test-only dependency: the CLI neither imports it at start-up
    # nor needs it in any command.  The sweep runs in one process, so no
    # process-pool module is imported at start-up either, and csv loads only
    # when --csv asks for it.  Start-up loads no code that only the areas
    # command or the tests run: areas loads with its own command (run last
    # here, since a module stays loaded), and the reference oracles never.
    # No command loads mpmath: every value, the areas and their logarithms
    # included, is computed on int mantissas, and format_real prints it from
    # them.  The command line is read by the CLI's own table, so start-up
    # loads neither click nor dataclasses, nor the inspect module both import.
    commands = [
        "regions --k0 17",
        "points --alpha 40",
        "points --alpha 40 --mode float",
        "goldbach-check --alpha-range 16..40",
        "goldbach-check --alpha-range 16..40 --workers 2",
        "goldbach-check --alpha-range 16..40 --mode float",
        "build-g --alpha 30 --out c.json",
        "scalar-limit --alpha 30 --u 1e-1,1e-2,1e-3,1e-4,1e-5,1e-6",
        "classify --k 59",
        "classify --k 91",
        "classify --k 91 --mode float",
        "areas --k0 18 --k 37/2",
    ]
    proc = _fresh_python(tmp_path, _SCIPY_FREE_RUN, *commands)
    assert proc.stdout.splitlines()[0] == "[]"
    assert [json.loads(line) for line in proc.stderr.splitlines()] == (
        [[0, []]] * (len(commands) - 1) + [[0, ["hypgold.areas"]]])


# Every public name of the package, by its home module.  The paper's statements
# that no command evaluates live in reference; restatements of other tested
# code (points.eval_poly, regions_equal, upper_essential_poly,
# monotonicity_report, eval_G, curve_point) are deleted.
_PUBLIC_NAMES = {
    "coding": ["PrimeCoding", "coding_from_json", "coding_to_json", "default_coding"],
    "construction": ["ConstructedCoding", "GoldbachSpec", "F_term", "build_goldbach",
                     "build_lower", "build_upper", "free_indices", "is_in_N",
                     "junction_gaps", "scalar_limit_sweep", "verify_continuity"],
    "areas": ["AreaFormulaResult", "area_closed", "hat_area"],
    "errors": ["ChainViolationError", "ConstructionFailureError", "DomainError",
               "HypgoldError", "QuadratureError", "RangeError", "RegionMismatchError",
               "ScalingViolationError", "TheoremViolationError", "VerificationError"],
    "hyperbola": ["CurvePoint", "NumberKind", "PointKind", "classify_number",
                  "classify_point"],
    "reference": ["area_quadrature_oracle", "finite_difference_d1", "finite_difference_d2",
                  "geometric_region_oracle", "hat_AI_quadrature", "hat_strip_quadrature",
                  "oracle_region_set", "fhat", "fhat_one_sided", "hhat", "hhat_one_sided",
                  "hat_add", "hat_sub", "hat_mul", "hat_div", "identifies_naturals",
                  "reduced_form_check", "ScalingReport", "HOMOGENEITY_REL_TOL",
                  "ab_coefficients", "bounds_chain", "hat_AT_second_derivative",
                  "hat_lower_sweep"],
    "oracles": ["goldbach_partitions_oracle", "is_prime", "primes_in", "sieve"],
    "points": ["EssentialPoint", "EssentialPolynomial", "essential_points",
               "goldbach_characterization", "lower_essential_poly", "lower_value"],
    "regions": ["RegionType", "enumerate_regions"],
}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in _PUBLIC_NAMES.items()
                                          for n in names])
def test_every_public_name_resolves_to_its_home(module, name):
    assert name in hypgold.__all__ and name in dir(hypgold)
    home = importlib.import_module(f"hypgold.{module}")
    assert getattr(hypgold, name) is getattr(home, name)


_LAZY_IMPORT = """
import sys
import time
import hypgold
print([m for m in sys.modules if m.startswith('hypgold.')])
from hypgold import construction, oracles
print(construction.__name__, oracles.__name__)
"""


def test_package_exports_resolve_lazily(tmp_path):
    # import hypgold loads no layer; from-imports still reach the submodules.
    proc = _fresh_python(tmp_path, _LAZY_IMPORT)
    assert proc.stdout.splitlines() == ["[]", "hypgold.construction hypgold.oracles"]
    assert hypgold.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="'no_such_name'"):
        getattr(hypgold, "no_such_name")


_FREEZE_COUNT_AFTER = """
import gc
import sys
for name in sys.argv[1:]:
    __import__(name)
if 'hypgold' in sys.modules:
    sys.modules['hypgold'].goldbach_characterization
print(gc.get_freeze_count())
"""


def test_only_the_cli_freezes_its_start_up_heap(tmp_path):
    # A CLI process keeps its start-up objects until exit, so importing the
    # CLI moves them to the permanent generation.  The package and its layer
    # modules freeze nothing: a library importer keeps its own collections.
    cli_proc = _fresh_python(tmp_path, _FREEZE_COUNT_AFTER, "hypgold.cli")
    assert int(cli_proc.stdout) > 0
    library = _fresh_python(tmp_path, _FREEZE_COUNT_AFTER, "hypgold", "hypgold.points",
                            "hypgold.construction", "hypgold.hyperbola")
    assert int(library.stdout) == 0


def test_commands_freeze_nothing(capsys):
    # Only the import freezes: a command leaves an in-process caller's
    # garbage to the collector.
    frozen = gc.get_freeze_count()
    for _ in range(2):
        rc, _, _ = run(capsys, ["classify", "--k", "91"])
        assert rc == 0
        assert gc.get_freeze_count() == frozen


def test_no_hypgold_module_defines_a_dataclass():
    # A dataclass generates its methods' code at import, and the dataclasses
    # module imports inspect: records are NamedTuples or plain classes, the
    # ones that validate their fields on records.Record.
    found = set()
    for info in pkgutil.iter_modules(hypgold.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"hypgold.{info.name}")
        found.update(name for name, obj in vars(module).items()
                     if isinstance(obj, type) and dataclasses.is_dataclass(obj))
    assert found == set()


def _hypgold_cli(*args) -> bytes:
    """Stdout of ``python -m hypgold ARGS`` in a fresh process without ER_* variables."""
    src = os.path.dirname(os.path.dirname(hypgold.__file__))
    env = {k: v for k, v in os.environ.items() if not k.startswith("ER_")}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, "-m", "hypgold", *args], env=env,
                          capture_output=True, timeout=120, check=True).stdout


def test_float_output_digests_pinned(tmp_path):
    # The sha256 values perfbench/digests.json records for the same
    # commands: a change in how x_k0 rounds shows here without a bench run.
    coding = tmp_path / "build-g-coding.json"
    _hypgold_cli("build-g", "--alpha", "30", "--seed", "916", "--out", str(coding))
    assert hashlib.sha256(coding.read_bytes()).hexdigest() == (
        "66640ac551486cae86dd2ecf690a1ebf933410cb29d68fa6f9ca906b49e877e0")
    out = _hypgold_cli("scalar-limit", "--alpha", "30", "--u", "1e-1,1e-2,1e-3,1e-4,1e-5,1e-6")
    assert hashlib.sha256(out).hexdigest() == (
        "a9acd2ae808db9be31f9c85432cbe9ceac23e32d8031c23b0db6b6e4f25824be")


@pytest.mark.parametrize("args, digest", [
    ("--alpha 102 --seed 5 --precision 53",
     "40419211f312fb4fa5054d3adbd9c1bbdf7603f6f94b5b3f122c8df07a75c40f"),
    ("--alpha 102 --seed 5 --precision 256",
     "1674a17be8ea0f186b21b95b900db0b3b7226f9c8081b8c6749df21a84256a94"),
    ("--alpha 480 --seed 916",
     "ce160af10d577ca948401fe66207e6ae8761d1e801a4135dd958e5c99f6b873d"),
])
def test_float_construction_coding_digests_pinned(tmp_path, args, digest):
    # Float points and scalar-limit stdout carry 53 bits at most; the coding
    # file carries every bit of each slope, so a change in how any x_k0
    # rounds at 53, 128 or 256 bits shows here.  The 480 value is the one
    # perfbench/digests.json records.
    coding = tmp_path / "coding.json"
    _hypgold_cli("build-g", *args.split(), "--out", str(coding))
    assert hashlib.sha256(coding.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("args, digest", [
    ("areas --k0 400 --k 400.5",
     "3d5f625b802db463667f469a44cff3270153c33383b24eca5055c0673f93f604"),
    ("areas --k0 97 --k 97", "77a81ca49f1634085e1c6b277f18b6905fc84d6bebc4bab8bc0a632438c7bd5f"),
    ("areas --k0 18 --k 37/2 --precision 256",
     "5e30cbcd1ecb67dfe2fde9d295bd117dad2f6390754f7a3d8f473bc3334ffd49"),
])
def test_areas_digests_pinned(args, digest):
    # Each type's area, d1 and d2 at 128 and 256 bits, and at an integer k.
    assert hashlib.sha256(_hypgold_cli(*args.split())).hexdigest() == digest


@pytest.mark.parametrize("args, digest", [
    ("--alpha 36 --scalar-u 11/10",
     "612beb27c9f9c7be25d2194f229c851ac79fe143dc38acebf4c17f0ff554bf34"),
    ("--alpha 36 --xi2 3/2 --xi-half 40 --seed 2",
     "40858c038ecd811166a507be6678002a09ad42d2f8eb8aaa1951cc44989236c6"),
])
def test_build_g_coding_digests_pinned(tmp_path, args, digest):
    # The scalar family and a pinned upper seed, written byte for byte.
    coding = tmp_path / "coding.json"
    _hypgold_cli("build-g", *args.split(), "--out", str(coding))
    assert hashlib.sha256(coding.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("args, digest", [
    ("classify --k 42", "665258e058afc943cca91560cdd35e89f224ccc0bec45ad2913ed491aaed208e"),
    ("classify --k 59", "8e24da704bc3c3c773793a0329449a1a00fb61a06498786da49b85ff76d6cdda"),
    ("goldbach-check --alpha-range 16..40 --workers 1",
     "fffc5ac62c3be5f5411bf5ca0a63cc18c12565f3317143f48dad8e9e7dd1c0f7"),
    ("goldbach-check --alpha-range 16..30 --workers 2",
     "56a28e95045b51996a6af5bd83fa7f6a15218679cefd8058dedbf569a6744e5c"),
])
def test_classify_and_sweep_digests_pinned(args, digest):
    # The sha256 values perfbench/digests.json records for the same commands.
    assert hashlib.sha256(_hypgold_cli(*args.split())).hexdigest() == digest


@pytest.mark.parametrize("args, digest", [
    ("goldbach-check --alpha-range 16..2000 --workers 1",
     "594b13149fb96502ff33c423fea872f02789833e93eefa686ccd506913d4d4d6"),
    ("goldbach-check --alpha-range 16..2000 --workers 2",
     "594b13149fb96502ff33c423fea872f02789833e93eefa686ccd506913d4d4d6"),
    ("points --alpha 200 --mode float",
     "acd8d855808b1a93115e0766325e98f402a5989252a64540199c4f9802bcc9a9"),
])
def test_wide_sweep_and_float_points_digests_pinned(args, digest):
    # Sizes past the bench's: 827,301 bytes of sweep output, where the
    # window scans and the encoder's int-list path carry most of the bytes.
    assert hashlib.sha256(_hypgold_cli(*args.split())).hexdigest() == digest


# Each command's own options, in the order --help lists them.
_COMMAND_OPTIONS = {
    "regions": ["--k0", "--out"],
    "areas": ["--k0", "--k", "--coding", "--out"],
    "points": ["--alpha", "--coding", "--out"],
    "goldbach-check": ["--alpha-range", "--coding", "--workers", "--timing", "--out"],
    "build-g": ["--alpha", "--scalar-u", "--xi2", "--xi-half", "--out"],
    "scalar-limit": ["--alpha", "--u", "--xi2", "--out"],
    "classify": ["--k", "--coding", "--out"],
}
_SHARED_OPTIONS = ["--config", "--mode", "--precision", "--tol", "--seed", "--json", "--csv",
                   "--help"]


def test_help_exits_zero(capsys):
    rc, out, err = run(capsys, ["--help"])
    assert (rc, err) == (0, "")
    assert re.findall(r"(?m)^  (\S+)  ", out.split("Commands:")[1]) == list(_COMMAND_OPTIONS)


@pytest.mark.parametrize("command", list(_COMMAND_OPTIONS))
def test_command_help_names_every_option(capsys, command):
    # --help wins over values that would not parse.
    for argv in ([command, "--help"], [command, "--seed", "x", "--help"]):
        rc, out, err = run(capsys, argv)
        assert (rc, err) == (0, "")
        assert re.findall(r"(?m)^  (--[\w-]+)", out) == (
            _COMMAND_OPTIONS[command] + _SHARED_OPTIONS)


def _dumps(payload) -> str:
    return json.dumps(payload, default=cli_mod._scalar, sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"


_LEAVES = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from([-0.0, 1e300, float("nan"), float("inf"), float("-inf")])
           | st.text() | st.text(alphabet=st.characters(max_codepoint=0x20)) | st.text("é\u2028\ud800😀")
           | st.fractions()
           | st.builds(BinaryFloat, st.integers(-2**80, 2**80), st.integers(-200, 200)))
# What the commands build: dicts with str keys, lists and tuples, and the leaves above.
_PAYLOADS = st.recursive(
    _LEAVES | st.lists(st.integers()) | st.lists(st.integers() | st.booleans()),
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text(), inner)),
    max_leaves=30)


@given(_PAYLOADS)
@settings(max_examples=200, deadline=None)
def test_canonical_json_matches_json_dumps(payload):
    assert cli_mod.canonical_json(payload) == _dumps(payload)


@pytest.mark.parametrize("payload", [
    {}, [], (), {"a": []}, {"a": {}}, [[]], {"a": [True, 1, False]}, [1, True],
    {"k": [1, 2, -3, 10**30]}, {"x": [-0.0, 1e300, float("nan"), float("inf")]},
    {"3": "c", "-1": "a", "10": None}, {"s": "\x00\x1f\u00e9\U0001f600"},
    {"f": Fraction(-7, 3), "m": BinaryFloat(3602879701896397, -55),
     "t": (Fraction(1), BinaryFloat(2)), "b": BinaryFloat(-3, -1)},
    [[1, 2], [3, [4, []]], ({"z": 1, "a": [5]},)],
])
def test_canonical_json_matches_json_dumps_on_edges(payload):
    text = cli_mod.canonical_json(payload)
    assert isinstance(text, str)
    assert text == _dumps(payload)


# One key set whose values change type from record to record.
_MIXED = [1, True, None, 2.5, Fraction(-7, 3), [1, 2, 3], [1, True, 0], {"x": 1}, False, 0]


@pytest.mark.parametrize("payload", [
    {"records": [{"alpha": v, "list": w, "z": v} for v, w in zip(_MIXED, reversed(_MIXED))]},
    # One key tuple at two depths, either depth first.
    {"a": {"a": 1, "b": 2}, "b": [{"a": {"a": 1, "b": [2]}, "b": 3}, {"a": 4, "b": 5}]},
    [{"a": [{"a": 1, "b": 2}], "b": 0}, {"a": 1, "b": 2}],
    # Empty dicts, which are a shape too, beside non-empty ones at each depth.
    [{}, {"a": {}}, {"a": {"a": {}}}, {}, {"a": []}, {"a": {"a": 1}}],
    # One key set in either insertion order: two shapes, one sorted order.
    [{"b": 1, "a": 2}, {"a": 3, "b": 4}, {"b": {"a": 5, "b": 6}, "a": {"b": 7, "a": 8}}],
    # Tuples as values, and as the records themselves.
    ({"p": (1, Fraction(1, 2)), "q": {"b": 1, "a": 2}}, {"p": [1, 2], "q": {"b": 1, "a": 2}},
     ({"p": 1, "q": 2}, ())),
])
def test_canonical_json_matches_json_dumps_on_repeated_shapes(payload):
    assert cli_mod.canonical_json(payload) == _dumps(payload)


_RECORD_LISTS = st.lists(st.text(max_size=3), min_size=1, max_size=4, unique=True).flatmap(
    lambda keys: st.lists(st.fixed_dictionaries({key: _PAYLOADS for key in keys}),
                          min_size=2, max_size=6))


@given(_RECORD_LISTS)
@settings(max_examples=100, deadline=None)
def test_canonical_json_matches_json_dumps_on_same_keyed_records(records):
    assert cli_mod.canonical_json({"records": records}) == _dumps({"records": records})


class _Pair(NamedTuple):
    a: object
    b: object


class _SubDict(dict):
    pass


class _Level(IntEnum):
    LOW = 1


class _Real(float):
    pass


@pytest.mark.parametrize("value, name", [
    pytest.param({1: "a"}, "int", id="int-key"),
    pytest.param({True: "a"}, "bool", id="bool-key"),
    pytest.param({1.0: "a"}, "float", id="float-key"),
    pytest.param({None: "a"}, "NoneType", id="none-key"),
    pytest.param({"a": 1, 2: "b"}, "int", id="int-key-beside-str-keys"),
    pytest.param(_SubDict(a=1), "_SubDict", id="dict-subclass"),
    pytest.param(_Pair(1, 2), "_Pair", id="namedtuple"),
    pytest.param(_Level.LOW, "_Level", id="intenum"),
    pytest.param(_Real(0.5), "_Real", id="float-subclass"),
    pytest.param({1, 2}, "set", id="set"),
    pytest.param(mpmath.mpf("0.1"), "mpf", id="mpf"),
])
def test_canonical_json_refuses_what_no_command_builds(value, name):
    # Object names are str (RFC 8259, section 4), and only the exact types
    # the commands build are written, so nothing is printed as a guess.  A
    # record of the same depth written first leaves no cached shape to hit.
    with pytest.raises(TypeError, match=rf"\b{name}\b"):
        cli_mod.canonical_json({"records": [{"a": 1}, {"a": value}, value]})


def test_canonical_json_builds_each_record_shape_once(monkeypatch):
    record_shape, built = cli_mod._record_shape, []

    def spy(o, level):
        built.append((tuple(sorted(o)), level))
        return record_shape(o, level)

    monkeypatch.setattr(cli_mod, "_record_shape", spy)
    payload = {"records": [{"b": i, "a": [i]} for i in range(5)] + [{"a": {"a": 0, "b": 1}}]}
    assert cli_mod.canonical_json(payload) == _dumps(payload)
    # Heads are built on a shape's second sight, so a shape seen once builds none.
    assert built == [(("a", "b"), 2)]
    built.clear()
    cli_mod.canonical_json(payload)  # the cache lives for one call
    assert len(built) == 1


def test_canonical_json_writes_a_list_held_twice_from_one_text(monkeypatch):
    # A list of ints the payload holds twice at one depth is joined once;
    # the same list at another depth is joined again with that depth's indent.
    joined = []

    def spy_map(fn, *iterables):
        if fn is int.__repr__:
            joined.append(iterables[0])
        return map(fn, *iterables)

    monkeypatch.setattr(cli_mod, "map", spy_map, raising=False)
    xs, ys, three = [5, 7, 11], [3], [3]
    payload = {"records": [{"k0_list": xs, "sieve_window": xs, "other": ys},
                           {"k0_list": ys, "sieve_window": ys, "other": three}],
               "top": xs, "nested": [[xs, ys]]}
    assert cli_mod.canonical_json(payload) == _dumps(payload)
    # Keys in sorted order: nested (xs, ys at depth 3), records (all at
    # depth 3, only ``three`` new), top (xs at depth 1).
    assert list(map(id, joined)) == [id(xs), id(ys), id(three), id(xs)]
