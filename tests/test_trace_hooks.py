"""The package names that perfbench/tracer.py reads.

The tracer wraps these functions by name and reports the lru_cache
statistics of the cached ones, so moving one, renaming it or dropping its
cache silently empties a per-layer benchmark metric.  Changing one of them
needs a matching change to the tracer.
"""

from functools import cached_property

import pytest

from hypgold import construction, hyperbola, oracles, points, regions
from hypgold.coding import PrimeCoding


@pytest.mark.parametrize("module, name", [
    (oracles, "sieve"),
    (points, "lower_value"),
    (regions, "enumerate_regions"),
    (points, "lower_essential_poly"),
])
def test_cached_functions_report_cache_info(module, name):
    info = getattr(module, name).cache_info()
    assert info.hits >= 0 and info.misses >= 0


@pytest.mark.parametrize("module, name", [
    (construction, "_poly_value"),
    (hyperbola, "classify_number"),
    (hyperbola, "classify_point"),
])
def test_wrapped_functions_live_in_their_layer(module, name):
    fn = getattr(module, name)
    assert callable(fn) and fn.__module__ == module.__name__


def test_identifies_primes_is_a_cached_property():
    prop = PrimeCoding.__dict__["identifies_primes"]
    assert isinstance(prop, cached_property) and callable(prop.func)


def test_main_calls_the_callback_the_table_holds_at_dispatch(monkeypatch, capsys):
    # tracer.install() rebinds each command's callback in cli.cli.commands,
    # after import: main must read it there on every call.  cli.cli itself is
    # no callable, so the tracer never wraps it in place of the table.
    from hypgold import cli

    command = cli.cli.commands["classify"]
    original, calls = command.callback, []

    def spy(**kwargs):
        calls.append(kwargs["k_text"])
        return original(**kwargs)

    monkeypatch.setattr(command, "callback", spy)
    assert cli.main(["classify", "--k", "91"]) == 0
    assert calls == ["91"] and '"kind": "composite_natural"' in capsys.readouterr().out
    assert not callable(cli.cli)


@pytest.mark.parametrize("flag, name", [("--json", "canonical_json"), ("--csv", "records_csv")])
def test_serializers_return_the_whole_output(monkeypatch, capsys, flag, name):
    # The tracer counts cli.output_bytes from the value canonical_json and
    # records_csv return, so each returns the whole output as one str, and
    # that str is exactly what the command prints.
    from hypgold import cli

    original, returned = getattr(cli, name), []

    def spy(*args):
        returned.append(original(*args))
        return returned[-1]

    monkeypatch.setattr(cli, name, spy)
    assert cli.main(["goldbach-check", "--alpha-range", "16..60", flag]) == 0
    assert len(returned) == 1 and type(returned[0]) is str
    assert capsys.readouterr().out == returned[0]
