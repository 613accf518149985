"""Every public name in the modules the commands load is run by some command.

A child process imports ``hypgold.cli``, notes the package modules that
import loaded, and runs every command in process under ``sys.setprofile``
over a fixed corpus: both modes, CSV output, coding files, ``--help`` and
the error exits.  Each public function, method and property defined in a
package module loaded by then, at start-up or by a command (``areas``),
must have been called, but for the allowlist below.  So a name that only
tests call lives in ``hypgold.reference`` or is deleted, and does not
come back on a command's import path.
"""

import json
import os
import subprocess
import sys

import hypgold

# The names no command calls that stay where they are, each with its reason.
# A class's entry covers its members.
ALLOWED_UNCALLED = {
    # These three move to reference once perfbench/tracer.py stops reading
    # the caches of lower_essential_poly and lower_value.
    "hypgold.points.lower_essential_poly": "perfbench/tracer.py reads its cache_info()",
    "hypgold.points.EssentialPolynomial": "the form lower_essential_poly returns",
    "hypgold.points.lower_value": "perfbench/tracer.py reads its cache_info()",
    "hypgold.hyperbola.classify_number": "tests/test_trace_hooks.py pins it for the tracer",
    "hypgold.coding.PrimeCoding.psi_inv": "the coding's documented surface",
    "hypgold.coding.PrimeCoding.breakpoints": "the coding's documented surface",
    "hypgold.numeric.mantissa_pair": "how the tests' mpmath oracles read an mpf's bits",
}

# Every command in both modes, CSV output, coding files, --help and the
# error exits.  build-g writes c.json before the lines that read it.
CORPUS = [
    ["--help"],
    ["classify", "--help"],
    ["regions", "--k0", "17"],
    ["regions", "--k0", "18", "--csv"],
    ["areas", "--k0", "18", "--k", "37/2"],
    ["points", "--alpha", "40"],
    ["points", "--alpha", "40", "--mode", "float", "--csv"],
    ["goldbach-check", "--alpha-range", "16..60", "--timing"],
    ["goldbach-check", "--alpha-range", "16..40", "--mode", "float", "--workers", "2"],
    ["build-g", "--alpha", "30", "--out", "c.json"],
    ["build-g", "--alpha", "30", "--scalar-u", "3/2", "--xi-half", "3", "--out", "d.json"],
    ["scalar-limit", "--alpha", "30", "--u", "1e-1,1e-2,1e-3,1e-4,1e-5,1e-6"],
    ["classify", "--k", "91"],
    ["classify", "--k", "59", "--mode", "float", "--csv"],
    ["classify", "--k", "37/2"],
    ["points", "--alpha", "24", "--coding", "c.json"],
    ["goldbach-check", "--alpha-range", "16..24", "--coding", "c.json"],
    ["classify", "--k", "23", "--coding", "c.json"],
    ["areas", "--k0", "18", "--k", "37/2", "--coding", "c.json"],
    ["classify", "--k", "1"],
    ["classify", "--k", "1000", "--coding", "c.json"],
    ["points", "--alpha", "17"],
    ["goldbach-check", "--alpha-range", "30..20"],
    ["build-g", "--alpha", "18", "--tol", "1e-300", "--out", "e.json"],
    ["no-such-command"],
]

_TRACE = r"""
import contextlib, io, json, sys
from functools import cached_property

import hypgold.cli as cli

startup = sorted(m for m in sys.modules if m.startswith("hypgold."))
called = set()


def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)


corpus, report = json.loads(sys.argv[1]), sys.argv[2]
sink = io.StringIO()
sys.setprofile(profile)
with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
    codes = [cli.main(argv) for argv in corpus]
sys.setprofile(None)
loaded = sorted(m for m in sys.modules if m.startswith("hypgold."))


def code_of(obj):
    if isinstance(obj, (classmethod, staticmethod)):
        obj = obj.__func__
    elif isinstance(obj, property):
        obj = obj.fget
    elif isinstance(obj, cached_property):
        obj = obj.func
    obj = getattr(obj, "__wrapped__", obj)
    return getattr(obj, "__code__", None)


public = {}
for name in loaded:
    module = sys.modules[name]
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != name:
            continue
        members = vars(obj).items() if isinstance(obj, type) else [(None, obj)]
        for member, value in members:
            if member is not None and member.startswith("_"):
                continue
            code = code_of(value)
            if code is not None:
                public[".".join(filter(None, (name, attr, member)))] = code
json.dump({"codes": codes, "startup": startup, "loaded": loaded,
           "uncalled": sorted(n for n, code in public.items() if code not in called)},
          open(report, "w"))
"""


def test_every_public_name_a_command_loads_is_called(tmp_path):
    src = os.path.dirname(os.path.dirname(hypgold.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    report = tmp_path / "report.json"
    subprocess.run([sys.executable, "-c", _TRACE, json.dumps(CORPUS), str(report)],
                   env=env, cwd=tmp_path, check=True, timeout=120)
    result = json.loads(report.read_text())
    # The corpus reaches every exit: success, a domain or usage error, a
    # failed verification.
    assert set(result["codes"]) == {0, 1, 2}
    assert "hypgold.reference" not in result["loaded"]
    # Only the areas command loads hypgold.areas; start-up does not.
    assert "hypgold.areas" not in result["startup"]
    assert "hypgold.areas" in result["loaded"]
    uncalled = set(result["uncalled"])
    allowed = {name for name in uncalled
               if name in ALLOWED_UNCALLED or name.rpartition(".")[0] in ALLOWED_UNCALLED}
    assert sorted(uncalled - allowed) == []
    # An allowed name that a command starts to call no longer needs its entry.
    assert set(ALLOWED_UNCALLED) == {
        name if name in ALLOWED_UNCALLED else name.rpartition(".")[0] for name in allowed}
