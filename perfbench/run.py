"""hypgold benchmark: CLI workloads measured end to end and, traced, per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src``.
Every hypgold command runs in its own fresh process (``perfbench/child.py``
calling ``hypgold.cli.main``), because users pay the import and cold caches
on every invocation.  This process starts one command at a time; only
``goldbach-check --workers 2`` adds its two pool workers.

Workloads (the seed generates every input):

- ``sweep``: ``goldbach-check --alpha-range 16..A --workers 1``.
- ``sweep-pool``: the same coding with ``--workers 2`` over a prefix 16..A'.
- ``one-shot``: ``points --alpha P``, ``classify --k`` on a seeded prime and a
  seeded composite, ``build-g --alpha B --seed s`` and
  ``scalar-limit --alpha S --u 1e-1,...,1e-6``.

Seed 0 uses the CLI's default coding; any other seed writes a strict
rational coding (denominator 997) and passes it with ``--coding``.  Every
output is checked against ``checks.py``; for seed 0 the stdout (and the
``build-g`` coding file) must also match the sha256 digests in
``digests.json``.  A command fails on a non-zero exit, a digest mismatch
or an oracle disagreement.

Set-up (not timed as part of a pass) writes the inputs, warms the bytecode
cache and times several fresh ``import hypgold.cli`` processes.  Passes then
repeat until ``--seconds`` is used up, at least ``min_passes`` times.

This kind of shared machine changes speed by up to 2x for seconds to minutes
at a time, whatever the program does.  So ``probe.py``, a fixed stdlib-only
workload that shares no code with hypgold, runs in a fresh process before
the first and after every timed process, and each timed process's times are
scaled by ``REFERENCE_PROBE_S`` over the mean of the two probes around it:
they read in seconds at the machine speed at which the probe takes
``REFERENCE_PROBE_S``.  Scaling each process by its neighbours, not the
whole run by one factor, follows the speed changes within a run.  A change
to hypgold moves the timed processes and not the probe.  The raw times and
the probe times are in the record line.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over the
fresh processes importing ``hypgold.cli``, each scaled), ``total_s`` (process wall
times of a pass), ``command_s`` (time after import), ``cpu_s`` (user +
system CPU, pool workers included), each the sum over the pass's commands
of that command's median over the passes, and ``peak_rss_mb`` (median
over passes of the largest process, pool workers included).  ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics:
medians over the traced passes, with span times not scaled, and ``probe_s``,
the run's median probe time; see ``tracer.py``.  For ``sweep-pool`` only
the parent process is traced, so layers that run in the workers read 0
there.

The line before the result is a JSON record of the machine (nproc, Python,
mpmath backend, load average), of the probe times and of every pass (raw
wall and CPU seconds).
The last line is the result.  Outputs, stats and spans go to
``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from tracer import LAYERS  # noqa: E402

ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
CHILD = os.path.join(HERE, "child.py")
PROBE = os.path.join(HERE, "probe.py")
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ("sweep", "sweep-pool", "one-shot")
U_LIST = "1e-1,1e-2,1e-3,1e-4,1e-5,1e-6"
# probe.py's typical time on the 2-vCPU Xeon VM of the baseline (Python
# 3.11.7); reported times are seconds at the speed at which it takes this long.
REFERENCE_PROBE_S = 0.25


@dataclass(frozen=True)
class Sizes:
    sweep_hi: int          # A
    pool_hi: int           # A'
    points_alpha: int      # P
    classify_window: tuple  # K is drawn from [lo, hi)
    build_alpha: int       # B, in the construction's window set
    scalar_alpha: int      # S, in the construction's window set
    setup_imports: int     # timed fresh imports per run
    import_profiles: int   # -X importtime processes per traced run
    min_passes: int        # passes run even past --seconds


FULL = Sizes(sweep_hi=600, pool_hi=300, points_alpha=800, classify_window=(496, 516),
             build_alpha=480, scalar_alpha=120, setup_imports=3, import_profiles=2,
             min_passes=3)
SMOKE = Sizes(sweep_hi=40, pool_hi=30, points_alpha=40, classify_window=(40, 60),
              build_alpha=30, scalar_alpha=30, setup_imports=1, import_profiles=1,
              min_passes=1)


@dataclass
class Command:
    name: str                          # sweep, points, classify, build_g, scalar_limit
    argv: list
    check: Callable[[bytes], list]     # stdout -> problems
    out_file: str | None = None        # a file the command writes, digested too


@dataclass
class Workload:
    commands: list
    alphas: int = 0                    # even alphas verified per pass
    files: dict = field(default_factory=dict)  # path -> JSON written at set-up


def _coding_arg(workload: Workload, seed: int, max_index: int) -> tuple:
    """(--coding argv, slopes) for a command whose CLI default index is max_index."""
    if seed == 0:
        return [], checks.default_slopes(max_index)
    slopes = checks.seeded_slopes(max_index, seed)
    path = os.path.join("perfbench", "_out", f"coding-s{seed}-n{max_index}.json")
    workload.files[path] = checks.coding_json(slopes)
    return ["--coding", path], slopes


def _json_check(fn, *args) -> Callable[[bytes], list]:
    def check(stdout: bytes) -> list:
        try:
            doc = json.loads(stdout)
        except ValueError:
            return ["stdout is not JSON"]
        return fn(doc, *args)
    return check


def make_workload(name: str, seed: int, sizes: Sizes) -> Workload:
    w = Workload(commands=[])
    if name in ("sweep", "sweep-pool"):
        hi = sizes.sweep_hi if name == "sweep" else sizes.pool_hi
        coding, _ = _coding_arg(w, seed, max(hi - 4, 16))
        workers = "1" if name == "sweep" else "2"
        w.commands.append(Command(
            "sweep", ["goldbach-check", "--alpha-range", f"16..{hi}", "--workers", workers,
                      *coding],
            _json_check(checks.check_sweep, hi)))
        w.alphas = len(range(16, hi + 1, 2))
        return w

    rng = random.Random(f"perfbench-inputs-{seed}")
    lo, hi = sizes.classify_window
    primes = [k for k in range(lo, hi) if checks.is_prime(k)]
    composites = [k for k in range(lo, hi) if not checks.is_prime(k)]
    p_alpha = sizes.points_alpha
    coding, slopes = _coding_arg(w, seed, max(p_alpha - 4, 16))
    w.commands.append(Command("points", ["points", "--alpha", str(p_alpha), *coding],
                              _json_check(checks.check_points, p_alpha, slopes)))
    for k in (rng.choice(primes), rng.choice(composites)):
        coding, _ = _coding_arg(w, seed, max(k + 1, 16))
        w.commands.append(Command("classify", ["classify", "--k", str(k), *coding],
                                  _json_check(checks.check_classify, k)))
    b_seed = rng.randrange(1, 1000)
    out = os.path.join("perfbench", "_out", "build-g-coding.json")

    def check_build(stdout: bytes) -> list:
        try:
            with open(os.path.join(ROOT, out), encoding="utf-8") as fh:
                coding_doc = json.load(fh)
        except (OSError, ValueError):
            return ["build-g: coding file missing or not JSON"]
        return _json_check(checks.check_build_g, coding_doc, sizes.build_alpha, b_seed,
                           out)(stdout)

    w.commands.append(Command(
        "build_g", ["build-g", "--alpha", str(sizes.build_alpha), "--seed", str(b_seed),
                    "--out", out], check_build, out_file=out))
    w.commands.append(Command(
        "scalar_limit", ["scalar-limit", "--alpha", str(sizes.scalar_alpha), "--u", U_LIST],
        _json_check(checks.check_scalar_limit, sizes.scalar_alpha, len(U_LIST.split(",")))))
    return w


def output_digests(cmd: Command, stdout: bytes) -> dict:
    """sha256 of the stdout and of the file the command writes, keyed as in digests.json."""
    key = " ".join(cmd.argv)
    blobs = {key: stdout}
    if cmd.out_file:
        try:
            with open(os.path.join(ROOT, cmd.out_file), "rb") as fh:
                blobs[key + " [out]"] = fh.read()
        except OSError:
            blobs[key + " [out]"] = b""
    return {k: hashlib.sha256(blob).hexdigest() for k, blob in blobs.items()}


# -- processes ---------------------------------------------------------------

def _env() -> dict:
    # ER_* variables would override the configuration the digests assume.
    return {k: v for k, v in os.environ.items() if not k.startswith("ER_")}


def run_child(args: list, tag: str, python_flags=()) -> dict:
    """Run child.py in a fresh interpreter; wall, CPU and peak RSS include its pool workers."""
    stats_path = os.path.join(OUT, f"stats-{tag}.json")
    err_path = os.path.join(OUT, f"stderr-{tag}.txt")
    if os.path.exists(stats_path):
        os.remove(stats_path)
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *python_flags, CHILD, stats_path, *args],
                                cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=err)
        stdout = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stats = {}
    if os.path.exists(stats_path):
        with open(stats_path, encoding="utf-8") as fh:
            stats = json.load(fh)
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return {"rc": proc.returncode, "wall_s": wall, "stdout": stdout, "stderr": stderr,
            "cpu_s": usage.ru_utime + usage.ru_stime, "rss_mb": usage.ru_maxrss / 1024.0,
            "stats": stats}


def run_probe() -> float:
    """Seconds probe.py's fixed work took in a fresh process."""
    proc = subprocess.run([sys.executable, PROBE], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, check=True)
    return float(proc.stdout)


def run_command(cmd: Command, traced: bool, pass_id: str, tag: str, digests) -> dict:
    if cmd.out_file and os.path.exists(os.path.join(ROOT, cmd.out_file)):
        os.remove(os.path.join(ROOT, cmd.out_file))  # a stale file must not pass as output
    res = run_child(["1" if traced else "0", pass_id, *cmd.argv], tag)
    problems = []
    if res["rc"] != 0:
        problems.append(f"{cmd.name}: exit code {res['rc']}: "
                        f"{res['stderr'].decode(errors='replace').strip()[-300:]}")
    else:
        problems.extend(cmd.check(res["stdout"]))
    if digests is not None:
        for key, digest in output_digests(cmd, res["stdout"]).items():
            if digests.get(key) != digest:
                problems.append(f"{cmd.name}: digest mismatch for {key!r}")
    return {"command": cmd.name, "wall_s": res["wall_s"], "cpu_s": res["cpu_s"],
            "rss_mb": res["rss_mb"], "import_s": res["stats"].get("import_s", 0.0),
            "command_s": res["stats"].get("command_s", 0.0), "problems": problems,
            "trace": res["stats"].get("trace"), "stdout": res["stdout"]}


def speed(before: float, after: float) -> float:
    """Factor that turns a time measured between two probes into reference seconds."""
    return REFERENCE_PROBE_S / ((before + after) / 2)


def run_pass(workload: Workload, traced: bool, n: int, digests, probes: list) -> dict:
    """Run the workload's commands once; probes[-1] precedes the first, a probe follows each."""
    procs = []
    for i, cmd in enumerate(workload.commands):
        before = probes[-1]
        proc = run_command(cmd, traced, f"p{n}", f"p{n}-c{i}", digests)
        probes.append(run_probe())
        proc["speed"] = speed(before, probes[-1])
        procs.append(proc)
    return {
        "traced": traced,
        "procs": procs,
        "total_s": sum(p["wall_s"] for p in procs),
        "command_s": sum(p["command_s"] for p in procs),
        "cpu_s": sum(p["cpu_s"] for p in procs),
        "peak_rss_mb": max(p["rss_mb"] for p in procs),
    }


def setup(workload: Workload, sizes: Sizes, traced: bool) -> dict:
    """Write the inputs, warm up and time the fresh imports between probes."""
    os.makedirs(OUT, exist_ok=True)
    for path, doc in workload.files.items():
        with open(os.path.join(ROOT, path), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    warm = run_child(["0", "setup"], "setup-warm")
    if warm["rc"] != 0 or "mpmath_backend" not in warm["stats"]:
        raise RuntimeError("import hypgold.cli failed: "
                           + warm["stderr"].decode(errors="replace")[-500:])
    profiles = []
    if traced:
        for i in range(sizes.import_profiles):
            res = run_child(["0", "setup"], f"importtime-{i}", python_flags=("-X", "importtime"))
            profiles.append(parse_importtime(res["stderr"].decode(errors="replace")))
    walls, scaled, probes = [], [], [run_probe()]
    for i in range(sizes.setup_imports):
        walls.append(run_child(["0", "setup"], f"setup-{i}")["wall_s"])
        probes.append(run_probe())
        scaled.append(walls[-1] * speed(probes[-2], probes[-1]))
    return {"walls": walls, "scaled": scaled, "probes": probes, "profiles": profiles,
            "python": warm["stats"]["python"], "mpmath_backend": warm["stats"]["mpmath_backend"]}


def parse_importtime(text: str) -> dict:
    """Cumulative import seconds of hypgold.cli and of the scipy it pulls in."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        try:
            cum_s = int(cumulative) / 1e6
        except ValueError:
            continue  # the header line
        rows.append((len(name) - len(name.lstrip()), name.strip(), cum_s))
    # Children print before their parent; walking backwards sees each parent first.
    hypgold_s = scipy_s = 0.0
    stack = []
    for indent, name, cum_s in reversed(rows):
        while stack and stack[-1][0] >= indent:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        if not stack and (name == "hypgold" or name.startswith("hypgold.")):
            hypgold_s += cum_s
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            scipy_s += cum_s
        stack.append((indent, name))
    return {"hypgold_s": hypgold_s, "scipy_s": scipy_s}


# -- metrics -----------------------------------------------------------------

def median_of(passes: list, key: str, name: str | None = None) -> float:
    """Each command's median over the passes of its scaled time, summed over the pass."""
    first = passes[0]["procs"]
    return sum((statistics.median(p["procs"][i][key] * p["procs"][i]["speed"] for p in passes)
                for i in range(len(first)) if name is None or first[i]["command"] == name),
               0.0)


def scaled_total(p: dict) -> float:
    return sum(q["wall_s"] * q["speed"] for q in p["procs"])


def end_to_end(passes: list, setup_info: dict) -> dict:
    return {
        "setup_s": (statistics.median(setup_info["scaled"]), "s"),
        "total_s": (median_of(passes, "wall_s"), "s"),
        "command_s": (median_of(passes, "command_s"), "s"),
        "cpu_s": (median_of(passes, "cpu_s"), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def _layer_values(p: dict) -> dict:
    """Per-layer quantities of one traced pass, summed over its processes."""
    v: dict = {}

    def add(name, value):
        v[name] = v.get(name, 0) + value

    for proc in p["procs"]:
        t = proc["trace"] or {"stats": {}, "caches": {}, "sieve_max_n": 0,
                              "entries_built": 0, "output_bytes": 0, "task_bytes": 0}
        stats, caches = t["stats"], t["caches"]

        def calls(key):
            return stats.get(key, [0, 0.0, 0.0])[0]

        def incl(key):
            return stats.get(key, [0, 0.0, 0.0])[1]

        def self_s(key):
            return stats.get(key, [0, 0.0, 0.0])[2]

        def cache(key, field_name):
            return caches.get(key, {}).get(field_name, 0)

        add("oracles.sieve.calls", calls("oracles.sieve"))
        add("oracles.sieve.misses", cache("oracles.sieve", "misses"))
        add("oracles.sieve.s", incl("oracles.sieve"))
        v["oracles.sieve.max_n"] = max(v.get("oracles.sieve.max_n", 0), t["sieve_max_n"])
        add("oracles.is_prime.calls", calls("oracles.is_prime"))
        add("oracles.partitions.s", incl("oracles.goldbach_partitions_oracle"))
        add("regions.enumerate.calls", calls("regions.enumerate_regions"))
        add("regions.enumerate.misses", cache("regions.enumerate_regions", "misses"))
        add("regions.enumerate.s", incl("regions.enumerate_regions"))
        add("regions.entries_built", t["entries_built"])
        add("points.lower_value.calls", calls("points.lower_value"))
        add("points.lower_value.misses", cache("points.lower_value", "misses"))
        add("points.lower_value.hits", cache("points.lower_value", "hits"))
        add("points.lower_value.s", incl("points.lower_value"))
        add("points.lower_poly.misses", cache("points.lower_essential_poly", "misses"))
        add("points.lower_poly.s", incl("points.lower_essential_poly"))
        add("points.monotonicity.self_s", self_s("points.monotonicity_report"))
        add("points.essential_points.s", incl("points.essential_points"))
        add("coding.load.s", incl("coding.default_coding") + incl("coding.coding_from_json"))
        add("coding.identifies_primes.s", incl("coding.identifies_primes"))
        add("hyperbola.classify_number.s", incl("hyperbola.classify_number"))
        add("hyperbola.classify_point.calls", calls("hyperbola.classify_point"))
        add("construction.build_lower.s", incl("construction.build_lower"))
        add("construction.build_upper.s", incl("construction.build_upper"))
        add("construction.junction_gaps.s", incl("construction.junction_gaps"))
        add("construction.scalar_sweep.s", incl("construction.scalar_limit_sweep"))
        add("construction.poly_evals", calls("construction._poly_value"))
        add("cli.command.s", incl("cli.command"))
        add("cli.serialize.s", incl("cli.canonical_json") + incl("cli.records_csv"))
        add("cli.output_bytes", t["output_bytes"])
        add("cli.pool.wait_s", self_s("cli.pool.wait"))
        add("cli.pool.task_bytes", t["task_bytes"])
        add("trace.main_s", incl("cli.main"))
        for layer in LAYERS:
            add(f"{layer}.self_s", sum(s[2] for k, s in stats.items()
                                       if k.split(".")[0] == layer))
    hits, misses = v.pop("points.lower_value.hits"), v["points.lower_value.misses"]
    v["points.lower_value.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return v


def per_layer(passes: list, setup_info: dict, workload: Workload, probes: list) -> dict:
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    values = [_layer_values(p) for p in traced]
    out = {name: statistics.median(v[name] for v in values) for name in values[0]}
    # Each traced pass runs right after an untraced one; compare neighbours.
    out["trace.overhead_ratio"] = statistics.median(
        scaled_total(t) / scaled_total(p) for p, t in zip(plain, traced))
    for key in ("hypgold_s", "scipy_s"):
        out[f"import.{key}"] = statistics.median(pr[key] for pr in setup_info["profiles"])
    out["alphas_per_s"] = workload.alphas / median_of(plain, "wall_s")
    for name in ("points", "classify", "build_g", "scalar_limit"):
        out[f"{name}_s"] = median_of(plain, "command_s", name)
    out["probe_s"] = statistics.median(probes)
    return out


UNITS = {"calls": "count", "misses": "count", "max_n": "count", "entries_built": "count",
         "poly_evals": "count", "output_bytes": "bytes", "task_bytes": "bytes_computed",
         "hit_ratio": "ratio", "overhead_ratio": "ratio", "alphas_per_s": "1/s"}


def unit_of(name: str) -> str:
    return UNITS.get(name.rsplit(".", 1)[-1], "s")


# -- entry point -------------------------------------------------------------

def measure(workload: Workload, seconds: float, traced: bool, digests, probes: list,
            min_passes: int) -> list:
    """Repeat passes while the next one is expected to end within ``seconds``."""
    passes, durations = [], []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        n = len(passes)
        passes.append(run_pass(workload, False, n, digests, probes))
        if traced:
            passes.append(run_pass(workload, True, n + 1, digests, probes))
        durations.append(time.perf_counter() - t0)
        if (len(passes) >= min_passes
                and time.perf_counter() + statistics.median(durations) > deadline):
            return passes


def load_digests(path: str = DIGESTS) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None, sizes: Sizes = FULL, digests: dict | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hypgold", "cli.py")):
        print(f"no hypgold sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.seed != 0:
        digests = None  # digests exist for the seed-0 inputs only
    elif digests is None:
        digests = load_digests()

    machine = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
               "python": platform.python_version(), "loadavg_start": os.getloadavg()}
    workload = make_workload(args.workload, args.seed, sizes)
    setup_info = setup(workload, sizes, bool(args.trace))
    machine["mpmath_backend"] = setup_info["mpmath_backend"]
    probes = setup_info["probes"]
    passes = measure(workload, args.seconds, bool(args.trace), digests, probes,
                     sizes.min_passes)
    machine["loadavg_end"] = os.getloadavg()

    procs = [q for p in passes for q in p["procs"]]
    failed = [q for q in procs if q["problems"]]
    if args.trace:
        metrics = per_layer(passes, setup_info, workload, probes)
        spans_path = os.path.join(OUT, f"trace-{args.workload}-s{args.seed}.jsonl")
        with open(spans_path, "w", encoding="utf-8") as fh:
            for q in procs:
                for span in (q["trace"] or {}).get("spans", []):
                    fh.write(json.dumps({**span, "command": q["command"]}) + "\n")
        metrics = {k: (v, unit_of(k)) for k, v in metrics.items()}
    else:
        metrics = end_to_end(passes, setup_info)

    record = {
        "machine": machine,
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_info["walls"],
        "probe_s": probes,
        "passes": [{"traced": p["traced"], "total_s": p["total_s"], "cpu_s": p["cpu_s"],
                    "command_s": p["command_s"], "peak_rss_mb": p["peak_rss_mb"],
                    "procs": [[q["command"], q["wall_s"], q["cpu_s"], q["command_s"]]
                              for q in p["procs"]]}
                   for p in passes],
        "problems": [msg for q in failed for msg in q["problems"]][:20],
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(procs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
