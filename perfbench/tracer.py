"""In-process tracer for one hypgold CLI invocation.

The tracer wraps, from outside the package, every public function of each
layer module (``hypgold.<layer>``), rebinding the wrapper in every
``hypgold`` module that imported the same object (``lower_value`` is also
bound in ``areas``, ``is_prime`` in ``points`` and ``construction``).  It
also wraps the click command callbacks, ``PrimeCoding.identifies_primes``
and the process pool of ``goldbach-check``.

Coarse calls become spans (name, start, end, parent, pass id), kept in
memory and handed back by :meth:`Tracer.summary`.  Hot calls are only
aggregated (calls, inclusive time, self time) and ``is_prime`` is only
counted, so the trace stays small and cheap.  Self time is a call's
duration minus the part covered by wrapped calls beneath it, so the self
times of all layers add up to the traced ``main`` call exactly.

Only the process that installs the tracer is observed: pool workers of
``goldbach-check --workers N`` are forked from it and drop the wrappers.
"""

from __future__ import annotations

import functools
import os
import pickle
import sys
import time
from concurrent.futures import ProcessPoolExecutor

LAYERS = ("cli", "config", "coding", "numeric", "regions", "areas", "points",
          "oracles", "hyperbola", "construction")

# Calls recorded as individual spans; every other wrapped call is aggregated.
SPANS = frozenset({
    "cli.main", "cli.command", "cli.emit", "cli.canonical_json", "cli.records_csv",
    "cli.pool.wait", "config.resolve_config",
    "coding.default_coding", "coding.coding_from_json", "coding.coding_to_json",
    "coding.identifies_primes",
    "points.essential_points", "points.monotonicity_report",
    "points.goldbach_characterization", "oracles.goldbach_partitions_oracle",
    "hyperbola.classify_number",
    "construction.build_goldbach", "construction.build_lower", "construction.build_upper",
    "construction.junction_gaps", "construction.verify_continuity",
    "construction.scalar_limit_sweep",
})

# Hot leaves that only get a call counter.
COUNT_ONLY = frozenset({"oracles.is_prime", "construction._poly_value"})

# lru_cache'd functions whose cache statistics the summary reports.
CACHED = ("oracles.sieve", "points.lower_value", "regions.enumerate_regions",
          "points.lower_essential_poly")


def _own_callables(module):
    for attr, obj in vars(module).items():
        if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield attr, obj


class Tracer:
    def __init__(self, pass_id: str):
        self.pass_id = pass_id
        self.stats: dict = {}        # key -> [calls, inclusive_s, self_s]
        self.spans: list = []        # (id, key, start, end, parent_id)
        self.frames: list = []       # open calls; frame[0] sums their children's time
        self.span_ids: list = []     # open recorded spans
        self.depth: dict = {}
        self.sieve_max_n = 0
        self.entries_built = 0
        self.enum_misses = 0
        self.output_bytes = 0
        self.pool_tasks: list = []
        self.originals: dict = {}

    # -- wrapping ---------------------------------------------------------

    def begin(self, key: str) -> list:
        """Start timing one call of ``key``; returns the frame ``end`` needs."""
        self.stats.setdefault(key, [0, 0.0, 0.0])
        self.depth[key] = self.depth.get(key, 0) + 1
        frame = [0.0, None, None, 0.0]  # child_s, span id, parent span id, start
        if key in SPANS:
            frame[1] = len(self.spans) + len(self.span_ids)
            frame[2] = self.span_ids[-1] if self.span_ids else None
            self.span_ids.append(frame[1])
        self.frames.append(frame)
        frame[3] = time.perf_counter()
        return frame

    def end(self, key: str, frame: list) -> None:
        t1 = time.perf_counter()
        self.frames.pop()
        self.depth[key] -= 1
        elapsed = t1 - frame[3]
        stats = self.stats[key]
        stats[0] += 1
        stats[2] += elapsed - frame[0]
        if not self.depth[key]:
            stats[1] += elapsed
        if self.frames:
            self.frames[-1][0] += elapsed
        if frame[1] is not None:
            self.span_ids.pop()
            self.spans.append((frame[1], key, frame[3], t1, frame[2]))

    def wrap(self, key: str, fn, post=None):
        """Return a traced stand-in for ``fn``; ``post(args, result)`` runs after each call."""
        if key in COUNT_ONLY:
            stats = self.stats.setdefault(key, [0, 0.0, 0.0])

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                stats[0] += 1
                return fn(*args, **kwargs)
            return counted

        # begin() and end() inlined: two method calls per call of a hot
        # function would add a third to the traced run's time.
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        record = key in SPANS
        frames, span_ids, depth, spans = self.frames, self.span_ids, self.depth, self.spans
        clock = time.perf_counter
        depth.setdefault(key, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            depth[key] += 1
            if record:
                span_id = len(spans) + len(span_ids)
                parent = span_ids[-1] if span_ids else None
                span_ids.append(span_id)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                frames.pop()
                depth[key] -= 1
                elapsed = t1 - t0
                stats[0] += 1
                stats[2] += elapsed - frame[0]
                if not depth[key]:
                    stats[1] += elapsed
                if frames:
                    frames[-1][0] += elapsed
                if record:
                    span_ids.pop()
                    spans.append((span_id, key, t0, t1, parent))
            if post is not None:
                post(args, result)
            return result

        for name in ("cache_info", "cache_clear"):
            if hasattr(fn, name):
                setattr(traced, name, getattr(fn, name))
        return traced

    def install(self) -> None:
        """Wrap every layer's public functions in all hypgold modules that bind them."""
        import importlib

        modules = {layer: importlib.import_module(f"hypgold.{layer}") for layer in LAYERS}
        bound = [m for name, m in sys.modules.items()
                 if name == "hypgold" or name.startswith("hypgold.")]
        posts = {
            "oracles.sieve": self._after_sieve,
            "regions.enumerate_regions": self._after_enumerate,
            "cli.canonical_json": self._after_serialize,
            "cli.records_csv": self._after_serialize,
        }
        replacements = {}
        for layer, module in modules.items():
            for attr, obj in _own_callables(module):
                key = f"{layer}.{attr}"
                self.originals[key] = obj
                replacements[id(obj)] = self.wrap(key, obj, posts.get(key))
        poly_value = modules["construction"]._poly_value
        replacements[id(poly_value)] = self.wrap("construction._poly_value", poly_value)
        identifies = modules["coding"].PrimeCoding.__dict__["identifies_primes"]
        restore = [(identifies, "func", identifies.func)]
        identifies.func = self.wrap("coding.identifies_primes", identifies.func)
        for module in bound:
            for attr, obj in list(vars(module).items()):
                if id(obj) in replacements:
                    restore.append((module, attr, obj))
                    setattr(module, attr, replacements[id(obj)])
        for command in modules["cli"].cli.commands.values():
            command.callback = self.wrap("cli.command", command.callback)
        modules["cli"].ProcessPoolExecutor = self._traced_pool()

        def untrace():
            for owner, attr, obj in restore:
                setattr(owner, attr, obj)

        # Pool workers fork from this process: they run the package untraced.
        os.register_at_fork(after_in_child=untrace)

    def _after_sieve(self, args, result):
        self.sieve_max_n = max(self.sieve_max_n, len(result) - 1)

    def _after_enumerate(self, args, result):
        # A call that raised the cache's miss count built its region set.
        misses = self.originals["regions.enumerate_regions"].cache_info().misses
        if misses != self.enum_misses:
            self.enum_misses = misses
            self.entries_built += len(result)

    def _after_serialize(self, args, result):
        self.output_bytes += len(result.encode("utf-8"))

    def _traced_pool(self):
        tracer = self

        class TracedPool(ProcessPoolExecutor):
            """Times the pool's lifetime in the parent and the pickled task bytes."""

            def __enter__(self):
                self._frame = tracer.begin("cli.pool.wait")
                return super().__enter__()

            def map(self, fn, *iterables, **kwargs):
                # Pickled sizes are computed in summary(), outside every span.
                tasks = list(iterables[0])
                tracer.pool_tasks.extend(tasks)
                return super().map(fn, tasks, *iterables[1:], **kwargs)

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.end("cli.pool.wait", self._frame)

        return TracedPool

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        caches = {}
        for key in CACHED:
            info = self.originals[key].cache_info()
            caches[key] = {"hits": info.hits, "misses": info.misses}
        return {
            "stats": {k: v for k, v in self.stats.items() if v[0]},
            "caches": caches,
            "sieve_max_n": self.sieve_max_n,
            "entries_built": self.entries_built,
            "output_bytes": self.output_bytes,
            "task_bytes": sum(len(pickle.dumps(t)) for t in self.pool_tasks),
            "spans": [
                {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4],
                 "pass": self.pass_id}
                for s in sorted(self.spans)
            ],
        }
