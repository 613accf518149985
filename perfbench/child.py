"""Run one hypgold CLI command in this fresh process and report its timings.

    python3 perfbench/child.py STATS_PATH TRACE PASS_ID [HYPGOLD ARGS...]

Imports ``hypgold.cli`` from the checkout's ``src`` directory, calls
``hypgold.cli.main(args)`` with stdout left to the caller, and writes a JSON
stats file: import and command wall time, the exit code and, with
TRACE=1, the tracer's summary.  Without HYPGOLD ARGS it only imports the
package (the set-up measurement) and records the interpreter's details.
Only ``sys``, ``os`` and ``time`` are imported before ``hypgold`` so that
``-X importtime`` charges the package with everything it pulls in.
"""

import os
import sys
import time

T_START = time.perf_counter()


def main() -> int:
    stats_path, traced, pass_id, *argv = sys.argv[1:]
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    import hypgold.cli

    t_import = time.perf_counter()
    stats = {"import_s": t_import - T_START}
    rc = 0
    if argv:
        tracer = None
        if traced == "1":
            from tracer import Tracer

            tracer = Tracer(pass_id)
            tracer.install()
        rc = hypgold.cli.main(argv)
        stats["command_s"] = time.perf_counter() - t_import
        sys.stdout.flush()
        if tracer is not None:
            stats["trace"] = tracer.summary()
    else:
        import platform

        import mpmath

        stats["python"] = platform.python_version()
        stats["mpmath_backend"] = mpmath.libmp.BACKEND
    stats["rc"] = rc

    import json

    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
