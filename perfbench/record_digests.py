"""Record the seed-0 output digests that run.py checks against.

    python3 perfbench/record_digests.py

Runs every seed-0 command of every workload, at the full and the smoke
sizes, checks each output against the benchmark's own oracle and writes
the sha256 of its stdout (and of the file ``build-g`` writes) to
``perfbench/digests.json``.  Run it only at a commit whose outputs are
known to be right: the digests pin those outputs byte for byte.
"""

import json
import os
import sys

import run


def main() -> int:
    os.makedirs(run.OUT, exist_ok=True)
    digests = {}
    for sizes in (run.FULL, run.SMOKE):
        for name in run.WORKLOADS:
            for i, cmd in enumerate(run.make_workload(name, 0, sizes).commands):
                res = run.run_child(["0", "record", *cmd.argv], f"record-{i}")
                problems = cmd.check(res["stdout"]) if res["rc"] == 0 else ["non-zero exit"]
                if problems:
                    print(f"{' '.join(cmd.argv)}: {problems}", file=sys.stderr)
                    return 1
                digests.update(run.output_digests(cmd, res["stdout"]))
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
