"""Record the exact output of every benchmark job into reference.json.

Run from the repository root, once, on the code whose answers are right:

    python3 perfbench/record_reference.py

Each workload runs in its own fresh process (through the set-up and jobs of
workloads.py), so the pipeline cache of one workload cannot serve another.
A job that raises, exits non-zero or reads a truncated value is not
recorded: the script stops with an error instead.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def record(workload, size, src):
    """Exact outputs of one workload, computed in this process."""
    sys.path.insert(0, src)
    built = workloads.setup(workload, size)
    out = {}
    for name, job in workloads.jobs(workload, size, built):
        raw = job()
        bad = workloads.truncated_values(workload, raw)
        if bad:
            raise SystemExit("error: %s reads truncated values: %s" % (name, ", ".join(bad)))
        out[name] = workloads.canonical(workload, raw)
        if workload == "verify_cli" and out[name]["exit"] != 0:
            raise SystemExit("error: %r exits %r" % (name, out[name]["exit"]))
    return out


def main():
    src = os.path.join(os.getcwd(), "src")
    if len(sys.argv) == 3:
        # child mode: one workload, printed as JSON
        print(json.dumps(record(sys.argv[1], sys.argv[2], src)))
        return 0
    reference = {}
    for size in workloads.SIZES:
        reference[size] = {}
        for workload in workloads.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), workload, size],
                capture_output=True,
                text=True,
                check=False,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1
            reference[size][workload] = json.loads(proc.stdout.splitlines()[-1])
            print("recorded %s/%s: %d jobs" % (size, workload, len(reference[size][workload])))
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
