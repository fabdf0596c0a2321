"""Set-up probe: a fresh interpreter imports lossfish and runs one warm-up op.

``run.py`` times this script from spawn until it prints ``ready``; that wall
time is the workload's ``setup_s`` sample.

    python3 perfbench/setup_child.py <workload> <seed>
"""

import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import lossfish  # noqa: E402,F401  (the import is part of what is timed)
import workloads  # noqa: E402


def main(name: str, seed: int) -> int:
    workload = workloads.WORKLOADS[name]
    spec = next(workload.specs(seed))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            workload.run(spec)
        except Exception as exc:  # a failing op is counted by the timed run
            print(f"warm-up op raised {type(exc).__name__}: {exc}", file=sys.stderr)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
