"""One ``setup_s`` sample: a fresh interpreter imports ``repro`` and
builds one workload's scenarios, then prints the seconds that took.

Usage: ``python3 campaignbench/probe.py WORKLOAD WORKLOAD_SEED``
(``run.py`` starts it several times per run and reports the median).
"""

import time

_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402


def main(argv) -> int:
    name, workload_seed = argv[0], int(argv[1])
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    from workloads import WORKLOADS
    WORKLOADS[name](workload_seed, work_dir=here).setup()
    print(f"{time.perf_counter() - _START:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
