"""Set-up probe: bring a fresh interpreter to the point of running a workload.

Imports the simulator, loads the compiled extension and runs one small
warm-up point per machine of the workload, then prints ``ready`` with
the resolved kernel.  ``run.py`` times probes from spawn to that line.

Usage: ``python perfbench/probe.py WORKLOAD SEED``
"""

import sys

from common import use_source_tree


def main(argv) -> int:
    workload, seed = argv[0], int(argv[1])
    use_source_tree()
    from repro.core.runner import simulate_spec
    from repro.engine import resolve_kernel
    from repro.engine.compiled import HAVE_EXTENSION
    from sim import WORKLOADS

    for spec in WORKLOADS[workload].warmup_specs(seed):
        simulate_spec(spec)
    print(f"ready kernel={resolve_kernel('auto')} "
          f"extension_loaded={int(HAVE_EXTENSION)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
