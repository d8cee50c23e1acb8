"""Run ``repro`` (``serve``) with the layer profiler on its main thread.

The daemon's event loop runs on the main thread, so the service,
store and pool-dispatch code it runs there is attributed, by that
thread's CPU time; simulations run in pool worker processes and are
reported by their CPU time instead.
On exit the per-layer split is written to ``OUT`` as JSON.

Usage: ``python perfbench/traced_daemon.py OUT serve [serve options]``
"""

import cProfile
import json
import pstats
import sys
import time

from common import use_source_tree


def main(argv) -> int:
    out, args = argv[0], argv[1:]
    use_source_tree()
    from layers import LayerProfile
    from repro.cli import main as repro_main

    # CPU time of this thread, not wall time: the loop idles in epoll.
    profiler = cProfile.Profile(time.thread_time)
    profiler.enable()
    try:
        code = repro_main(args)
    finally:
        profiler.disable()
        self_s, calls = LayerProfile().attribute(pstats.Stats(profiler).stats)
        with open(out, "w") as handle:
            json.dump({"self_s": self_s, "calls": calls}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
