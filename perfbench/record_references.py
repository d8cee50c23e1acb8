"""Re-record ``references.json``: the invariants every point must reproduce.

Run only when a change is meant to alter what the simulator computes,
and say so in the change; the benchmark fails any point whose
``sim_events``, ``messages``, ``total_ns`` or per-processor overhead
buckets differ from these.

Usage: ``python3 perfbench/record_references.py [--seed N]``
"""

import argparse
import json
import os
import sys

from common import DEFAULT_SEED, pin_environment, use_source_tree


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    pin_environment(os.environ)
    use_source_tree()
    import sim

    data = sim.record_references(args.seed)
    sim.REFERENCES.write_text(json.dumps(data, indent=1, sort_keys=True)
                              + "\n")
    print(f"wrote {sim.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
