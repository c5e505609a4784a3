"""Set-up of one workload in a fresh interpreter.

The benchmark times this whole process, so set-up time includes starting
Python and importing the package:

    python3 perfbench/setup_once.py <seed> <output dir> <config JSON>

where the JSON maps each environment to its extra config lines, as in
``spec.Workload.config``.

Exits 0 when every set-up operation succeeded, 1 otherwise.
"""

import json
import sys
from pathlib import Path

import spec


def main(argv: list[str]) -> int:
    seed, out, env_keys = argv
    spec.pin_single_thread()
    spec.use_checkout_source()
    import workloads

    tally = workloads.Tally()
    workloads.setup(json.loads(env_keys), int(seed), Path(out), tally)
    for message in tally.messages:
        print(message, file=sys.stderr)
    return 1 if tally.failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
