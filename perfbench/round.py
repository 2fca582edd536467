"""One round of a workload in a fresh interpreter.

Usage: ``python3 perfbench/round.py '<spec as JSON>'`` with the repo's
``src`` on ``PYTHONPATH``; prints the round's measurements as one JSON
line.  ``run.py`` starts this once per round.  The matrix workload's pool
workers re-import this file under the ``spawn`` start method, so it does
nothing at import time.
"""

import json
import sys


def main() -> None:
    import workloads

    spec = json.loads(sys.argv[1])
    sys.stdout.write(json.dumps(workloads.run_round(spec)) + "\n")


if __name__ == "__main__":
    main()
