"""Child processes that the benchmark starts.

    python3 perfbench/pb_child.py setup <workload>
        Import the package, warm the workload up, print ``ready``: the
        parent times this as the workload's set-up.
    python3 perfbench/pb_child.py cli <spans.json> <toyfield arguments...>
        Run the toyfield CLI with spans around the package's functions and
        write the stats and spans to <spans.json>; exits with the CLI's code.
"""

from __future__ import annotations

import json
import sys

import pb_env


def main(argv: list[str]) -> int:
    pb_env.bootstrap()
    if argv[0] == "setup":
        import pb_workloads

        pb_workloads.WORKLOADS[argv[1]]().warm_up()
        print("ready", flush=True)
        return 0
    import toyfield.cli
    from pb_trace import Tracer

    tracer = Tracer()
    try:
        with tracer.tracing():
            return toyfield.cli.main(argv[2:])
    finally:
        with open(argv[1], "w", encoding="utf-8") as out:
            json.dump(tracer.export(), out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
