"""Pin the output digest of every workload variant into digests.json.

    python3 bench/pin.py

Run it only on a commit whose outputs are trusted (the benchmark was
defined with the digests of the commit it was added on).  A variant whose
outputs fail the known-answer checks is not pinned, and the exit code is 1.
"""

import json
import sys
from io import StringIO
from pathlib import Path

import gate
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    sys.path.insert(0, str(SRC))
    from gaql import cli, groebner

    groebner.set_basis_verification(False)
    digests, status = {}, 0
    for workload in sorted(workloads.GENERATORS):
        digests[workload] = {}
        for variant in range(workloads.VARIANTS):
            state, steps = cli.load_task(cli.parse_task_text(workloads.generate(workload, variant)))
            out = StringIO()
            cli.run_steps(state, steps, out)
            n_commands = sum(kind == "command" for kind, _ in steps)
            errors, _ = gate.check(workload, None, out.getvalue(), state, n_commands)
            if errors:
                print(f"{workload} variant {variant}: {errors}", file=sys.stderr)
                status = 1
                continue
            digests[workload][str(variant)] = gate.digest(gate.records(out.getvalue()))
            print(workload, variant, digests[workload][str(variant)][:16], flush=True)
    gate.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
