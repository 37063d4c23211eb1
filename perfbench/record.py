"""Record the regression reference: canonical-result digests of every operation.

    python3 perfbench/record.py

Runs each operation of every workload once on the default seed (the shipped
cli scenes on every seed), checks it as a timed run would, and writes
perfbench/reference.json.  The record is a regression reference taken from
one commit, not an oracle: re-record only when a change is meant to alter a
canonical form, and say so in the change.
"""

from __future__ import annotations

import json
import sys
import tempfile

import run


def main():
    if not (run.ROOT / "src" / "minkpair" / "__init__.py").is_file():
        print("perfbench: run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.ROOT / "src"))
    import harness

    out = {"default_seed": run.DEFAULT_SEED, "recorded_at": run.context()["git_commit"],
           "workloads": {}}
    run.SCRATCH.mkdir(exist_ok=True)
    for workload in run.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=run.SCRATCH) as workdir:
            ops, _ = harness.build(run.draw(workload, run.DEFAULT_SEED, workdir))
            digests = {}
            for op in ops:
                result = op.run()
                problem = harness.problem_with(op, result)
                if problem:
                    print(f"perfbench: {workload} {op.key}: {problem}", file=sys.stderr)
                    return 1
                digests[op.key] = harness.digest(op.canon(result))
        out["workloads"][workload] = digests
        print(f"{workload}: {len(digests)} operations recorded")
    run.REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
