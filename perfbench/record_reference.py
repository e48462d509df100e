"""Record reference.json: the canonical-result digest of every workload at
its default seed, at full size.  Run it only on a commit whose verdicts
and report bytes are known good; the benchmark then counts every item of
a pass whose digest differs as failed.

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import onepass  # noqa: E402
import run  # noqa: E402


def main() -> int:
    onepass.import_spinz()
    import workloads

    reference = {}
    for name, workload in sorted(workloads.WORKLOADS.items()):
        args = argparse.Namespace(
            workload=name, seed=workload.default_seed, size="full", reference=HERE / "absent.json"
        )
        record = run.run_pass(args, 0, 0)
        if record["failed"]:
            print(f"{name}: {record['messages']}", file=sys.stderr)
            return 1
        entry = workloads.reference_entry(workload, workload.default_seed, record["digest"], record["info"])
        reference[name] = {"full": entry}
        print(name, entry)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
