"""Write ``paper_snapshot.json``: the paper's six examples, frozen.

The benchmark never imports ``repro.bench``; it reads this snapshot, so
editing the suites cannot change what is measured.  The snapshot was
written once with::

    python3 perfbench/make_snapshot.py

Run it again only to change the benchmark's inputs on purpose.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.bench.suites import EXAMPLES
    from repro.io.jsonio import dfg_to_json

    examples = []
    for spec in EXAMPLES.values():
        examples.append(
            {
                "key": spec.key,
                "number": spec.number,
                "dfg": json.loads(dfg_to_json(spec.build())),
                "table1_cases": [
                    {
                        "cs": case.cs,
                        "mul_latency": case.mul_latency,
                        "clock_ns": case.clock_ns,
                        "latency_l": case.latency_l,
                        "pipelined": list(case.pipelined_kinds),
                        "paper_fu": dict(case.paper_fu) if case.paper_fu else None,
                    }
                    for case in spec.table1_cases
                ],
                "table2": {
                    "cs": spec.mfsa_cs,
                    "mul_latency": spec.mfsa_mul_latency,
                    "clock_ns": spec.mfsa_clock_ns,
                },
            }
        )
    target = Path(__file__).with_name("paper_snapshot.json")
    target.write_text(json.dumps({"examples": examples}, indent=1) + "\n")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
