"""Write tests/acceptance_golden.json: every criterion's `measured` dict.

Run from the repository root:

    PYTHONPATH=src python tests/make_acceptance_golden.py

The file is a check (tests/test_acceptance.py compares every measured value
with it).  Rewrite it only in a change that says why, listing old -> new for
every value that moved; never to make a failing comparison pass.
"""

import json
from pathlib import Path

from stratwave.acceptance import CRITERIA, run_criterion

GOLDEN_PATH = Path(__file__).resolve().parent / "acceptance_golden.json"


def main() -> None:
    golden = {}
    for cid in CRITERIA:
        result = run_criterion(cid)
        if not result.passed:
            raise SystemExit(f"{cid} fails; golden values are taken from passing runs only")
        golden[cid] = result.measured
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {len(golden)} criteria to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
