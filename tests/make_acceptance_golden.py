"""Write tests/acceptance_golden.json: every criterion's `measured` dict.

Run from the repository root:

    PYTHONPATH=src python tests/make_acceptance_golden.py
    PYTHONPATH=src python tests/make_acceptance_golden.py --diff

The file is a check with one rule, same numbers means the same bits:
tests/test_acceptance.py's test_golden and --diff both compare every
measured value with it by ==.  Rewrite it only in a change that says why,
listing old -> new for every value that moved; never to make a failing
comparison pass.  --diff writes nothing: it prints every value's golden and
live repr, marked "identical" or with its relative change, which is that
list, and exits 1 when any value differs.

The last bits depend on the CPU dispatch, so the file's one non-criterion
entry, "dispatch", records the one the values were taken under: numpy's
SIMD targets in use and the OpenBLAS core.  --diff prints it beside the
live dispatch, but it is not a value and does not count as one.
"""

import argparse
import ctypes
import json
from pathlib import Path

import numpy as np
from numpy._core import _multiarray_umath

from stratwave.acceptance import CRITERIA, run_criterion

GOLDEN_PATH = Path(__file__).resolve().parent / "acceptance_golden.json"


def _openblas_core() -> str:
    """The core that the OpenBLAS bundled with the numpy wheel runs, as
    OPENBLAS_VERBOSE=2 prints it; "unknown" for any other BLAS."""
    for lib in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs")
                      .glob("libscipy_openblas64_*.so")):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return "unknown"


def dispatch() -> dict:
    """numpy's SIMD targets in use, in dispatch order, and the OpenBLAS core."""
    return {"numpy_simd": [target for target in _multiarray_umath.__cpu_dispatch__
                           if _multiarray_umath.__cpu_features__.get(target)],
            "openblas_core": _openblas_core()}


def relative_change(golden, live) -> str:
    if golden == live:
        return "identical"
    if isinstance(golden, (int, float)) and isinstance(live, (int, float)) and golden:
        return f"rel {(live - golden) / abs(golden):+.3g}"
    return "changed"


def diff() -> int:
    """Print every criterion's golden and live values; write nothing.

    Returns how many values differ."""
    golden = json.loads(GOLDEN_PATH.read_text())
    moved = 0
    for cid in CRITERIA:
        live = run_criterion(cid).measured
        for key in sorted(golden.get(cid, {}).keys() | live.keys()):
            want, got = golden.get(cid, {}).get(key), live.get(key)
            mark = relative_change(want, got)
            moved += mark != "identical"
            print(f"{cid} {key}: golden {want!r} live {got!r} {mark}")
    print(f"dispatch: golden {golden.get('dispatch')} live {dispatch()}")
    print(f"{moved} value(s) differ from {GOLDEN_PATH.name}")
    return moved


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--diff", action="store_true",
                    help="compare live values with the golden file; write nothing")
    if ap.parse_args().diff:
        raise SystemExit(1 if diff() else 0)
    golden = {}
    for cid in CRITERIA:
        result = run_criterion(cid)
        if not result.passed:
            raise SystemExit(f"{cid} fails; golden values are taken from passing runs only")
        golden[cid] = result.measured
    golden["dispatch"] = dispatch()
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {len(CRITERIA)} criteria to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
