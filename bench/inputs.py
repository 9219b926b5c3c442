"""Turn generated plain-data inputs into hamconc inputs, and time it.

Run as a script it is the set-up probe: in a fresh interpreter it
imports hamconc, loads the inputs listed in a spec file, then times the
reference kernel of :func:`reference_s`, and prints both times as JSON
(``setup_s``, ``ref_s``).  Nothing but the standard library is
imported before the clock starts, so the set-up time includes importing
numpy through hamconc, as a user's first call would.

    python3 bench/inputs.py SRC_DIR SPEC_JSON

The spec holds ``{"files": [...]}`` (scenario files to load),
``{"mc": [...]}`` (mc_tail cases, see :func:`build_mc_case`), or
neither (import only).
"""

from __future__ import annotations

import json
import statistics
import sys
import time


def build_mc_case(hamconc, case: dict) -> tuple:
    """(space, dist, quantity) for one mc_tail case given as plain data.

    ``case["quantity"]`` is "set" (a DistanceToSet marker), "weighted_sum"
    (coefficients are the weights) or "distance_to" (the functional form
    of the distance to the same member set).
    """
    space = hamconc.FiniteSpace(tuple(case["sizes"]))
    dist = hamconc.Distribution.product(case["pmfs"])
    alpha = hamconc.AlphaWeights(tuple(case["weights"]))
    kind = case["quantity"]
    if kind == "weighted_sum":
        return space, dist, hamconc.Functional.weighted_sum(case["weights"])
    members = hamconc.SetSpec.from_points(case["members"])
    if kind == "set":
        return space, dist, hamconc.DistanceToSet(alpha, members)
    if kind == "distance_to":
        return space, dist, hamconc.Functional.distance_to(alpha, members, space)
    raise ValueError(f"unknown mc quantity {kind!r}")


def reference_s(repeats: int = 3) -> float:
    """Median seconds of a fixed kernel that runs no hamconc code.

    Interpreted loops, dict building, a sort, a broadcast comparison and
    a 32 MB array stream: the kinds of work hamconc's ops do.  The
    benchmark divides its times by this, measured in the same stretch of
    the run, to take out the drift of a shared machine's speed.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.random(1 << 18)
    big = rng.random(1 << 22)
    out = np.empty_like(big)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        table = {str(i): [i, i + 1] for i in range(30_000)}
        np.sort(a)
        (a[:2500, None] < a[None, :2500]).sum()
        for _ in range(4):
            np.multiply(big, 1.5, out=out)
        times.append(time.perf_counter() - t0)
        del table
    return statistics.median(times)


def main(argv: list[str]) -> int:
    t0 = time.perf_counter()
    src, spec_path = argv
    sys.path.insert(0, src)
    import hamconc

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    for path in spec.get("files", ()):
        hamconc.load_scenario(path)
    for case in spec.get("mc", ()):
        build_mc_case(hamconc, case)
    setup_s = time.perf_counter() - t0
    print(json.dumps({"setup_s": setup_s, "ref_s": reference_s()}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
