"""A sha256 of report bytes, against the digests committed below.

The digest hashes ``to_json()`` then ``to_csv()`` of
``verify_scenario(random_scenario(s, kind))`` for each kind in
``GENERATOR_KINDS`` order and each seed ``s`` below a stop, then of each
bundled ``scenarios/*.json`` file in sorted order.  A change that keeps
every report byte keeps the digest; a change that moves a byte, declared
or not, must update the digest here.

Run ``PYTHONPATH=src python tests/report_digest.py --stop 2400`` to check
the full set (about 15 s on 2 vCPU); tier-1 checks ``--stop 300``.  The
exit status is 0 on a match and 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

from hamconc.scenario_io import load_scenario
from hamconc.verify import GENERATOR_KINDS, random_scenario, verify_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# The digests by stop, measured under these versions.  A numpy or Python
# release that moves a report byte is a byte change to record here.
MEASURED_UNDER = {"numpy": "2.4.6", "python": "3.11.7"}
DIGESTS = {
    300: "15ce352609424174c65d24a0581dbd9ba19d3bba02a2926071397f15753f9611",
    2400: "0db10542c8a25232b34631b8bfdd80f8d18abb9a94d5ca3ab5ab9c64ae2e8828",
}


def report_digest(stop: int) -> str:
    """The sha256 of the reports of seeds [0, stop) and of the bundled files."""
    h = hashlib.sha256()
    scenarios = [random_scenario(s, kind) for kind in GENERATOR_KINDS for s in range(stop)]
    scenarios += [load_scenario(p) for p in sorted(SCENARIOS.glob("*.json"))]
    for sc in scenarios:
        report = verify_scenario(sc)
        h.update(report.to_json().encode())
        h.update(report.to_csv().encode())
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stop", type=int, choices=sorted(DIGESTS), default=300)
    stop = parser.parse_args(argv).stop
    got, want = report_digest(stop), DIGESTS[stop]
    versions = f"numpy {np.__version__}, Python {sys.version.split()[0]}"
    print(f"stop {stop}: {got} under {versions}")
    if got == want:
        return 0
    print(f"expected {want} under numpy {MEASURED_UNDER['numpy']}, "
          f"Python {MEASURED_UNDER['python']}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
