"""The per-outcome formula that ``mgf`` row bytes are defined by.

``hamconc.estimators.mgf_from_law`` evaluates it with numpy and exact
layered sums; the tests hold it to this plain loop bit for bit.
"""

from __future__ import annotations

import math


def mgf_from_law(values, probs, lam: float) -> float:
    lam = float(lam)
    vs = [float(v) for v in values]
    ps = [float(p) for p in probs]
    total = math.fsum(ps)
    if total <= 0.0:
        raise ValueError("law has no mass")
    mean = math.fsum(v * p for v, p in zip(vs, ps)) / total
    return math.fsum(p * math.exp(lam * (v - mean)) for v, p in zip(vs, ps)) / total
