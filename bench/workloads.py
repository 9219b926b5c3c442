"""The four benchmark workloads: seeded inputs, timed ops, oracle checks.

Every workload is a fixed schedule of cases, one op per case, repeated
in rounds.  The seed and the round number choose the contents of each
case (laws, weights, sets, functionals; for mc-tail the seed alone, and
the round the sampler seed); the sizes never change, so the work per
round is the same for every seed.  Inputs are built outside
the timed region, and the program receives only them: scenario files
for the two ``verify`` workloads, plain arguments built through the
public API for ``mc-tail``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import hamconc
from hamconc import cli, estimators, verify
from hamconc.hamming import Point

import oracle
from inputs import build_mc_case

# The program measures distances to a set by brute force over a
# (rows, |A|, n) block: a bool comparison plus its float64 copy, 9 bytes
# an element.  Inputs stay under this so that no op needs more than
# about 1.2 GB on a 7 GB machine shared with other jobs.
MAX_BLOCK_BYTES = 1.2e9
# mc_tail processes samples in blocks of this many rows.
MC_BLOCK_ROWS = 1 << 16
# mc_tail's documented defaults, which every mc-tail op uses.
MC_SAMPLES = 10**5
MC_DELTA = 0.01


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]


def _check_block(rows: int, members: int, n: int) -> None:
    if rows * members * n * 9 > MAX_BLOCK_BYTES:
        raise ValueError(f"a ({rows}, {members}, {n}) distance block exceeds the memory limit")


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(list(key))


def _pmfs(rng, sizes, low: float = 0.1) -> list:
    """One random pmf per coordinate, entries drawn from [low, 1] and normalized."""
    out = []
    for k in sizes:
        p = rng.uniform(low, 1.0, k)
        out.append((p / p.sum()).tolist())
    return out


def _unit_weights(rng, n: int) -> list:
    w = rng.uniform(0.1, 1.0, n)
    return (w / math.sqrt(math.fsum(w * w))).tolist()


def _members(rng, sizes, count: int) -> list:
    ranks = np.sort(rng.choice(math.prod(sizes), size=count, replace=False))
    return np.stack(np.unravel_index(ranks, sizes), axis=1).tolist()


def _lipschitz_table(rng, sizes, w, kind: str) -> list:
    """A table that is 1-Lipschitz for d_w by construction.

    "wsum": sum_i w_i * theta_i * v_i(x_i) with v_i in [0, 1], theta_i = +-1.
    "infconv": min over three anchors y_j of c_j + d_w(x, y_j).
    """
    idx = np.indices(sizes)
    if kind == "wsum":
        f = np.zeros(sizes)
        for i, k in enumerate(sizes):
            theta = rng.choice((-1.0, 1.0))
            f = f + w[i] * theta * rng.uniform(0.0, 1.0, k)[idx[i]]
        return f.ravel().tolist()
    f = np.full(sizes, np.inf)
    for anchor in _members(rng, sizes, 3):
        d = np.full(sizes, rng.uniform(0.0, sum(w)))
        for i, y in enumerate(anchor):
            d = d + w[i] * (idx[i] != y)
        f = np.minimum(f, d)
    return f.ravel().tolist()


# ---------------------------------------------------------------- verify


def _verify_file(path: str, out: str) -> int:
    return cli.main(["verify", path, "--out", out])


def _check_verify(scn: dict, out: str, exit_code) -> list:
    if exit_code not in (0, 1) or not os.path.exists(out):
        return [f"verify exited {exit_code!r} without a report"]
    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    os.remove(out)
    return oracle.check_report(scn, report, exit_code)


class _VerifyWorkload:
    """Each op is ``hamconc verify FILE --out REPORT``, run in-process."""

    cases: tuple = ()
    unit_rounds = 1

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self._files: list[str] = []

    def scenario(self, rng, case) -> dict:
        raise NotImplementedError

    def round_ops(self, r: int) -> list[Op]:
        ops = []
        self._files = []
        for k, case in enumerate(self.cases):
            scn = self.scenario(_rng(self.seed, r, k), case)
            path = os.path.join(self.workdir, f"case{k}.json")
            out = os.path.join(self.workdir, f"case{k}.report.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(scn, fh)
            self._files.append(path)
            label = f"{scn['target']['kind']} S={math.prod(scn['space']['alphabet_sizes'])}"
            ops.append(
                Op(
                    label,
                    lambda path=path, out=out: _verify_file(path, out),
                    lambda code, scn=scn, out=out: _check_verify(scn, out, code),
                )
            )
        return ops

    def probe_spec(self) -> dict:
        """Set-up loads the scenario files of the round built last."""
        return {"files": list(self._files)}


class SetDistance(_VerifyWorkload):
    """Set targets: (alphabet sizes, |A| / S), product laws only.

    The case counts of all workloads are odd, so that the median op
    falls inside a group of samples, not between two.  Here the three
    cases with S * |A| * n near 6e6 cost about the same and sit in the
    middle of the schedule, so the median op is drawn from all three.
    """

    cases = (
        ((2,) * 10, 0.01),
        ((2,) * 10, 0.50),
        ((2,) * 11, 0.12),
        ((2,) * 11, 0.25),
        ((2,) * 12, 0.01),
        ((2,) * 12, 0.10),
        ((2,) * 12, 0.50),
        ((3,) * 7, 0.05),
        ((3,) * 7, 0.30),
        ((4, 4, 4, 4, 4, 2), 0.02),
        ((4, 4, 4, 4, 4, 2), 0.25),
    )

    def scenario(self, rng, case) -> dict:
        sizes, share = case
        size = math.prod(sizes)
        count = max(1, round(share * size))
        _check_block(size, count, len(sizes))
        return {
            "space": {"alphabet_sizes": list(sizes)},
            "distribution": {"kind": "product", "pmfs": _pmfs(rng, sizes)},
            "alpha": {"weights": _unit_weights(rng, len(sizes)), "normalize": False},
            "target": {"kind": "set", "set": {"members": _members(rng, sizes, count)}},
        }


class FunctionalLaw(_VerifyWorkload):
    """Median, gap and mean targets: (sizes, target, functional, law, params).

    S <= 1000 takes check_lipschitz's exhaustive path, S > 1000 the
    sampled one.  "bits" is the bit count, self-bounding with (1, 0).
    Product laws are near-uniform, so that a level set {f <= median}
    holds about half the outcomes whatever the seed: its size sets the
    workload's peak memory.  Three cheap cases, three middle ones of
    about the same cost and three dear ones (the level sets of S = 2048),
    so the median op falls in the middle of the middle group.
    """

    cases = (
        ((2,) * 9, "median", "wsum", "product", None),
        ((3,) * 6, "gap", "infconv", "product", None),
        ((2,) * 9, "mean", "bits", "product", [1, 0]),
        ((2,) * 10, "mean", "wsum", "product", None),
        ((4,) * 5, "median", "distance", "product", None),
        ((2,) * 10, "mean", "infconv", "joint", None),
        ((2,) * 11, "median", "infconv", "product", None),
        ((2,) * 11, "median", "wsum", "product", None),
        ((2,) * 11, "gap", "wsum", "product", None),
    )

    def scenario(self, rng, case) -> dict:
        sizes, kind, fkind, law, params = case
        size = math.prod(sizes)
        _check_block(size, size, len(sizes))
        w = _unit_weights(rng, len(sizes))
        if fkind == "bits":
            functional = {"type": "weighted_sum", "coefficients": [1.0] * len(sizes)}
        elif fkind == "distance":
            functional = {"type": "distance_to_set", "set": {"members": _members(rng, sizes, 3)}}
        else:
            functional = {"type": "table", "values": _lipschitz_table(rng, sizes, w, fkind)}
        if law == "product":
            dist = {"kind": "product", "pmfs": _pmfs(rng, sizes, low=0.8)}
        else:
            table = rng.uniform(0.1, 1.0, size)
            dist = {"kind": "joint", "joint_table": (table / table.sum()).tolist()}
        target = {"kind": kind, "functional": functional}
        if params is not None:
            target["params"] = params
        return {
            "space": {"alphabet_sizes": list(sizes)},
            "distribution": dist,
            "alpha": {"weights": w, "normalize": False},
            "target": target,
        }


# ----------------------------------------------------------- sweep-small


def _sweep_op(seed: int, kind: str):
    scenario = verify.random_scenario(seed, kind)
    return scenario, verify.verify_scenario(scenario).to_json()


def _scenario_dict(sc) -> dict:
    """The inputs of a generated Scenario, in scenario-file form."""
    sizes = sc.space.alphabet_sizes
    if sc.dist.kind == "product":
        dist = {"kind": "product", "pmfs": [list(p) for p in sc.dist.pmfs]}
    else:
        dist = {"kind": "joint", "joint_table": list(sc.dist.joint_table)}
    if sc.target.kind == "set":
        target = {
            "kind": "set",
            "set": {"members": [list(p.symbols) for p in sc.target.set_spec.explicit]},
        }
    else:
        ev = sc.target.functional.evaluator
        values = [ev(Point(s)) for s in itertools.product(*map(range, sizes))]
        target = {"kind": sc.target.kind, "functional": {"type": "table", "values": values}}
    return {
        "space": {"alphabet_sizes": list(sizes)},
        "distribution": dist,
        "alpha": {"weights": list(sc.alpha.weights)},
        "target": target,
    }


def _check_sweep(out) -> list:
    scenario, text = out
    return oracle.check_report(_scenario_dict(scenario), json.loads(text))


# Generator seeds 0 .. SWEEP_POOL - 1 give scenarios whose reports all
# pass at the commit that added this benchmark (every kind checked), so
# a failed sweep-small op is a change in the program, not a draw.
SWEEP_POOL = 2400
# Scenarios whose reports fail a product-law row: a program defect (a
# lower-tail median row uses the rho of the sublevel set; see
# bench/README.md).  They lie outside the pool, and every sweep-small
# run checks them apart from its ops and prints what it finds.
KNOWN_DEFECTS = ((2435, "median"), (3178, "median"))


class SweepSmall:
    """Op i is random_scenario(base + i % 1000, kind), verify_scenario, to_json.

    base = seed % (SWEEP_POOL - 999), so every op draws from the pool.
    The 1000 scenarios are the unit that the untimed warm-up and the
    traced run go through; timed rounds cycle over them.  So which
    scenarios a run checks depends on its seed alone, not on how many
    ops fit into its time.  Their sizes vary (S = 4 to 81), and 1000 of
    them keep the mean cost of a seed's set within a few percent of
    another seed's.
    """

    kinds = ("set", "median", "gap", "drop")
    unit_rounds = 250

    def __init__(self, seed: int, workdir: str) -> None:
        self.base = seed % (SWEEP_POOL - self.unit_rounds * len(self.kinds) + 1)

    def round_ops(self, r: int) -> list[Op]:
        first = self.base + (r % self.unit_rounds) * len(self.kinds)
        return [
            Op(f"{kind} seed {first + k}", lambda s=first + k, kind=kind: _sweep_op(s, kind), _check_sweep)
            for k, kind in enumerate(self.kinds)
        ]

    def probe_spec(self) -> dict:
        return {}

    def known_defects(self) -> list[str]:
        """One line per KNOWN_DEFECTS scenario: still failing, or fixed."""
        lines = []
        for s, kind in KNOWN_DEFECTS:
            try:
                problems = _check_sweep(_sweep_op(s, kind))
            except Exception as e:
                problems = [f"raised {e!r}"]
            state = f"still fails: {problems[0]}" if problems else "passes now; the defect is fixed"
            lines.append(f"known program defect, random_scenario({s}, {kind!r}) {state}")
        return lines


# --------------------------------------------------------------- mc-tail

# Exact tail probability the threshold t is placed at.  Near 0.15 a
# correct estimate leaves its 99% Hoeffding band with probability about
# 1e-6 (the band is 4.6 standard deviations wide there), so a failed op
# means a wrong estimate rather than bad luck.
MC_TAIL_TARGET = 0.15


def _mc_op(space, dist, quantity, t: float, seed: int):
    return estimators.mc_tail(space, dist, quantity, t, seed=seed)


def _threshold(values: np.ndarray, probs: np.ndarray) -> float:
    """Midpoint between two support points, where P(V >= t) is nearest the target."""
    uniq, inverse = np.unique(values.ravel(), return_inverse=True)
    tails = np.cumsum(np.bincount(inverse, weights=probs.ravel())[::-1])[::-1]
    j = 1 + int(np.argmin(np.abs(tails[1:] - MC_TAIL_TARGET)))
    return 0.5 * (float(uniq[j - 1]) + float(uniq[j]))


class McTail:
    """estimators.mc_tail with the default sample count, binary spaces.

    Cases are (n, quantity, |A|); |A| * n stays at or below 1280.  Three
    cheap cases (|A| = 16), three middle ones of one size (|A| = 64,
    n = 18, different sets) and three dear ones (the functionals,
    evaluated per sample): the median op falls in the middle of the
    |A| = 64 group, whose ops all cost the same.  The seed
    chooses the laws, weights and sets; every round runs the same nine
    cases with new sampler seeds.
    """

    cases = (
        (16, "set", 16),
        (18, "set", 16),
        (20, "set", 16),
        (18, "set", 64),
        (18, "set", 64),
        (18, "set", 64),
        (16, "weighted_sum", 0),
        (20, "weighted_sum", 0),
        (16, "distance_to", 2),
    )
    unit_rounds = 1

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self._cases = [self.case(k) for k in range(len(self.cases))]
        # (t, exact tail) per case.  Rounds repeat the seed's cases with
        # new sampler seeds, so the oracle works each case out once.
        self._exact = [self.exact(case) for case in self._cases]

    def case(self, k: int) -> dict:
        n, quantity, count = self.cases[k]
        rng = _rng(self.seed, k)
        sizes = (2,) * n
        case = {
            "sizes": list(sizes),
            "pmfs": _pmfs(rng, sizes),
            "weights": _unit_weights(rng, n),
            "quantity": quantity,
        }
        if count:
            if quantity == "set":
                _check_block(MC_BLOCK_ROWS, count, n)
            case["members"] = _members(rng, sizes, count)
        return case

    @staticmethod
    def exact(case: dict) -> tuple[float, float]:
        scn = {
            "space": {"alphabet_sizes": case["sizes"]},
            "distribution": {"kind": "product", "pmfs": case["pmfs"]},
        }
        if case["quantity"] == "weighted_sum":
            spec = {"type": "weighted_sum", "coefficients": case["weights"]}
        else:
            spec = {"type": "distance_to_set", "set": {"members": case["members"]}}
        values = oracle.functional_values(spec, tuple(case["sizes"]), np.asarray(case["weights"]))
        probs = oracle.law(scn)
        t = _threshold(values, probs)
        return t, oracle.tail(values, probs, t)

    def round_ops(self, r: int) -> list[Op]:
        ops = []
        for k, (case, (t, exact)) in enumerate(zip(self._cases, self._exact)):
            # Fresh program objects every round, so nothing cached on them carries over.
            space, dist, quantity = build_mc_case(hamconc, case)
            mc_seed = self.seed * 1_000_000 + r * len(self.cases) + k
            ops.append(
                Op(
                    f"{case['quantity']} n={len(case['sizes'])}",
                    lambda a=(space, dist, quantity, t, mc_seed): _mc_op(*a),
                    lambda est, exact=exact: oracle.check_mc(est, exact, MC_SAMPLES, MC_DELTA),
                )
            )
        return ops

    def probe_spec(self) -> dict:
        return {"mc": list(self._cases)}


WORKLOADS = {
    "set-distance": SetDistance,
    "functional-law": FunctionalLaw,
    "sweep-small": SweepSmall,
    "mc-tail": McTail,
}
