"""Seeded inputs for each workload, as plain data.

The generator never imports emdenlab: the program only ever sees what these
functions return.  Runs with different seeds must measure the same amount of
work, so the seed moves only parameters whose effect on the cost of a round
is small and smooth: starting points, the scale of b, window ends.  Those of
trajectory-drift are drawn stratified (one draw per equal slice of the
range, in shuffled order) over its 25 operations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from checks import PROFILES

WORKLOADS = ("readme-cli", "trajectory-drift", "time-integrals")


def stratified(rng: random.Random, lo: float, hi: float, count: int) -> List[float]:
    """count draws from [lo, hi], one per equal slice, shuffled."""
    width = (hi - lo) / count
    out = [lo + width * (i + rng.random()) for i in range(count)]
    rng.shuffle(out)
    return out


@dataclass(frozen=True)
class Case:
    """One operation's inputs; kind names what the operation does."""

    kind: str
    source: str                     # "spec" (problem-file text) or "powerfn"
    params: Dict[str, float] = field(default_factory=dict)
    profile: str = ""               # catalog id, trajectory-drift only


# ---------------------------------------------------------------------------
# trajectory-drift: 5 slope-compatible profiles x 5 operations per round

T0_DRIFT = 0.5


def trajectory_drift(seed: int) -> List[Case]:
    rng = random.Random(seed)
    per_profile = (("forward", "spec"), ("forward", "powerfn"),
                   ("backward", "spec"), ("backward", "powerfn"))
    count = len(PROFILES) * (len(per_profile) + 1)
    t_ends = stratified(rng, 4.6, 5.0, count)
    dx = stratified(rng, -0.1, 0.1, count)
    dv = stratified(rng, -0.1, 0.1, count)
    cases = []
    for i, prof in enumerate(PROFILES):
        # on-solution legs alternate between the two sources
        kinds = per_profile + (("on-solution", "spec" if i % 2 == 0 else "powerfn"),)
        for kind, source in kinds:
            j = len(cases)
            on = kind == "on-solution"
            cases.append(Case(kind, source, profile=prof.id, params={
                "t0": T0_DRIFT,
                "t1": t_ends[j],
                "rel_x": 0.0 if on else dx[j],
                "rel_v": 0.0 if on else dv[j],
            }))
    return cases


# ---------------------------------------------------------------------------
# time-integrals: Kummer-Liouville and rescaled-energy from each source,
# dilation from problem-file text


def time_integrals(seed: int) -> List[Case]:
    rng = random.Random(seed)

    def kl():
        # the clock and its inversion do nearly all the work, and their
        # adaptive quadrature refines chaotically in c, window and
        # gamma_init (p evaluations range over +-25% for +-5% changes), so
        # those stay fixed at the closed-form case gamma = beta = 1/t,
        # tau = t - 1; the mapped trajectory's start is seeded
        return {
            "c": 2.0, "t0": 1.0, "t1": 1.5, "g0": 1.0, "dg0": -1.0, "grid": 9,
            "x0": rng.uniform(0.25, 0.35),
            "v0": rng.uniform(-0.05, 0.05),
        }

    def conditioned(lo_s, hi_s, n):
        # k sets the nested antiderivatives' work the way c does above, so
        # it stays at a = -1/t; the scale of b is seeded
        return {
            "k": 1.0,
            "s": rng.uniform(lo_s, hi_s),
            "n": n,
            "t0": 0.5,
            "t1": 5.0,
            "x0": rng.uniform(1.2, 1.4),
            "v0": rng.uniform(-0.3, -0.1),
        }

    # five operations, so that the median falls in the middle of the
    # dilation cluster (about 1.6 s) and not between two kinds of operation
    return [
        Case("rescaled-energy", "spec", conditioned(-1.2, -0.8, 3)),
        Case("kummer-liouville", "spec", kl()),
        Case("dilation", "spec", conditioned(1.6, 2.4, -3)),
        Case("rescaled-energy", "powerfn", conditioned(-1.2, -0.8, 3)),
        Case("kummer-liouville", "powerfn", kl()),
    ]


# ---------------------------------------------------------------------------
# readme-cli: the README's subcommands, one of each per round


def readme_cli(seed: int) -> List[Case]:
    rng = random.Random(seed)

    def lane_emden_start():
        return {"x0": rng.uniform(1.2, 1.4), "v0": rng.uniform(-0.3, -0.1)}

    def drag(lo_s, hi_s, n):
        return dict(lane_emden_start(), k=1.0, s=rng.uniform(lo_s, hi_s), n=n)

    return [
        Case("scheme-check", "cli"),
        Case("integrate", "cli", lane_emden_start()),
        Case("invariant-particular", "cli", lane_emden_start()),
        Case("invariant-generic", "cli", lane_emden_start()),
        Case("invariant-s7a", "cli", drag(-1.2, -0.8, 3)),
        Case("invariant-s7b", "cli", drag(1.6, 2.4, -3)),
        Case("reduce", "cli", lane_emden_start()),
        Case("superpose", "cli", {
            "K": rng.uniform(0.5, 3.0), "t0": rng.uniform(0.05, 0.2), "t1": rng.uniform(4.0, 6.0)}),
        Case("construct", "cli", {"n": rng.choice((2, 3, 5, 7)), "K": rng.uniform(0.5, 2.0)}),
        Case("catalog", "cli"),
    ]


GENERATORS = {
    "readme-cli": readme_cli,
    "trajectory-drift": trajectory_drift,
    "time-integrals": time_integrals,
}


def generate(workload: str, seed: int) -> List[Case]:
    return GENERATORS[workload](seed)


def drag_spec(p: Dict[str, float], interval: Tuple[float, float]) -> str:
    """Problem file for a = -k/t, b = s t^(-2k)."""
    return (
        "kind = emden\n"
        f"n = {p['n']!r}\n"
        f"a = -{p['k']!r}/t\n"
        f"b = {p['s']!r}*t^(-{2.0 * p['k']!r})\n"
        "singular_points = 0\n"
        f"interval = {interval[0]!r}, {interval[1]!r}\n"
        f"x0 = {p['x0']!r}\n"
        f"v0 = {p['v0']!r}\n"
    )


def lane_emden_spec(x0: float, v0: float) -> str:
    """The README's lane-emden-n5.spec with another starting point."""
    return (
        "kind = emden\nn = 5\na = -2/t\nb = -1\nsingular_points = 0\n"
        f"interval = 0.5, 5\nx0 = {x0!r}\nv0 = {v0!r}\n"
    )
