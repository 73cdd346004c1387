"""Acceptance gate: nine checks, one printed PASS/FAIL line each.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every check is exact rational arithmetic unless a line says
otherwise, and the timed ones assert their budget.
"""

import math
import time
from fractions import Fraction as F

import pytest

from plmpoly import (
    Side,
    TropVector,
    boltzmann,
    check_projector,
    co_yoneda,
    cross_check_rays,
    dual_decompose,
    enumerate_rays,
    funk,
    isbell_member,
    map_a,
    map_b,
    map_l,
    map_r,
    membership,
    metric_cone_constraints,
    metric_from_plm,
    oracle_rays,
    project,
    random_extended_vector,
    random_member,
    random_plm,
    retraction_from_subset,
    truncate_big_m,
    word_decompose,
    yoneda,
)
from conftest import make_d2, seeded

D2_PARAMS = (F(1, 3), F(1, 2), F(9, 10))


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    line = f"criterion {num} ({name}): {mark}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def model_pool():
    """200 seeded random models, n in 3..7, forests and layered orders mixed."""
    rng = seeded(20240)
    return [random_plm(rng) for _ in range(200)]


def test_criterion_1_example_rays(ex1):
    t0 = time.perf_counter()
    lower = enumerate_rays(ex1, Side.LOWER)
    upper = enumerate_rays(ex1, Side.UPPER)
    ok_counts = len(lower) == 3 and len(upper) == 4
    lower_carriers = {tuple(sorted(r.carrier)) for r in lower}
    upper_carriers = {tuple(sorted(r.carrier)) for r in upper}
    ok_carriers = lower_carriers == {(0,), (1,), (0, 1, 2)} and upper_carriers == {
        (0, 2),
        (1, 2),
        (2,),
        (0, 1, 2),
    }
    full_lower = next(r for r in lower if r.carrier == (0, 1, 2))
    full_upper = next(r for r in upper if r.carrier == (0, 1, 2))
    ok_gens = (
        full_lower.generator.mults() == (F(1, 2), F(1, 3), F(1))
        and full_upper.generator.mults() == (F(2, 3), F(1), F(1, 3))  # (2,3,1) scaled
        and full_upper.principal_of is None
    )
    d = metric_from_plm(ex1)
    ok_oracle = cross_check_rays(
        lower, oracle_rays(metric_cone_constraints(d, Side.LOWER), 3)
    ) and cross_check_rays(upper, oracle_rays(metric_cone_constraints(d, Side.UPPER), 3))
    elapsed = time.perf_counter() - t0
    report(
        1,
        "example rays",
        ok_counts and ok_carriers and ok_gens and ok_oracle and elapsed < 1.0,
        f"3+4 rays, exact oracle match, {elapsed:.3f}s",
    )


def test_criterion_2_oracle_equivalence(model_pool):
    rng = seeded(20242)
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for m in model_pool:
        # both sides on small models, one sampled side on the larger ones
        sides = (
            (Side.LOWER, Side.UPPER)
            if m.n <= 5
            else ((Side.LOWER,) if rng.random() < 0.5 else (Side.UPPER,))
        )
        for side in sides:
            rays = enumerate_rays(m, side)
            qs = oracle_rays(metric_cone_constraints(metric_from_plm(m), side), m.n)
            if not cross_check_rays(rays, qs):
                ok = False
            checked += 1
    elapsed = time.perf_counter() - t0
    report(
        2,
        "oracle equivalence",
        ok and elapsed < 60.0,
        f"200 models / {checked} enumerations, {elapsed:.1f}s",
    )


def test_criterion_3_metric_projector(model_pool):
    ok = True
    for m in model_pool:
        d = metric_from_plm(m)
        for i in range(d.n):
            if d[i, i].mult != 1:
                ok = False
        if not check_projector(d.mat):
            ok = False
        for i in range(d.n):
            for j in range(d.n):
                if funk(yoneda(d, i), yoneda(d, j)) != d[i, j]:
                    ok = False
                if funk(co_yoneda(d, j), co_yoneda(d, i)) != d[i, j]:
                    ok = False
    report(3, "metric and projector", ok, "200 models, all pairs, exact")


def test_criterion_4_linear_systems(model_pool):
    ok = True
    count = 0
    for m in model_pool:
        d = metric_from_plm(m)
        for k in range(d.n):
            try:
                dual_decompose(d, k)  # both identities asserted exactly inside
            except AssertionError:
                ok = False
            count += 1
    report(4, "linear-system identities", ok, f"{count} texts, exact")


def test_criterion_5_duality(ex1):
    rng = seeded(20245)
    ok = True

    # adjunction on 1000 random extended vector pairs (exact, which
    # subsumes any float tolerance)
    for _ in range(1000):
        m = random_plm(rng)
        d = metric_from_plm(m)
        y = random_extended_vector(rng, d.n)
        x = random_extended_vector(rng, d.n)
        if funk(map_a(d, y), x) != funk(map_b(d, x), y):
            ok = False

    # B acts as negation, and A undoes it, on 500 fixed-part members
    for _ in range(500):
        m = random_plm(rng)
        d = metric_from_plm(m)
        x = (
            random_member(rng, d)
            if rng.random() < 0.5
            else project(random_extended_vector(rng, d.n), d)
        )
        bx = map_b(d, x)
        if bx != x.negated():
            ok = False
        if map_a(d, bx) != x:
            ok = False

    # A is an order-reversing isometry on upper-side members
    for _ in range(200):
        m = random_plm(rng)
        d = metric_from_plm(m)
        y1 = random_member(rng, d, Side.UPPER)
        y2 = random_member(rng, d, Side.UPPER)
        if funk(map_a(d, y1), map_a(d, y2)) != funk(y2, y1):
            ok = False

    # decomposition identities for the worked example and 50 random models
    for m in [ex1] + [random_plm(rng) for _ in range(50)]:
        d = metric_from_plm(m)
        for k in range(d.n):
            try:
                dual_decompose(d, k)
            except AssertionError:
                ok = False

    report(5, "duality", ok, "1000 adjunction / 500 negation / 200 isometry, exact")


def test_criterion_6_retraction(ex1):
    rng = seeded(20246)
    ok = True

    # idempotence and non-expansiveness on 1000 member pairs
    checked = 0
    while checked < 1000:
        m = random_plm(rng)
        d = metric_from_plm(m)
        subset = sorted(rng.sample(range(d.n), rng.randint(1, d.n)))
        r = retraction_from_subset(d, subset)  # construction asserts R o R == R
        x, y = random_member(rng, d), random_member(rng, d)
        rx, ry = r.apply(x), r.apply(y)
        if rx is None or ry is None:
            continue
        if r.apply(rx) != rx:
            ok = False
        if not funk(rx, ry) <= funk(x, y):
            ok = False
        checked += 1

    # frozen word decomposition: weights log 2 and log 3
    out = word_decompose(ex1, [0, 1], 2)
    if [(i, w.mult) for i, w in out] != [(0, F(1, 2)), (1, F(1, 3))]:
        ok = False

    # Boltzmann bound at three temperatures; T=1 value exact
    d = metric_from_plm(ex1)
    terms = [(d[0, 2], yoneda(d, 0)), (d[1, 2], yoneda(d, 1))]
    res1 = boltzmann(terms, 1.0)
    if res1.mult != (F(1, 2), F(1, 3), F(0)):
        ok = False
    for t in (1.0, 0.1, 0.001):
        res = boltzmann(terms, t)
        bound = t * math.log(2)
        for c in range(3):
            target = res.target[c].log
            if math.isinf(target):
                if res.readback[c] != math.inf:
                    ok = False
            elif not (
                res.readback[c] <= target + 1e-9
                and target - res.readback[c] <= bound + 1e-9
            ):
                ok = False

    report(6, "retraction", ok, "1000 pairs, frozen weights, soft-min bound")


def test_criterion_7_isbell(model_pool):
    rng = seeded(20247)
    ok = True

    # triple composites on 1000 random extended vectors
    for _ in range(1000):
        m = random_plm(rng)
        d = metric_from_plm(m)
        x = random_extended_vector(rng, d.n)
        if map_l(d, map_r(d, map_l(d, x))) != map_l(d, x):
            ok = False
        if map_r(d, map_l(d, map_r(d, x))) != map_r(d, x):
            ok = False

    # the conjugation pair swaps generator families on every pooled model
    for m in model_pool:
        d = metric_from_plm(m)
        for k in range(d.n):
            if map_r(d, yoneda(d, k)) != co_yoneda(d, k):
                ok = False
            if map_l(d, co_yoneda(d, k)) != yoneda(d, k):
                ok = False

    # lattice operations keep membership on 500 member pairs
    checked = 0
    while checked < 500:
        m = random_plm(rng)
        d = metric_from_plm(m)
        x, y = random_member(rng, d), random_member(rng, d)
        if not membership(x.min_with(y), d, Side.LOWER):
            ok = False
        if set(x.support) & set(y.support):
            if not membership(x.max_with(y), d, Side.LOWER):
                ok = False
        checked += 1

    # strict containment witnesses on the uniform-distance metric
    for t in D2_PARAMS:
        d2 = make_d2(t)
        zero = TropVector.from_probs([1, 1, 1])
        if not (membership(zero, d2, Side.LOWER) and isbell_member(d2, zero)):
            ok = False
        w = TropVector.from_probs([1, 1, t])  # log coords (0, 0, -log t)
        if not membership(w, d2, Side.LOWER):
            ok = False
        if isbell_member(d2, w):
            ok = False
        if map_l(d2, map_r(d2, w)) != zero:
            ok = False

    report(7, "isbell", ok, "1000 composites / 500 lattice pairs / witnesses")


def test_criterion_8_uniform_metric_rays():
    ok = True
    for t in D2_PARAMS:
        d2 = make_d2(t)
        qs = oracle_rays(metric_cone_constraints(d2, Side.LOWER), 3)
        if len(qs) != 6:
            ok = False
        cols = [yoneda(d2, k) for k in range(3)]
        principal = sum(1 for q in qs if any(q.proportional(c) for c in cols))
        if principal != 3:
            ok = False
    report(8, "uniform-metric rays", ok, "6 rays, 3 principal, t in {1/3,1/2,9/10}")


def test_criterion_9_big_m_convergence(ex1):
    d = metric_from_plm(ex1)
    originals = {
        Side.LOWER: [r.generator for r in enumerate_rays(ex1, Side.LOWER)],
        Side.UPPER: [r.generator for r in enumerate_rays(ex1, Side.UPPER)],
    }
    ok = True
    for big_m in (10.0, 100.0):
        dm = truncate_big_m(d, big_m)
        eps = dm[1, 0].mult  # the exact stand-in for e^{-M}
        for side, origs in originals.items():
            qs = oracle_rays(metric_cone_constraints(dm, side), 3)
            if len(qs) != 6:
                ok = False
            for orig in origs:
                # every exact ray survives: some truncated ray sits within
                # eps of it on every coordinate
                if not any(
                    all(abs(a - b) <= eps for a, b in zip(q.mults(), orig.mults()))
                    for q in qs
                ):
                    ok = False
    report(9, "big-M convergence", ok, "6 rays per side at M=10,100; deviation <= e^-M")
