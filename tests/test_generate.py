import pytest

from plmpoly import (
    Side,
    is_subtext,
    membership,
    metric_from_plm,
    potential,
    random_extended_vector,
    random_forest_plm,
    random_layered_plm,
    random_member,
    random_plm,
    validate_plm,
)
from conftest import seeded


def test_forest_models_valid_and_realized():
    rng = seeded(67)
    for _ in range(25):
        m = random_forest_plm(rng, rng.randint(1, 8))
        assert validate_plm(m).ok
        # the order really is the subtext order of the texts
        for i in range(m.n):
            for j in range(m.n):
                if i != j:
                    assert m.order.leq(i, j) == is_subtext(
                        m.texts[i], m.texts[j], m.order_mode
                    )
        potential(m, (1 << m.n) - 1)  # forests are path-independent by construction


def test_layered_models_valid():
    rng = seeded(71)
    for _ in range(25):
        m = random_layered_plm(rng, rng.randint(1, 8))
        assert m.order_mode == "explicit"
        assert validate_plm(m).ok
        metric_from_plm(m)


def test_layered_probabilities_in_range():
    rng = seeded(73)
    for _ in range(25):
        m = random_layered_plm(rng, 6)
        assert all(0 < p <= 1 for p in m.pr.values())


def test_random_plm_dispatch():
    rng = seeded(79)
    kinds = {random_plm(rng).order_mode for _ in range(30)}
    assert "explicit" in kinds  # layered shows up
    assert kinds & {"one-sided", "two-sided"}  # forests show up
    with pytest.raises(ValueError):
        random_plm(rng, kind="nope")


def test_random_member_is_member():
    rng = seeded(83)
    for _ in range(20):
        m = random_plm(rng, n=rng.randint(3, 6))
        d = metric_from_plm(m)
        for side in (Side.LOWER, Side.UPPER):
            x = random_member(rng, d, side)
            assert membership(x, d, side)


def test_random_extended_vector_mixes():
    rng = seeded(89)
    saw_top = saw_bottom = saw_finite = False
    for _ in range(50):
        v = random_extended_vector(rng, 5)
        for c in v.coords:
            saw_top |= c.is_pos_inf
            saw_bottom |= c.is_neg_inf
            saw_finite |= c.is_finite
    assert saw_top and saw_bottom and saw_finite
