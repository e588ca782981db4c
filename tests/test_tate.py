"""The free rank-one Tate-module model: transitions, twist law, fixed points,
Bott images."""

import random

import pytest

from wittkit.rings import CharPQuotient, CyclotomicTruncation
from wittkit.tate import (
    TateLayer,
    TateTower,
    bott_limit_cross_check,
    fixed_points_report,
    freeness_probe,
    r_of_alpha_tower_is_xi_tower,
)
from wittkit.tilt import epsilon, tilt_teichmuller, tilt_witt_add, xi_element
from wittkit.witt import teichmuller, witt_add, witt_neg, witt_one


def _tower():
    return TateTower(CyclotomicTruncation(3, 4, 1), 3)


def test_layer_dlog():
    ring = CyclotomicTruncation(3, 2, 1)
    layer = TateLayer(ring, 1)
    want = witt_add(
        teichmuller(ring.zeta(1), 3, 1), witt_neg(witt_one(ring, 3, 1))
    )
    assert layer.dlog_element() == want
    with pytest.raises(ValueError):
        TateLayer(ring, 3)


def test_ratio_identity_all_levels():
    tw = _tower()
    assert all(tw.ratio_identity_holds(n) for n in (1, 2, 3))


def test_dlog_tower_compatibilities():
    tw = _tower()
    assert all(f and r for _, f, r in tw.dlog_compatibility())
    assert tw.is_f_compatible(tw.alpha_tower())
    assert tw.is_f_compatible(tw.dlog_tower())
    # F on the alpha tower is the generator tower one level down
    assert tw.f_transition(tw.alpha_tower()[2]) == tw.alpha_tower()[1]


def test_twist_law():
    tw = _tower()
    eps = epsilon(tw.ring, 4)
    for i in range(1, 8):
        w = tilt_teichmuller(eps**i, 3)
        assert tw.twist_law_holds(w, tw.alpha_tower())
        assert tw.twist_law_holds(w, tw.dlog_tower())
    w = tilt_witt_add(tilt_teichmuller(eps, 3), tilt_teichmuller(eps**2, 3))
    assert tw.twist_law_holds(w, tw.alpha_tower())
    assert tw.twist_law_holds_int(3, tw.alpha_tower())  # phi fixes p


def test_tower_restrict_validates_compatibility():
    tw = _tower()
    elem = tw.alpha_tower()
    restricted = tw.tower_restrict(elem)
    assert len(restricted) == 2
    bad = list(elem)
    bad[2] = witt_add(bad[2], witt_one(tw.ring, 3, 3))
    with pytest.raises(ValueError):
        tw.tower_restrict(bad)


def test_r_of_alpha_is_xi_scalar():
    tw = _tower()
    xi = xi_element(tw.ring, 4, 3)
    assert r_of_alpha_tower_is_xi_tower(tw, xi)


def test_freeness_probe():
    assert freeness_probe(CyclotomicTruncation(3, 1, 1), 1, budget=10**4)
    assert freeness_probe(CyclotomicTruncation(3, 2, 1), 1, budget=10**4)
    assert freeness_probe(CyclotomicTruncation(3, 1, 1), 1, budget=1) is None


def test_freeness_probe_samples_over_budget():
    ring = CyclotomicTruncation(5, 2, 1)
    assert freeness_probe(ring, 2, budget=10**6, rng=random.Random(0)) is True


def test_fixed_points_alpha_labels():
    rep = fixed_points_report(CharPQuotient(3, 0, 9), 1)
    assert rep["inclusion_exact"]
    assert len(rep["fixed_elements"]) == len(rep["claimed"])
    assert all(lbl.endswith("* alpha") for lbl in rep["fixed_elements"])


def test_bott_images():
    tw = _tower()
    for n in (1, 2, 3):
        assert tw.bott_image(n) == tw.layer(n).dlog_element()
        if n < 3:
            assert tw.f_transition(tw.bott_image(n + 1)) == tw.bott_image(n)
    assert bott_limit_cross_check(CharPQuotient(3, 1, 3), 2)
