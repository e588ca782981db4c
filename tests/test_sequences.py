"""Complex exactness machinery and its registered instances."""

import hashlib
import itertools
import json
import random

import numpy as np
import pytest

from wittkit.kaehler import fn_d, omega1_for_ring
from wittkit.rings import (
    CharPQuotient,
    CyclotomicTruncation,
    random_coefficients,
    random_element,
    ring_from_descriptor,
)
from wittkit.sequences import (
    TwistedModule,
    broken_complex,
    check_fnd_leibniz,
    check_module_axioms,
    check_vn_module_hom,
    check_witt_intersection,
    check_xv_identity,
    exact_rz_complex,
    exactness_report,
    frobenius_image,
    ring_carrier,
    witt_carrier,
    witt_restriction_complex,
)
from wittkit.witt import (
    frobenius,
    frobenius_power,
    random_witt,
    raw_witt_ops,
    teichmuller,
    verschiebung,
    witt_one,
    z_element,
)


@pytest.mark.parametrize(
    "ring,n",
    [
        (CyclotomicTruncation(3, 1, 1), 1),
        (CyclotomicTruncation(3, 1, 1), 2),
        (CharPQuotient(3, 0, 2), 1),
        (CharPQuotient(5, 0, 1), 1),
    ],
)
def test_witt_restriction_sequence_exact(ring, n):
    cx = witt_restriction_complex(ring, ring.p, n)
    verdicts = exactness_report(cx, budget=10**6)
    assert all(v.verdict == "pass" for v in verdicts), [v.as_dict() for v in verdicts]


def test_exact_rz_small_instance():
    ring = CyclotomicTruncation(3, 2, 1)
    cx, classifiers = exact_rz_complex(ring, 1)
    verdicts = exactness_report(cx, budget=10**6, classifiers=classifiers)
    by_slot = {v.slot: v for v in verdicts}
    assert by_slot["composite 0->2"].verdict == "pass"
    assert by_slot["composite 1->3"].verdict == "pass"
    assert by_slot["exact at cyc(3,2,1) (injectivity)"].verdict == "pass"
    assert by_slot["exact at W_2(cyc(3,2,1))"].verdict in ("pass", "truncation-limited")
    assert by_slot["exact at W_1(cyc(3,2,1))"].verdict == "pass"
    surj = by_slot["exact at cyc(3,2,1)/p^1 (surjectivity)"]
    assert surj.verdict in ("pass", "truncation-limited")
    if surj.verdict == "truncation-limited":
        assert "defect" in surj.note


def test_broken_complex_fails_with_witness():
    bad = broken_complex(CyclotomicTruncation(3, 2, 1), 3, 1)
    verdicts = exactness_report(bad, budget=10**4)
    fails = [v for v in verdicts if v.verdict == "fail"]
    assert fails and fails[0].witness is not None
    # the first element whose Teichmuller lift R z does not send to zero,
    # as the map computed it before R z was compiled with z folded in
    assert (fails[0].slot, fails[0].witness) == ("composite 0->2", (0, 0, 0, 0, 0, 1))


def test_sampled_mode_flags_verdict():
    ring = CyclotomicTruncation(3, 2, 1)
    cx = witt_restriction_complex(ring, 3, 1)
    verdicts = exactness_report(cx, budget=10)  # force sampling
    assert any(v.mode == "sampled" for v in verdicts)


def test_twisted_module_axioms():
    ring = CyclotomicTruncation(3, 2, 1)
    rng = random.Random(7)
    for n in (1, 2):
        tm = TwistedModule(ring, n)
        assert check_module_axioms(tm, rng, triples=60) == []
        y = verschiebung(witt_one(ring, 3, n))
        m = tm.random_element(rng)
        got = tm.action(y, m)
        want = (tuple(3 * c % ring.m for c in m[0]), 3 * m[1])
        assert tm.eq(got, want)
    with pytest.raises(ValueError):
        TwistedModule(ring, 1).action(witt_one(ring, 3, 3), tm.random_element(rng))


def test_supporting_identities():
    ring = CyclotomicTruncation(3, 2, 1)
    rng = random.Random(8)
    assert check_fnd_leibniz(ring, 1, rng, samples=25) == []
    assert check_xv_identity(ring, 3, 1, rng, samples=50) == []
    assert check_vn_module_hom(ring, 3, 1, rng, samples=50) == []
    assert check_vn_module_hom(ring, 3, 2, rng, samples=50) == []


def test_witt_intersection_chain():
    ring = CyclotomicTruncation(3, 4, 1)
    rng = random.Random(9)
    res = check_witt_intersection(ring, 1, 3, rng, samples=3)
    assert res["chain_identity"]
    assert res["members_divide"]
    assert res["nonmember_rejected"]
    with pytest.raises(ValueError):
        check_witt_intersection(CyclotomicTruncation(3, 2, 1), 1, 3, rng)


def test_carrier_sizes():
    ring = CyclotomicTruncation(3, 1, 1)
    assert ring_carrier(ring).size == 9
    assert witt_carrier(ring, 3, 2).size == 81
    assert len(list(witt_carrier(ring, 3, 2).elements())) == 81


def _non_exact_complex(ring):
    """The restriction complex over `ring` (n = 1) with one extra element,
    (1, 0) in W_2, sent to zero by R: its middle slot is not exact."""
    cx = witt_restriction_complex(ring, ring.p, 1)
    rmap, extra, zero = cx.maps[1], (ring.one().data, ring.zero().data), (ring.zero().data,)
    cx.maps[1] = lambda w: zero if w == extra else rmap(w)
    return cx


def _restriction(ring, n):
    return lambda: (witt_restriction_complex(ring, ring.p, n), None)


COMPLEXES = {
    "restriction-charp(3,0,1)-n1": _restriction(CharPQuotient(3, 0, 1), 1),
    "restriction-charp(3,0,1)-n2": _restriction(CharPQuotient(3, 0, 1), 2),
    "restriction-charp(3,0,2)-n1": _restriction(CharPQuotient(3, 0, 2), 1),
    "restriction-charp(3,0,2)-n2": _restriction(CharPQuotient(3, 0, 2), 2),
    "restriction-cyc(3,1,1)-n1": _restriction(CyclotomicTruncation(3, 1, 1), 1),
    "restriction-cyc(3,1,1)-n2": _restriction(CyclotomicTruncation(3, 1, 1), 2),
    "restriction-charp(5,0,1)-n1": _restriction(CharPQuotient(5, 0, 1), 1),
    "exact-rz-cyc(3,2,1)": lambda: exact_rz_complex(CyclotomicTruncation(3, 2, 1), 1),
    "broken-cyc(3,2,1)": lambda: (broken_complex(CyclotomicTruncation(3, 2, 1), 3, 1), None),
    "non-exact-cyc(3,1,1)": lambda: (_non_exact_complex(CyclotomicTruncation(3, 1, 1)), None),
}
BUDGETS = (1, 9, 27, 81, 729, 10**4)

# per complex and budget (in BUDGETS order): the SHA-256 of the report's
# as_dict() list and the calls per map, recorded at commit f1d92da, before
# exactness_report became one scan per carrier
RECORDED = {
    "restriction-charp(3,0,1)-n1": [
        ("e54463b69c698e32331847f12b29a1fc93008c8a0005bcc32fbd252009f7f1ee", (6, 3)),
        ("6a3fb393cd96dbd9d1e87d098cab81be5156d14bd7526f368f24336f9f2e17c8", (9, 21)),
        ("6a3fb393cd96dbd9d1e87d098cab81be5156d14bd7526f368f24336f9f2e17c8", (9, 21)),
        ("6a3fb393cd96dbd9d1e87d098cab81be5156d14bd7526f368f24336f9f2e17c8", (9, 21)),
        ("6a3fb393cd96dbd9d1e87d098cab81be5156d14bd7526f368f24336f9f2e17c8", (9, 21)),
        ("6a3fb393cd96dbd9d1e87d098cab81be5156d14bd7526f368f24336f9f2e17c8", (9, 21)),
    ],
    "restriction-charp(3,0,1)-n2": [
        ("185be78b7bbbf8d700bd4ac55e7877b951d85d18b89a3ae500d8209c0856a6de", (6, 3)),
        ("092b75d4cfbdd8f168902eb18b85554b3dae5b6af1964a2a5546985d2a1f2a45", (6, 3)),
        ("20d4259cb0796e8a99781ea1765822ea2ee4bb6f6dcf4054be7f5471e3c90686", (9, 57)),
        ("20d4259cb0796e8a99781ea1765822ea2ee4bb6f6dcf4054be7f5471e3c90686", (9, 57)),
        ("20d4259cb0796e8a99781ea1765822ea2ee4bb6f6dcf4054be7f5471e3c90686", (9, 57)),
        ("20d4259cb0796e8a99781ea1765822ea2ee4bb6f6dcf4054be7f5471e3c90686", (9, 57)),
    ],
    "restriction-charp(3,0,2)-n1": [
        ("c333e45eb076a0f36e677b75cb32b42e1645214c19105f65fce8ad403dd75dc0", (18, 9)),
        ("b5a9524c0fa17b97dfb85a55b04bfd706eab285fc7ff16ecc3c37f75309ecfe6", (18, 9)),
        ("b5a9524c0fa17b97dfb85a55b04bfd706eab285fc7ff16ecc3c37f75309ecfe6", (18, 9)),
        ("f1c9f278158f6f17279810ec2d40245a9cbb4b697752e4eccacfabd00ca54a69", (27, 171)),
        ("f1c9f278158f6f17279810ec2d40245a9cbb4b697752e4eccacfabd00ca54a69", (27, 171)),
        ("f1c9f278158f6f17279810ec2d40245a9cbb4b697752e4eccacfabd00ca54a69", (27, 171)),
    ],
    "restriction-charp(3,0,2)-n2": [
        ("afeb04ffe2147366c2919ec73b9d5423666f9a1d94f8c2b63fc3142d5cc06757", (18, 9)),
        ("c6798f5857507c0a3d6400ac55cb104fdd736a0fbf13e2287fe2512b1d9d9dd6", (18, 9)),
        ("c6798f5857507c0a3d6400ac55cb104fdd736a0fbf13e2287fe2512b1d9d9dd6", (18, 9)),
        ("c6798f5857507c0a3d6400ac55cb104fdd736a0fbf13e2287fe2512b1d9d9dd6", (18, 9)),
        ("6fcd0b3395e3ca27a687d14123b0bd59bfedd9e35328e440471e8be825894477", (27, 1467)),
        ("6fcd0b3395e3ca27a687d14123b0bd59bfedd9e35328e440471e8be825894477", (27, 1467)),
    ],
    "restriction-cyc(3,1,1)-n1": [
        ("3dfe1c1ab089e27c8ee44cd2a4a3f93a68cae8a5d8c0ab23cd14db8fd9769169", (18, 9)),
        ("6f5077e0e1d2a4962b368ce8a65d3c4b7faab46a29c053e5c22ff4c97c14f3ff", (18, 9)),
        ("6f5077e0e1d2a4962b368ce8a65d3c4b7faab46a29c053e5c22ff4c97c14f3ff", (18, 9)),
        ("b6630cb694aa886025ff4bebda84d9f26c698a762e36c963022abe6742ce94a5", (27, 171)),
        ("b6630cb694aa886025ff4bebda84d9f26c698a762e36c963022abe6742ce94a5", (27, 171)),
        ("b6630cb694aa886025ff4bebda84d9f26c698a762e36c963022abe6742ce94a5", (27, 171)),
    ],
    "restriction-cyc(3,1,1)-n2": [
        ("9f2cb3eed087d9a4c0db1b9afef5dd8908958bfeddf2d0316e7db672d3a3ab3f", (18, 9)),
        ("f10c2fae670ea7535925291c5d3fe0d7825f848acdcc7e488b71e7fa4253b5a8", (18, 9)),
        ("f10c2fae670ea7535925291c5d3fe0d7825f848acdcc7e488b71e7fa4253b5a8", (18, 9)),
        ("f10c2fae670ea7535925291c5d3fe0d7825f848acdcc7e488b71e7fa4253b5a8", (18, 9)),
        ("e68e64a3270f55d39d799ccb9a20ff5be1f561fab0e55e31f085058448d06595", (27, 1467)),
        ("e68e64a3270f55d39d799ccb9a20ff5be1f561fab0e55e31f085058448d06595", (27, 1467)),
    ],
    "restriction-charp(5,0,1)-n1": [
        ("39f4530755235c65ca5348bcaf5ab007978a6abeec091af52bb9b6823c06c86a", (10, 5)),
        ("3296388c0741f8a15e3a6a000fc73a2c4c6f01a62b39fbb05bbab14374e308a9", (10, 5)),
        ("f28c72820f36abb20539895d2a95eaef178f1b75af95266ecfece4f0725ef532", (15, 55)),
        ("f28c72820f36abb20539895d2a95eaef178f1b75af95266ecfece4f0725ef532", (15, 55)),
        ("f28c72820f36abb20539895d2a95eaef178f1b75af95266ecfece4f0725ef532", (15, 55)),
        ("f28c72820f36abb20539895d2a95eaef178f1b75af95266ecfece4f0725ef532", (15, 55)),
    ],
    "exact-rz-cyc(3,2,1)": [
        ("67701ffe0175284a061a5151f3a82ea19eeb5ae1e9dd6fd683b39bc3e9e36300", (1458, 1729, 1000)),
        ("67701ffe0175284a061a5151f3a82ea19eeb5ae1e9dd6fd683b39bc3e9e36300", (1458, 1729, 1000)),
        ("67701ffe0175284a061a5151f3a82ea19eeb5ae1e9dd6fd683b39bc3e9e36300", (1458, 1729, 1000)),
        ("67701ffe0175284a061a5151f3a82ea19eeb5ae1e9dd6fd683b39bc3e9e36300", (1458, 1729, 1000)),
        ("beb127cfa51c0feaedc76d6103234714e3c78999298727c8b81951be0bccbf38", (1458, 1729, 1729)),
        ("beb127cfa51c0feaedc76d6103234714e3c78999298727c8b81951be0bccbf38", (1458, 1729, 1729)),
    ],
    "broken-cyc(3,2,1)": [
        ("80077e62e717ff968890a0611e22ffda7bcb7ce6e8932058929510c2a4cab289", (731, 2)),
        ("80077e62e717ff968890a0611e22ffda7bcb7ce6e8932058929510c2a4cab289", (731, 2)),
        ("80077e62e717ff968890a0611e22ffda7bcb7ce6e8932058929510c2a4cab289", (731, 2)),
        ("80077e62e717ff968890a0611e22ffda7bcb7ce6e8932058929510c2a4cab289", (731, 2)),
        ("7135d3c2376ee8b7a1b9b240b93db3355cb0a3785d84c955a683b98e97b71da9", (731, 2)),
        ("7135d3c2376ee8b7a1b9b240b93db3355cb0a3785d84c955a683b98e97b71da9", (731, 2)),
    ],
    "non-exact-cyc(3,1,1)": [
        ("3dfe1c1ab089e27c8ee44cd2a4a3f93a68cae8a5d8c0ab23cd14db8fd9769169", (18, 9)),
        ("6f5077e0e1d2a4962b368ce8a65d3c4b7faab46a29c053e5c22ff4c97c14f3ff", (18, 9)),
        ("6f5077e0e1d2a4962b368ce8a65d3c4b7faab46a29c053e5c22ff4c97c14f3ff", (18, 9)),
        ("f3b8d1df20d7e82a5fab206c86ca314b3daff040550e47b454380c4e39051e37", (27, 118)),
        ("f3b8d1df20d7e82a5fab206c86ca314b3daff040550e47b454380c4e39051e37", (27, 118)),
        ("f3b8d1df20d7e82a5fab206c86ca314b3daff040550e47b454380c4e39051e37", (27, 118)),
    ],
}


def _counted(cx):
    calls = [0] * len(cx.maps)

    def counted(f, i):
        def evaluate(x):
            calls[i] += 1
            return f(x)

        return evaluate

    cx.maps = [counted(f, i) for i, f in enumerate(cx.maps)]
    return calls


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("name", list(COMPLEXES))
def test_report_bytes_and_map_calls_match_the_recorded_reports(name, budget):
    cx, classifiers = COMPLEXES[name]()
    calls = _counted(cx)
    verdicts = exactness_report(cx, budget=budget, classifiers=classifiers)
    body = json.dumps([v.as_dict() for v in verdicts], sort_keys=True).encode()
    digest, recorded_calls = RECORDED[name][BUDGETS.index(budget)]
    assert hashlib.sha256(body).hexdigest() == digest
    assert all(c <= r for c, r in zip(calls, recorded_calls)), (calls, recorded_calls)


def test_non_exact_complex_fails_at_its_extra_kernel_element():
    ring = CyclotomicTruncation(3, 1, 1)
    verdicts = exactness_report(_non_exact_complex(ring), budget=10**4)
    fails = [v for v in verdicts if v.verdict == "fail"]
    assert [v.slot for v in fails] == ["exact at W_2(cyc(3,1,1))"]
    assert fails[0].witness == (ring.one().data, ring.zero().data)


def test_each_map_is_evaluated_once_per_source_element():
    # swept carriers: map i runs once per element of C_i, plus once per
    # distinct value of map i-1 for the composite slot
    cx = witt_restriction_complex(CyclotomicTruncation(3, 1, 1), 3, 2)
    calls = _counted(cx)
    sizes = [c.size for c in cx.carriers]
    assert sizes == [9, 729, 81]
    exactness_report(cx, budget=10**6)
    bounds = [sizes[0], sizes[1] + min(sizes[0], sizes[1])]
    assert bounds == [9, 738]
    assert all(c <= b for c, b in zip(calls, bounds)), (calls, bounds)


# per complex at budget 10**4: the SHA-256 of the report's as_dict() list and
# the calls per map, recorded at commit 78555f8, before R z became a W_n
# product and F^n the ghost component w_n
RECORDED_ABOVE_THE_CAP = {
    (3, 3, 1, 2): (
        "255f152f68cc297301945ae0f8caa4d091684d59aad145f6ec9f2bd1a4650032",
        (1000, 2000, 1),
    ),
    (3, 2, 2, 1): (
        "57f4aeaf83fcb594262ad65aee04031c9249ba48c85dcd6326913c60e7999615",
        (1000, 2000, 1),
    ),
}


@pytest.mark.parametrize("shape", list(RECORDED_ABOVE_THE_CAP))
def test_exact_rz_reports_above_the_table_cap_match_the_recorded_reports(shape):
    p, N, M, n = shape
    cx, classifiers = exact_rz_complex(CyclotomicTruncation(p, N, M), n)
    calls = _counted(cx)
    verdicts = exactness_report(cx, budget=10**4, classifiers=classifiers)
    body = json.dumps([v.as_dict() for v in verdicts], sort_keys=True).encode()
    digest, recorded_calls = RECORDED_ABOVE_THE_CAP[shape]
    assert hashlib.sha256(body).hexdigest() == digest
    assert all(c <= r for c, r in zip(calls, recorded_calls)), (calls, recorded_calls)


# the exact-rz maps and the twisted action as they were computed before R z
# became a W_n product and F^n the ghost component: the oracles below


def _rz_by_the_long_product(ring, n):
    z = z_element(ring, n + 1).data
    raw_hi = raw_witt_ops(ring, ring.p, n + 1)
    return lambda w: raw_hi.mul(z, w)[:-1]


def _fnbar_by_frobenius(ring, n):
    p, zero = ring.p, ring.zero().data
    pk = min(p**n, ring.m)

    def fnbar(w):
        cur = w + (zero,)
        for k in range(n):
            cur = raw_witt_ops(ring, p, n + 1 - k).frob(cur)
        return tuple(c % pk for c in cur[0])

    return fnbar


def _fn_d_by_ring_elements(w, omega):
    n = w.length - 1
    acc = [0] * omega.gens
    for i, a in enumerate(w.coords):
        term = omega.mult(a ** (w.p ** (n - i) - 1), omega.d_of(a))
        acc = [x + y for x, y in zip(acc, term)]
    return [c % omega.modulus for c in acc]


def _action_by_frobenius_power(tm, y, m):
    alpha, a = m
    fny = frobenius_power(y, tm.n).coords[0]
    fnd_y = _fn_d_by_ring_elements(y, tm.omega)
    part1 = [
        (x - z) % tm.ring.m
        for x, z in zip(tm.omega.mult(fny, alpha), tm.omega.mult(a, fnd_y))
    ]
    return (tuple(part1), fny * a)


def _witt_inputs(ring, n, rng, count):
    """Payloads of W_n(ring): one, zero, Teichmuller lifts, V-images and
    V^(n-1)-images (for n > 1), and count seeded random vectors."""
    p = ring.p
    a = [random_element(ring, rng) for _ in range(3)]
    out = [witt_one(ring, p, n).data, (ring.zero().data,) * n]
    out += [teichmuller(x, p, n).data for x in a]
    if n > 1:
        out += [verschiebung(random_witt(ring, p, n - 1, rng)).data for _ in range(3)]
        out += [(ring.zero().data,) * (n - 1) + (x.data,) for x in a]
    return out + [random_witt(ring, p, n, rng).data for _ in range(count)]


# exact_rz_complex needs z_{n+1}, so N >= n + 1
MAP_SHAPES = [
    (CyclotomicTruncation(3, 2, 1), 1),  # table ring
    (CyclotomicTruncation(3, 3, 1), 1),  # above the table cap
    (CyclotomicTruncation(3, 3, 1), 2),
    (CyclotomicTruncation(3, 2, 2), 1),  # p^n < m: F^n reduced mod p^n
    (CyclotomicTruncation(3, 2, 3), 1),  # p^n < m, and p x_1 kept in w_1
    (CyclotomicTruncation(5, 2, 1), 1),
    (CyclotomicTruncation(5, 3, 1), 2),  # characteristic p, W_2 product by R(z_3)
]


@pytest.mark.parametrize(
    "ring,n", MAP_SHAPES, ids=[f"{r.descriptor()}-n{n}" for r, n in MAP_SHAPES]
)
def test_exact_rz_maps_match_the_long_product_and_the_iterated_frobenius(ring, n):
    rng = random.Random(12)
    _, rz, fnbar = exact_rz_complex(ring, n)[0].maps
    old_rz, old_fnbar = _rz_by_the_long_product(ring, n), _fnbar_by_frobenius(ring, n)
    ws = _witt_inputs(ring, n + 1, rng, 25)
    images = [rz(w) for w in ws]
    assert images == [old_rz(w) for w in ws]
    ws = images + _witt_inputs(ring, n, rng, 25)
    assert [fnbar(w) for w in ws] == [old_fnbar(w) for w in ws]


def test_exact_rz_maps_compile_once_per_process(monkeypatch):
    # R z and F^n are compiled functions with their constants folded in,
    # cached on the universal tables: a second complex compiles nothing
    import wittkit.witt as witt

    ring = CyclotomicTruncation(3, 2, 1)
    for n in (1, 2):
        monkeypatch.setattr(witt.get_table(3, n), "_compiled", {})  # as in a fresh process
    compiles = []
    compile_polys = witt._compile_polys

    def counted(program, operands, n, exprs, fixed=None):
        compiles.append((n, sorted(fixed or {})))
        return compile_polys(program, operands, n, exprs, fixed)

    monkeypatch.setattr(witt, "_compile_polys", counted)
    exact_rz_complex(ring, 1)
    # R z: the W_1 product with its first operand R(z_2) fixed; F: the
    # ghost block of W_2 with its last coordinate fixed at zero
    assert sorted(compiles) == [(1, [0]), (2, [1])]
    exact_rz_complex(ring, 1)
    broken_complex(ring, 3, 1)
    assert len(compiles) == 2


def _frobenius_image_by_enumeration(ring, n):
    """{a^(p^n) mod p^n : a in A} over every element a of ring, by
    square-and-multiply on numpy rows of coefficients, each product a
    convolution reduced through the ring's reduction rows: independent of
    the compiled Witt functions and of the kernel."""
    p, d, m = ring.p, ring.d, ring.m
    pk = min(p**n, m)
    red = np.array(ring._red_rows, dtype=np.int64).reshape(d - 1, d)

    def mul(a, b):
        conv = np.zeros((len(a), 2 * d - 1), dtype=np.int64)
        for i in range(d):
            conv[:, i : i + d] += a[:, i, None] * b
        return (conv[:, :d] + conv[:, d:] @ red) % m

    image = set()
    rows = np.array(list(itertools.product(range(m), repeat=d)), dtype=np.int64)
    for start in range(0, len(rows), 1 << 14):
        base, acc, e = rows[start : start + (1 << 14)], None, p**n
        while e:
            if e & 1:
                acc = base if acc is None else mul(acc, base)
            e >>= 1
            if e:
                base = mul(base, base)
        image.update(map(tuple, (acc % pk).tolist()))
    return image


@pytest.mark.parametrize("desc", ["cyc(3,1,2)", "cyc(3,1,3)", "cyc(5,1,2)"])
@pytest.mark.parametrize("n", [1, 2])
def test_the_frobenius_image_from_a_mod_p_matches_full_enumeration(desc, n):
    # a = b mod p gives a^(p^n) = b^(p^n) mod p^(n+1): the classes of A/pA
    # give the whole image that classify_surj compares the defect with
    ring = ring_from_descriptor(desc)
    assert frobenius_image(ring, n) == _frobenius_image_by_enumeration(ring, n)


ACTION_SHAPES = MAP_SHAPES + [
    (CyclotomicTruncation(3, 2, 1), 2),
    (CyclotomicTruncation(3, 4, 1), 1),
]


@pytest.mark.parametrize(
    "ring,n", ACTION_SHAPES, ids=[f"{r.descriptor()}-n{n}" for r, n in ACTION_SHAPES]
)
def test_twisted_action_and_fn_d_match_the_frobenius_power_forms(ring, n):
    rng = random.Random(12)
    tm = TwistedModule(ring, n)
    for u in _witt_inputs(ring, n + 1, rng, 10):
        y = raw_witt_ops(ring, ring.p, n + 1).wrap(u)
        assert fn_d(y, tm.omega) == _fn_d_by_ring_elements(y, tm.omega)
        m = tm.random_element(rng)
        got, want = tm.action(y, m), _action_by_frobenius_power(tm, y, m)
        assert got == want
        assert got[1].data == want[1].data


# batch products (_compiler._batch_mulmod) per TwistedModule._scalars call
# over kernel rings, (ring, n) -> count: the twist block forms each
# y_i^(p^(n-i) - 1), and each y_i^(p^(n-i)) that w_n keeps mod m one
# product past it (y_i^p is one Frobenius map in characteristic p); then
# one product by d(y_i) per i < n.  A square-and-multiply per power, with
# w_n summed outside the block, takes 3 and 7, so its 3 would fail here.
SCALAR_PRODUCTS = {("cyc(3,4,1)", 1): 2, ("cyc(3,3,1)", 2): 7}


@pytest.mark.parametrize("desc,n", sorted(SCALAR_PRODUCTS))
def test_twisted_scalars_take_the_pinned_batch_products(monkeypatch, desc, n):
    import wittkit._compiler as compiler
    import wittkit.sequences as sequences
    from wittkit.witt import get_table

    ring = ring_from_descriptor(desc)
    assert ring._tables is None
    calls = []
    batch_mulmod = compiler._batch_mulmod

    def counted(ring):
        mul = batch_mulmod(ring)

        def counted_mul(a, b):
            calls.append(len(a))
            return mul(a, b)

        return counted_mul

    # the products of the compiled block and of the products by d(y_i)
    monkeypatch.setattr(compiler, "_batch_mulmod", counted)
    monkeypatch.setattr(sequences, "_batch_mulmod", counted)
    monkeypatch.setattr(get_table(3, n + 1), "_compiled", {})  # as in a fresh process
    tm = TwistedModule(ring, n)
    rng = random.Random(f"scalar-products/{desc}")
    ys = tm._raw.to_batch([random_witt(ring, 3, n + 1, rng).data for _ in range(8)])
    tm._scalars(ys)
    assert calls == [8] * SCALAR_PRODUCTS[desc, n]


@pytest.mark.parametrize("desc,n", [("cyc(3,2,1)", 1), ("cyc(3,2,1)", 2), ("cyc(3,3,1)", 1), ("cyc(3,1,3)", 2)])
def test_twisted_scalars_agree_on_the_table_and_kernel_back_ends(monkeypatch, desc, n):
    # the same ring with its tables switched off runs the twist block on
    # the kernel back end, on coefficient rows in place of element indices;
    # cyc(3,3,1) is above the table cap, on the kernel either way
    import wittkit.witt as witt

    d = ring_from_descriptor(desc).d
    rows = random_coefficients(ring_from_descriptor(desc), random.Random(desc), 60 * (n + 1) * d)
    got = []
    for tables in (True, False):
        ring = ring_from_descriptor(desc)
        if not tables:
            monkeypatch.setattr(ring, "_tables", None)
            monkeypatch.setattr(witt, "_raw_cache", {})
            monkeypatch.setattr(witt.get_table(3, n + 1), "_compiled", {})
        tm = TwistedModule(ring, n)
        assert ("_mul(" in tm._twist.__source__) == (tm._raw._tables is None)
        ys = tm._raw.from_coefficients(rows.reshape(60, n + 1, d))
        got.append([c.tolist() for c in tm._scalars(ys)])
    assert got[0] == got[1]


# --- negative controls of the batched sampled checks ------------------------


class _DyTwistedModule(TwistedModule):
    """The twisted module with F^n d(y) replaced by d(y_0): not a module,
    since d(y_0 z_0) = y_0 dz_0 + z_0 dy_0 differs from
    F^n(y) d(z_0) + F^n(z) d(y_0)."""

    def _scalars(self, ys):
        fny, _ = super()._scalars(ys)
        return fny, self._d(self._raw.coefficient_rows(ys[0]))


def _dy_action(tm, y, m):
    alpha, a = m
    fny = frobenius_power(y, tm.n).coords[0]
    dy0 = tm.omega.d_of(y.coords[0])
    part1 = [(x - z) % tm.ring.m for x, z in zip(tm.omega.mult(fny, alpha), tm.omega.mult(a, dy0))]
    return (tuple(part1), fny * a)


def _module_law_failures(tm, act, rng, triples):
    """check_module_axioms as one loop per triple, with the action act."""
    ring, p, n, m_ = tm.ring, tm.ring.p, tm.n, tm.ring.m

    def add(m1, m2):
        return tuple((u + v) % m_ for u, v in zip(m1[0], m2[0])), m1[1] + m2[1]

    failures = []
    for _ in range(triples):
        y, z = random_witt(ring, p, n + 1, rng), random_witt(ring, p, n + 1, rng)
        m = tm.random_element(rng)
        if not tm.eq(act(tm, y * z, m), act(tm, y, act(tm, z, m))):
            failures.append(("associativity", y, z, m))
        elif not tm.eq(act(tm, y + z, m), add(act(tm, y, m), act(tm, z, m))):
            failures.append(("distributivity", y, z, m))
    one = witt_one(ring, p, n + 1)
    m = tm.random_element(rng)
    if not tm.eq(act(tm, one, m), m):
        failures.append(("identity", one, None, m))
    return failures


@pytest.mark.parametrize("desc,n,triples", [("cyc(3,2,1)", 1, 300), ("cyc(3,3,1)", 2, 20)])
def test_module_law_negative_control_fails_as_the_per_element_loop(desc, n, triples):
    ring = ring_from_descriptor(desc)
    tm = _DyTwistedModule(ring, n)
    rng, oracle_rng = random.Random(3), random.Random(3)
    got = check_module_axioms(tm, rng, triples=triples)
    want = _module_law_failures(tm, _dy_action, oracle_rng, triples)
    assert [f[0] for f in got].count("associativity") > triples // 2
    assert got == want
    assert rng.getstate() == oracle_rng.getstate()
    # the unperturbed action passes on the same draws
    assert _module_law_failures(tm, _action_by_frobenius_power, random.Random(3), triples) == []


def _draws(seed, count, *draw):
    rng = random.Random(seed)
    return [tuple(f(rng) for f in draw) for _ in range(count)]


# 300 samples make two chunks of sample_chunks; the perturbed samples sit in
# both, two in the first, and are named out of order
TARGETS = (270, 100, 40)


def test_leibniz_negative_control_reports_the_perturbed_samples_in_order(corrupt):
    ring, n, p = CyclotomicTruncation(3, 2, 1), 1, 3
    samples = _draws(1, 300, *[lambda r: random_witt(ring, p, n + 1, r)] * 2)
    raw = raw_witt_ops(ring, p, n + 1)
    # fnd(x w) reads the compiled product x w
    corrupt(raw, "mul", [(x.data, w.data) for x, w in (samples[k] for k in TARGETS)])
    omega = omega1_for_ring(ring)

    def holds(x, w):
        fx, fw = frobenius_power(x, n).coords[0], frobenius_power(w, n).coords[0]
        rhs = [
            (a + b) % ring.m
            for a, b in zip(omega.mult(fw, fn_d(x, omega)), omega.mult(fx, fn_d(w, omega)))
        ]
        return omega.eq(fn_d(x * w, omega), rhs)

    want = [s for s in samples if not holds(*s)]
    assert want == [samples[k] for k in sorted(TARGETS)]
    assert check_fnd_leibniz(ring, n, random.Random(1), samples=300) == want


def test_xv_negative_control_reports_the_perturbed_samples_in_order(corrupt):
    ring, n, p = CyclotomicTruncation(3, 3, 1), 1, 3
    samples = _draws(
        2, 300, lambda r: random_witt(ring, p, n + 1, r), lambda r: random_witt(ring, p, n, r)
    )
    raw = raw_witt_ops(ring, p, n + 1)
    corrupt(raw, "mul", [(x.data, verschiebung(y).data) for x, y in (samples[k] for k in TARGETS)])
    want = [(x, y) for x, y in samples if x * verschiebung(y) != verschiebung(frobenius(x) * y)]
    assert want == [samples[k] for k in sorted(TARGETS)]
    assert check_xv_identity(ring, p, n, random.Random(2), samples=300) == want


@pytest.mark.parametrize("desc,n", [("cyc(3,2,1)", 2), ("cyc(3,3,1)", 1)])
def test_vn_negative_control_reports_the_perturbed_samples_in_order(corrupt, desc, n):
    ring = ring_from_descriptor(desc)
    p = ring.p
    samples = _draws(
        3, 300, lambda r: random_witt(ring, p, n + 1, r), lambda r: random_element(ring, r)
    )
    raw = raw_witt_ops(ring, p, n + 1)

    def vn(a):
        return (ring.zero().data,) * n + (a.data,)

    corrupt(raw, "mul", [(x.data, vn(a)) for x, a in (samples[k] for k in TARGETS)])
    want = [
        (x, a)
        for x, a in samples
        if (x * raw.wrap(vn(a))).data != vn(frobenius_power(x, n).coords[0] * a)
    ]
    assert want == [samples[k] for k in sorted(TARGETS)]
    assert check_vn_module_hom(ring, p, n, random.Random(3), samples=300) == want
