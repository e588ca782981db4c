"""Tilt elements, theta maps, kernel generators, the q-logarithm, and the
Frobenius fixed-point solver."""

import math
import random

import pytest

from wittkit import tilt
from wittkit.rings import CharPQuotient, CyclotomicTruncation, ring_from_descriptor
from wittkit.tilt import (
    QLogDivisionError,
    _classify_solutions,
    SolutionBudgetError,
    _frobenius_affine_solutions,
    TiltElement,
    TiltPrecisionError,
    TiltWittVector,
    check_ker_F_generators,
    claimed_inclusion,
    default_delta,
    enumerate_wn_fp,
    eps_charp,
    epsilon,
    frobenius_equation_solve,
    project_charp,
    q_log,
    theta,
    theta_r,
    tilt_const,
    tilt_one,
    tilt_sum,
    tilt_teichmuller,
    tilt_witt_add,
    tilt_witt_mul,
    tilt_witt_phi_inv,
    tilt_witt_sum_many,
    tilt_zero,
    witt_phi,
    xi_element,
)
from wittkit.witt import (
    WittVector,
    frobenius,
    get_table,
    random_witt,
    raw_witt_ops,
    restriction,
    teichmuller,
    verschiebung,
    witt_add,
    witt_mul,
    witt_neg,
    witt_one,
    witt_zero,
)


def tilt_witt_frobenius(u):
    """F: W_n -> W_{n-1}, as witt.frobenius.  The tilt has characteristic
    p, so F is the coordinatewise p-th power, exact at full depth."""
    return TiltWittVector(u.base, [c.frobenius() for c in u.coords[:-1]])


def _s_valuation(a):
    """The index of the lowest nonzero coefficient of an element of a
    charp ring (its degree d for zero)."""
    return next((i for i, c in enumerate(a.data) if c), len(a.data))


def test_epsilon_lifts():
    r = CyclotomicTruncation(3, 2, 2)
    eps = epsilon(r, 2)
    assert eps.lifts == (r.one(), r.zeta(1), r.zeta(2))
    assert epsilon(r, 0).lifts == (r.one(),)
    with pytest.raises(ValueError):
        epsilon(r, 3)
    # coordinatewise p-th power shifts the tower pattern
    cubes = eps.frobenius()
    assert cubes.lifts == (r.one(), r.one(), r.zeta(1))


def test_compatibility_enforced():
    r = CyclotomicTruncation(3, 2, 1)
    with pytest.raises(ValueError):
        TiltElement(r, (r.zeta(1), r.zeta(1)))  # zeta^3 != zeta mod 3
    TiltElement(r, (r.one(), r.one()))  # fine


def test_mul_and_roots():
    r = CyclotomicTruncation(3, 2, 2)
    eps = epsilon(r, 2)
    assert (eps * eps**2) == eps**3
    root = eps.root(1)
    assert root.lifts == (r.zeta(1), r.zeta(2))
    assert (root**3).lifts == (r.one(), r.zeta(1))


def test_add_zero_full_depth_and_stabilized_value():
    r = CyclotomicTruncation(3, 2, 1)
    eps = epsilon(r, 2)
    assert tilt_sum([eps, tilt_zero(r, 2)]) == eps
    s = tilt_sum([eps, -tilt_one(r, 2)], delta=2)
    assert s.lift(0) == (r.zeta(2) - r.one()) ** 9
    with pytest.raises(TiltPrecisionError):
        tilt_sum([eps, -tilt_one(r, 2)], delta=3)


def test_const_tilts_are_exactly_compatible():
    r = CyclotomicTruncation(3, 2, 2)
    for c in range(5):
        t = tilt_const(r, c, 2)
        for i in range(2):
            assert t.lifts[i + 1] ** 3 == t.lifts[i]


def test_theta_teichmuller_and_ring_map():
    r = CyclotomicTruncation(3, 3, 1)
    eps = epsilon(r, 3)
    for n in (1, 2, 3):
        assert theta_r(tilt_teichmuller(eps, 3), n) == teichmuller(r.zeta(n), 3, n)
    one = tilt_one(r, 3)
    assert theta_r(tilt_teichmuller(one, 2), 2) == witt_one(r, 3, 2)
    samples = [tilt_teichmuller(eps**i, 2) for i in (1, 2, 4)]
    samples.append(tilt_teichmuller(tilt_const(r, 2, 3), 2))
    for u in samples:
        for v in samples:
            for rr in (1, 2):
                assert theta_r(tilt_witt_add(u, v), rr) == witt_add(
                    theta_r(u, rr), theta_r(v, rr)
                )
                assert theta_r(tilt_witt_mul(u, v), rr) == witt_mul(
                    theta_r(u, rr), theta_r(v, rr)
                )


def test_theta_transition_compatibilities():
    r = CyclotomicTruncation(3, 3, 1)
    eps = epsilon(r, 3)
    samples = [tilt_teichmuller(eps**i, 2) for i in (1, 2, 4)]
    samples += [tilt_witt_add(samples[0], samples[1])]
    for w in samples:
        assert frobenius(theta_r(w, 2)) == theta_r(w, 1)
        assert restriction(theta_r(w, 2)) == theta_r(tilt_witt_phi_inv(w), 1)
    with pytest.raises(TiltPrecisionError):
        theta_r(tilt_teichmuller(epsilon(r, 1), 2), 2)


def test_ker_theta_generators():
    r = CyclotomicTruncation(3, 2, 1)
    xi = xi_element(r, 2, 1)
    assert theta(xi).is_zero()
    eps = epsilon(r, 2)
    terms = [tilt_teichmuller(tilt_one(r, 2), 1)] + [
        tilt_teichmuller(eps**i, 1) for i in (1, 2)
    ]
    gen1 = tilt_witt_sum_many(terms)
    assert theta_r(gen1, 1).is_zero()
    # F of xi is the theta_1 kernel generator (connects the two)
    r3 = CyclotomicTruncation(3, 3, 1)
    xi3 = xi_element(r3, 3, 2)
    fxi = tilt_witt_frobenius(xi3)
    eps3 = epsilon(r3, 3)
    terms3 = [tilt_teichmuller(tilt_const(r3, 1, 3), 2)] + [
        tilt_teichmuller(eps3**i, 2) for i in (1, 2)
    ]
    gen = tilt_witt_sum_many(terms3)
    assert theta_r(fxi, 1) == theta_r(gen, 1)


def _outcome(compute):
    """compute(), or the error class on a TiltPrecisionError."""
    try:
        return compute()
    except TiltPrecisionError:
        return TiltPrecisionError


def _lifts(w):
    """The lifts of each coordinate, so also its depth."""
    return [c.lifts for c in w.coords]


def _tilt_inputs(ring, T, n=3):
    eps = epsilon(ring, T)
    zero = tilt_zero(ring, T)
    return [
        TiltWittVector(ring, (eps, eps**2, eps**4)),
        TiltWittVector(ring, (eps.root(1), eps**5, eps**3)),
        tilt_teichmuller(eps**2, n),
        tilt_teichmuller(tilt_const(ring, 2, T), n),
        TiltWittVector(ring, (eps**2, zero, eps**7)),
        TiltWittVector(ring, (zero,) * n),
    ]


def _is_zero(w):
    return all(c.is_zero() for c in w.coords)


def _per_level(vectors, step, delta):
    """The oracle of a Witt operation on tilts: step maps the lifts j of
    the operands' coordinates to the n coordinates of level j, evaluated
    on RingElements; lift i of coordinate k is then level i + delta's
    coordinate k raised to p^delta.  Depth drops by delta from the common
    depth of the operands."""
    depth = min(w.depth for w in vectors)
    if delta > depth:
        raise TiltPrecisionError(f"delta={delta} exceeds depth {depth}")
    levels = [step([[c.lifts[j] for c in w.coords] for w in vectors]) for j in range(depth + 1)]
    power = vectors[0].p ** delta
    return [
        tuple(levels[i + delta][k] ** power for i in range(depth - delta + 1))
        for k in range(vectors[0].length)
    ]


def _oracle_sum(vectors, sum_polys, eval_polys):
    """Zero vectors are dropped; a lone operand is the sum at its depth;
    otherwise the iterated unpruned sum polynomials, stabilized by
    min(M, 3)."""
    nonzero = [w for w in vectors if not _is_zero(w)]
    if not nonzero:
        zero = tilt_zero(vectors[0].base, min(w.depth for w in vectors))
        return [zero.lifts] * vectors[0].length
    if len(nonzero) == 1:
        return [c.lifts for c in nonzero[0].coords]

    def step(coords):
        acc = coords[0]
        for other in coords[1:]:
            acc = eval_polys(sum_polys, list(acc) + other)
        return acc

    return _per_level(nonzero, step, default_delta(vectors[0].base))


def _oracle_mul(u, v, prod_polys, eval_polys):
    """The unpruned product polynomials, level by level; a Teichmuller
    factor needs no stabilization, [a] x = (a^(p^i) x_i) at every level."""
    teich = any(all(c.is_zero() for c in w.coords[1:]) for w in (u, v))
    delta = 0 if teich else default_delta(u.base)
    return _per_level([u, v], lambda coords: eval_polys(prod_polys, coords[0] + coords[1]), delta)


@pytest.mark.parametrize(
    "desc,T", [("cyc(3,4,1)", 3), ("cyc(5,2,1)", 2), ("cyc(3,3,2)", 3), ("cyc(3,3,3)", 3)]
)
def test_tilt_witt_ops_match_the_per_level_oracle(desc, T, eval_polys, oracle_table):
    # lifts, depths and TiltPrecisionErrors of sums, products, F and the
    # p-fold sum at length 3 against the unpruned polynomials on each lift
    # level, stabilized once per coordinate
    ring = ring_from_descriptor(desc)
    p, n = ring.p, 3
    table, expanded = get_table(p, n), oracle_table(p, n)
    inputs = _tilt_inputs(ring, T, n)
    outcomes = []
    for u in inputs:
        for v in inputs:
            got = _outcome(lambda: _lifts(tilt_witt_add(u, v)))
            assert got == _outcome(lambda: _oracle_sum([u, v], expanded["sum_polys"], eval_polys))
            outcomes.append(got)
            got = _outcome(lambda: _lifts(tilt_witt_mul(u, v)))
            assert got == _outcome(lambda: _oracle_mul(u, v, expanded["prod_polys"], eval_polys))
            outcomes.append(got)
        # F is the coordinatewise p-th power at full depth, and the integer
        # Frobenius polynomials agree with it mod p on every lift level
        f = tilt_witt_frobenius(u)
        assert f.coords == tuple(c.frobenius() for c in u.coords[: n - 1])
        for j in range(u.depth + 1):
            level = eval_polys(table.frob_polys, [c.lifts[j] for c in u.coords])
            for got_c, want in zip(level, f.coords):
                assert not any((a - b) % p for a, b in zip(got_c.data, want.lifts[j].data))
        vectors = [u] + inputs[: p - 1]
        got = _outcome(lambda: _lifts(tilt_witt_sum_many(vectors)))
        assert got == _outcome(lambda: _oracle_sum(vectors, expanded["sum_polys"], eval_polys))
        outcomes.append(got)
    assert any(o is not TiltPrecisionError for o in outcomes)


def _digit_sum(w, r):
    """sum_{i < min(len, r)} V^i[t_i^(r)] in W_r(A), by Witt additions
    started from zero."""
    ring, p = w.base, w.p
    acc = witt_zero(ring, p, r)
    for i, t in enumerate(w.coords[:r]):
        term = teichmuller(t.lift(r), p, r - i)
        for _ in range(i):
            term = verschiebung(term)
        acc = witt_add(acc, term)
    return acc


@pytest.mark.parametrize("desc", ["cyc(3,4,1)", "cyc(3,3,2)", "cyc(3,4,2)"])
def test_theta_r_is_the_sum_of_its_teichmuller_digits(desc):
    # inputs: mixed coordinates (zero digits, the zero vector), Teichmuller
    # vectors, stabilized sums (depth N - min(M, 3)) and xi; r runs past the
    # Witt length 3 up to the depth, and one lift further is a precision error
    ring = ring_from_descriptor(desc)
    eps = epsilon(ring, ring.N)
    teich = [tilt_teichmuller(eps**i, 3) for i in (1, 2, 5)]
    sums = [tilt_witt_add(u, v) for u in teich for v in teich[1:]]
    sums.append(tilt_witt_sum_many(teich))
    for w in [*_tilt_inputs(ring, 3), *teich, *sums, xi_element(ring, ring.N, 3)]:
        for r in range(1, w.depth + 1):
            assert theta_r(w, r) == _digit_sum(w, r)
        with pytest.raises(TiltPrecisionError):
            theta_r(w, w.depth + 1)


def test_tilt_witt_ops_on_teichmuller_pairs_keep_their_depth():
    # 9 pairs [eps^i], [eps^j] at W_3 over cyc(3,4,1), depth 3: a product
    # with a Teichmuller factor is exact, [eps^i] [eps^j] = [eps^(i+j)] at
    # full depth, and a sum of two nonzero vectors loses min(M, 3) = 1 lift
    ring = CyclotomicTruncation(3, 4, 1)
    eps = epsilon(ring, 3)
    ws = {i: tilt_teichmuller(eps**i, 3) for i in (1, 2, 3)}
    for i, u in ws.items():
        for j, v in ws.items():
            assert tilt_witt_mul(u, v) == tilt_teichmuller(eps ** (i + j), 3)
            assert tilt_witt_add(u, v).depth == 2


def test_ker_f_generator_report():
    rng = random.Random(0)
    rep = check_ker_F_generators(CyclotomicTruncation(3, 2, 1), 1, rng=rng)
    assert rep["membership_z"] and rep["membership_big_sum"]
    assert rep["constructed_members_divide"]
    assert rep["verdict"] in ("pass", "truncation-limited")
    rep = check_ker_F_generators(CyclotomicTruncation(3, 3, 1), 2, rng=rng)
    assert rep["membership_z"] and rep["membership_big_sum"]
    with pytest.raises(ValueError):
        check_ker_F_generators(CyclotomicTruncation(3, 1, 1), 1)


def test_qlog_identities():
    ring = CharPQuotient(3, 1, 3)
    eps = eps_charp(ring)
    q = teichmuller(eps, 3, 2)
    val, per = q_log(q, q, 4)
    assert val == witt_add(q, witt_neg(witt_one(ring, 3, 2)))
    assert per[2]["vanished"] and per[3]["vanished"] and per[4]["vanished"]
    val1, _ = q_log(witt_one(ring, 3, 2), q, 3)
    assert val1.is_zero()
    xsq = teichmuller(eps**2, 3, 2)
    v3, _ = q_log(xsq, q, 3)
    v4, _ = q_log(xsq, q, 4)
    v5, per5 = q_log(xsq, q, 5)
    assert v3 == v4 == v5
    assert len(per5) == 5


def test_qlog_division_error_names_term():
    ring = CharPQuotient(3, 0, 9)
    q = teichmuller(eps_charp(ring), 3, 1)
    x = teichmuller(ring.t_element(), 3, 1)  # [t] is not a 1-unit: must fail
    with pytest.raises(QLogDivisionError) as exc:
        q_log(x, q, 3)
    assert exc.value.term == 3
    assert "charp(3,0,9)" in str(exc.value)


def test_fixed_points_k9_oracle():
    ring = CharPQuotient(3, 0, 9)
    rep = frobenius_equation_solve(ring, 1)
    assert rep["inclusion_exact"]
    # brute-force oracle over all 3^9 elements
    t = ring.t_element()
    c0 = t * t
    brute = {y.data for y in ring.enumerate_elements() if y**3 == c0 * y}
    got = {y.coords[0].data for y in rep["solutions"]}
    assert got == brute
    claimed = {y.coords[0].data for y in rep["claimed"]} | {ring.zero().data}
    assert claimed == {(ring.from_int(c) * t).data for c in range(3)}
    assert all(
        s["junk_s_valuation"] >= math.ceil(9 / 2) for s in rep["spurious"]
    )


def test_fixed_points_shrink():
    small = CharPQuotient(3, 0, 9)
    big = CharPQuotient(3, 0, 27)
    r1 = frobenius_equation_solve(small, 1)
    r2 = frobenius_equation_solve(big, 1)
    v1 = min(s["junk_s_valuation"] for s in r1["spurious"])
    v2 = min(s["junk_s_valuation"] for s in r2["spurious"])
    assert v2 > v1
    # projected to the common range, the junk vanishes entirely
    for s in r2["spurious"]:
        junk_proj = [project_charp(big, small, c) for c in s["junk"].coords]
        assert all(c.is_zero() for c in junk_proj)


def test_fixed_points_n2_inclusion():
    ring = CharPQuotient(3, 0, 9)
    rep = frobenius_equation_solve(ring, 2)
    assert rep["inclusion_exact"]
    assert len(rep["claimed"]) == 9  # all of W_2(F_3) ([eps]-1)
    # phi is coordinatewise p-th power over char-p rings
    y = rep["claimed"][0]
    assert witt_phi(y).coords == tuple(c**3 for c in y.coords)
    # the inclusion alone, as the fixed-points suite reads it at n = 2
    inclusion = claimed_inclusion(ring, 2)
    assert inclusion["inclusion_exact"]
    assert inclusion["precision"] == rep["precision"] == {"ring": "charp(3,0,9)", "witt_length": 2}
    assert inclusion["ratio"] == rep["ratio"]
    assert set(inclusion["claimed_forms"]) == set(rep["claimed"])


def test_claimed_inclusion_fails_for_a_wrong_frobenius(monkeypatch):
    # with phi the identity, phi(y) = ratio * y fails at y = [eps] - 1
    monkeypatch.setattr(tilt, "witt_phi", lambda w: w)
    assert not claimed_inclusion(CharPQuotient(3, 0, 9), 2)["inclusion_exact"]


@pytest.mark.parametrize("desc", ["charp(3,0,3)", "charp(3,1,1)", "charp(5,0,2)"])
def test_frobenius_affine_solutions_match_a_scan_of_the_ring(desc):
    # every u with u^p - a*u = b, in increasing payload order, against a scan
    # of all elements for seeded (a, b), and for b chosen to be solvable
    ring = ring_from_descriptor(desc)
    p = ring.p
    elements = list(ring.enumerate_elements())
    rng = random.Random(12)
    for _ in range(6):
        a, u = rng.choice(elements), rng.choice(elements)
        for b in (rng.choice(elements), u**p - a * u):
            want = sorted(x.data for x in elements if x**p - a * x == b)
            assert _frobenius_affine_solutions(ring, a.data, b.data) == want


@pytest.mark.parametrize("desc", ["charp(3,0,9)", "charp(3,1,1)", "charp(5,0,3)"])
def test_frobenius_affine_solutions_stop_past_their_cap(desc):
    # the count is read off the kernel before any solution is built: cap at
    # the count returns them all, one below returns None
    ring = ring_from_descriptor(desc)
    rng = random.Random(5)
    elements = list(ring.enumerate_elements())
    for _ in range(6):
        a, u = rng.choice(elements), rng.choice(elements)
        b = u**ring.p - a * u
        full = _frobenius_affine_solutions(ring, a.data, b.data)
        assert _frobenius_affine_solutions(ring, a.data, b.data, len(full)) == full
        assert _frobenius_affine_solutions(ring, a.data, b.data, len(full) - 1) is None


def test_frobenius_equation_solve_raises_past_its_budget():
    # W_2(charp(3,0,9)) has 19,683 solutions
    ring = CharPQuotient(3, 0, 9)
    assert len(frobenius_equation_solve(ring, 2, 19683)["solutions"]) == 19683
    with pytest.raises(SolutionBudgetError, match=r"W_2\(charp\(3,0,9\)\)"):
        frobenius_equation_solve(ring, 2, 19682)


def test_solution_count_bounds():
    ring = CharPQuotient(3, 0, 9)
    rep = frobenius_equation_solve(ring, 1)
    assert len(rep["solutions"]) >= len(rep["claimed"])


def _wrapped_scan(ring, solutions, claimed_set):
    """Oracle for the solver's spurious-solution scan, through the wrapped
    WittVector API: one witt_add(y, -c) per (solution, claimed) pair, the
    valuation from _s_valuation, and the least annihilating t-power by
    multiplying with t^0, t^1, ... up to t^K."""
    t = ring.t_element()
    claimed, spurious = [], []
    for y in solutions:
        if y in claimed_set:
            claimed.append(y)
            continue
        best_val, best_junk = -1, None
        for cform in claimed_set:
            junk = witt_add(y, witt_neg(cform))
            val = min(_s_valuation(c) for c in junk.coords)
            if val > best_val:
                best_val, best_junk = val, junk
        power, annihilator = ring.one(), None
        for j in range(ring.K + 1):
            if all((power * c).is_zero() for c in best_junk.coords):
                annihilator = j
                break
            power = power * t
        spurious.append((y, best_junk, best_val, annihilator))
    return claimed, spurious


@pytest.mark.parametrize(
    "desc,n",
    [
        ("charp(3,0,6)", 1),
        ("charp(3,0,6)", 2),
        ("charp(3,0,9)", 1),
        ("charp(3,0,9)", 2),
        ("charp(3,1,2)", 1),  # p^e = 3
        ("charp(3,1,2)", 2),
        ("charp(3,0,1)", 1),  # K = 1
        ("charp(3,0,1)", 2),
        ("charp(3,0,3)", 3),
        ("charp(5,0,3)", 2),
    ],
)
def test_fixed_points_raw_scan_matches_the_wrapped_scan(desc, n):
    ring = ring_from_descriptor(desc)
    p = ring.p
    rep = frobenius_equation_solve(ring, n)
    mu = witt_add(teichmuller(eps_charp(ring), p, n), witt_neg(witt_one(ring, p, n)))
    claimed_set = {witt_mul(c, mu) for c in enumerate_wn_fp(ring, p, n)}
    claimed, spurious = _wrapped_scan(ring, rep["solutions"], claimed_set)
    assert rep["claimed"] == claimed
    assert [
        (s["element"], s["junk"], s["junk_s_valuation"], s["junk_t_annihilator"])
        for s in rep["spurious"]
    ] == spurious


def _first_difference_of(y, c):
    """min over the coordinates of the first coefficient index at which y
    and c differ (d if they are equal)."""
    d = y.ring.d
    return min(
        next((j for j in range(d) if a[j] != b[j]), d) for a, b in zip(y.data, c.data)
    )


@pytest.mark.parametrize(
    "desc,n", [("charp(3,0,9)", 2), ("charp(3,1,2)", 2), ("charp(3,0,3)", 3), ("charp(5,0,4)", 2)]
)
def test_witt_difference_valuation_is_the_coordinatewise_first_difference(desc, n):
    """v_s(y - c) = min_i v_s(y_i - c_i): the reduction W_n(A) -> W_n(A/s^k)
    is coordinatewise, so its kernel is W_n(s^k A).  The classifier of the
    fixed-point solver reads its valuations off this."""
    ring = ring_from_descriptor(desc)
    p, d = ring.p, ring.d
    rng = random.Random(f"first-difference/{desc}/{n}")
    pairs = []
    for k in range(d):
        for _ in range(6):
            y = random_witt(ring, p, n, rng)
            # c agrees with y below coefficient k in every coordinate, and
            # differs at k in at least one
            coords = []
            for a in y.data:
                tail = [rng.randrange(p) for _ in range(d - k)]
                coords.append(ring.from_coeffs(list(a[:k]) + tail))
            i = rng.randrange(n)
            top = list(coords[i].data)
            top[k] = (y.data[i][k] + rng.randrange(1, p)) % p
            coords[i] = ring.from_coeffs(top)
            c = WittVector(ring, p, tuple(coords))
            assert _first_difference_of(y, c) == k
            pairs.append((y, c))
    for _ in range(20):
        pairs.append((random_witt(ring, p, n, rng), random_witt(ring, p, n, rng)))
    y = random_witt(ring, p, n, rng)
    pairs.append((y, y))
    for y, c in pairs:
        junk = witt_add(y, witt_neg(c))
        assert min(_s_valuation(x) for x in junk.coords) == _first_difference_of(y, c)


def test_classify_solutions_makes_one_witt_subtraction_per_spurious_solution(monkeypatch):
    ring = ring_from_descriptor("charp(3,0,6)")
    p, n = ring.p, 2
    rep = frobenius_equation_solve(ring, n)
    mu = witt_add(teichmuller(eps_charp(ring), p, n), witt_neg(witt_one(ring, p, n)))
    claimed_set = {witt_mul(c, mu) for c in enumerate_wn_fp(ring, p, n)}
    raw = raw_witt_ops(ring, p, n)
    calls = []
    add = raw.add

    def counting_add(u, v):
        calls.append(None)
        return add(u, v)

    monkeypatch.setattr(raw, "add", counting_add)
    claimed, spurious = _classify_solutions(ring, n, rep["solutions"], claimed_set)
    assert len(spurious) > len(claimed_set)
    assert len(calls) == len(spurious)
    assert (claimed, spurious) == (rep["claimed"], rep["spurious"])
