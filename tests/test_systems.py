import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as hyst

from shrinktarget import (
    Interval,
    LogDerivative,
    ShrinkFn,
    affine_system,
    birkhoff_bracket,
    build_counterexample,
    cylinder,
    doubling_map,
    gauss_system,
    geometric_system,
)
from shrinktarget.systems import forward_composer


# ---------------------------------------------------------------- oracles

def gauss_branch(i, x):
    return 1.0 / (i + x)


def gauss_exact(word):
    """Exact (phi_w(0), phi_w(1)) and (|phi_w'(0)|, |phi_w'(1)|) as
    Fractions, by the chain rule phi_s'(u) = -phi_s(u)^2, innermost branch
    first.  |phi_w'| is monotone in t, so these are its extremes on [0, 1]."""
    ends, derivs = [], []
    for t in (Fraction(0), Fraction(1)):
        x, d = t, Fraction(1)
        for s in reversed(word):
            x = 1 / (s + x)
            d *= x * x
        ends.append(x)
        derivs.append(d)
    return ends, derivs


def composed_psi(sys, word):
    """The psi bracket of the family's composer after one child per symbol."""
    comp = forward_composer(sys)
    for s in word:
        comp = comp.child(s)
    return comp.psi()


def assert_psi_contains_neg_log(psi, values):
    """psi contains -log of every positive Fraction in values (mpmath, 50
    digits; a float end converts to mpf exactly)."""
    mp = pytest.importorskip("mpmath")
    lo, hi = psi
    with mp.workdps(50):
        for v in values:
            neg_log = mp.log(v.denominator) - mp.log(v.numerator)
            assert lo <= neg_log <= hi


def affine_diameter(sys, word):
    """Product of the branch ratios along the word, from the family's data."""
    if hasattr(sys, "ratios"):
        return math.prod(sys.ratios[s - 1] for s in word)
    return math.prod(math.exp(sys.log_width(s)) for s in word)


# ---------------------------------------------------------------- cylinder

def test_cylinder_doubling_affine_product():
    sys = doubling_map()
    assert cylinder(sys, (1, 1)) == Interval(0.0, 0.25)
    # -log|phi_w'| = -log(1/4), an exact point
    assert composed_psi(sys, (1, 1)) == (2 * math.log(2.0), 2 * math.log(2.0))
    lo, hi = birkhoff_bracket(sys, LogDerivative(), (1, 1))
    assert lo <= 2 * math.log(2.0) <= hi


def test_cylinder_gauss_branch_one():
    sys = gauss_system()
    assert cylinder(sys, (1,)) == Interval(0.5, 1.0)
    # oracle: |phi_1'(x)| = 1/(1+x)^2 spans [1/4, 1] over [0,1], so its -log
    # spans [0, log 4]
    lo, hi = composed_psi(sys, (1,))
    assert lo <= 0.0 and hi >= math.log(4.0)
    assert lo == pytest.approx(0.0, abs=1e-12)
    assert hi == pytest.approx(math.log(4.0), rel=1e-12)


def test_cylinder_gauss_two_one_hand_composed():
    sys = gauss_system()
    g = cylinder(sys, (2, 1))
    # oracle: x -> 1/(2 + 1/(1+x)) maps 0 -> 1/3 and 1 -> 2/5
    a = gauss_branch(2, gauss_branch(1, 0.0))
    b = gauss_branch(2, gauss_branch(1, 1.0))
    assert g.lo == pytest.approx(min(a, b), abs=1e-15)
    assert g.hi == pytest.approx(max(a, b), abs=1e-15)
    assert g.width == pytest.approx(1.0 / 15.0, rel=1e-12)


def test_cylinder_rejects_bad_symbols():
    sys = doubling_map()
    with pytest.raises(ValueError):
        cylinder(sys, (1, 3))
    with pytest.raises(ValueError):
        cylinder(sys, ())


@pytest.mark.parametrize("seed", range(20))
def test_gauss_cylinder_is_correctly_rounded_continuant_geometry(seed):
    rng = random.Random(seed)
    word = tuple(rng.randint(1, 50) for _ in range(rng.randint(1, 60)))
    g = cylinder(gauss_system(), word)
    ends, derivs = gauss_exact(word)
    # float(Fraction) is correctly rounded
    assert (g.lo, g.hi) == tuple(sorted(float(e) for e in ends))
    # the exact range of |phi_w'| is [1/(q_n+q_{n-1})^2, 1/q_n^2], and the
    # psi bracket contains its -log
    assert_psi_contains_neg_log(composed_psi(gauss_system(), word), derivs)


# ---------------------------------------------------------------- periodic points

def test_cylinder_doubling_fixed_point():
    iv = cylinder(doubling_map(), (1,) * 20)
    assert iv.lo <= 0.0 <= iv.hi
    assert iv.width <= 2.0 ** -20


def test_cylinder_gauss_periodic_two():
    # 2, 2, 2, ... is the continued fraction of sqrt(2) - 1
    iv = cylinder(gauss_system(), (2,) * 12)
    assert iv.width <= 1e-8
    assert iv.lo <= math.sqrt(2.0) - 1.0 <= iv.hi


def test_cylinder_cycles_whole_prefix():
    # (2,1) repeated gives the binary pattern 101010... = 2/3 (geometric series)
    point = sum(2.0 ** -(2 * k + 1) for k in range(40))
    iv = cylinder(doubling_map(), (2, 1) * 15)
    assert iv.width <= 1e-9
    assert iv.lo <= point <= iv.hi
    assert iv.lo <= 2.0 / 3.0 <= iv.hi


@pytest.mark.parametrize("ratios", [[0.0], [0.0, 0.0]])
def test_affine_system_rejects_bad_ratios_before_dividing(ratios):
    with pytest.raises(ValueError):
        affine_system(ratios)


# ---------------------------------------------------------------- invariants

RATIO_LISTS = hyst.lists(hyst.floats(min_value=0.05, max_value=0.45), min_size=2,
                         max_size=4).filter(lambda rs: sum(rs) <= 1.0)


@settings(max_examples=60, deadline=None)
@given(RATIO_LISTS, hyst.data())
def test_nesting_and_chain_rule_affine(ratios, data):
    sys = affine_system(ratios)
    k = len(ratios)
    word = tuple(data.draw(hyst.integers(min_value=1, max_value=k))
                 for _ in range(data.draw(hyst.integers(min_value=2, max_value=6))))
    g = cylinder(sys, word)
    for cut in range(1, len(word)):
        prefix = cylinder(sys, word[:cut])
        assert prefix.lo <= g.lo and g.hi <= prefix.hi
    # the psi bracket is the exact point sum of -log ratios, added in word
    # order; the width is the ratio product, which xi bounds at every depth
    neg_log = sum(-math.log(ratios[s - 1]) for s in word)
    assert composed_psi(sys, word) == (neg_log, neg_log)
    expected = math.prod(ratios[s - 1] for s in word)
    assert g.width == pytest.approx(expected, rel=1e-12)
    assert expected <= sys.xi ** -len(word) * (1 + 1e-12)


@settings(max_examples=40, deadline=None)
@given(hyst.data())
def test_nesting_and_bracket_gauss(data):
    sys = gauss_system()
    word = tuple(data.draw(hyst.integers(min_value=1, max_value=9))
                 for _ in range(data.draw(hyst.integers(min_value=2, max_value=6))))
    g = cylinder(sys, word)
    for cut in range(1, len(word)):
        prefix = cylinder(sys, word[:cut])
        assert prefix.lo <= g.lo and g.hi <= prefix.hi
    ends, derivs = gauss_exact(word)
    diam = abs(ends[0] - ends[1])
    # the psi bracket contains -log of the derivative range, and so, by the
    # mean value theorem, -log of the exact diameter
    assert_psi_contains_neg_log(composed_psi(sys, word), derivs + [diam])
    if len(word) >= sys.expansion_depth:
        assert diam <= sys.xi ** -len(word)


@settings(max_examples=30, deadline=None)
@given(hyst.integers(min_value=2, max_value=5))
def test_depth_disjointness_doubling(n):
    sys = doubling_map()
    intervals = [cylinder(sys, w) for w in itertools.product((1, 2), repeat=n)]
    intervals.sort(key=lambda iv: iv.lo)
    for a, b in zip(intervals, intervals[1:]):
        assert a.hi <= b.lo + 1e-15


@pytest.mark.parametrize("make, xi", [
    (lambda: geometric_system(0.3, 0.6), 1.0 / 0.3),
    (lambda: build_counterexample(0.7, ShrinkFn.power(1)), None),
    (lambda: affine_system([0.2, 0.35, 0.1], placements=[0.05, 0.4, 0.88]), 1.0 / 0.35),
    (doubling_map, 2.0),
    (gauss_system, math.sqrt(2.0)),
], ids=["geometric", "counterexample", "affine-placed", "doubling", "gauss"])
def test_each_family_derives_its_expansion_constant(make, xi):
    sys = make()
    if xi is None:
        # the wider of the two wide branches and branch n0
        xi = math.exp(-max(sys.log_r12, sys.log_width(sys.n0)))
    assert sys.xi == xi and sys.xi > 1.0
    symbols = list(itertools.islice(sys.symbols(), 5))
    rng = random.Random(23)
    # every cylinder of depth n >= expansion_depth contracts by xi^-n: the
    # exact diameter, from Fraction ends for Gauss and the ratio product for
    # an affine family
    for n in range(sys.expansion_depth, 7):
        for _ in range(25):
            word = tuple(rng.choice(symbols) for _ in range(n))
            if sys.is_affine:
                assert affine_diameter(sys, word) <= sys.xi ** -n * (1 + 1e-12)
            else:
                ends, _ = gauss_exact(word)
                assert abs(ends[0] - ends[1]) <= sys.xi ** -n
    # and a cylinder at depth_for(w) is narrower than w
    for w in (0.5, 1e-2, 1e-6):
        for _ in range(10):
            word = tuple(rng.choice(symbols) for _ in range(sys.depth_for(w)))
            assert cylinder(sys, word).width < w


def test_gauss_contraction_depth_two():
    sys = gauss_system()
    for word in itertools.product((1, 2, 3, 4), repeat=3):
        ends, _ = gauss_exact(word)
        assert abs(ends[0] - ends[1]) <= sys.xi ** -3


@pytest.mark.parametrize("make, symbol", [
    (lambda: affine_system([0.3, 0.2]), 0),
    (lambda: affine_system([0.3, 0.2]), -1),
    (lambda: affine_system([0.3, 0.2]), 3),
    (gauss_system, 0),
    (gauss_system, -1),
    (lambda: geometric_system(0.3, 0.6), 0),
    (lambda: geometric_system(0.3, 0.6), -1),
], ids=["affine-0", "affine-minus-1", "affine-3", "gauss-0", "gauss-minus-1",
        "geometric-0", "geometric-minus-1"])
def test_psi_bracket_refuses_a_symbol_outside_the_alphabet(make, symbol):
    with pytest.raises(ValueError, match=f"symbol {symbol} not in the system alphabet"):
        make().psi_bracket(symbol)


@pytest.mark.parametrize("exponent", [0.6, 0.75, 1.0, 1.5, 3.0])
@pytest.mark.parametrize("beyond", range(4))
def test_gauss_tail_weight_sum_bounds_the_zeta_tail(beyond, exponent):
    # sum_{i > beyond} sup|phi_i'|^e = zeta(2e) - sum_{i <= beyond} i^(-2e)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        tail = mp.zeta(2 * mp.mpf(exponent)) - mp.fsum(
            mp.mpf(i) ** (-2 * mp.mpf(exponent)) for i in range(1, beyond + 1))
        assert tail <= gauss_system().tail_weight_sum(exponent, beyond) < mp.inf
