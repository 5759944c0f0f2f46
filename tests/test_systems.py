import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as hyst

from shrinktarget import (
    Interval,
    ShrinkFn,
    affine_system,
    build_counterexample,
    cylinder,
    doubling_map,
    gauss_system,
    geometric_system,
)


# ---------------------------------------------------------------- oracles

def gauss_branch(i, x):
    return 1.0 / (i + x)


# ---------------------------------------------------------------- cylinder

def test_cylinder_doubling_affine_product():
    sys = doubling_map()
    g = cylinder(sys, (1, 1))
    assert g.interval == Interval(0.0, 0.25)
    assert g.diam == 0.25
    assert g.deriv_bracket == (0.25, 0.25)


def test_cylinder_gauss_branch_one():
    sys = gauss_system()
    g = cylinder(sys, (1,))
    assert g.interval == Interval(0.5, 1.0)
    assert g.diam == pytest.approx(0.5)
    # oracle: |phi_1'(x)| = 1/(1+x)^2 spans [1/4, 1] over [0,1]
    lo, hi = g.deriv_bracket
    assert lo <= 0.25 and hi >= 1.0
    assert lo == pytest.approx(0.25, rel=1e-12)
    assert hi == pytest.approx(1.0, rel=1e-12)


def test_cylinder_gauss_two_one_hand_composed():
    sys = gauss_system()
    g = cylinder(sys, (2, 1))
    # oracle: x -> 1/(2 + 1/(1+x)) maps 0 -> 1/3 and 1 -> 2/5
    a = gauss_branch(2, gauss_branch(1, 0.0))
    b = gauss_branch(2, gauss_branch(1, 1.0))
    assert g.interval.lo == pytest.approx(min(a, b), abs=1e-15)
    assert g.interval.hi == pytest.approx(max(a, b), abs=1e-15)
    assert g.diam == pytest.approx(1.0 / 15.0, rel=1e-12)


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
    ends, derivs = [], []
    for t in (Fraction(0), Fraction(1)):
        # exact chain rule: phi_s'(u) = -phi_s(u)^2, innermost branch first
        x, d = t, Fraction(1)
        for s in reversed(word):
            x = 1 / (s + x)
            d *= x * x
        ends.append(x)
        derivs.append(d)
    # float(Fraction) is correctly rounded
    assert (g.interval.lo, g.interval.hi) == tuple(sorted(float(e) for e in ends))
    assert g.diam == float(abs(ends[0] - ends[1]))
    # |phi_w'| is monotone in t: the exact range is [1/(q_n+q_{n-1})^2, 1/q_n^2]
    dlo, dhi = g.deriv_bracket
    assert Fraction(dlo) <= min(derivs) and max(derivs) <= Fraction(dhi)


# ---------------------------------------------------------------- periodic points

def test_cylinder_doubling_fixed_point():
    iv = cylinder(doubling_map(), (1,) * 20).interval
    assert iv.lo <= 0.0 <= iv.hi
    assert iv.width <= 2.0 ** -20


def test_cylinder_gauss_periodic_two():
    # 2, 2, 2, ... is the continued fraction of sqrt(2) - 1
    iv = cylinder(gauss_system(), (2,) * 12).interval
    assert iv.width <= 1e-8
    assert iv.lo <= math.sqrt(2.0) - 1.0 <= iv.hi


def test_cylinder_cycles_whole_prefix():
    # (2,1) repeated gives the binary pattern 101010... = 2/3 (geometric series)
    point = sum(2.0 ** -(2 * k + 1) for k in range(40))
    iv = cylinder(doubling_map(), (2, 1) * 15).interval
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
        assert prefix.interval.lo <= g.interval.lo and g.interval.hi <= prefix.interval.hi
    # exact product bracket, diam equals it, contraction at every depth
    expected = math.prod(ratios[s - 1] for s in word)
    assert g.deriv_bracket == (expected, expected)
    assert g.diam == expected
    assert g.diam <= sys.xi ** -len(word) * (1 + 1e-12)


@settings(max_examples=40, deadline=None)
@given(hyst.data())
def test_nesting_and_bracket_gauss(data):
    sys = gauss_system()
    word = tuple(data.draw(hyst.integers(min_value=1, max_value=9))
                 for _ in range(data.draw(hyst.integers(min_value=2, max_value=6))))
    g = cylinder(sys, word)
    for cut in range(1, len(word)):
        prefix = cylinder(sys, word[:cut])
        assert prefix.interval.lo <= g.interval.lo and g.interval.hi <= prefix.interval.hi
    lo, hi = g.deriv_bracket
    assert lo <= g.diam <= hi  # mean value theorem
    # chain-rule bracket: nested evaluation at least as tight as plain products
    for cut in range(1, len(word)):
        a = cylinder(sys, word[:cut]).deriv_bracket
        b = cylinder(sys, word[cut:]).deriv_bracket
        assert lo >= a[0] * b[0] * (1 - 1e-12)
        assert hi <= a[1] * b[1] * (1 + 1e-12)
    if len(word) >= sys.expansion_depth:
        assert g.diam <= sys.xi ** -len(word)


@settings(max_examples=30, deadline=None)
@given(hyst.integers(min_value=2, max_value=5))
def test_depth_disjointness_doubling(n):
    sys = doubling_map()
    intervals = [cylinder(sys, w).interval for w in itertools.product((1, 2), repeat=n)]
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
    # every cylinder of depth n >= expansion_depth contracts by xi^-n
    for n in range(sys.expansion_depth, 7):
        for _ in range(25):
            word = tuple(rng.choice(symbols) for _ in range(n))
            assert cylinder(sys, word).diam <= sys.xi ** -n * (1 + 1e-12)
    # and a cylinder at depth_for(w) is narrower than w
    for w in (0.5, 1e-2, 1e-6):
        for _ in range(10):
            word = tuple(rng.choice(symbols) for _ in range(sys.depth_for(w)))
            assert cylinder(sys, word).interval.width < w


def test_gauss_contraction_depth_two():
    sys = gauss_system()
    for word in itertools.product((1, 2, 3, 4), repeat=3):
        g = cylinder(sys, word)
        assert g.diam <= sys.xi ** -3
