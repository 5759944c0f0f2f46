import itertools
import math
import re
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as hyst

from shrinktarget import (
    BudgetExceededError,
    Constant,
    Interval,
    LogDerivative,
    Scale,
    Sum,
    TargetSpec,
    affine_system,
    cover_sum,
    cylinder,
    cylinder_density,
    doubling_map,
    gauss_system,
    geometric_system,
    hit_times,
    upper_dimension_certificate,
)
from shrinktarget import pressure, targets
from shrinktarget.cli import main
from shrinktarget.systems import forward_composer

LOG2 = math.log(2.0)
ORIGIN_TARGET = TargetSpec(y=0.0, rate=Constant(LOG2))


# ---------------------------------------------------------------- inputs

@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
def test_constant_rate_needs_positive_finite_alpha(tmp_path, capsys, alpha):
    # a constant rate is the potential Constant(alpha), which takes alpha = 0;
    # the CLI's const:alpha refuses it with one line
    cfg = tmp_path / "h.ini"
    cfg.write_text(f"[system]\nkind = doubling\n\n[target]\ny = 0.3\nrate = const:{alpha!r}\n"
                   "\n[run]\ncode = cycle:1,2\nhorizon = 5\n")
    out = tmp_path / "h.csv"
    assert main(["hits", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    message = ("rate alpha must be positive and finite" if math.isfinite(alpha)
               else f"[target] rate: expected a finite number, got '{alpha!r}'")
    assert err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("y", [math.nan, -0.1, 1.5, math.inf])
def test_target_point_must_lie_in_unit_interval(y):
    with pytest.raises(ValueError):
        TargetSpec(y, Constant(1.0))


@pytest.mark.parametrize("y", [math.nan, -0.1, 1.5, math.inf])
def test_density_target_point_must_lie_in_unit_interval(y):
    # a ball around 1.5 meets [0, 1]: this read 0.0589 when only a finite y
    # was checked
    with pytest.raises(ValueError, match=r"must be a number in \[0, 1\]"):
        cylinder_density(gauss_system(), y, 2, 0.6, range(1, 17))


# ---------------------------------------------------------------- cover sums

def test_cover_doubling_geometric_closed_form():
    # oracle: level n holds 2^n words, each with diameter bound
    # 2^{-n} e^{-n log 2} = 4^{-n}; at s = 1 the level sum is 2^{-n}
    sys = doubling_map()
    rep = cover_sum(sys, ORIGIN_TARGET, s=1.0, m=3, n_max=10, subset={1, 2})
    for n, value in rep.per_level:
        assert value == pytest.approx(2.0 ** -n, rel=1e-12)
    assert rep.total == pytest.approx(2.0 ** -2 - 2.0 ** -10, rel=1e-12)


def test_cover_critical_exponent_flat_levels():
    # at s = 1/2 every level sum is exactly 1: non-summable, must refuse
    sys = doubling_map()
    rep = cover_sum(sys, ORIGIN_TARGET, s=0.5, m=3, n_max=9, subset={1, 2})
    for _, value in rep.per_level:
        assert value == pytest.approx(1.0, rel=1e-12)
    cert = upper_dimension_certificate(sys, ORIGIN_TARGET, s=0.5, m=3, n_max=9,
                                       subset={1, 2})
    assert not cert.accepted


def test_cover_empty_when_subset_misses_target():
    # branches live in [0, 0.3] and [0.4, 0.7]; the ball around y = 0.95 of
    # radius e^{-n log 4} < 0.05 never reaches them
    sys = affine_system([0.25, 0.25], placements=[0.0, 0.4])
    target = TargetSpec(y=0.95, rate=Constant(math.log(4.0)))
    rep = cover_sum(sys, target, s=0.7, m=2, n_max=8, subset={1, 2})
    assert rep.total == 0.0
    assert all(v == 0.0 for _, v in rep.per_level)


def test_cover_monotone_in_exponent():
    sys = doubling_map()
    totals = [cover_sum(sys, ORIGIN_TARGET, s, 3, 8, {1, 2}).total
              for s in (0.6, 0.8, 1.0, 1.2)]
    for a, b in zip(totals, totals[1:]):
        assert b <= a + 1e-15


def test_cover_pruning_sound_under_enlargement():
    sys = affine_system([0.3, 0.3, 0.3])
    target = TargetSpec(y=0.1, rate=Constant(1.0))
    small = cover_sum(sys, target, 0.8, 2, 6, {1, 2})
    large = cover_sum(sys, target, 0.8, 2, 6, {1, 2, 3})
    for (_, a), (_, b) in zip(small.per_level, large.per_level):
        assert b >= a - 1e-15


def test_cover_potential_rate_matches_constant():
    sys = doubling_map()
    a = cover_sum(sys, TargetSpec(0.0, Constant(0.4)), 0.9, 2, 7, {1, 2})
    b = cover_sum(sys, TargetSpec(0.0, Constant(0.4)), 0.9, 2, 7, {1, 2})
    assert a.per_level == b.per_level


def _cover_level_oracle(sys, target, s, n, subset):
    """Scalar DFS level sum with subtree pruning and unpadded math.log: once
    the partial rate shrinks the target ball away from every branch image,
    no extension of the word can contribute."""
    symbols = sorted(set(subset))
    phi = target.rate
    phi_const = phi.const
    pc = Sum(LogDerivative(), phi).psi_coef
    dist = math.inf
    for i in symbols:
        iv = sys.branch_interval(i)
        if iv.lo <= target.y <= iv.hi:
            dist = 0.0
            break
        dist = min(dist, abs(iv.lo - target.y), abs(iv.hi - target.y))
    total = 0.0
    stack = [(0, 0.0, 1.0, 0.0, 0.0)]  # depth, lo, hi, psi_lo_sum, phi_lo_sum
    while stack:
        depth, lo, hi, psi_lo, phi_lo = stack.pop()
        if depth > 0 and dist >= math.exp(-phi_lo):
            continue
        if depth == n:
            total += math.exp(-s * (pc * psi_lo + phi_lo))
            continue
        for k, sym in enumerate(symbols):
            if sys.is_affine:
                # |phi_sym'| is the ratio r everywhere: psi gains exactly -log r
                step, a, b = -math.log(sys.ratios[sym - 1]), 0.0, 1.0
            else:
                blo, bhi = sys.deriv_bracket(sym, Interval(lo, hi))
                step, a, b = -math.log(bhi), sys.apply(sym, lo), sys.apply(sym, hi)
            stack.append((depth + 1, min(a, b), max(a, b),
                          psi_lo + step, phi_lo + phi_const))
    return total


# the ball of radius e^{-0.6 n} around 0.05 (Gauss) or 0.95 (affine) meets
# the branch images for the first three or four levels only
_PSI_CONST_RATE = Sum(Scale(0.5, LogDerivative()), Constant(0.6))


@pytest.mark.parametrize("sys, target, s, subset, n_max", [
    (gauss_system(), TargetSpec(0.3, Constant(1.0)), 0.7, range(1, 17), 4),
    # branch images of {1,2,3} cover [1/4, 1]: the ball around 0.05 of radius
    # e^{-0.8 n} reaches them only while n <= 2, so levels 3..6 are 0
    (gauss_system(), TargetSpec(0.05, Constant(0.8)), 0.9, {1, 2, 3}, 6),
    (gauss_system(), TargetSpec(0.4, Sum(Scale(0.5, LogDerivative()),
                                                       Constant(0.3))), 0.6, range(1, 7), 4),
    (gauss_system(), TargetSpec(0.05, _PSI_CONST_RATE), 0.8, range(1, 5), 6),
    (affine_system([0.3] * 3), TargetSpec(0.95, _PSI_CONST_RATE), 0.8,
     {1, 2, 3}, 6),
], ids=["gauss-16", "gauss-pruned", "scaled-psi-rate", "gauss-per-symbol", "affine-per-symbol"])
def test_cover_levels_match_scalar_oracle(sys, target, s, subset, n_max):
    rep = cover_sum(sys, target, s, 1, n_max, subset)
    for n, value in rep.per_level:
        oracle = _cover_level_oracle(sys, target, s, n, subset)
        assert value == pytest.approx(oracle, rel=1e-12, abs=0.0)


def _cover_level_mpmath(sys, target, s, n, subset):
    """The level-n dominating sum at 40 digits, or 0 where the ball misses
    the subset's branch images: on affine systems (sum_i r_i^(c s))^n,
    with c the psi coefficient of psi + phi; on Gauss, the sum over words
    of the product of the per-symbol sups the level kernel bounds,
    (w_k + lo_k)^(-2 c s) with lo_k the exact lower end of the cylinder of
    the word after w_k.  Both carry the factor exp(-s n const)."""
    pot = Sum(LogDerivative(), target.rate)
    symbols = sorted(set(subset))
    with mpmath.workdps(40):
        y = mpmath.mpf(target.y)
        dist = min(max(mpmath.mpf(0), mpmath.mpf(iv.lo) - y, y - mpmath.mpf(iv.hi))
                   for iv in map(sys.branch_interval, symbols))
        if dist >= mpmath.exp(-n * mpmath.mpf(target.rate.const)):
            return mpmath.mpf(0)
        e = mpmath.mpf(pot.psi_coef) * s
        if sys.is_affine:
            level = mpmath.fsum(mpmath.mpf(sys.ratios[i - 1]) ** e for i in symbols) ** n
        else:
            level = mpmath.mpf(0)
            for word in itertools.product(symbols, repeat=n):
                lo, hi, sup = Fraction(0), Fraction(1), Fraction(1)
                for a in reversed(word):
                    sup /= (a + lo) ** 2
                    lo, hi = 1 / (a + hi), 1 / (a + lo)
                level += (mpmath.mpf(sup.numerator) / sup.denominator) ** e
        return level * mpmath.exp(-s * n * mpmath.mpf(pot.const))


@pytest.mark.parametrize("sys, target, s, subset, n_max", [
    # the affine case of the float-oracle test above: rounded to nearest,
    # its level 1 once read an ulp below that oracle's sum
    (affine_system([0.3] * 3), TargetSpec(0.95, _PSI_CONST_RATE), 0.8, {1, 2, 3}, 6),
    (affine_system([0.2, 0.3, 0.4]), TargetSpec(0.35, Constant(0.7)), 0.9, {1, 2, 3}, 8),
    (doubling_map(), ORIGIN_TARGET, 0.9, {1, 2}, 10),
    (gauss_system(), TargetSpec(0.05, _PSI_CONST_RATE), 0.8, range(1, 5), 4),
    (gauss_system(), TargetSpec(0.3, Constant(1.0)), 0.7, {1, 2, 3}, 5),
], ids=["affine-per-symbol", "affine-3", "doubling", "gauss-per-symbol", "gauss-3"])
def test_cover_levels_bound_their_exact_sums(sys, target, s, subset, n_max):
    rep = cover_sum(sys, target, s, 1, n_max, subset)
    exact = [_cover_level_mpmath(sys, target, s, n, subset) for n in range(1, n_max + 1)]
    assert any(exact)
    for (_, value), level in zip(rep.per_level, exact):
        assert (value == 0.0) == (level == 0)
        assert value >= level
        assert value == pytest.approx(float(level), rel=1e-9)
    with mpmath.workdps(40):
        assert rep.total >= mpmath.fsum(exact)


def test_cover_rate_keeps_its_psi_part_on_affine_systems():
    # on the doubling map psi is log 2 everywhere, so the potential rate psi
    # and the constant rate log 2 bound the same cover sets
    sys = doubling_map()
    a = cover_sum(sys, TargetSpec(0.0, LogDerivative()), 0.9, 2, 6, {1, 2})
    b = cover_sum(sys, TargetSpec(0.0, Constant(LOG2)), 0.9, 2, 6, {1, 2})
    for (_, va), (_, vb) in zip(a.per_level, b.per_level):
        assert va == pytest.approx(vb, rel=1e-12)


def test_cover_empty_subset_rejected():
    with pytest.raises(ValueError):
        cover_sum(doubling_map(), ORIGIN_TARGET, 1.0, 1, 3, set())


def test_cover_budget_error_reports_completed_level():
    # every level's word count is checked before any level is built, so
    # the error names no completed level
    sys = gauss_system()
    with pytest.raises(BudgetExceededError) as err:
        cover_sum(sys, TargetSpec(0.4, Constant(1.0)), 0.8, 2, 12,
                  subset=range(1, 9), budget=5000)
    assert err.value.completed_level is None
    assert str(err.value) == "budget 'cover' exceeded: 3.277e+04 needed, budget 5000"


# ---------------------------------------------------------------- certificate

def test_certificate_accepts_above_critical():
    sys = doubling_map()
    cert = upper_dimension_certificate(sys, ORIGIN_TARGET, s=0.6, m=3, n_max=10,
                                       subset={1, 2})
    assert cert.accepted
    # oracle: per-level ratio e^{log2 - 0.6*2log2} = 2^{-0.2}
    assert cert.decay_ratio == pytest.approx(2.0 ** -0.2, rel=1e-9)
    assert cert.tail_bound is not None and cert.total_with_tail is not None
    assert "not a proof" in cert.message


def test_certificate_rejects_below_critical():
    sys = doubling_map()
    cert = upper_dimension_certificate(sys, ORIGIN_TARGET, s=0.4, m=3, n_max=10,
                                       subset={1, 2})
    assert not cert.accepted
    # oracle: ratio 2^{0.2} > 1
    assert cert.decay_ratio == pytest.approx(2.0 ** 0.2, rel=1e-9)


@pytest.mark.parametrize("alpha", [0.25, 1.0, 3.0])
def test_certificate_accepts_at_one_for_positive_rates(alpha):
    # oracle: at s = 1 the ratio is e^{-alpha} < 1 for the doubling map
    sys = doubling_map()
    cert = upper_dimension_certificate(sys, TargetSpec(0.0, Constant(alpha)),
                                       s=1.0, m=2, n_max=8, subset={1, 2})
    assert cert.accepted
    assert cert.decay_ratio == pytest.approx(math.exp(-alpha), rel=1e-9)


def test_certificate_accepts_when_every_window_level_vanishes():
    # symbol 1's image [0, 1/2] lies 0.4 from y = 0.9, beyond the level-n
    # radius e^-n for every n >= 1: every level is pruned
    cert = upper_dimension_certificate(doubling_map(), TargetSpec(0.9, Constant(1.0)),
                                       s=0.5, m=1, n_max=6, subset={1})
    assert [v for _, v in cert.cover.per_level] == [0.0] * 6
    assert cert.accepted
    assert (cert.decay_ratio, cert.tail_bound, cert.total_with_tail) == (0.0, 0.0, 0.0)
    assert "trailing levels vanish" in cert.message


def test_certificate_accepts_when_the_window_ends_in_vanishing_levels():
    # the image lies 0.1 from y = 0.6, inside e^-n/2 for n <= 4 only: the
    # window (levels 3..6) decays, then reads a 0 after a 0
    cert = upper_dimension_certificate(doubling_map(), TargetSpec(0.6, Constant(0.5)),
                                       s=0.5, m=1, n_max=6, subset={1})
    levels = [v for _, v in cert.cover.per_level]
    assert all(v > 0.0 for v in levels[:4]) and levels[4:] == [0.0, 0.0]
    assert cert.accepted
    assert cert.decay_ratio == levels[3] / levels[2]
    assert cert.tail_bound == 0.0
    assert cert.total_with_tail == cert.cover.total


def test_certificate_transition_brackets_critical_exponent():
    sys = doubling_map()

    def accepted(s):
        return upper_dimension_certificate(sys, ORIGIN_TARGET, s, 3, 10, {1, 2}).accepted

    lo, hi = 0.4, 0.6
    assert not accepted(lo) and accepted(hi)
    while hi - lo > 0.02:
        mid = 0.5 * (lo + hi)
        if accepted(mid):
            hi = mid
        else:
            lo = mid
    assert lo <= 0.5 <= hi
    assert hi - lo <= 0.02


# ---------------------------------------------------------------- density

def test_density_whole_space_tie_excluded():
    # the closed cylinder [1/2, 1] touches the boundary of the open ball
    # B(0, 1), so the tie-exclusion rule keeps only [0, 1/2]
    sys = doubling_map()
    assert cylinder_density(sys, 0.0, 1, 1.0, {1, 2}) == pytest.approx(0.5)
    # any radius beyond 1 recovers both level-1 cylinders
    r = 1.0 + 1e-9
    assert cylinder_density(sys, 0.0, 1, r, {1, 2}) == pytest.approx(1.0 / r)


def test_density_half_at_matching_radius():
    # cylinders inside B(0, 1/4): exactly [0, 1/8]; density (1/8)/(1/4) = 1/2
    sys = doubling_map()
    assert cylinder_density(sys, 0.0, 3, 2.0 * 2.0 ** -3, {1, 2}) == pytest.approx(0.5)


def test_density_zero_far_from_limit_set():
    sys = affine_system([0.25, 0.25], placements=[0.0, 0.75])
    # y in the central gap, radius smaller than the gap half-width
    assert cylinder_density(sys, 0.5, 4, 0.01, {1, 2}) == 0.0


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("kind", ["doubling", "gauss"])
def test_density_floor_at_projected_points(kind, seed):
    import random

    rng = random.Random(seed)
    if kind == "doubling":
        sys = doubling_map()
        symbols = [1, 2]
        subset = {1, 2}
    else:
        sys = gauss_system()
        symbols = [1, 2, 3, 4, 5]
        subset = set(range(1, 9))
    prefix = tuple(rng.choice(symbols) for _ in range(12))
    iv = cylinder(sys, prefix * 4)
    y = 0.5 * (iv.lo + iv.hi)
    for n in range(3, 11):
        r = 2.0 * cylinder(sys, prefix[:n]).width
        density = cylinder_density(sys, y, n, r, subset)
        assert density >= 0.5 - 1e-9


def _reference_density_walk(sys, y, n, r, subset, parents=None):
    """The depth-first composer walk that cylinder_density replaced, with the
    same pruning: (leaf widths, visited nodes).  The composers of the
    depth-(n-1) cylinders that meet the ball go to ``parents`` if given."""
    symbols = sorted(set(subset))
    ball_lo, ball_hi = y - r, y + r
    widths, visited = [], 0
    stack = [(0, forward_composer(sys))]
    while stack:
        depth, comp = stack.pop()
        visited += 1
        lo, hi = comp.interval()
        if hi <= ball_lo or lo >= ball_hi:
            continue
        if depth == n - 1 and parents is not None:
            parents.append(comp)
        if depth == n:
            if ball_lo < lo and hi < ball_hi:
                widths.append(hi - lo)
            continue
        stack.extend((depth + 1, comp.child(s)) for s in symbols)
    return widths, visited


# (system, subset, deepest n, log10 radius range): ranges that keep the
# reference walk small
_DENSITY_CASES = {
    "doubling": (doubling_map(), {1, 2}, 12, (-4.0, -0.5)),
    "gapped": (affine_system([0.25, 0.25], placements=[0.0, 0.75]), {1, 2}, 10, (-4.0, -0.5)),
    "geometric": (geometric_system(0.3, 0.6), set(range(1, 33)), 4, (-4.0, -2.0)),
    "gauss": (gauss_system(), set(range(1, 17)), 6, (-5.0, -3.0)),
    # three runs of consecutive symbols, 1..2, 5..7 and 16
    "gauss-gapped": (gauss_system(), {1, 2, 5, 6, 7, 16}, 6, (-4.0, -1.5)),
}


@pytest.mark.parametrize("case", sorted(_DENSITY_CASES))
@settings(max_examples=25, deadline=None)
@given(hyst.data())
def test_density_matches_reference_walk(case, data):
    sys, subset, n_max, (log_lo, log_hi) = _DENSITY_CASES[case]
    y = data.draw(hyst.floats(min_value=0.0, max_value=1.0), label="y")
    r = 10.0 ** data.draw(hyst.floats(min_value=log_lo, max_value=log_hi), label="log10 r")
    n = data.draw(hyst.integers(min_value=1, max_value=n_max), label="n")
    widths, visited = _reference_density_walk(sys, y, n, r, subset)
    density = cylinder_density(sys, y, n, r, subset, budget=visited)
    # the same leaves, summed by one fsum: equal, well within 1e-14
    assert density == math.fsum(widths) / r
    assert (density > 0.0) == any(w > 0.0 for w in widths)


def test_density_budget_is_the_reference_node_count():
    # a Gauss ball with over a thousand depth-5 leaves
    sys, subset = gauss_system(), range(1, 17)
    y, r, n = 0.0907, 0.0004, 5
    widths, visited = _reference_density_walk(sys, y, n, r, subset)
    assert len(widths) > 1000
    assert cylinder_density(sys, y, n, r, subset, budget=visited) == math.fsum(widths) / r
    with pytest.raises(BudgetExceededError, match="budget 'density'"):
        cylinder_density(sys, y, n, r, subset, budget=visited - 1)


def test_density_prunes_cylinders_that_touch_the_ball():
    # B(1/2, 1/4) touches [0, 1/4] and [3/4, 1]: neither is entered
    sys = doubling_map()
    widths, visited = _reference_density_walk(sys, 0.5, 4, 0.25, {1, 2})
    assert visited == 1 + 2 + 4 + 4 + 8
    assert cylinder_density(sys, 0.5, 4, 0.25, {1, 2}, budget=visited) == math.fsum(widths) / 0.25


def test_density_level_charged_before_it_is_built():
    # every depth-4 cylinder meets B(1/2, 1/2): their 16^5 children take the
    # count to 1 + 16 + ... + 16^5 before any of them is composed
    with pytest.raises(BudgetExceededError,
                       match=r"budget 'density' exceeded: 1\.118e\+06 needed.*completed level: 4"):
        cylinder_density(gauss_system(), 0.5, 6, 0.5, range(1, 17), budget=10**6)


def _spy_density_steps(monkeypatch, sys):
    """The composer's density steps in call order: ("children", rows,
    symbols) for each ``level_children`` block and ("boundaries", rows,
    cuts) for each block of run ends."""
    composer = type(forward_composer(sys))
    level_children, boundaries = composer.level_children, composer.boundaries
    steps = []

    def spied_level_children(level, column):
        steps.append(("children", len(level[0]), len(column)))
        return level_children(level, column)

    def spied_boundaries(level, column):
        steps.append(("boundaries", len(level[0]), len(column)))
        return boundaries(level, column)

    monkeypatch.setattr(composer, "level_children", staticmethod(spied_level_children))
    monkeypatch.setattr(composer, "boundaries", staticmethod(spied_boundaries))
    return steps


def _leaf_parents_composed(steps):
    """Rows of the ``level_children`` blocks after the first block of run
    ends: the parents whose leaves were composed."""
    kinds = [kind for kind, _, _ in steps]
    first = kinds.index("boundaries") if "boundaries" in kinds else len(steps)
    return sum(rows for kind, rows, _ in steps[first:] if kind == "children")


def test_density_steps_each_level_in_blocks(monkeypatch):
    # a Gauss K=16 ball whose depth-5 children span 2 blocks of _BLOCK and
    # whose 12,641 depth-5 parents span 25 blocks of run ends: the blocked
    # walk equals the depth-first one bit for bit, with one composer child
    # step per block of children
    sys, subset, y, r, n = gauss_system(), range(1, 17), 0.0907, 0.0004, 6
    widths, visited = _reference_density_walk(sys, y, n, r, subset)
    steps = _spy_density_steps(monkeypatch, sys)
    composer = type(forward_composer(sys))
    child, children = composer.child, []
    monkeypatch.setattr(composer, "child", lambda comp, s: children.append(s) or child(comp, s))
    assert cylinder_density(sys, y, n, r, subset, budget=visited) == math.fsum(widths) / r
    blocks = [rows * k for kind, rows, k in steps if kind == "children"]
    ends = [rows for kind, rows, _ in steps if kind == "boundaries"]
    assert len(children) == len(blocks) > n
    assert max(blocks) == targets._BLOCK
    assert len(ends) == 25 and max(ends) == targets._BLOCK // 16
    # the nodes visited: the children of every level above depth n, and
    # the 16 leaves of each depth-5 parent, whether composed or not
    leaves = 16 * _leaf_parents_composed(steps)
    assert sum(blocks) - leaves + 16 * sum(ends) == visited - 1


def test_density_composes_leaves_only_for_straddling_parents(monkeypatch):
    # the ball of the CI density row: of the 12,641 depth-5 cylinders that
    # meet it, one has a child that meets the ball without lying inside
    # it, and only that one has its leaves composed
    sys, subset, y, r, n = gauss_system(), range(1, 17), 0.0907, 0.0004, 6
    parents = []
    widths, visited = _reference_density_walk(sys, y, n, r, subset, parents)

    def straddles(comp):
        ends = (comp.child(s).interval() for s in subset)
        return any(hi > y - r and lo < y + r and not (y - r < lo and hi < y + r)
                   for lo, hi in ends)

    assert len(parents) == 12_641
    assert sum(map(straddles, parents)) == 1
    steps = _spy_density_steps(monkeypatch, sys)
    assert cylinder_density(sys, y, n, r, subset, budget=visited) == math.fsum(widths) / r
    assert _leaf_parents_composed(steps) == 1


@pytest.mark.parametrize("subset, y, r, composed", [
    # the run 1..16 lies inside the ball, but 1 > 2/17: Sterbenz fails
    (range(1, 17), 0.5, 0.6, 1),
    ({1, 2}, 0.5, 0.6, 1),
    # b = 2a exactly: [1/4, 1/2] and [1/2, 1]
    ({2, 3}, 0.4, 0.2, 0),
    ({1}, 0.5, 0.6, 0),
    # runs 5..7 ([1/8, 1/5]) and 16 ([1/17, 1/16]) inside a ball that reaches below 1/17
    ({5, 6, 7, 16}, 0.13, 0.1, 0),
    # the run 1..2 ([1/3, 1]) straddles the ball's upper edge
    ({1, 2, 5, 6, 7, 16}, 0.3, 0.35, 1),
], ids=["all-16", "one-two", "two-three", "one", "gapped-inside", "gapped-straddling"])
def test_density_at_depth_one_falls_back_where_a_run_is_not_exact(monkeypatch, subset, y,
                                                                     r, composed):
    sys = gauss_system()
    widths, visited = _reference_density_walk(sys, y, 1, r, subset)
    steps = _spy_density_steps(monkeypatch, sys)
    assert cylinder_density(sys, y, 1, r, subset, budget=visited) == math.fsum(widths) / r
    assert widths and _leaf_parents_composed(steps) == composed


def test_gauss_level_continuants_stay_exact_past_2_53():
    # a one-row block stepped along (1, 2) * 40 by a one-symbol column,
    # against the scalar composer's Python ints: q passes 2^53 near depth 56
    # and 2^64 near depth 68
    comp = forward_composer(gauss_system())
    level = comp.level()
    for s in (1, 2) * 40:
        lo, hi, child = comp.level_children(level, np.array([[s]]))
        assert lo.shape == hi.shape == (1, 1)
        level = tuple(column[0] for column in child)
        comp = comp.child(s)
        assert [int(column[0]) for column in level] == [comp.p0, comp.p1, comp.q0, comp.q1]
        assert (float(lo[0, 0]), float(hi[0, 0])) == comp.interval()
    assert comp.q1 > 2**64


@pytest.mark.parametrize("subset, y, r, n", [
    ({1, 2, 2**53}, 0.5, 0.3, 6),  # continuants past 2^53 from depth 1
    ({1, 2, 3, 2**40}, 0.5, 0.45, 5),  # past 2^63 from depth 2, where int64 wraps
])
def test_density_with_continuants_past_2_53(subset, y, r, n):
    sys = gauss_system()
    widths, visited = _reference_density_walk(sys, y, n, r, subset)
    assert widths
    assert cylinder_density(sys, y, n, r, subset, budget=visited) == math.fsum(widths) / r


def test_density_of_a_ball_below_float_spacing():
    # a ball three diameters wide around the cylinder of (1, 2) * 40 rounds
    # to y - r == y + r == y: the walk follows the cylinders whose float
    # interval holds y strictly inside and stops once they are narrower than
    # the float spacing, about depth 28, as the depth-first walk did
    sys = gauss_system()
    word = (1, 2) * 40
    iv = cylinder(sys, word)
    # the exact diameter 1/(q_n (q_n + q_{n-1})), from the continuants
    q_prev, q = 0, 1
    for s in word:
        q_prev, q = q, s * q + q_prev
    y, r = 0.5 * (iv.lo + iv.hi), 3.0 * (1 / (q * (q + q_prev)))
    assert y - r == y + r == y
    widths, visited = _reference_density_walk(sys, y, 80, r, {1, 2})
    assert widths == [] and visited < 80
    assert cylinder_density(sys, y, 80, r, {1, 2}, budget=visited) == 0.0


def test_density_validates_input():
    sys = doubling_map()
    with pytest.raises(ValueError):
        cylinder_density(sys, 0.0, 0, 1.0, {1, 2})
    with pytest.raises(ValueError):
        cylinder_density(sys, 0.0, 2, 0.0, {1, 2})


@pytest.mark.parametrize("call, message", [
    (lambda: cylinder_density(doubling_map(), 0.3, 2, 0.1, []),
     "alphabet subset must be nonempty"),
    (lambda: cylinder_density(doubling_map(), 0.3, 2, math.nan, {1, 2}), "radius"),
    (lambda: cylinder_density(doubling_map(), 0.3, 2, math.inf, {1, 2}), "radius"),
    (lambda: cylinder_density(doubling_map(), math.nan, 2, 0.1, {1, 2}), "target point"),
    (lambda: cylinder_density(doubling_map(), -math.inf, 2, 0.1, {1, 2}), "target point"),
    (lambda: cover_sum(gauss_system(), TargetSpec(0.3, Constant(1.0)), math.nan, 1, 3,
                       {1, 2}), "exponent s"),
    (lambda: cover_sum(doubling_map(), ORIGIN_TARGET, math.inf, 1, 3, {1, 2}), "exponent s"),
], ids=["density-empty-subset", "density-r-nan", "density-r-inf", "density-y-nan",
        "density-y-inf", "cover-s-nan", "cover-s-inf"])
def test_walks_reject_degenerate_inputs(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# ---------------------------------------------------------------- hit times

@settings(max_examples=200, deadline=None)
@given(hyst.floats(0.0, 1.0), hyst.floats(-0.1, 1.1), hyst.floats(-0.1, 1.1))
def test_distance_bracket_contains_the_exact_distances(y, a, b):
    lo, hi = min(a, b), max(a, b)
    d_lo, d_hi = targets._distance_bracket(y, lo, hi)
    y, lo, hi = map(Fraction, (y, lo, hi))
    assert d_lo <= max(0, lo - y, y - hi)
    assert max(hi - y, y - lo) <= d_hi


def test_hits_fixed_point_on_target():
    sys = doubling_map()
    rep = hit_times(sys, itertools.repeat(1), TargetSpec(0.0, Constant(1.0)), 50)
    assert rep.hits == tuple(range(1, 51))
    assert rep.misses == ()
    assert rep.undecided == ()


def test_hits_fixed_point_off_target():
    sys = doubling_map()
    rep = hit_times(sys, itertools.repeat(2), TargetSpec(0.0, Constant(1.0)), 50)
    assert rep.misses == tuple(range(1, 51))
    assert rep.hits == ()
    assert rep.undecided == ()


def test_hits_binary_odometer_exact_schedule():
    # code (1,2,1,2,...) projects to 1/3; even shifts return to 1/3 and hit,
    # odd shifts sit at 2/3 with distance exactly 1/3, which beats the
    # threshold e^{-0.1 n} only once n >= 11 (exact ternary oracle)
    sys = doubling_map()
    rep = hit_times(sys, itertools.cycle([1, 2]), TargetSpec(1.0 / 3.0, Constant(0.1)), 50)
    expect_hits = tuple(sorted([n for n in range(1, 51) if n % 2 == 0]
                               + [n for n in range(1, 51, 2) if 1.0 / 3.0 < math.exp(-0.1 * n)]))
    assert rep.hits == expect_hits
    assert rep.misses == tuple(n for n in range(1, 51, 2) if n >= 11)
    assert rep.undecided == ()


def test_hits_trichotomy_partition():
    sys = doubling_map()
    rep = hit_times(sys, itertools.cycle([1, 2, 2]), TargetSpec(0.2, Constant(0.3)), 40)
    combined = sorted(rep.hits + rep.misses + rep.undecided)
    assert combined == list(range(1, 41))


def test_hits_constant_rate_equals_constant_potential():
    sys = doubling_map()
    a = hit_times(sys, itertools.cycle([1, 2]), TargetSpec(0.25, Constant(0.7)), 40)
    b = hit_times(sys, itertools.cycle([1, 2]),
                  TargetSpec(0.25, Constant(0.7)), 40)
    assert a == b


def test_hits_exhausted_code_yields_undecided():
    sys = doubling_map()
    rep = hit_times(sys, iter([1, 1, 1]), TargetSpec(0.0, Constant(1.0)), 6)
    assert rep.undecided != ()
    assert set(rep.undecided) >= {4, 5, 6}


@pytest.mark.parametrize("horizon, needed", [(101, "101"), (20, "1.868e+04")])
def test_hits_budget_is_checked_before_the_code_is_read(horizon, needed):
    # the horizon, then its windows at the precision floor (934 symbols
    # each on doubling), are charged to the budget
    def code():
        raise AssertionError("code read")
        yield 1

    with pytest.raises(BudgetExceededError,
                       match=re.escape(f"budget 'horizon' exceeded: {needed} needed")):
        hit_times(doubling_map(), code(), TargetSpec(0.3, Constant(1.0)), horizon, budget=100)


def exact_schedule(points, y, alpha, horizon):
    """Status of each epoch n when the orbit point points(n) and y are
    rationals: a hit when |x_n - y| < exp(-alpha n), else a miss."""
    mp = pytest.importorskip("mpmath")
    out = {}
    with mp.workdps(60):
        for n in range(1, horizon + 1):
            d = abs(points(n) - Fraction(y))
            near = mp.mpf(d.numerator) / d.denominator < mp.exp(-mp.mpf(alpha) * n)
            out[n] = "hit" if near else "miss"
    return out


def test_hits_below_float_spacing_agree_with_exact_orbit():
    # y = float(1/3) lies 1.85e-17 from the orbit point 1/3 of the even
    # epochs, which is above e^-n from epoch 40 on: the composed windows
    # collapse onto y there, and only the outward pad keeps them undecided
    y = 1.0 / 3.0
    rep = hit_times(doubling_map(), itertools.cycle([1, 2]), TargetSpec(y, Constant(1.0)), 50)
    oracle = exact_schedule(lambda n: Fraction(1 + n % 2, 3), y, 1.0, 50)
    assert all(oracle[n] == "hit" for n in rep.hits)
    assert all(oracle[n] == "miss" for n in rep.misses)
    assert set(rep.hits) >= {1} | set(range(2, 31, 2))
    assert set(rep.misses) == set(range(3, 51, 2))


def test_hits_probe_windows_below_float_spacing_stay_padded():
    # from epoch 82 on the xi depth passes 128, so probes of depth 64 run;
    # those windows collapse onto y, the float just above 1/3, and only their
    # pad keeps the even epochs (3.7e-17 from y, misses from epoch 38)
    # from reading as hits
    y = math.nextafter(1.0 / 3.0, 1.0)
    assert cylinder(doubling_map(), (1, 2) * 32) == Interval(y, y)
    rep = hit_times(doubling_map(), itertools.cycle([1, 2]), TargetSpec(y, Constant(1.0)), 150)
    oracle = exact_schedule(lambda n: Fraction(1 + n % 2, 3), y, 1.0, 150)
    assert all(oracle[n] == "hit" for n in rep.hits)
    assert all(oracle[n] == "miss" for n in rep.misses)
    assert set(rep.misses) >= set(range(3, 151, 2))


def test_hits_window_stuck_one_ulp_wide_is_undecided():
    # the fixed point of branch 2 lies 7.4e-18 below y = 0.4, and its composed
    # windows stay one ulp wide at every depth: refining stops when the width
    # stops shrinking, and the padded window leaves e^-n < 7.4e-18 undecided
    sys = affine_system([0.3, 0.25, 0.2, 0.15])
    image = sys.branch_interval(2)
    lo, hi = Fraction(image.lo), Fraction(image.hi)
    rep = hit_times(sys, itertools.repeat(2), TargetSpec(0.4, Constant(1.0)), 50)
    oracle = exact_schedule(lambda n: lo / (1 - (hi - lo)), 0.4, 1.0, 50)
    assert all(oracle[n] == "hit" for n in rep.hits)
    assert all(oracle[n] == "miss" for n in rep.misses)
    assert set(rep.hits) >= set(range(1, 31))


@pytest.mark.parametrize("code_len, windows, first_hits", [(None, 50, 30), (20, 19, 11)],
                         ids=["endless-code", "code-ends-at-20"])
def test_hits_probe_windows_stop_at_the_xi_window(monkeypatch, code_len, windows,
                                                   first_hits):
    # the stuck-window orbit above: each epoch with code left after it probes
    # prefixes of its xi-depth window (or of what is left), at most
    # ceil(log2 depth) + 1 of them, and an undecided epoch ends on that window;
    # the run composes each distinct window once
    epochs = []
    composed = []
    lookup = targets._window_distance

    def spied_lookup(sys, y, word, windows):
        # an epoch's first probe reads 2 symbols, or its whole xi-depth
        # window when that is shorter than 4; each later probe reads 4 or more
        if len(word) < 4:
            epochs.append([])
        epochs[-1].append(word)
        return lookup(sys, y, word, windows)

    monkeypatch.setattr(targets, "_window_distance", spied_lookup)
    monkeypatch.setattr(targets, "cylinder",
                        lambda sys, word: composed.append(word) or cylinder(sys, word))
    sys = affine_system([0.3, 0.25, 0.2, 0.15])
    image = sys.branch_interval(2)
    lo, hi = Fraction(image.lo), Fraction(image.hi)
    code = itertools.repeat(2) if code_len is None else [2] * code_len
    rep = hit_times(sys, code, TargetSpec(0.4, Constant(1.0)), 50)
    assert len(epochs) == windows
    read = 50 + sys.depth_for(targets._PRECISION_FLOOR) if code_len is None else code_len
    for n, words in enumerate(epochs, 1):
        width = max(min(targets._PRECISION_CAP, 0.01 * math.exp(-n)), targets._PRECISION_FLOOR)
        xi_depth = min(sys.depth_for(width), read - n)
        assert all(word == (2,) * len(word) for word in words)  # prefixes of (2,)*xi_depth
        assert max(map(len, words)) <= xi_depth
        assert len(words) <= math.ceil(math.log2(xi_depth)) + 1
        if n in rep.undecided:
            assert len(words[-1]) == xi_depth
    assert rep.window_symbols == sum(len(word) for words in epochs for word in words)
    probed = {word for words in epochs for word in words}
    assert sorted(composed) == sorted(probed)  # each distinct window composed once
    assert rep.windows_composed == len(composed)
    if code_len is not None:
        assert set(rep.undecided) >= set(range(code_len, 51))
    oracle = exact_schedule(lambda n: lo / (1 - (hi - lo)), 0.4, 1.0, 50)
    assert all(oracle[n] == "hit" for n in rep.hits)
    assert all(oracle[n] == "miss" for n in rep.misses)
    assert set(rep.hits) >= set(range(1, first_hits + 1))


def _probe_hit_times(sys, code, target, horizon):
    """hit_times without its window memo: every probe composes its window.
    Returns (hits, misses, undecided, window_symbols, cylinder calls)."""
    buffer = list(itertools.islice(code, horizon + sys.depth_for(targets._PRECISION_FLOOR)))
    coded = max(0, min(horizon, len(buffer) - 1))
    pot = target.rate
    folds = list(targets._birkhoff_fold(sys, pot, buffer[:coded]))
    thresholds = targets._threshold_bracket(*np.array(folds).T, pressure._fold_rounding(pot))
    out = {"hit": [], "miss": [], "undecided": []}
    symbols = calls = 0
    for n, (_, b_hi), thr_lo, thr_hi in zip(itertools.count(1), folds, *thresholds):
        xi_depth = min(sys.depth_for(max(min(targets._PRECISION_CAP, 0.01 * math.exp(-b_hi)),
                                         targets._PRECISION_FLOOR)),
                       len(buffer) - n)
        status = "undecided"
        for depth in [1 << k for k in range(1, xi_depth.bit_length() - 1)] + [xi_depth]:
            interval = cylinder(sys, tuple(buffer[n:n + depth]))
            calls += 1
            symbols += depth
            pad = 4 * (depth + 1) * math.ulp(interval.hi)
            d_lo, d_hi = targets._distance_bracket(target.y, interval.lo - pad,
                                                   interval.hi + pad)
            if d_hi < thr_lo or d_lo > thr_hi:
                status = "hit" if d_hi < thr_lo else "miss"
                break
        out[status].append(n)
    out["undecided"].extend(range(coded + 1, horizon + 1))
    return (tuple(out["hit"]), tuple(out["miss"]), tuple(out["undecided"]), symbols, calls)


def test_hits_compose_each_window_of_a_periodic_code_once():
    # a bench-shaped Gauss run: a 3-cycle probes at most 12 depths per
    # shift, so at most 36 distinct windows, where composing every probe
    # takes thousands of cylinder calls; the schedule is the same
    sys = gauss_system()
    target = TargetSpec(0.4, Constant(0.02))
    rep = hit_times(sys, itertools.cycle([2, 3, 2]), target, 1000)
    hits, misses, undecided, symbols, calls = _probe_hit_times(
        sys, itertools.cycle([2, 3, 2]), target, 1000)
    assert (rep.hits, rep.misses, rep.undecided, rep.window_symbols) == (
        hits, misses, undecided, symbols)
    assert 0 < rep.windows_composed <= 3 * 12
    assert calls > 1000
    assert rep.hits and rep.misses


def _reference_hit_times(sys, code, target, horizon):
    """The fixed-depth loop that hit_times replaced: one xi-depth window per
    epoch, thresholds and distances rounded to nearest.  Maps each epoch to
    (status, distance end, threshold end) with the ends a decision compared
    (None for undecided epochs)."""
    buffer = list(itertools.islice(code, horizon + sys.depth_for(targets._PRECISION_FLOOR)))
    phi = target.rate
    y = target.y
    out = {}
    for n in range(1, horizon + 1):
        if len(buffer) <= n:
            out[n] = (None, None, None)
            continue
        # the fold's unpadded last bracket, whose b_hi sets hit_times' xi depth
        *_, (b_lo, b_hi) = targets._birkhoff_fold(sys, phi, buffer[:n])
        thr_lo = math.exp(-b_hi)
        thr_hi = math.exp(-b_lo)
        width = max(min(targets._PRECISION_CAP, 0.01 * thr_lo), targets._PRECISION_FLOOR)
        depth = min(sys.depth_for(width), len(buffer) - n)
        interval = cylinder(sys, tuple(buffer[n:n + depth]))
        pad = 4 * (depth + 1) * math.ulp(interval.hi)
        lo, hi = interval.lo - pad, interval.hi + pad
        d_lo = max(0.0, lo - y, y - hi)
        d_hi = max(abs(hi - y), abs(y - lo))
        if d_hi < thr_lo:
            out[n] = ("hit", d_hi, thr_lo)
        elif d_lo > thr_hi:
            out[n] = ("miss", d_lo, thr_hi)
        else:
            out[n] = (None, None, None)
    return out


# (system, symbols a code draws from)
_HIT_CASES = {
    "doubling": (doubling_map(), 2),
    "packed-affine": (affine_system([0.3, 0.25, 0.2, 0.15]), 4),
    "geometric": (geometric_system(0.3, 0.6), 6),
    "gauss": (gauss_system(), 5),
}


@pytest.mark.parametrize("rate_kind", ["const", "psi", "table"])
@pytest.mark.parametrize("case", sorted(_HIT_CASES))
@settings(max_examples=15, deadline=None)
@given(hyst.data())
def test_hits_match_reference_loop(case, rate_kind, data):
    # periodic codes repeat their windows, so the run's memo answers most
    # probes; drawn aperiodic codes check that it never conflates two words.
    # Past the cap, a rate scale of at least 1 takes every rate's S_n past
    # log(0.01 / _PRECISION_CAP) = 16.1 before epoch 30, so the run's
    # xi-depth windows start at the cap and deepen below it
    sys, k = _HIT_CASES[case]
    past_cap = data.draw(hyst.booleans(), label="past the cap")
    if data.draw(hyst.booleans(), label="periodic"):
        word = tuple(data.draw(hyst.lists(hyst.integers(1, k), min_size=1, max_size=4),
                               label="word"))
        # at least as long as a run reads, so it reads as itertools.cycle(word)
        code = word * (1 + (60 + sys.depth_for(targets._PRECISION_FLOOR)) // len(word))
    else:
        code = tuple(data.draw(hyst.lists(hyst.integers(1, k), min_size=31 if past_cap else 1,
                                          max_size=120), label="symbols"))
    c = data.draw(hyst.floats(min_value=1.0, max_value=2.0) if past_cap
                  else hyst.floats(min_value=0.02, max_value=1.0), label="rate scale")
    if rate_kind == "const":
        rate = Constant(c)
    elif rate_kind == "psi":
        rate = Scale(c, LogDerivative())
    else:  # "table": a constant plus a scaled psi
        psi_coef = data.draw(hyst.floats(0.0, 1.0), label="psi coefficient")
        rate = Sum(Constant(c), Scale(psi_coef, LogDerivative()))
    # y near an orbit point pi(code[m:]) gives hits as well as misses
    m = data.draw(hyst.integers(0, min(len(code), 41) - 1), label="anchor")
    x = cylinder(sys, code[m:m + 60]).lo
    offset = 10.0 ** -data.draw(hyst.floats(min_value=1.0, max_value=18.0), label="-log10 offset")
    y = min(1.0, x + offset) if data.draw(hyst.booleans(), label="above") else max(0.0, x - offset)
    horizon = data.draw(hyst.integers(30, 60) if past_cap else hyst.integers(1, 40),
                        label="horizon")
    target = TargetSpec(y, rate)
    if past_cap:
        folds = list(targets._birkhoff_fold(sys, target.rate, code[:30]))
        assert 0.01 * math.exp(-folds[0][1]) > targets._PRECISION_CAP
        assert 0.01 * math.exp(-folds[-1][1]) < targets._PRECISION_CAP
    ref = _reference_hit_times(sys, code, target, horizon)
    rep = hit_times(sys, code, target, horizon)
    status = {n: "hit" for n in rep.hits} | {n: "miss" for n in rep.misses}
    for n, (expected, d, thr) in ref.items():
        if n in status and expected is not None:
            assert status[n] == expected, n
        elif expected is not None:
            # undecided here, decided there: only by the outward steps before
            # exp (a relative rounding bound of at most 6 * 2^-52, then one
            # ulp), which move exp(-b) by a relative 2e-15 b at most (below
            # 1e-12 while b < 500: b < 60 * 2 * 3.8 for the rates drawn)
            assert math.isclose(d, thr, rel_tol=1e-12, abs_tol=1e-320), n


# Potential expressions local to these tests: ("psi",), ("const", c),
# ("scale", f, expr) or ("sum", expr, expr).  The library potential and the
# exact oracle are each read from the tuple on their own.

def _potential(expr):
    """The potential the library's constructors build from the expression."""
    kind, *args = expr
    if kind == "psi":
        return LogDerivative()
    if kind == "const":
        return Constant(*args)
    if kind == "scale":
        return Scale(args[0], _potential(args[1]))
    return Sum(*map(_potential, args))


def _exact_birkhoff(expr, n, psi):
    """S_n of the expression in exact arithmetic on its float inputs, with
    psi the psi value of the prefix cylinder."""
    kind, *args = expr
    if kind == "psi":
        return psi
    if kind == "const":
        return n * Fraction(args[0])
    if kind == "scale":
        return Fraction(args[0]) * _exact_birkhoff(args[1], n, psi)
    return _exact_birkhoff(args[0], n, psi) + _exact_birkhoff(args[1], n, psi)


_RATES = hyst.recursive(
    hyst.one_of(hyst.tuples(hyst.just("const"), hyst.floats(0.0, 3.0)), hyst.just(("psi",))),
    lambda inner: hyst.one_of(hyst.tuples(hyst.just("scale"), hyst.floats(0.0, 3.0), inner),
                              hyst.tuples(hyst.just("sum"), inner, inner)),
    max_leaves=5)


def _check_thresholds(sys, expr, word):
    """The padded thresholds contain exp(-S_n) over each prefix cylinder,
    computed exactly from the expression's float constants and the
    composer's psi ends."""
    mp = pytest.importorskip("mpmath")
    pot = _potential(expr)
    folds = np.array(list(targets._birkhoff_fold(sys, pot, word)))
    thresholds = targets._threshold_bracket(*folds.T, pressure._fold_rounding(pot))
    comp = sys.composer()
    with mp.workdps(60):
        for n, (s, thr_lo, thr_hi) in enumerate(zip(word, *thresholds), 1):
            comp = comp.child(s)
            p_lo, p_hi = map(Fraction, comp.psi())
            s_lo, s_hi = _exact_birkhoff(expr, n, p_lo), _exact_birkhoff(expr, n, p_hi)
            assert thr_lo <= mp.exp(-mp.mpf(s_hi.numerator) / s_hi.denominator), n
            assert mp.exp(-mp.mpf(s_lo.numerator) / s_lo.denominator) <= thr_hi, n


@pytest.mark.parametrize("case, expr, word", [
    ("doubling", ("scale", 0.21875, ("scale", 2.2403076384850413, ("const", 2.640625))),
     [1] * 6),
    ("gauss", ("sum", ("const", 1.6384341714152444),
               ("sum", ("const", 1.0), ("const", 1.9100751146951158))), [1] * 3),
    ("gauss", ("scale", 2.207893929197543, ("sum", ("scale", 2.0, ("psi",)),
                                            ("sum", ("const", 1.0), ("psi",)))), [2, 5, 5]),
], ids=["nested-scale", "constant-sum", "psi-sum"])
def test_hit_thresholds_pad_the_fold_roundings(case, expr, word):
    # stepping the fold's ends one ulp before exp leaves these outside: the
    # constructors' roundings and those of n * const, psi_coef * psi and
    # their sum add up to more than one ulp of the bracket end
    _check_thresholds(_HIT_CASES[case][0], expr, word)


@pytest.mark.parametrize("case", ["doubling", "gauss"])
@settings(max_examples=150, deadline=None)
@given(hyst.data())
def test_hit_thresholds_contain_the_exact_birkhoff_sums(case, data):
    sys, k = _HIT_CASES[case]
    expr = data.draw(_RATES, label="rate")
    word = data.draw(hyst.lists(hyst.integers(1, k), min_size=1, max_size=60), label="word")
    _check_thresholds(sys, expr, word)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", [1e308, float(np.finfo(float).max) / 2, np.float64(1e308)],
                         ids=["fold-overflows", "pad-overflows", "numpy-scalar"])
def test_hits_with_an_overflowing_fold_miss_every_epoch(alpha):
    # 2 * 1e308 overflows to inf at epoch 2; half the largest double makes
    # epoch 2's fold the largest double, whose relative step overflows.
    # Either padded end stays inf, not nan, so every threshold is below
    # any distance, and no numpy warning is raised, also for a numpy
    # scalar rate, whose const Constant makes a Python float
    rep = hit_times(doubling_map(), itertools.cycle([1, 2]),
                    TargetSpec(0.3, Constant(alpha)), 5)
    assert (rep.hits, rep.misses, rep.undecided) == ((), (1, 2, 3, 4, 5), ())


def test_hits_gauss_psi_rate_is_linear_in_the_horizon():
    # rebuilding the prefix bracket every epoch made this run quadratic
    # (0.6 s); the running bracket takes about 0.03 s
    sys, word, y, horizon = gauss_system(), (1, 3, 2), 0.4, 1000
    rate = Scale(0.02, LogDerivative())
    start = time.perf_counter()
    rep = hit_times(sys, itertools.cycle(word), TargetSpec(y, rate), horizon)
    assert time.perf_counter() - start < 0.2
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        # the three orbit points of the cycle: purely periodic continued fractions
        points = []
        for shift in range(3):
            p = word[shift:] + word[:shift]
            x = mp.mpf("0.5")
            for _ in range(200):
                for s in reversed(p):
                    x = 1 / (s + x)
            points.append(x)
        decided = set(rep.hits + rep.misses)
        s_psi = 0
        for n in range(1, horizon + 1):
            # S_n psi(x) = sum_{k<n} log |T'(T^k x)| = -2 sum_{k<n} log T^k x
            s_psi -= 2 * mp.log(points[(n - 1) % 3])
            if n in decided:
                near = abs(points[n % 3] - y) < mp.exp(-0.02 * s_psi)
                assert near == (n in rep.hits), n


def test_hits_doubling_past_the_precision_floor_in_a_second():
    # past epoch 640 every xi-depth window is the 934-symbol one (16 s for
    # this run); a depth-4 probe decides each such epoch
    start = time.perf_counter()
    rep = hit_times(doubling_map(), itertools.cycle([1, 2]), TargetSpec(0.3, Constant(1.0)),
                    10000)
    assert time.perf_counter() - start < 1.0
    oracle = exact_schedule(lambda n: Fraction(1 + n % 2, 3), 0.3, 1.0, 10000)
    assert all(oracle[n] == "hit" for n in rep.hits)
    assert all(oracle[n] == "miss" for n in rep.misses)
    assert rep.undecided == ()
