import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as hyst

from shrinktarget import (
    BirkhoffTable,
    Constant,
    LogDerivative,
    Scale,
    Truncation,
    affine_system,
    bowen_dimension,
    doubling_map,
    gauss_system,
    geometric_system,
    shrink_exponent_alpha,
    shrink_exponent_potential,
    spectrum,
)
from shrinktarget.dimension import _search

PSI = LogDerivative()
DOUBLING_TRUNC = Truncation.single({1, 2}, n_max=4)


def closed_form_alpha(alpha):
    # from P(-s psi) = (1-s) log 2 and the shift s*alpha
    return math.log(2) / (math.log(2) + alpha)


# ---------------------------------------------------------------- moran

def moran_root(ratios):
    """The root of sum r_i^s = 1 (the Moran equation), in mpmath."""
    with mpmath.workdps(40):
        return mpmath.findroot(lambda s: sum(mpmath.mpf(r) ** s for r in ratios) - 1,
                               (mpmath.mpf(0), mpmath.mpf(2)), solver="anderson")


def affine_dimension(ratios, n_max=1, tol=1e-12):
    return bowen_dimension(affine_system(ratios),
                           Truncation.single(range(1, len(ratios) + 1), n_max=n_max), tol=tol)


def test_moran_halves():
    res = affine_dimension([0.5, 0.5])
    assert res.value == pytest.approx(float(moran_root([0.5, 0.5])), abs=1e-11)
    assert res.value == pytest.approx(1.0, abs=1e-11)
    assert res.certified


def test_moran_thirds():
    res = affine_dimension([1 / 3, 1 / 3])
    assert res.value == pytest.approx(float(moran_root([1 / 3, 1 / 3])), abs=1e-11)
    assert res.value == pytest.approx(math.log(2) / math.log(3), abs=1e-11)


def test_moran_golden():
    # u + u^2 = 1 with u = 2^{-s}: u = (sqrt(5)-1)/2, s = log((1+sqrt5)/2)/log 2
    res = affine_dimension([0.5, 0.25])
    assert res.value == pytest.approx(float(moran_root([0.5, 0.25])), abs=1e-11)
    assert res.value == pytest.approx(math.log((1 + math.sqrt(5)) / 2) / math.log(2), abs=1e-11)


@pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf])
def test_solvers_reject_non_positive_or_non_finite_tolerance(tol):
    with pytest.raises(ValueError, match="finite and positive"):
        bowen_dimension(doubling_map(), DOUBLING_TRUNC, tol=tol)


def test_solvers_reject_tolerance_below_float_resolution():
    # the bracket around 1 cannot shrink below its float spacing, 2.2e-16
    with pytest.raises(ValueError, match="tolerance 1e-20 is below float resolution"):
        bowen_dimension(doubling_map(), DOUBLING_TRUNC, tol=1e-20)
    assert bowen_dimension(doubling_map(), DOUBLING_TRUNC, tol=1e-15).certified


def test_exponent_at_the_bisection_floor_names_the_floor():
    # a one-symbol subset has a one-point limit set, of dimension 0
    with pytest.raises(RuntimeError, match="at most 1e-06"):
        bowen_dimension(doubling_map(), Truncation.single({1}, n_max=3))


def test_upper_end_doubles_up_to_the_cap(monkeypatch):
    # at depth 1 the upper bracket end over Gauss 1..64 is log sum_i i^{-2s}
    # > 0, so the search closes on the root of the bracket midpoint, the
    # root of sum_i (i+1)^{-2s} * sum_i i^{-2s} = 1, which lies above 1
    probed = []
    real = BirkhoffTable.bracket

    def bracket(self, s, *args, **kwargs):
        probed.append(s)
        return real(self, s, *args, **kwargs)

    monkeypatch.setattr(BirkhoffTable, "bracket", bracket)
    res = bowen_dimension(gauss_system(), Truncation.single(range(1, 65), n_max=1), tol=1e-9)
    with mpmath.workdps(40):
        root = mpmath.findroot(
            lambda s: (sum(mpmath.mpf(i + 1) ** (-2 * s) for i in range(1, 65))
                       * sum(mpmath.mpf(i) ** (-2 * s) for i in range(1, 65)) - 1),
            (mpmath.mpf(1), mpmath.mpf(2)), solver="anderson")
    assert probed[:3] == [1e-6, 1.0, 2.0]
    assert not res.certified
    assert res.value == pytest.approx(float(root), abs=1e-9)
    assert res.value > 1.0
    # a midpoint that never falls to 0 has no upper end below the cap
    measure, probes = _stub_zone(math.inf, math.inf)
    with pytest.raises(RuntimeError, match="below the cap"):
        _search(measure, 1e-9)
    assert [p[0] for p in probes] == [1e-6] + [2.0 ** k for k in range(8)]


# ---------------------------------------------------------------- bowen

def test_bowen_doubling_is_one():
    res = bowen_dimension(doubling_map(), DOUBLING_TRUNC, tol=1e-9)
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert res.certified


def test_bowen_moran_consistency():
    ratios = [0.4, 0.3, 0.2]
    res = affine_dimension(ratios, n_max=3, tol=1e-10)
    assert res.value == pytest.approx(float(moran_root(ratios)), abs=1e-9)


def continuant_level(symbols, n):
    """Level-n pressure bracket of a finite continued-fraction set.

    Works directly with continuants: |phi_w'(t)| = (q_n + t q_{n-1})^{-2},
    so the dominated and dominating level sums are sums of (q + q')^{-2s}
    and q^{-2s}.  Returns s -> (lower, upper), each a bound on P(-s psi).
    """
    q_cur = np.array([1.0])
    q_prev = np.array([0.0])
    for _ in range(n):
        q_cur, q_prev = (np.concatenate([a * q_cur + q_prev for a in symbols]),
                         np.concatenate([q_cur] * len(symbols)))

    def level(s):
        inf_sum = float(np.sum((q_cur + q_prev) ** (-2 * s)))
        sup_sum = float(np.sum(q_cur ** (-2 * s)))
        return math.log(inf_sum) / n, math.log(sup_sum) / n

    return level


def level_bisect(level, predicate, a, b, tol):
    """Bisect predicate(lower, upper) of a level bracket from True at a to
    False at b, down to width tol."""
    while b - a > tol:
        mid = 0.5 * (a + b)
        if predicate(*level(mid)):
            a = mid
        else:
            b = mid
    return a, b


def e2_fekete_oracle(n, tol=2e-4):
    """Independent deep-level bracket for the {1,2} continued-fraction set.

    Returns (certified_lo, certified_hi, midpoint_root).
    """
    level = continuant_level((1.0, 2.0), n)
    lo_side = level_bisect(level, lambda low, up: low > 0.0, 0.4, 0.7, tol)[0]
    hi_side = level_bisect(level, lambda low, up: not (up <= 0.0), 0.4, 0.7, tol)[1]
    mid_root = 0.5 * sum(level_bisect(level, lambda low, up: 0.5 * (low + up) > 0.0,
                                      0.4, 0.7, tol))
    return lo_side, hi_side, mid_root


def test_bowen_gauss_two_branch_matches_oracle():
    lo, hi, root = e2_fekete_oracle(16)
    # frozen from the oracle at depth 16; literature value 0.5312805...
    assert lo <= 0.5312805 <= hi
    assert root == pytest.approx(0.53370, abs=5e-4)
    res = bowen_dimension(gauss_system(), Truncation.single({1, 2}, n_max=16), tol=5e-3)
    assert abs(res.value - 0.5313) <= 5e-3
    assert lo - 5e-3 <= res.value <= hi + 5e-3
    assert not res.certified  # depth 16 cannot certify 5e-3 on this system


def test_gauss_row_with_a_straddling_probe_certifies_both_ends():
    # at depth 6 the zone where the bracket straddles s*alpha is narrower
    # than tol/2, so a search whose probe falls inside it can still certify
    # both ends of its bracket
    alpha = 2.5
    res = shrink_exponent_alpha(gauss_system(), alpha, Truncation.single(range(1, 5), n_max=6),
                                tol=5e-2)
    assert res.certified
    assert res.bracket[1] - res.bracket[0] <= 2.5e-2
    # the deeper zone [a, b] at n = 10 brackets the exponent more tightly
    level = continuant_level((1.0, 2.0, 3.0, 4.0), 10)

    def less_shift(s):
        return tuple(v - alpha * s for v in level(s))

    a = level_bisect(less_shift, lambda low, up: low > 0.0, 0.0, 1.0, 1e-9)[1]
    b = level_bisect(less_shift, lambda low, up: up > 0.0, 0.0, 1.0, 1e-9)[0]
    assert res.bracket[0] <= a < b <= res.bracket[1]


def test_gauss_row_whose_zone_is_wider_than_half_tol_is_uncertified():
    # at alpha = 1.1 the depth-6 zone is about 0.035 wide: a certified
    # bracket within tol = 0.05 exists, but not within tol/2
    res = shrink_exponent_alpha(gauss_system(), 1.1, Truncation.single(range(1, 5), n_max=6),
                                tol=5e-2)
    assert not res.certified
    assert res.bracket[1] - res.bracket[0] <= 5e-2


def _stub_zone(a, b):
    """A stub measure whose pressure bracket straddles the shift on [a, b)."""
    probes = []

    def measure(s):
        probes.append((s, a - s, b - s))
        return probes[-1]

    return measure, probes


def test_search_certifies_each_end_after_a_straddle():
    measure, probes = _stub_zone(0.3, 0.7)
    lo, hi, certified = _search(measure, 1.0)
    assert any(low <= 0.0 < up for _, low, up in probes)
    assert certified
    assert lo < 0.3 and 0.7 <= hi and hi - lo <= 0.5


@pytest.mark.parametrize("tol", [0.1, 0.6, 0.79])
def test_search_end_set_by_a_midpoint_guess_is_uncertified(tol):
    # the zone is wider than tol/2: no bracket that narrow has both ends
    # decided (at tol 0.6 and 0.79 one within tol would), and the search
    # closes on the midpoint root 0.5 instead
    measure, _ = _stub_zone(0.3, 0.7)
    lo, hi, certified = _search(measure, tol)
    assert not certified
    assert lo <= 0.5 <= hi and hi - lo <= tol
    assert not (lo < 0.3 and 0.7 <= hi)


# (repr(value), repr(bracket), certified, steps) of one row per kind of
# search: probe placement is frozen bit for bit
PINNED_ROWS = [
    ("doubling", lambda: shrink_exponent_alpha(doubling_map(), 1.0, DOUBLING_TRUNC, tol=1e-12),
     ("0.40938389085042126", "(0.40938389085035853, 0.409383890850484)", True, 4)),
    ("affine-4", lambda: shrink_exponent_alpha(
        affine_system([0.3, 0.25, 0.2, 0.15]), 1.0, Truncation.single(range(1, 5), n_max=1),
        tol=1e-12),
     ("0.5532038052870141", "(0.5532038052869496, 0.5532038052870787)", True, 8)),
    ("gauss-straddle", lambda: shrink_exponent_alpha(
        gauss_system(), 2.5, Truncation.single(range(1, 5), n_max=6), tol=5e-2),
     ("0.3169703306083272", "(0.30721111895547154, 0.32672954226118284)", True, 5)),
    ("gauss-ladder", lambda: shrink_exponent_alpha(
        gauss_system(), 2.0, Truncation.prefix_ladder([2, 4], n_max=6), tol=5e-3),
     ("0.3562989818886212", "(0.35382167857722424, 0.3587762852000181)", False, 10)),
    ("e2", lambda: bowen_dimension(gauss_system(), Truncation.single({1, 2}, n_max=16), tol=5e-3),
     ("0.5337776713747255", "(0.5334651701698482, 0.5340901725796028)", False, 7)),
    ("geometric-tail", lambda: bowen_dimension(
        geometric_system(0.3, 0.6), Truncation.single(range(1, 33), n_max=1, use_tail=True),
        tol=1e-10),
     ("0.859417661289932", "(0.8594176612836818, 0.8594176612961821)", False, 13)),
]


@pytest.mark.parametrize("solve, expect", [row[1:] for row in PINNED_ROWS],
                         ids=[row[0] for row in PINNED_ROWS])
def test_solver_bits_frozen(solve, expect):
    res = solve()
    assert (repr(res.value), repr(res.bracket), res.certified, res.steps) == expect


# ---------------------------------------------------------------- cost

@settings(max_examples=30, deadline=None)
@given(hyst.floats(min_value=0.2, max_value=8.0))
def test_doubling_row_takes_at_most_six_brackets(alpha):
    res = shrink_exponent_alpha(doubling_map(), alpha, DOUBLING_TRUNC, tol=1e-12)
    assert res.certified
    assert res.steps <= 6


@settings(max_examples=30, deadline=None)
@given(hyst.floats(min_value=0.2, max_value=8.0))
def test_affine_row_takes_at_most_fourteen_brackets(alpha):
    ratios = [0.3, 0.25, 0.2, 0.15]
    res = shrink_exponent_alpha(affine_system(ratios), alpha,
                                Truncation.single(range(1, 5), n_max=1), tol=1e-12)
    assert res.certified
    assert res.steps <= 14


# ---------------------------------------------------------------- shrink

@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0, 4.0])
def test_shrink_alpha_doubling_closed_form(alpha):
    res = shrink_exponent_alpha(doubling_map(), alpha, DOUBLING_TRUNC, tol=1e-10)
    assert res.value == pytest.approx(closed_form_alpha(alpha), abs=1e-9)
    assert res.certified
    assert res.bracket[0] > 0.0


def test_shrink_alpha_approaches_one():
    values = [shrink_exponent_alpha(doubling_map(), a, DOUBLING_TRUNC, tol=1e-10).value
              for a in (0.1, 0.01)]
    assert values[0] < values[1] < 1.0
    assert values[1] == pytest.approx(closed_form_alpha(0.01), abs=1e-9)


def test_shrink_alpha_rejects_nonpositive():
    with pytest.raises(ValueError):
        shrink_exponent_alpha(doubling_map(), 0.0, DOUBLING_TRUNC)


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
def test_shrink_alpha_rejects_non_finite(alpha):
    with pytest.raises(ValueError):
        shrink_exponent_alpha(doubling_map(), alpha, DOUBLING_TRUNC)


def test_shrink_potential_constant_matches_alpha():
    c = math.log(2)
    a = shrink_exponent_potential(doubling_map(), Constant(c), DOUBLING_TRUNC, tol=1e-10)
    assert a.value == pytest.approx(0.5, abs=1e-9)
    b = shrink_exponent_alpha(doubling_map(), c, DOUBLING_TRUNC, tol=1e-10)
    assert a.value == pytest.approx(b.value, abs=1e-9)


def test_shrink_potential_zero_reduces_to_bowen():
    a = shrink_exponent_potential(doubling_map(), Constant(0.0), DOUBLING_TRUNC, tol=1e-10)
    b = bowen_dimension(doubling_map(), DOUBLING_TRUNC, tol=1e-10)
    assert a.value == pytest.approx(b.value, abs=1e-9)
    assert a.value == pytest.approx(1.0, abs=1e-9)


def test_shrink_gauss_jarnik_ladder():
    # paper benchmark: target exponent 2/alpha at alpha = 4 via phi = (alpha/2 - 1) psi
    alpha = 4.0
    phi = Scale(alpha / 2 - 1, PSI)
    sys = gauss_system()
    values = []
    for k in (16, 32, 64):
        res = shrink_exponent_potential(sys, phi, Truncation.single(range(1, k + 1), n_max=3),
                                        tol=1e-4)
        values.append(res.value)
        assert res.bracket[0] > 0.0
    assert values[0] < values[1] < values[2]
    assert abs(values[2] - 2.0 / alpha) <= 0.02
    # the constant-rate route solves a different equation, P(-s psi) = s*alpha,
    # whose truncated value sits well below 2/alpha; it must still be positive
    # and strictly increasing in the truncation
    alt_small = shrink_exponent_alpha(sys, alpha, Truncation.single(range(1, 17), n_max=3), tol=1e-4)
    alt = shrink_exponent_alpha(sys, alpha, Truncation.single(range(1, 65), n_max=3), tol=1e-4)
    assert 0.0 < alt_small.value < alt.value < 2.0 / alpha


# ---------------------------------------------------------------- spectrum

def test_spectrum_closed_forms():
    rows = spectrum(doubling_map(), [0.5, 1.0, 2.0], DOUBLING_TRUNC, tol=1e-10)
    for (alpha, res), expect in zip(rows, (0.5809, 0.4094, 0.2574)):
        assert res.value == pytest.approx(closed_form_alpha(alpha), abs=1e-9)
        assert res.value == pytest.approx(expect, abs=1e-4)


def test_spectrum_single_point_equals_direct():
    rows = spectrum(doubling_map(), [1.0], DOUBLING_TRUNC, tol=1e-10)
    direct = shrink_exponent_alpha(doubling_map(), 1.0, DOUBLING_TRUNC, tol=1e-10)
    assert rows[0][1].value == direct.value


def test_spectrum_duplicate_points_deterministic():
    rows = spectrum(doubling_map(), [1.0, 1.0], DOUBLING_TRUNC, tol=1e-10)
    assert rows[0][1] == rows[1][1]


def _count_table_builds(monkeypatch) -> list[BirkhoffTable]:
    built = []
    real = BirkhoffTable.__init__

    def init(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(BirkhoffTable, "__init__", init)
    return built


def _fields(res):
    return (repr(res.value), repr(res.bracket), res.truncation, res.certified, res.steps)


@pytest.mark.parametrize("sys, trunc, tol", [
    (gauss_system(), Truncation.prefix_ladder([2, 4], n_max=6), 5e-3),
    (affine_system([0.3, 0.25, 0.2, 0.15]), Truncation.single(range(1, 5), n_max=2), 1e-12),
], ids=["gauss-ladder", "affine-4"])
def test_spectrum_rows_equal_standalone_rows(monkeypatch, sys, trunc, tol):
    # the rows share one table per rung, which keeps its brackets; a row
    # must still come out as if it had been solved alone
    alphas = [2.0, 0.5, 4.5, 0.5, 1.0]
    built = _count_table_builds(monkeypatch)
    rows = spectrum(sys, alphas, trunc, tol=tol)
    rungs = 1 + max(trunc.subsets.index(res.truncation[0]) for _, res in rows)
    assert len(built) == rungs == len(trunc.subsets)
    for alpha, res in rows:
        assert _fields(res) == _fields(shrink_exponent_alpha(sys, alpha, trunc, tol))
    assert _fields(rows[1][1]) == _fields(rows[3][1])


@pytest.mark.parametrize("alphas", [[0.5, 1.0, 0.0], [0.5, math.nan], [math.inf, 1.0], [-1.0]])
def test_spectrum_checks_the_grid_before_building_tables(monkeypatch, alphas):
    built = _count_table_builds(monkeypatch)
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        spectrum(gauss_system(), alphas, Truncation.single(range(1, 5), n_max=6), tol=5e-2)
    assert built == []


def test_ladder_refinement_matches_final_rung():
    # without a tail, upper decisions only bind at the deepest rung: a
    # ladder must solve the same quantity as its final subset alone
    sys = gauss_system()
    ladder = Truncation.prefix_ladder([4, 8, 16], n_max=3)
    single = Truncation.single(range(1, 17), n_max=3)
    a = bowen_dimension(sys, ladder, tol=1e-4)
    b = bowen_dimension(sys, single, tol=1e-4)
    assert a.value == pytest.approx(b.value, abs=2e-4)
    assert a.truncation[0] == frozenset(range(1, 17))


def test_full_system_upper_dominates_subsystems():
    # finite-approximation direction: the tail-dominated bracket for the
    # full system never falls below any finite-subsystem value
    sys = gauss_system()
    phi = Scale(1.0, PSI)
    sub_values = [shrink_exponent_potential(
        sys, phi, Truncation.single(range(1, k + 1), n_max=2), tol=1e-4).value
        for k in (8, 16)]
    full = shrink_exponent_potential(
        sys, phi, Truncation.single(range(1, 17), n_max=2, use_tail=True), tol=1e-4)
    for v in sub_values:
        assert full.bracket[1] >= v - 1e-9


def test_spectrum_nonincreasing_property():
    alphas = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
    rows = spectrum(doubling_map(), alphas, DOUBLING_TRUNC, tol=1e-10)
    values = [res.value for _, res in rows]
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-9


# ---------------------------------------------------------------- positivity

RATIO_LISTS = hyst.lists(hyst.floats(min_value=0.05, max_value=0.3), min_size=2,
                         max_size=5).filter(lambda rs: sum(rs) <= 1.0)


@settings(max_examples=50, deadline=None)
@given(RATIO_LISTS, hyst.floats(min_value=0.0, max_value=3.0))
def test_shrink_exponent_positive(ratios, c):
    sys = affine_system(ratios)
    trunc = Truncation.single(range(1, len(ratios) + 1), n_max=2)
    res = shrink_exponent_potential(sys, Constant(c), trunc, tol=1e-6)
    assert res.bracket[0] > 0.0
    assert res.value > 0.0


@settings(max_examples=50, deadline=None)
@given(RATIO_LISTS, hyst.floats(min_value=0.2, max_value=8.0))
def test_affine_exponent_certified_around_the_mpmath_root(ratios, alpha):
    tol = 1e-12
    res = shrink_exponent_alpha(affine_system(ratios), alpha,
                                Truncation.single(range(1, len(ratios) + 1), n_max=1), tol=tol)
    with mpmath.workdps(40):
        root = mpmath.findroot(
            lambda s: mpmath.log(sum(mpmath.mpf(r) ** s for r in ratios)) - s * alpha,
            (mpmath.mpf(0), mpmath.mpf(1)), solver="anderson")
    lo, hi = res.bracket
    assert res.certified
    assert hi - lo <= tol
    assert lo <= root <= hi
