import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hyst

from shrinktarget import (
    BirkhoffTable,
    Constant,
    LogDerivative,
    PressureEstimate,
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
from shrinktarget.dimension import _Solver, _search

PSI = LogDerivative()
# Jenkinson-Pollicott (2001): the dimension of the {1,2} continued-fraction set
E2 = 0.5312805062772051
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
    # the partition sums are rounded outward, so the exact P(-s psi) = (1-s)
    # log 2 straddles 0 on a zone about 1e-14 wide: 1e-15 ends uncertified
    # with a proven bracket around 1, 1e-13 certifies
    res = bowen_dimension(doubling_map(), DOUBLING_TRUNC, tol=1e-15)
    assert not res.certified and res.bracket[0] <= 1.0 <= res.bracket[1]
    assert bowen_dimension(doubling_map(), DOUBLING_TRUNC, tol=1e-13).certified


def test_truncation_ladder_must_be_nested():
    # a lower-side decision on one rung holds on a later rung only if that
    # rung contains it; {1,2} then {1} would certify dimension 1 for {1}
    with pytest.raises(ValueError, match="^truncation ladder rung 2 is not a subset of rung 3$"):
        Truncation((frozenset({1}), frozenset({1, 2}), frozenset({1})))
    with pytest.raises(ValueError, match="rung 1 is not a subset of rung 2"):
        Truncation.prefix_ladder([4, 2])
    assert len(Truncation((frozenset({1}), frozenset({1, 2}), frozenset({1, 2}))).subsets) == 3


def test_exponent_at_the_bisection_floor_names_the_floor():
    # a one-symbol subset has a one-point limit set, of dimension 0
    with pytest.raises(RuntimeError, match="at most 1e-06"):
        bowen_dimension(doubling_map(), Truncation.single({1}, n_max=3))


@pytest.mark.parametrize("trunc, tol", [
    (Truncation.single(range(1, 65), n_max=1), 1e-9),
    (Truncation.single(range(1, 33), n_max=2, use_tail=True), 1e-3),
], ids=["1..64", "1..32-tail"])
def test_gauss_search_stays_at_or_below_one(monkeypatch, trunc, tol):
    # the shallow upper bracket ends over these subsets stay above 0 up to
    # s = 1 (at depth 1, log sum_i i^{-2s} > 0), and the midpoint root lies
    # above 1; the Gauss map's dimension is 1, so the search ends at 1
    probed = []
    real = BirkhoffTable.bracket

    def bracket(self, s, *args, **kwargs):
        probed.append(s)
        return real(self, s, *args, **kwargs)

    monkeypatch.setattr(BirkhoffTable, "bracket", bracket)
    res = bowen_dimension(gauss_system(), trunc, tol=tol)
    assert probed[:2] == [1e-6, 1.0]
    assert max(probed) == 1.0
    assert not res.certified
    assert res.value <= res.bracket[1] <= 1.0


def test_upper_end_at_one_certifies_without_a_bracket():
    # the stub's upper bracket end is positive up to s = 2, so only the
    # bound at s = 1 decides the upper end
    measure, probes = _stub_zone(0.9, 2.0)
    lo, hi, _, certified = _search(measure, 0.5)
    assert certified
    assert lo < 0.9 and hi == 1.0 and hi - lo <= 0.25
    assert max(p[0] for p in probes) == 1.0


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
    assert lo <= E2 <= hi
    assert root == pytest.approx(0.53370, abs=5e-4)
    res = bowen_dimension(gauss_system(), Truncation.single({1, 2}, n_max=16), tol=5e-3)
    assert abs(res.value - 0.5313) <= 5e-3
    assert lo - 5e-3 <= res.value <= hi + 5e-3
    # the level brackets alone cannot certify 5e-3 at depth 16; a matrix
    # bracket at depth 7 or less decides every probe
    assert res.certified and res.bracket[0] <= E2 <= res.bracket[1]
    assert res.matrix_depth == 7 and res.truncation == (frozenset({1, 2}), 8)


def test_bowen_gauss_two_branch_certifies_e2_to_1e_6():
    res = bowen_dimension(gauss_system(), Truncation.single({1, 2}, n_max=16), tol=1e-6)
    assert res.certified and res.bracket[0] <= E2 <= res.bracket[1]


def transfer_root(transfer_pressure, branches, alpha, guess):
    """The root of P(-s psi) = s * alpha from the mpmath transfer-operator
    pressure, by Anderson-Bjorck steps from the pair of guesses."""
    return float(mpmath.findroot(lambda s: transfer_pressure(branches, s) - alpha * s, guess,
                                 solver="anderson", verify=False))


def test_gauss_row_with_a_straddling_probe_certifies_both_ends(transfer_pressure, gauss_branches):
    # at depth 2 the zone where the bracket straddles s*alpha is narrower
    # than tol/2, so a search whose probe falls inside it can still certify
    # both ends of its bracket
    alpha = 2.5
    res = shrink_exponent_alpha(gauss_system(), alpha, Truncation.single(range(1, 5), n_max=2),
                                tol=5e-2)
    assert res.certified
    assert res.bracket[1] - res.bracket[0] <= 2.5e-2
    root = transfer_root(transfer_pressure, gauss_branches(range(1, 5)), alpha, (0.30, 0.33))
    assert res.bracket[0] <= root <= res.bracket[1]


def test_gauss_row_whose_zone_is_wider_than_half_tol_is_uncertified(
        transfer_pressure, gauss_branches):
    # at alpha = 1.1 the depth-2 zone (a depth-1 matrix) is wider than
    # tol/2: the row is uncertified, and its bracket is what the probes proved
    res = shrink_exponent_alpha(gauss_system(), 1.1, Truncation.single(range(1, 5), n_max=2),
                                tol=5e-2)
    root = transfer_root(transfer_pressure, gauss_branches(range(1, 5)), 1.1, (0.46, 0.49))
    assert not res.certified
    assert res.bracket[0] <= root <= res.bracket[1]


@pytest.mark.parametrize("alpha, guess", [(1.1, (0.46, 0.49)), (2.5, (0.30, 0.33))],
                         ids=["alpha-1.1", "alpha-2.5"])
def test_gauss_row_at_depth_six_certifies_the_transfer_operator_root(
        transfer_pressure, gauss_branches, alpha, guess):
    # the matrix brackets decide every probe by depth 5, where the level
    # brackets of depth 6 straddled a zone wider than tol/2 at alpha = 1.1
    res = shrink_exponent_alpha(gauss_system(), alpha, Truncation.single(range(1, 5), n_max=6),
                                tol=5e-2)
    root = transfer_root(transfer_pressure, gauss_branches(range(1, 5)), alpha, guess)
    assert res.certified and res.bracket[0] <= root <= res.bracket[1]
    assert res.bracket[1] - res.bracket[0] <= 2.5e-2


def _stub_zone(a, b, curve=0.0):
    """A stub measure whose pressure bracket straddles the shift on [a, b):
    its ends are a - s and b - s plus curve (s - a)^2 and curve (s - b)^2,
    convex and decreasing for curve < 1/2, and the exponent c of any
    g(s) = c - s + curve (s - c)^2 with c in [a, b] is consistent with it."""
    probes = []

    def measure(s):
        probes.append((s, a - s + curve * (s - a) ** 2, b - s + curve * (s - b) ** 2))
        return probes[-1]

    return measure, probes


def test_search_certifies_each_end_after_a_straddle():
    # the zone is narrower than tol/2, so the row certifies: a closing
    # probe aims at each zone end the chords leave open, padded by a quarter
    # of what the zone leaves of tol/2; with curved brackets the probe at
    # the midpoint root straddles first
    for curve in (0.0, 0.4):
        measure, probes = _stub_zone(0.3, 0.7, curve)
        lo, hi, _, certified = _search(measure, 1.0)
        assert certified
        assert lo < 0.3 and 0.7 <= hi and hi - lo <= 0.5
    assert any(low <= 0.0 < up for _, low, up in probes)


def test_search_closes_the_upper_end_below_its_chord():
    # the lower end is straight and the upper end curved (convex, decreasing)
    # with its zero at 0.5: the chord through the probe at s = 1 leaves hi
    # above 0.5 by more than the closing reach, and the secant of the upper
    # ends nearest zero lies below hi, so the upper closing probes bring hi
    # down to 0.5; only they probe above 0.5 short of s = 1
    probes = []

    def measure(s):
        probes.append((s, 0.4 - s, 0.5 - s + 0.4 * (s - 0.5) ** 2))
        return probes[-1]

    lo, hi, _, certified = _search(measure, 0.2)
    assert certified
    assert lo <= 0.4 and 0.5 <= hi <= 0.5 + 1e-15
    assert [s for s, _, up in probes if up <= 0.0 and s < 1.0] == [hi]


@pytest.mark.parametrize("tol", [0.1, 0.6, 0.79])
def test_search_end_set_by_a_midpoint_guess_is_uncertified(tol):
    # the zone is wider than tol/2 (at tol 0.6 and 0.79 a bracket within
    # tol would hold it): every c in [0.3, 0.7] fits the stub's brackets,
    # so the proven bracket holds the whole zone and is uncertified; the
    # closing probes take it to within tol/8 of each zone end, and the
    # value is the root of the bracket midpoint, 0.5
    measure, _ = _stub_zone(0.3, 0.7)
    lo, hi, value, certified = _search(measure, tol)
    assert not certified
    assert lo <= 0.3 and 0.7 <= hi and hi - lo <= 0.4 + tol / 4
    assert value == pytest.approx(0.5)


class _StubTable:
    """A ladder rung whose pressure bracket is [lower - s, upper - s] at s,
    or [lower, upper] at every s with ``constant``."""

    def __init__(self, lower, upper, constant=True):
        self.lower, self.upper, self.constant = lower, upper, constant

    def bracket(self, s, n_max=None, use_tail=False, target=None):
        drop = 0.0 if self.constant else s
        return PressureEstimate(self.lower - drop, self.upper - drop, (frozenset(), 1))


@pytest.mark.parametrize("use_tail, rung0", [
    (False, (0.5 * math.ulp(1.0), 1.0)),
    (True, (-1.0, -0.5 * math.ulp(1.0))),
], ids=["lower", "upper"])
def test_probe_within_its_pad_of_the_shift_climbs_the_ladder(use_tail, rung0):
    # rung 0 clears the shift by less than the one-ulp pad, so its probe
    # straddles: the next rung is asked, and it decides
    rung1 = (0.25, 1.0) if rung0[0] > 0.0 else (-1.0, -0.25)
    solver = _Solver(None, PSI, lambda s: 0.0,
                     Truncation(({1}, {1, 2}), n_max=1, use_tail=use_tail),
                     [_StubTable(*rung0), _StubTable(*rung1)])
    pad = math.ulp(1.0)
    assert solver.measure(0.5) == (0.5, rung1[0] - pad, rung1[1] + pad)
    assert (solver.index, solver.steps) == (1, 2)


def test_upper_end_below_the_final_rung_never_bounds_the_exponent():
    # rung 0's subsystem has its exponent in [0.29, 0.31], the final rung's
    # in [0.69, 0.71]; without a tail rung 0's upper ends bound only its own
    # subsystem, so they enter as +inf: its chord from the floor to s = 1
    # would put the exponent below 0.52
    def solver():
        return _Solver(None, PSI, lambda s: 0.0, Truncation(({1}, {1, 2}), n_max=1),
                       [_StubTable(0.29, 0.31, constant=False),
                        _StubTable(0.69, 0.71, constant=False)])

    floor = solver()
    _, low, up = floor.measure(1e-6)
    assert floor.index == 0 and low > 0.0 and up == math.inf
    res = solver().run(0.1)
    assert res.bracket[0] <= 0.69 and 0.71 <= res.bracket[1]
    assert res.truncation[0] == frozenset({1, 2})


def jarnik_row():
    # the benchmark's Jarnik row: phi = (alpha/2 - 1) psi at alpha = 4, whose
    # exponent over the whole Gauss map is 2/alpha
    return shrink_exponent_potential(gauss_system(), Scale(1.0, PSI),
                                     Truncation.prefix_ladder([16, 32, 64], n_max=3,
                                                              use_tail=True), tol=1e-4)


def geometric_tail_row():
    return bowen_dimension(geometric_system(0.3, 0.6),
                           Truncation.single(range(1, 33), n_max=1, use_tail=True), tol=1e-10)


# (repr(value), repr(bracket), certified, steps) of one row per kind of
# search: probe placement is frozen bit for bit, with partition sums
# rounded outward and Gauss probes decided by matrix brackets
PINNED_ROWS = [
    ("doubling", lambda: shrink_exponent_alpha(doubling_map(), 1.0, DOUBLING_TRUNC, tol=1e-12),
     ("0.40938389085035876", "(0.40938389085035587, 0.40938389085036164)", True, 3)),
    ("affine-4", lambda: shrink_exponent_alpha(
        affine_system([0.3, 0.25, 0.2, 0.15]), 1.0, Truncation.single(range(1, 5), n_max=1),
        tol=1e-12),
     ("0.553203805287075", "(0.5532038052870428, 0.5532038052870774)", True, 5)),
    ("gauss-straddle", lambda: shrink_exponent_alpha(
        gauss_system(), 2.5, Truncation.single(range(1, 5), n_max=6), tol=5e-2),
     ("0.31698859768250653", "(0.3141444578743189, 0.31848423728956504)", True, 3)),
    ("gauss-ladder", lambda: shrink_exponent_alpha(
        gauss_system(), 2.0, Truncation.prefix_ladder([2, 4], n_max=6), tol=5e-3),
     ("0.3585071209139863", "(0.3575534969486257, 0.3590679864424794)", True, 5)),
    ("e2", lambda: bowen_dimension(gauss_system(), Truncation.single({1, 2}, n_max=16), tol=5e-3),
     ("0.5312458809565619", "(0.5311525746620925, 0.5314536115261796)", True, 4)),
    ("geometric-tail", geometric_tail_row,
     ("0.8594176612961819", "(0.8594174743786915, 0.8594178472010515)", False, 7)),
    ("jarnik", jarnik_row, ("0.5465765838880446", "(0.45870846819896516, 1.0)", False, 9)),
]


@pytest.mark.parametrize("solve, expect", [row[1:] for row in PINNED_ROWS],
                         ids=[row[0] for row in PINNED_ROWS])
def test_solver_bits_frozen(solve, expect):
    res = solve()
    assert (repr(res.value), repr(res.bracket), res.certified, res.steps) == expect


def geometric_root(a, q):
    """The root of a^s + q^s = 1: the Moran equation of the widths a q^(k-1)."""
    with mpmath.workdps(40):
        return mpmath.findroot(lambda s: mpmath.mpf(a) ** s + mpmath.mpf(q) ** s - 1,
                               (mpmath.mpf(0.5), mpmath.mpf(1)), solver="anderson")


def affine_alpha_root(ratios, alpha):
    """The root of log sum r_i^s = s alpha, in mpmath."""
    with mpmath.workdps(40):
        return mpmath.findroot(
            lambda s: mpmath.log(sum(mpmath.mpf(r) ** s for r in ratios)) - s * alpha,
            (mpmath.mpf(0), mpmath.mpf(1)), solver="anderson")


# one row per oracle, certified or not: (solve, the exponent it must bracket)
ORACLE_ROWS = [
    ("e2-1e-9", lambda: bowen_dimension(gauss_system(), Truncation.single({1, 2}, n_max=16),
                                        tol=1e-9), lambda: E2),
    ("geometric-tail", geometric_tail_row, lambda: geometric_root(0.3, 0.6)),
    ("jarnik", jarnik_row, lambda: 0.5),
    ("doubling", lambda: shrink_exponent_alpha(doubling_map(), 3.0, DOUBLING_TRUNC, tol=1e-12),
     lambda: closed_form_alpha(3.0)),
    ("affine-4", lambda: shrink_exponent_alpha(
        affine_system([0.3, 0.25, 0.2, 0.15]), 3.0, Truncation.single(range(1, 5), n_max=1),
        tol=1e-12), lambda: affine_alpha_root([0.3, 0.25, 0.2, 0.15], 3.0)),
]


@pytest.mark.parametrize("solve, oracle", [row[1:] for row in ORACLE_ROWS],
                         ids=[row[0] for row in ORACLE_ROWS])
def test_every_row_brackets_its_oracle(solve, oracle):
    # an uncertified row's bracket is what its probes proved: E2 at tol 1e-9
    # lies below what depth 15 resolves, the geometric row's lower end is
    # its 32-symbol subsystem's, and no upper end but s = 1's decides the
    # Jarnik row, whose lower end is where its Fekete lower ends decide
    res = solve()
    lo, hi = res.bracket
    assert lo < hi
    assert lo <= oracle() <= hi


def test_shallow_gauss_row_brackets_the_transfer_operator_root(transfer_pressure, gauss_branches):
    # no depth-1 bracket over 1..64 decides an upper end below s = 1, so the
    # row is uncertified, but lower < upper still holds the root
    res = bowen_dimension(gauss_system(), Truncation.single(range(1, 65), n_max=1), tol=1e-9)
    lo, hi = res.bracket
    assert not res.certified and lo < hi
    branches = gauss_branches(range(1, 65))
    assert transfer_pressure(branches, lo) > 0.0 >= transfer_pressure(branches, hi)


# ---------------------------------------------------------------- cost

@settings(max_examples=30, deadline=None)
@given(hyst.floats(min_value=0.2, max_value=8.0))
def test_doubling_row_takes_at_most_three_brackets(alpha):
    # the floor, s = 1 and one probe: g is linear, so the chords through
    # the three brackets close the exponent to a few ulps
    res = shrink_exponent_alpha(doubling_map(), alpha, DOUBLING_TRUNC, tol=1e-12)
    assert res.certified
    assert res.steps <= 3


@settings(max_examples=30, deadline=None)
@given(hyst.floats(min_value=0.2, max_value=8.0))
# a halving probe here once left its interval an ulp wider than half,
# which must not make every later probe a halving one
@example(alpha=0.7399329132460064)
def test_affine_row_takes_at_most_six_brackets(alpha):
    ratios = [0.3, 0.25, 0.2, 0.15]
    res = shrink_exponent_alpha(affine_system(ratios), alpha,
                                Truncation.single(range(1, 5), n_max=1), tol=1e-12)
    assert res.certified
    assert res.steps <= 6


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
@given(RATIO_LISTS, hyst.floats(min_value=0.05, max_value=8.0),
       hyst.floats(min_value=1e-12, max_value=1.0))
def test_exponents_lie_inside_the_unit_interval(ratios, alpha, tol):
    sys = affine_system(ratios)
    trunc = Truncation.single(range(1, len(ratios) + 1), n_max=1)
    for res in (bowen_dimension(sys, trunc, tol=tol),
                shrink_exponent_alpha(sys, alpha, trunc, tol=tol)):
        lo, hi = res.bracket
        assert 1e-6 <= lo <= res.value <= hi <= 1.0


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
