import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hyst

from shrinktarget import (
    BirkhoffTable,
    BudgetExceededError,
    Constant,
    GaussFamily,
    Interval,
    LogDerivative,
    Potential,
    Scale,
    Sum,
    TargetSpec,
    affine_system,
    birkhoff_bracket,
    cover_sum,
    doubling_map,
    gauss_system,
    geometric_system,
    pressure_bracket,
)
from shrinktarget import pressure
from shrinktarget.cli import main
from shrinktarget.dimension import Truncation, _Solver
from shrinktarget.systems import BranchFamily, forward_composer

PSI = LogDerivative()


# ---------------------------------------------------------------- birkhoff

def _check_padded_bracket(sys, pot, word, exact):
    """birkhoff_bracket contains the exact S_n and the fold's unpadded last
    bracket, and is at most 4 * _fold_rounding(pot) wider than that bracket
    relative to its ends (a relative step and one ulp on each side)."""
    lo, hi = birkhoff_bracket(sys, pot, word)
    *_, (old_lo, old_hi) = pressure._birkhoff_fold(sys, pot, word)
    assert lo <= exact <= hi
    assert lo <= old_lo <= old_hi <= hi
    assert hi - lo <= old_hi - old_lo + 4 * pressure._fold_rounding(pot) * old_hi
    return lo, hi


def test_birkhoff_doubling_psi_exact():
    # S_4 psi of the composer's exact per-symbol -log ratio
    sys = doubling_map()
    exact = 4 * Fraction(-math.log(0.5))
    lo, hi = _check_padded_bracket(sys, PSI, (1, 2, 1, 2), exact)
    assert lo == pytest.approx(4 * math.log(2), rel=1e-15)
    assert hi == pytest.approx(4 * math.log(2), rel=1e-15)


def test_birkhoff_gauss_psi_branch_one():
    sys = gauss_system()
    lo, hi = birkhoff_bracket(sys, PSI, (1,))
    # oracle: |T'| = 1/x^2 on [1/2, 1] spans [1, 4], so S_1(psi) spans [0, log 4]
    assert lo <= 0.0 + 1e-12
    assert hi >= math.log(4.0) - 1e-12
    assert lo == pytest.approx(0.0, abs=1e-12)
    assert hi == pytest.approx(math.log(4.0), abs=1e-12)


def test_birkhoff_gauss_psi_bracket_contains_mpmath_values():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    rng = np.random.default_rng(7)
    words = [(1,), (9,), (1,) * 12, (2, 1, 5, 3)]
    words += [tuple(int(v) for v in rng.integers(1, 31, size=rng.integers(1, 11)))
              for _ in range(40)]
    sys = gauss_system()
    for word in words:
        lo, hi = birkhoff_bracket(sys, PSI, word)
        for x in (0, 0.5, 1):
            # chain rule for phi_w = phi_{w_1} o ... o phi_{w_n}, innermost first
            point, log_deriv = mp.mpf(x), mp.mpf(0)
            for s in reversed(word):
                log_deriv -= 2 * mp.log(s + point)
                point = 1 / (s + point)
            assert lo <= -log_deriv <= hi
    # depth-1 psi ends, in the table and in the family (tail ends):
    # -log sup|phi_i'| = 2 log i
    level_one = BirkhoffTable(sys, PSI, range(1, 40)).level(1)[0]
    for i, lo in zip(range(1, 40), level_one):
        assert lo <= 2 * mp.log(i)
        assert sys.psi_bracket(i)[0] <= 2 * mp.log(i)


@pytest.mark.parametrize("word", [(1,) * 800, (1,) * 3000, (2, 1, 5, 3) * 750],
                         ids=["ones-800", "ones-3000", "mixed-3000"])
def test_birkhoff_gauss_psi_deep_words_stay_finite(word):
    # the float product of branch derivatives underflows long before depth
    # 800; the continuants behind the psi bracket do not
    mp = pytest.importorskip("mpmath")
    lo, hi = birkhoff_bracket(gauss_system(), PSI, word)
    assert math.isfinite(lo) and math.isfinite(hi)
    q_prev, q = 0, 1
    for s in word:
        q_prev, q = q, s * q + q_prev
    with mp.workdps(60):
        # |phi_w'(x)| = (q_n + x q_{n-1})^-2 over x in [0, 1]
        for x in (0, mp.mpf(1) / 2, 1):
            assert lo <= 2 * mp.log(q + x * q_prev) <= hi


def test_birkhoff_constant_adds():
    # the fold's n * 0.3 reads 1.2, a rounding of the exact 4 * 0.3
    lo, hi = _check_padded_bracket(doubling_map(), Constant(0.3), (1, 1, 2, 2),
                                   4 * Fraction(0.3))
    assert lo <= 1.2 <= hi


def test_birkhoff_bracket_contains_a_sum_the_fold_rounds_below():
    # the constructors' products round this constant down, and the fold's
    # unpadded upper end sits 1.4e-16 relative below the exact S_n
    a, b, c = 0.21875, 2.2403076384850413, 2.640625
    pot = Scale(a, Scale(b, Constant(c)))
    missed = 0
    for n in range(1, 7):
        exact = n * Fraction(a) * Fraction(b) * Fraction(c)
        *_, (_, old_hi) = pressure._birkhoff_fold(doubling_map(), pot, (1,) * n)
        missed += old_hi < exact
        _check_padded_bracket(doubling_map(), pot, (1,) * n, exact)
    assert missed


def test_birkhoff_scale_and_sum():
    pot = Sum(Scale(2.0, PSI), Constant(1.0))
    exact = 2 * 2 * Fraction(-math.log(0.5)) + 2
    lo, hi = _check_padded_bracket(doubling_map(), pot, (1, 2), exact)
    assert lo == pytest.approx(2 * (2 * math.log(2)) + 2.0)
    assert hi == pytest.approx(2 * (2 * math.log(2)) + 2.0)


def _word_order_bracket(sys, pot, word):
    """The bracket birkhoff_bracket computed before the running fold: n times
    the constant, then the psi bracket of the whole word's cylinder, all
    rounded to nearest."""
    lo = hi = len(word) * pot.const
    if pot.psi_coef != 0.0:
        comp = forward_composer(sys)
        for s in word:
            comp = comp.child(s)
        plo, phi_ = comp.psi()
        lo += pot.psi_coef * plo
        hi += pot.psi_coef * phi_
    return lo, hi


def test_birkhoff_fold_constant_is_n_times_the_constant():
    brackets = list(pressure._birkhoff_fold(doubling_map(), Constant(0.3), (1, 1, 2, 2)))
    assert brackets == [(n * 0.3, n * 0.3) for n in range(1, 5)]
    assert brackets[-1] == (1.2, 1.2)


@pytest.mark.parametrize("pot", [PSI, Scale(0.02, PSI), Sum(Scale(2.0, PSI), Constant(0.7))],
                         ids=["psi", "scaled-psi", "psi-plus-constant"])
@pytest.mark.parametrize("sys", [doubling_map(), gauss_system()], ids=["doubling", "gauss"])
def test_birkhoff_fold_without_tables_is_the_word_bracket(sys, pot):
    word = (1, 2, 2, 1, 2) * 8
    brackets = list(pressure._birkhoff_fold(sys, pot, word))
    assert brackets == [_word_order_bracket(sys, pot, word[:n])
                        for n in range(1, len(word) + 1)]


@settings(max_examples=60, deadline=None)
@given(hyst.sampled_from(["doubling", "gauss"]),
       hyst.floats(min_value=0.0, max_value=1e3), hyst.floats(min_value=0.0, max_value=3.0),
       hyst.lists(hyst.integers(1, 3), min_size=1, max_size=60))
def test_birkhoff_fold_contains_the_word_order_bracket(kind, const, psi_coef, word):
    sys = gauss_system() if kind == "gauss" else affine_system([0.3, 0.3, 0.3])
    pot = Sum(Constant(const), Scale(psi_coef, PSI))
    word = tuple(word)
    lo, hi = birkhoff_bracket(sys, pot, word)
    old_lo, old_hi = _word_order_bracket(sys, pot, word)
    assert lo <= old_lo and old_hi <= hi
    # the constant part alone: n times the constant, exactly
    lo, hi = birkhoff_bracket(sys, Constant(const), word)
    assert lo <= len(word) * Fraction(const) <= hi


@pytest.mark.parametrize("make_sys, word", [
    (doubling_map, (0, 1)),
    (doubling_map, (5,)),
    (lambda: affine_system([0.3, 0.25, 0.2]), (1, 4)),
    (lambda: geometric_system(0.5, 0.5), (1, 0)),
    (gauss_system, (2, -1)),
])
@pytest.mark.parametrize("pot", [PSI, Sum(PSI, Constant(1.0)), Scale(0.5, PSI)])
def test_birkhoff_rejects_symbols_outside_the_alphabet(make_sys, word, pot):
    with pytest.raises(ValueError, match="not in the system alphabet"):
        birkhoff_bracket(make_sys(), pot, word)


def test_nonnegativity_validation():
    with pytest.raises(ValueError):
        Constant(-1.0)
    with pytest.raises(ValueError):
        Scale(-0.5, PSI)
    with pytest.raises(ValueError, match="nonnegative"):
        Potential(-1.0, 0.0)


@pytest.mark.parametrize("make", [
    lambda: Scale(1e308, Scale(1e308, PSI)),
    lambda: Sum(Scale(1e308, Constant(1e308)), PSI),
    lambda: Constant(math.nan),
    lambda: Scale(math.inf, Constant(0.0)),
    lambda: Potential(math.inf, 0.0),
], ids=["psi-overflow", "const-overflow", "nan", "inf-times-zero", "direct"])
def test_non_finite_coefficients_rejected_where_flattened(make):
    # when the potential is made, before any table or fold reads it
    with pytest.raises(ValueError, match="must be finite"):
        make()


@pytest.mark.parametrize("pot, want", [
    (PSI, Potential(1.0, 0.0, 1)),
    (Constant(0.375), Potential(0.0, 0.375, 1)),
    (Scale(2.0, Sum(PSI, Constant(0.25))), Potential(2.0, 0.5, 4)),
    (Sum(Scale(0.5, PSI), Scale(3.0, Sum(Constant(1.0), Scale(2.0, PSI)))),
     Potential(6.5, 3.0, 8)),
    (Scale(0.5, Scale(4.0, Sum(Constant(1.5), Constant(0.5)))), Potential(0.0, 4.0, 5)),
], ids=["psi", "const", "scaled-sum", "nested", "scale-chain"])
def test_constructors_give_the_coefficients_and_node_count(pot, want):
    # every product and sum above is exact in binary
    assert pot == want
    assert type(pot.psi_coef) is float and type(pot.const) is float


def test_pad_fold_caps_the_step_of_infinite_ends_only():
    rel = pressure._fold_rounding(Sum(PSI, Constant(1.0)))
    rng = np.random.default_rng(20)
    ends = np.concatenate([np.exp(rng.uniform(-745.0, 709.0, 10**4)),
                           [0.0, 5e-324, 1.1e308, np.finfo(float).max]])
    # finite ends step as they did without the cap, the largest double's
    # upper end to inf; an infinite lower end steps to the largest double
    lo, hi = pressure._pad_fold(ends, ends, rel)
    finite = ends[:-1]
    assert np.array_equal(_bits(lo[:-1]), _bits(np.nextafter(finite - rel * finite, -np.inf)))
    assert np.array_equal(_bits(hi[:-1]), _bits(np.nextafter(finite + rel * finite, np.inf)))
    assert hi[-1] == np.inf
    with np.errstate(all="raise"):
        lo, hi = pressure._pad_fold(np.array([np.inf]), np.array([np.inf]), rel)
    assert (lo[0], hi[0]) == (np.finfo(float).max, np.inf)


# ---------------------------------------------------------------- partition

def test_partition_zero_potential():
    sys = doubling_map()
    for mode in ("sup", "inf"):
        got = BirkhoffTable(sys, Constant(0.0), {1, 2}).partition(1.0, 3, mode)
        assert got == pytest.approx(math.log(8))


def test_partition_doubling_unit_scale():
    sys = doubling_map()
    for mode in ("sup", "inf"):
        got = BirkhoffTable(sys, Scale(1.0, PSI), {1, 2}).partition(1.0, 5, mode)
        assert got == pytest.approx(0.0, abs=1e-12)


def test_partition_gauss_depth_one_endpoint_oracle():
    sys = gauss_system()
    # oracle: direct evaluation of 1/(i+x)^2 at the interval endpoints
    w1 = 1.0 / (1.0 + 0.0) ** 2   # sup |phi_1'|
    w2 = 1.0 / (2.0 + 0.0) ** 2   # sup |phi_2'|
    expect = math.log(w1 + w2)
    got = BirkhoffTable(sys, Scale(1.0, PSI), {1, 2}).partition(1.0, 1, "sup")
    assert got == pytest.approx(expect, abs=1e-12)
    i1 = 1.0 / (1.0 + 1.0) ** 2   # inf |phi_1'|
    i2 = 1.0 / (2.0 + 1.0) ** 2
    got_inf = BirkhoffTable(sys, Scale(1.0, PSI), {1, 2}).partition(1.0, 1, "inf")
    assert got_inf == pytest.approx(math.log(i1 + i2), abs=1e-12)


# ---------------------------------------------------------------- pressure

def test_pressure_doubling_half_scale():
    sys = doubling_map()
    est = pressure_bracket(sys, Scale(0.5, PSI), {1, 2}, n_max=4)
    assert est.lower == pytest.approx(0.5 * math.log(2), rel=1e-12)
    assert est.upper == pytest.approx(0.5 * math.log(2), rel=1e-12)
    assert not est.diverged


def test_pressure_thirds_moran_zero():
    sys = affine_system([1 / 3, 1 / 3, 1 / 3])
    est = pressure_bracket(sys, Scale(1.0, PSI), {1, 2, 3}, n_max=3)
    assert est.lower == pytest.approx(0.0, abs=1e-12)
    assert est.upper == pytest.approx(0.0, abs=1e-12)


def test_pressure_gauss_diverges_below_half():
    sys = gauss_system()
    est = pressure_bracket(sys, Scale(0.4, PSI), {1, 2, 3}, n_max=2, use_tail=True)
    assert est.diverged
    assert est.upper == math.inf
    assert math.isfinite(est.lower)


def test_pressure_gauss_tail_converges_above_half():
    sys = gauss_system()
    est = pressure_bracket(sys, Scale(1.0, PSI), range(1, 9), n_max=2, use_tail=True)
    assert not est.diverged
    assert math.isfinite(est.upper)
    assert est.lower <= est.upper
    # Bowen: the full Gauss system has dimension 1, so P(-psi) <= 0
    assert est.lower <= 0.0


# ---------------------------------------------------------------- additive tables


def per_level_bracket(table, scale, n_max, tail=None):
    """The bracket summed level by level: max/min over n of partition / n,
    or with a tail value the depth-1 sup sum joined with the tail."""
    lower = -math.inf
    for n in range(1, n_max + 1):
        lower = max(lower, table.partition(scale, n, "inf") / n)
    if tail is None:
        upper = math.inf
        for n in range(1, n_max + 1):
            upper = min(upper, table.partition(scale, n, "sup") / n)
    else:
        upper = float(np.logaddexp(table.partition(scale, 1, "sup"), math.log(tail)))
    return lower, upper


def _geometric_tail(sys, scale):
    # the family's closed form beyond symbol 8 for psi + 0.1; F = 1..8 skips
    # no symbol below it
    return sys.tail_weight_sum(scale, 8) * math.exp(-scale * 0.1)


ADDITIVE_TABLES = {
    "doubling": (doubling_map, PSI, {1, 2}, None),
    "affine-4": (lambda: affine_system([0.3, 0.25, 0.2, 0.15]), PSI, {1, 2, 3, 4}, None),
    "geometric-tail": (lambda: geometric_system(0.5, 0.5), Sum(PSI, Constant(0.1)),
                       range(1, 9), _geometric_tail),
    "gauss-constant": (gauss_system, Constant(0.7), {1, 2, 3}, None),
    "per-symbol": (lambda: affine_system([0.3, 0.25, 0.2]), Sum(Scale(0.7, PSI), Constant(0.3)),
                   {1, 2, 3}, None),
}


def default_depth(table):
    """Deepest level whose word count fits the table's budget."""
    k = len(table.symbols)
    return max(n for n in range(1, 64) if k ** n <= table.budget)


@pytest.mark.parametrize("name", sorted(ADDITIVE_TABLES))
@pytest.mark.parametrize("n_max", [1, 5, None])
@pytest.mark.parametrize("scale", [1e-6, 0.37, 1.0, 2.5])
def test_additive_bracket_matches_per_level_sums(name, n_max, scale):
    make_sys, pot, subset, tail_of = ADDITIVE_TABLES[name]
    sys = make_sys()
    table = BirkhoffTable(sys, pot, subset)
    assert table.additive is not None
    tail = tail_of(sys, scale) if tail_of else None
    est = table.bracket(scale, n_max=n_max, use_tail=tail_of is not None)
    depth = default_depth(table) if n_max is None else n_max
    assert est.truncation[1] == depth
    # level n is exactly n times level 1: the bracket is level 1, bit for bit
    assert (est.lower, est.upper) == per_level_bracket(table, scale, 1, tail)
    # and it contains the bracket summed level by level, whose rounded
    # n * z1 / n may sit an ulp inside level 1
    lower, upper = per_level_bracket(table, scale, depth, tail)
    assert est.lower <= lower and upper <= est.upper


@pytest.mark.parametrize("name", sorted(ADDITIVE_TABLES))
def test_additive_level_is_the_outer_sum_of_level_one(name):
    make_sys, pot, subset, _ = ADDITIVE_TABLES[name]
    table = BirkhoffTable(make_sys(), pot, subset)
    # an additive table builds no level tables
    with pytest.raises(ValueError, match="additive table has no levels"):
        table.level(1)
    # the table holds level-1 psi; a word's ends are the potential over it
    one = (pot.psi_coef * table.additive + pot.const).tolist()
    for n in (2, 3, 4):
        # the last symbol of a word varies fastest; its sum adds the
        # symbols left to right
        level = [sum(one[k] for k in word)
                 for word in itertools.product(range(len(one)), repeat=n)]
        for scale in (0.37, 1.0, 2.5):
            for mode in ("sup", "inf"):
                z1 = table.partition(scale, 1, mode)
                # the product's own rounding is stepped one ulp outward
                toward = math.inf if mode == "sup" else -math.inf
                assert table.partition(scale, n, mode) == math.nextafter(n * z1, toward)
                lse = math.log(math.fsum(math.exp(-scale * v) for v in level))
                assert lse == pytest.approx(n * z1, rel=0.0, abs=1e-12)


# P(-s psi) with the family tail over F = 1..8: (system, s, n_max, [system]
# keys, repr of the lower and upper ends); the API, one solver probe (padded
# by an ulp) and the CLI all give these brackets
TAIL_BRACKETS = {
    "gauss": (gauss_system, 0.8, 3, "kind = gauss",
              ("0.056147765151314685", "0.8342635277850882")),
    "geometric": (lambda: geometric_system(0.3, 0.6), 0.7, None,
                  "kind = affine_countable\nwidths = geometric:0.3,0.6",
                  ("0.30015184462110367", "0.3590880239224087")),
}


@pytest.mark.parametrize("name", sorted(TAIL_BRACKETS))
def test_tail_brackets_agree_across_api_solver_and_cli(tmp_path, name):
    make_sys, s, n_max, system_keys, want = TAIL_BRACKETS[name]
    sys = make_sys()
    est = pressure_bracket(sys, Scale(s, PSI), range(1, 9), n_max=n_max, use_tail=True)
    assert (repr(est.lower), repr(est.upper)) == want
    solver = _Solver(sys, PSI, lambda s: 0.0,
                     Truncation.single(range(1, 9), n_max=n_max, use_tail=True))
    pad = math.ulp(1.0)
    assert solver.measure(s) == (s, float(want[0]) - pad, float(want[1]) + pad)
    assert solver.steps == 1
    cfg = tmp_path / "p.ini"
    cfg.write_text(f"[system]\n{system_keys}\n[potential]\nexpr = scale({s}, psi)\n"
                   f"[run]\nsubset = 1..8\n{f'n_max = {n_max}' if n_max else ''}\n"
                   "use_tail = true\n")
    out = tmp_path / "p.csv"
    assert main(["pressure", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[-1] == f"{want[0]},{want[1]},False"


def test_additive_bracket_ignores_depth():
    table = BirkhoffTable(affine_system([0.3, 0.25, 0.2, 0.15]), PSI, {1, 2, 3, 4})
    est = table.bracket(0.7, n_max=10**9)
    assert est.truncation[1] == 10**9
    assert (est.lower, est.upper) == (table.bracket(0.7, n_max=1).lower,
                                      table.bracket(0.7, n_max=1).upper)


@pytest.mark.parametrize("n_max", [1, 5, 40, None])
@pytest.mark.parametrize("use_tail", [False, True])
def test_additive_bracket_takes_one_logsumexp_per_mode(monkeypatch, n_max, use_tail):
    calls = []
    real = pressure._logsumexp
    monkeypatch.setattr(pressure, "_logsumexp", lambda *args: calls.append(1) or real(*args))
    table = BirkhoffTable(geometric_system(0.5, 0.5), PSI, range(1, 9))
    table.bracket(1.0, n_max=n_max, use_tail=use_tail)
    assert len(calls) <= 2


def test_table_rules_are_built_once(monkeypatch):
    sys = geometric_system(0.5, 0.5)
    calls = []
    real = sys.psi_bracket
    monkeypatch.setattr(sys, "psi_bracket", lambda i: calls.append(i) or real(i))
    # symbol 4 is skipped below max F, so the tail reads its psi bracket
    table = BirkhoffTable(sys, PSI, {1, 2, 3, 5, 6, 7, 8, 9})
    calls.clear()
    first = table.bracket(1.0, use_tail=True)
    assert table.bracket(1.0, use_tail=True) == first
    assert calls == [4]
    assert first.truncation[1] == 7  # 8**7 <= 10**7 < 8**8


def test_one_symbol_subset_needs_n_max():
    with pytest.raises(ValueError, match="set n_max"):
        pressure_bracket(doubling_map(), PSI, {1})
    with pytest.raises(ValueError, match="set n_max"):
        BirkhoffTable(gauss_system(), PSI, {2}).bracket(1.0)
    est = pressure_bracket(doubling_map(), PSI, {1}, n_max=3)
    # the partition sums are rounded outward, around the exact -log 2
    assert est.lower < -math.log(2.0) < est.upper
    assert est.upper - est.lower < 4e-14
    assert est.truncation == (frozenset({1}), 3)


# ---------------------------------------------------------------- invariants

RATIO_LISTS = hyst.lists(hyst.floats(min_value=0.05, max_value=0.3), min_size=2,
                         max_size=5).filter(lambda rs: sum(rs) <= 1.0)


@settings(max_examples=50, deadline=None)
@given(RATIO_LISTS, hyst.floats(min_value=0.0, max_value=2.0))
def test_bracket_valid_and_zero_potential(ratios, s):
    sys = affine_system(ratios)
    full = frozenset(range(1, len(ratios) + 1))
    est = pressure_bracket(sys, Scale(s, PSI), full, n_max=3)
    assert est.lower <= est.upper + 1e-12
    zero = pressure_bracket(sys, Constant(0.0), full, n_max=3)
    # rounded outward around the exact log k
    assert zero.lower < math.log(len(ratios)) < zero.upper
    assert zero.upper - zero.lower < 4e-14


def test_lower_monotone_in_subset():
    sys = gauss_system()
    pot = Scale(1.5, PSI)
    prev = -math.inf
    for k in (2, 4, 8, 16):
        est = pressure_bracket(sys, pot, range(1, k + 1), n_max=3)
        assert est.lower >= prev - 1e-14
        prev = est.lower


def test_upper_nonincreasing_in_depth_gauss():
    sys = gauss_system()
    pot = Scale(1.0, PSI)
    uppers = [BirkhoffTable(sys, pot, {1, 2, 3}).partition(1.0, n, "sup") / n for n in range(1, 6)]
    for a, b in zip(uppers, uppers[1:]):
        assert b <= a + 1e-12


def test_submultiplicative_sup_sums():
    sys = gauss_system()
    pot = Scale(0.8, PSI)
    logz = {n: BirkhoffTable(sys, pot, {1, 2}).partition(1.0, n, "sup") for n in range(1, 7)}
    for m in range(1, 4):
        for n in range(1, 4):
            assert logz[m + n] <= logz[m] + logz[n] + 1e-12


def test_supermultiplicative_inf_sums():
    sys = gauss_system()
    pot = Scale(0.8, PSI)
    logz = {n: BirkhoffTable(sys, pot, {1, 2}).partition(1.0, n, "inf") for n in range(1, 7)}
    for m in range(1, 4):
        for n in range(1, 4):
            assert logz[m + n] >= logz[m] + logz[n] - 1e-12


@settings(max_examples=30, deadline=None)
@given(hyst.floats(min_value=0.0, max_value=1.5), hyst.floats(min_value=0.01, max_value=0.5))
def test_upper_monotone_in_scale(s, ds):
    sys = gauss_system()
    pot_small = Scale(s, Sum(PSI, Constant(0.2)))
    pot_large = Scale(s + ds, Sum(PSI, Constant(0.2)))
    a = pressure_bracket(sys, pot_small, {1, 2, 3}, n_max=3)
    b = pressure_bracket(sys, pot_large, {1, 2, 3}, n_max=3)
    assert b.upper <= a.upper + 1e-12


# ---------------------------------------------------------------- level kernel

def reference_level(sys, subset, n):
    """Scalar oracle for BirkhoffTable.level: a depth-first walk over
    reversed words, one branch and one math.log per node, giving the
    bracket of S_n psi over each cylinder.  Prepending a symbol composes
    one more outer branch, so leaves come out in the table's order
    (innermost symbol most significant)."""
    syms = sorted(set(subset))
    c_lo, c_hi = [], []
    stack = [(0, 0.0, 1.0, 0.0, 0.0)]
    while stack:
        depth, lo, hi, psi_lo, psi_hi = stack.pop()
        if depth == n:
            c_lo.append(psi_lo)
            c_hi.append(psi_hi)
            continue
        j = Interval(lo, hi)
        for k in range(len(syms) - 1, -1, -1):
            blo, bhi = sys.deriv_bracket(syms[k], j)
            a = sys.apply(syms[k], lo)
            b = sys.apply(syms[k], hi)
            stack.append((depth + 1, min(a, b), max(a, b),
                          psi_lo - math.log(bhi), psi_hi - math.log(blo)))
    return np.array(c_lo), np.array(c_hi)


class _PerElementArrayStep:
    """The pressure level kernel's array step, taken one symbol and one
    interval at a time through the family's scalar apply and deriv_bracket."""

    def deriv_brackets(self, symbols, span):
        ivs = [Interval(lo, hi) for lo, hi in zip(span.lo.tolist(), span.hi.tolist())]
        ends = np.array([self.deriv_bracket(i, j) for i in symbols.ravel().tolist()
                         for j in ivs], dtype=float).reshape(len(symbols), len(ivs), 2)
        return ends[..., 0], ends[..., 1]

    def map_intervals(self, symbols, span):
        syms = symbols.ravel().tolist()
        a = np.array([[self.apply(i, x) for x in span.lo.tolist()] for i in syms], dtype=float)
        b = np.array([[self.apply(i, x) for x in span.hi.tolist()] for i in syms], dtype=float)
        return np.minimum(a, b), np.maximum(a, b)


_PAD = 1.0 - 2.0**-50


class _TwoMonotoneBranches(_PerElementArrayStep, BranchFamily):
    """Branch 1: x -> x^2/4 + x/4 onto [0, 1/2]; branch 2: decreasing affine
    x -> 0.9 - 0.3x onto [0.6, 0.9].  Derivative brackets are padded outward
    by 1 - 2^-50."""

    xi = 2.0

    def contains_symbol(self, i):
        return i in (1, 2)

    def symbols(self):
        return iter((1, 2))

    def branch_interval(self, i):
        self._check_symbol(i)
        return (Interval(0.0, 0.5), Interval(0.6, 0.9))[i - 1]

    def apply(self, i, x):
        return 0.25 * x * x + 0.25 * x if i == 1 else 0.9 - 0.3 * x

    def deriv_bracket(self, i, j):
        lo, hi = (0.5 * j.lo + 0.25, 0.5 * j.hi + 0.25) if i == 1 else (0.3, 0.3)
        return (lo * _PAD, hi / _PAD)


def custom_system():
    return _TwoMonotoneBranches()


MIXED = Sum(Scale(0.7, PSI), Constant(0.3))


@pytest.mark.parametrize("make_sys, pot, subset, n_max", [
    (gauss_system, PSI, {1, 2}, 10),
    (gauss_system, PSI, range(1, 7), 4),
    (custom_system, PSI, {1, 2}, 6),
    (gauss_system, MIXED, {1, 2, 3}, 5),
], ids=["gauss-2", "gauss-6", "custom", "mixed-potential"])
def test_level_matches_scalar_oracle(make_sys, pot, subset, n_max):
    # a level is psi geometry alone, whatever the table's potential
    sys = make_sys()
    table = BirkhoffTable(sys, pot, subset)
    for n in range(1, n_max + 1):
        got_lo, got_hi = table.level(n)
        want_lo, want_hi = reference_level(sys, subset, n)
        assert got_lo.shape == want_lo.shape == (len(set(subset)) ** n,)
        np.testing.assert_allclose(got_lo, want_lo, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(got_hi, want_hi, rtol=0.0, atol=1e-12)
        # each log is padded outward, so no word's bracket is narrower than
        # the oracle's unpadded one
        assert np.all(got_lo <= want_lo) and np.all(got_hi >= want_hi)
        assert np.all(got_lo <= got_hi)


def test_level_request_order_does_not_matter():
    sys = gauss_system()
    jumped = BirkhoffTable(sys, MIXED, {1, 2, 3})
    stepped = BirkhoffTable(sys, MIXED, {1, 2, 3})
    # one bracket sweeps to n_max = 7 before reading any level
    swept = BirkhoffTable(sys, MIXED, {1, 2, 3})
    swept.bracket(0.5, n_max=7)
    out = {n: jumped.level(n) for n in (5, 3, 7)}
    for n in range(1, 8):
        stepped.level(n)
    for n, (lo, hi) in out.items():
        assert np.array_equal(lo, stepped.level(n)[0])
        assert np.array_equal(hi, stepped.level(n)[1])
    for n in range(1, 8):
        for a, b in zip(swept.level(n), stepped.level(n)):
            assert a.tobytes() == b.tobytes()


class _PerElementGauss(_PerElementArrayStep, GaussFamily):
    """Gauss branches through the per-element array step, counting calls."""

    def __init__(self):
        self.calls = 0

    def deriv_bracket(self, i, j):
        self.calls += 1
        return super().deriv_bracket(i, j)


def _per_element_gauss():
    return _PerElementGauss()


def test_array_and_per_element_paths_agree():
    # 5**6 frontier rows are no whole number of symbol blocks
    assert 5**6 % (pressure._BLOCK // 5) != 0
    for subset, n_max in (({1, 2, 3}, 5), (range(1, 6), 7)):
        fast = BirkhoffTable(gauss_system(), PSI, subset)
        slow = BirkhoffTable(_per_element_gauss(), PSI, subset)
        for n in range(1, n_max + 1):
            for a, b in zip(fast.level(n), slow.level(n)):
                assert np.array_equal(a, b)


def test_bracket_computes_each_child_once():
    sys = _per_element_gauss()
    BirkhoffTable(sys, PSI, {1, 2, 3}).bracket(0.5, n_max=6)
    assert sys.calls == sum(3 ** j for j in range(1, 7)) == 1092


def test_rising_level_requests_compute_each_child_once():
    # each deeper request steps on from the kept frontier, not from the root
    sys = _per_element_gauss()
    table = BirkhoffTable(sys, PSI, {1, 2, 3})
    for n in range(1, 7):
        assert table.level(n).shape == (2, 3 ** n)
    assert sys.calls == 1092


def test_cover_computes_each_child_once():
    # y = 0.3 lies in the branch image of 3, so no level is pruned, and the
    # cover asks for level 6 before reading levels 1..5
    sys = _per_element_gauss()
    report = cover_sum(sys, TargetSpec(0.3, Constant(1.0)), 0.7, 1, 6, {1, 2, 3})
    assert all(value > 0.0 for _, value in report.per_level)
    assert sys.calls == sum(3 ** j for j in range(1, 7)) == 1092
    assert repr(report.total) == "1.6342728832753886"


# BirkhoffTable.bracket reprs, frozen from earlier level kernels with the
# partition sums rounded outward
_FROZEN_BRACKETS = [
    (gauss_system, PSI, {1, 2}, 0.53, 16, False,
     "-0.02291386395509392", "0.03318347736639361"),
    (gauss_system, PSI, range(1, 5), 0.6, 6, False,
     "0.2450158376291178", "0.3729842842507423"),
    (gauss_system, Sum(PSI, PSI), range(1, 65), 0.55, 3, True,
     "-0.42066725503550423", "0.39917609787404523"),
    (gauss_system, MIXED, {1, 2, 3}, 1.0, 5, False,
     "-0.38306147000596746", "-0.1762043133872042"),
    (custom_system, PSI, {1, 2}, 1.0, 6, False,
     "-0.34139233086900084", "-0.18527951602269366"),
]


@pytest.mark.parametrize("make_sys, pot, subset, s, n_max, use_tail, lower, upper",
                         _FROZEN_BRACKETS,
                         ids=["gauss-2", "gauss-4", "gauss-64-tail", "mixed", "custom"])
def test_bracket_bits_frozen(make_sys, pot, subset, s, n_max, use_tail, lower, upper):
    est = BirkhoffTable(make_sys(), pot, subset).bracket(s, n_max=n_max, use_tail=use_tail)
    assert (repr(est.lower), repr(est.upper), est.diverged) == (lower, upper, False)


# Jenkinson-Pollicott (2001): the dimension of the {1,2} continued-fraction set
E2 = 0.5312805062772051


def _custom_branches():
    return [(lambda x: x * x / 4 + x / 4, lambda x: x / 2 + 0.25),
            (lambda x: 0.9 - 0.3 * x, lambda x: 0.3)]


@pytest.mark.parametrize("make_sys, subset, n_max", [
    (gauss_system, {1, 2}, 12),
    (gauss_system, range(1, 5), 7),
    (gauss_system, range(1, 17), 4),
    (custom_system, {1, 2}, 10),
], ids=["gauss-2", "gauss-4", "gauss-16", "custom"])
@pytest.mark.parametrize("pot", [PSI, MIXED], ids=["psi", "mixed"])
def test_matrix_brackets_contain_the_transfer_operator_pressure(
        transfer_pressure, gauss_branches, make_sys, subset, n_max, pot):
    # every bracket a target asks for is a matrix bracket or one intersected
    # with the Fekete levels: targets far from the pressure are decided
    # after a step or two, ones near it at depth, and the pressure itself
    # straddles down to n_max - 1; below n_max - 1 a bracket decides its
    # target by at least its own width
    rng = np.random.default_rng(len(subset) * 10 + n_max)
    branches = gauss_branches(subset) if make_sys is gauss_system else _custom_branches()
    for s in rng.uniform(0.3, 2.5, 2):
        # P(-s (c psi + d)) = P(-s c psi) - s d
        want = transfer_pressure(branches, s * pot.psi_coef) - s * pot.const
        table = BirkhoffTable(make_sys(), pot, subset)
        for n in range(2, n_max + 1):
            for offset in (0.0, -0.3, 0.3, -1e-3, 1e-3, -1e-6, 1e-6):
                est = table.bracket(s, n_max=n, target=want + offset)
                assert est.lower <= want <= est.upper, (s, n, offset, est)
                assert 1 <= est.matrix_depth < n
                if est.matrix_depth < n - 1:
                    margin = max(est.lower - want - offset, want + offset - est.upper)
                    assert margin >= est.upper - est.lower, (s, n, offset, est)
        # at the deepest depth the matrix is far narrower than the levels
        est = table.bracket(s, n_max=n_max, target=want)
        assert est.matrix_depth == n_max - 1
        fekete = table.bracket(s, n_max=n_max)
        assert est.upper - est.lower < 0.1 * (fekete.upper - fekete.lower)


def test_matrix_bracket_contains_zero_at_e2(transfer_pressure, gauss_branches):
    assert abs(transfer_pressure(gauss_branches({1, 2}), E2)) < 1e-15
    table = BirkhoffTable(gauss_system(), PSI, {1, 2})
    for n_max in range(2, 17):
        est = table.bracket(E2, n_max=n_max, target=0.0)
        assert est.lower <= 0.0 <= est.upper
    # the depth-15 matrix pins P(-E2 psi) within 1e-7, the levels within 0.1
    assert est.upper - est.lower < 1e-7
    assert table.bracket(E2, n_max=16).upper - table.bracket(E2, n_max=16).lower > 0.01


def test_underflowing_matrix_falls_back_to_the_fekete_bracket(transfer_pressure,
                                                              gauss_branches):
    # |phi'|^0.99 of the symbol 10**80 is about 1e-158, below _TINY_WEIGHT,
    # so no depth gives a matrix bracket; the last one is intersected with
    # the Fekete levels, which still decide the target
    subset = {1, 2, 10**80}
    table = BirkhoffTable(gauss_system(), PSI, subset)
    for m in (1, 2, 3):
        assert table._matrix(0.99, m, 0.0, m == 3) == (-math.inf, math.inf)
    est = table.bracket(0.99, n_max=4, target=0.0)
    fekete = table.bracket(0.99, n_max=4)
    assert (est.lower, est.upper) == (fekete.lower, fekete.upper)
    assert est.matrix_depth == 3 and est.truncation[1] == 4
    assert est.lower == pytest.approx(-0.7535, abs=1e-4)
    assert est.upper == pytest.approx(-0.3109, abs=1e-4)
    want = transfer_pressure(gauss_branches(subset), 0.99)
    assert want == pytest.approx(-0.5654, abs=1e-4)
    assert est.lower <= want <= est.upper
    assert est.margins(0.0)[1] <= 0.0


def _count_table_work(monkeypatch, table) -> list[str]:
    """Record every partition and level call the table makes from now on."""
    calls = []
    for name in ("partition", "level"):
        real = getattr(table, name)
        monkeypatch.setattr(table, name,
                            lambda *args, real=real, name=name: calls.append(name) or real(*args))
    return calls


@pytest.mark.parametrize("make_sys, pot", [(gauss_system, PSI), (gauss_system, MIXED),
                                           (lambda: affine_system([0.3, 0.25, 0.2]), PSI)],
                         ids=["gauss", "mixed", "affine"])
def test_repeated_bracket_is_served_from_the_table(monkeypatch, make_sys, pot):
    table = BirkhoffTable(make_sys(), pot, {1, 2, 3})
    first = table.bracket(0.7, n_max=4)
    calls = _count_table_work(monkeypatch, table)
    again = table.bracket(0.7, n_max=4)
    assert again == first and calls == []
    # a new scale or depth is computed
    assert table.bracket(0.8, n_max=4) != first and "partition" in calls


def test_default_depth_shares_the_explicit_depth_entry(monkeypatch):
    table = BirkhoffTable(gauss_system(), PSI, {1, 2, 3}, budget=100)
    assert table._max_level == 4
    first = table.bracket(0.6)
    calls = _count_table_work(monkeypatch, table)
    assert table.bracket(0.6, n_max=4) == first
    other = BirkhoffTable(gauss_system(), PSI, {1, 2, 3}, budget=100)
    second = other.bracket(0.6, n_max=4)
    other_calls = _count_table_work(monkeypatch, other)
    assert other.bracket(0.6) == second == first
    assert calls == other_calls == []


def test_tail_and_subsystem_brackets_do_not_collide(monkeypatch):
    table = BirkhoffTable(gauss_system(), PSI, range(1, 5))
    ends = {}
    for use_tail in (False, True, False, True):
        est = table.bracket(0.7, n_max=3, use_tail=use_tail)
        assert ends.setdefault(use_tail, est) == est
    assert ends[False].upper < ends[True].upper
    for use_tail, est in ends.items():
        fresh = BirkhoffTable(gauss_system(), PSI, range(1, 5))
        assert fresh.bracket(0.7, n_max=3, use_tail=use_tail) == est
    calls = _count_table_work(monkeypatch, table)
    table.bracket(0.7, n_max=3, use_tail=True)
    table.bracket(0.7, n_max=3, use_tail=False)
    assert calls == []


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("up, toward", [(True, np.inf), (False, -np.inf)],
                         ids=["up", "down"])
def test_log_step_is_nextafter_of_log(up, toward):
    def step(x):
        return pressure._log_step(x, up)

    rng = np.random.default_rng(14)
    x = np.exp(rng.uniform(-700.0, 700.0, 10**5))
    assert np.array_equal(_bits(step(x)), _bits(np.nextafter(np.log(x), toward)))
    # subnormal inputs, and logs of +0.0 (x = 1), -inf (x = 0) and +inf,
    # where the integer step is wrong and np.nextafter must take over
    special = np.array([1.0, 0.0, 5e-324, 1e-320, 0.5, 2.0, np.inf])
    with np.errstate(divide="ignore"):
        want = np.nextafter(np.log(special), toward)
        assert np.array_equal(_bits(step(special)), _bits(want))
        for x in special:
            assert np.array_equal(_bits(step(np.array([x]))), _bits(want[special == x]))


# Potentials with a psi part over Gauss, whose tables build levels; the
# constant part of a level's ends is summed as the frontier once carried
# it, (0 + c) + c + ..., bit for bit
_ADDITIVE_POTENTIALS = {
    "psi+const": Sum(PSI, Constant(0.3)),
    "per-symbol": Sum(Scale(0.7, PSI), Constant(0.3)),
}


@pytest.mark.parametrize("name", sorted(_ADDITIVE_POTENTIALS))
def test_level_bits_frozen(name):
    # a level is the psi-only table's level, bit for bit, whatever the
    # potential
    table = BirkhoffTable(gauss_system(), _ADDITIVE_POTENTIALS[name], {1, 2, 3})
    psi_only = BirkhoffTable(gauss_system(), PSI, {1, 2, 3})
    for n in range(1, 6):
        for got, want in zip(table.level(n), psi_only.level(n)):
            assert got.tobytes() == want.tobytes()


# 1e-310 * psi makes scale * psi_coef subnormal
@pytest.mark.parametrize("pot", [*_ADDITIVE_POTENTIALS.values(), MIXED, Scale(0.55, PSI),
                                 PSI, Scale(1e-310, PSI)],
                         ids=[*_ADDITIVE_POTENTIALS, "mixed", "scaled-psi", "psi",
                              "underflowing-psi"])
def test_partition_applies_the_potential_to_psi_levels(pot):
    # the potential's partition is the log-sum-exp of the psi-only table's
    # level at scale * psi_coef, less the factor scale * n * const that every
    # word shares, rounded outward ('sup' up, 'inf' down) by its rounding
    # bound, here under 1e-13
    table = BirkhoffTable(gauss_system(), pot, {1, 2, 3})
    psi_only = BirkhoffTable(gauss_system(), PSI, {1, 2, 3})
    for n in range(1, 6):
        for end, mode in enumerate(("sup", "inf")):
            side = 1.0 if mode == "sup" else -1.0
            for scale in (0.0, 0.37, 1.0, 2.5):
                arr = psi_only.level(n)[end] * -(scale * pot.psi_coef)
                want = pressure._logsumexp(arr, float(np.max(arr))) - scale * (n * pot.const)
                got = table.partition(scale, n, mode)
                assert 0.0 < side * (got - want) < 1e-13
                shared = psi_only.partition(scale * pot.psi_coef, n, mode)
                assert got == pytest.approx(shared - scale * (n * pot.const), rel=0.0, abs=1e-13)


@pytest.mark.parametrize("scale", [-1.0, -5e-324, math.nan])
def test_partition_refuses_a_negative_or_nan_scale(scale):
    table = BirkhoffTable(gauss_system(), PSI, {1, 2})
    with pytest.raises(ValueError, match="scale must be nonnegative"):
        table.partition(scale, 1, "sup")


def test_over_budget_level_raises_before_any_work():
    fam = _PerElementGauss()
    table = BirkhoffTable(fam, PSI, {1, 2}, budget=100)
    with pytest.raises(BudgetExceededError) as info:
        table.level(7)
    assert info.value.requested == 128 and info.value.budget == 100
    assert fam.calls == 0
    assert len(table.level(6)[0]) == 64


def test_over_budget_fekete_bracket_raises_before_any_level():
    # level n_max's word count is checked before any level is built, so the
    # error names it, not the first level over the budget
    fam = _PerElementGauss()
    table = BirkhoffTable(fam, PSI, {1, 2}, budget=100)
    with pytest.raises(BudgetExceededError) as info:
        table.bracket(0.5, n_max=9)
    assert info.value.requested == 512 and fam.calls == 0
