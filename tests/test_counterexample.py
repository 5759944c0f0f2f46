import math
from types import SimpleNamespace

import mpmath
import pytest

from shrinktarget import (
    CounterexampleSystem,
    ShrinkFn,
    Truncation,
    bowen_dimension,
    build_counterexample,
    verify_moran,
    zero_dim_cover_report,
)
from shrinktarget.counterexample import _SERIES_SLACK, _series_end, _width_power_series


@pytest.fixture(scope="module")
def ce_half():
    return build_counterexample(0.5, ShrinkFn.power(1))


@pytest.fixture(scope="module")
def ce_nine():
    return build_counterexample(0.9, ShrinkFn.exponential(0.1))


# ---------------------------------------------------------------- build

def test_threshold_index_conditions(ce_half):
    # oracle: evaluate both conditions directly; n = 2 fails the first
    # (Phi(2) = 1/2 is not below 1 - 2^{-1}), n = 3 passes both
    threshold = 1.0 - 2.0 ** (1.0 - 1.0 / 0.5)
    assert not (1.0 / 2.0 < threshold)
    assert 1.0 / 3.0 < threshold
    assert math.exp(-0.5 * 3) / (1 - math.exp(-0.5)) < 1.0
    assert ce_half.n0 == 3


def test_wide_branch_width(ce_half):
    # r1 = 2^{-1/beta} (1 - S)^{1/beta} with S the width-power series
    s_series, s_tail = _width_power_series(ce_half.log_width, 0.5, ce_half.n0, _SERIES_SLACK)
    r1 = math.exp(ce_half.log_r12)
    assert r1 == pytest.approx(0.25 * (1 - s_series) ** 2, rel=1e-12)
    assert s_tail < 1e-12


def test_min_branch_comparison_at_three(ce_half):
    # oracle: numeric comparison of the two min arguments at n = 3
    g3 = 1.0 / (math.exp(1.0 / 3.0) - 1.0)
    first = (2.0 + g3) ** -9 * math.exp(-18.0)
    second = (1.0 / 3.0 - 1.0 / 4.0) / 2.0
    assert first < second
    assert math.exp(ce_half.log_width(3)) == pytest.approx(first, rel=1e-12)


def test_placement_inside_gaps(ce_half):
    phi = ce_half.phi
    image = ce_half.branch_interval
    for n in range(ce_half.n0, ce_half.n0 + 12):
        iv = image(n)
        assert phi(n + 1) < iv.lo <= iv.hi < phi(n)
    gap_lo = phi(ce_half.n0)
    v1, v2 = image(1), image(2)
    for iv in (v1, v2):
        assert gap_lo < iv.lo < iv.hi < 1.0
    assert v1.hi < v2.lo


def test_width_feasibility(ce_half):
    # 1 - Phi(n0) > 2^{1 - 1/beta} > 2 r1
    r1 = math.exp(ce_half.log_r12)
    assert 1.0 - ce_half.phi(ce_half.n0) > 2.0 ** (1.0 - 1.0 / ce_half.beta) > 2.0 * r1


def test_widths_below_exponential(ce_half):
    for n in range(ce_half.n0, ce_half.n0 + 30):
        assert ce_half.log_width(n) < -float(n)


def test_origin_outside_branches(ce_half):
    image = ce_half.branch_interval
    for n in (1, 2, *range(ce_half.n0, ce_half.n0 + 31)):
        assert image(n).lo > 0.0
    # but branch intervals accumulate at 0
    assert image(40).hi < ce_half.phi(40) < 1e-1


@pytest.mark.parametrize("beyond", [0, 1, 2, 3, 8])
@pytest.mark.parametrize("exponent", [0.3, 0.5, 1.0])
def test_tail_weight_sum_bounds_the_width_powers(ce_half, beyond, exponent):
    # beyond 0 and 1 count the wide branches 1 and 2; the gap branches'
    # widths fall below e^-n, so their powers vanish long before n = 200
    symbols = [i for i in range(1, 201) if ce_half.contains_symbol(i) and i > beyond]
    explicit = math.fsum(math.exp(exponent * ce_half.log_width(i)) for i in symbols)
    assert explicit <= ce_half.tail_weight_sum(exponent, beyond) < math.inf


@pytest.mark.parametrize("exponent", [0.0, -0.5])
def test_tail_weight_sum_diverges_at_nonpositive_exponents(ce_half, exponent):
    assert ce_half.tail_weight_sum(exponent, 2) == math.inf


def test_shrink_fn_validation():
    with pytest.raises(ValueError):
        ShrinkFn.power(-1.0)
    increasing = ShrinkFn(lambda n: float(n))
    increasing(1)
    with pytest.raises(ValueError):
        increasing(2)
    nonpositive = ShrinkFn(lambda n: 0.0)
    with pytest.raises(ValueError):
        nonpositive(3)


def test_system_needs_expansion():
    # a wide branch of width 1 leaves xi = 1, and no depth bounds a window
    with pytest.raises(ValueError, match="^expansion constant xi must exceed 1$"):
        CounterexampleSystem(beta=0.5, phi=ShrinkFn.power(1), n0=3, log_r12=0.0,
                             wide_lefts=(0.0, 0.5))


def test_build_validates_beta():
    with pytest.raises(ValueError):
        build_counterexample(1.2, ShrinkFn.power(1))


# ---------------------------------------------------------------- moran

def test_moran_residual_tiny(ce_half, ce_nine):
    assert verify_moran(ce_half) <= 1e-10
    assert verify_moran(ce_nine) <= 1e-10


@pytest.mark.parametrize("beta", [0.3, 0.5, 0.65, 0.7, 0.75, 0.8, 0.85, 0.95])
def test_moran_residual_bounds_the_exact_residual(beta):
    # oracle: |sum width^beta - 1| in mpmath (60 digits) over the same float
    # log widths, the series summed until its terms fall below 1e-70
    ce = build_counterexample(beta, ShrinkFn.power(1))
    with mpmath.workdps(60):
        b = mpmath.mpf(beta)
        total = mpmath.exp(b * ce.log_width(1)) + mpmath.exp(b * ce.log_width(2))
        n = ce.n0
        while True:
            term = mpmath.exp(b * ce.log_width(n))
            total += term
            if term < mpmath.mpf(10) ** -70:
                break
            n += 1
        exact = abs(total - 1)
    assert exact <= verify_moran(ce) <= 1e-10


@pytest.mark.parametrize("beta", [0.5, 0.7])
def test_moran_residual_bits_frozen(beta):
    # one term list gives the residual that two passes gave, bit for bit: the
    # wide terms' sum, then n0..m added one at a time, padded by the series
    # remainder and by the rounding bound summed over the same terms in order
    ce = build_counterexample(beta, ShrinkFn.power(1))
    m = _series_end(beta, ce.n0, _SERIES_SLACK)
    total = math.exp(beta * ce.log_width(1)) + math.exp(beta * ce.log_width(2))
    for n in range(ce.n0, m + 1):
        total += math.exp(beta * ce.log_width(n))
    _, tail = _width_power_series(ce.log_width, beta, ce.n0, _SERIES_SLACK)
    terms = (1, 2, *range(ce.n0, m + 1))
    rounding = sum((abs(beta * ce.log_width(n)) + len(terms) + 3)
                   * math.exp(beta * ce.log_width(n)) for n in terms)
    assert verify_moran(ce) == abs(total - 1.0) + tail + 2.0 ** -52 * rounding


def test_moran_detects_corruption(ce_half):
    # halving r2 changes the sum by r2^beta (1 - 2^{-beta})
    corrupt = SimpleNamespace(
        beta=ce_half.beta, n0=ce_half.n0,
        log_width=lambda i: ce_half.log_width(i) - (math.log(2.0) if i == 2 else 0.0))
    residual = verify_moran(corrupt)
    expect = math.exp(0.5 * ce_half.log_r12) * (1.0 - 2.0 ** -0.5)
    assert residual == pytest.approx(expect, rel=1e-9)
    assert residual > 1e-2


def test_bowen_brackets_beta(ce_half, ce_nine):
    for ce in (ce_half, ce_nine):
        subset = frozenset({1, 2}) | frozenset(range(ce.n0, ce.n0 + 60))
        trunc = Truncation.single(subset, n_max=1, use_tail=True)
        res = bowen_dimension(ce, trunc, tol=1e-7)
        assert res.certified
        assert res.bracket[0] - 1e-9 <= ce.beta <= res.bracket[1] + 1e-9
        assert abs(res.value - ce.beta) <= 1e-6


# ---------------------------------------------------------------- zero-dim

def test_cover_levels_below_envelope_half(ce_half):
    report = zero_dim_cover_report(ce_half, eps=0.5, m=3, n_max=12)
    assert report.envelope_ok
    for (n, value), (_, bound) in zip(report.cover.per_level, report.envelope):
        assert value <= bound
        assert bound == pytest.approx(math.exp(-n) / (math.e - 1.0), rel=1e-12)
    assert report.cover.total <= report.full_series_bound
    assert report.full_series_bound == pytest.approx((math.e - 1.0) ** -2, rel=1e-12)


def test_cover_levels_below_envelope_fifth(ce_half):
    report = zero_dim_cover_report(ce_half, eps=0.2, m=6, n_max=12)
    assert report.envelope_ok


def test_cover_level_decay_ratio(ce_half):
    report = zero_dim_cover_report(ce_half, eps=0.5, m=3, n_max=10)
    values = [v for _, v in report.cover.per_level]
    for a, b in zip(values, values[1:]):
        assert b <= a * math.exp(-1.0)


def test_cover_report_domain_errors(ce_half):
    with pytest.raises(ValueError):
        zero_dim_cover_report(ce_half, eps=0.5, m=2, n_max=8)
    with pytest.raises(ValueError):
        zero_dim_cover_report(ce_half, eps=0.0, m=3, n_max=8)
    with pytest.raises(ValueError):
        zero_dim_cover_report(ce_half, eps=0.5, m=9, n_max=8)


def test_cover_report_other_parameters(ce_nine):
    report = zero_dim_cover_report(ce_nine, eps=0.5, m=3, n_max=8)
    assert report.envelope_ok
