"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import itertools
import math
import random
import time

from shrinktarget import (
    BirkhoffTable,
    Constant,
    LogDerivative,
    Scale,
    ShrinkFn,
    Sum,
    TargetSpec,
    Truncation,
    affine_system,
    bowen_dimension,
    build_counterexample,
    cylinder,
    cylinder_density,
    doubling_map,
    gauss_system,
    hit_times,
    pressure_bracket,
    shrink_exponent_alpha,
    shrink_exponent_potential,
    upper_dimension_certificate,
    verify_moran,
    zero_dim_cover_report,
)

PSI = LogDerivative()
LOG2 = math.log(2.0)


def report(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def random_affine(rng, max_branches=5):
    k = rng.randint(2, max_branches)
    ratios = [rng.uniform(0.05, 0.9 / k) for _ in range(k)]
    return affine_system(ratios), ratios


def test_criterion_1_closed_form_alpha():
    sys = doubling_map()
    trunc = Truncation.single({1, 2}, n_max=4)
    start = time.perf_counter()
    worst = 0.0
    for alpha in (0.25, 0.5, 1.0, 2.0, 4.0):
        res = shrink_exponent_alpha(sys, alpha, trunc, tol=1e-10)
        worst = max(worst, abs(res.value - LOG2 / (LOG2 + alpha)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    report(1, ok, f"doubling s(alpha) worst error {worst:.2e} (<=1e-9), "
                  f"runtime {elapsed:.3f}s (<1s)")


def test_criterion_2_gauss_jarnik_ladder():
    sys = gauss_system()
    alpha = 4.0
    phi = Scale(alpha / 2.0 - 1.0, PSI)
    start = time.perf_counter()
    values = []
    for k in (16, 32, 64):
        res = shrink_exponent_potential(
            sys, phi, Truncation.single(range(1, k + 1), n_max=3), tol=1e-4)
        values.append(res.value)
    elapsed = time.perf_counter() - start
    ok = (abs(values[-1] - 0.5) <= 0.02
          and values[0] < values[1] < values[2]
          and elapsed < 60.0)
    report(2, ok, f"K-ladder values {['%.4f' % v for v in values]}, "
                  f"|s_64 - 1/2| = {abs(values[-1] - 0.5):.4f} (<=0.02), "
                  f"strictly increasing, runtime {elapsed:.1f}s (<60s)")


def test_criterion_3_counterexample_moran_and_bowen():
    cases = [(0.5, ShrinkFn.power(1)), (0.9, ShrinkFn.exponential(0.1))]
    ok = True
    details = []
    for beta, phi in cases:
        ce = build_counterexample(beta, phi)
        residual = verify_moran(ce)
        subset = frozenset({1, 2}) | frozenset(range(ce.n0, ce.n0 + 60))
        res = bowen_dimension(ce,
                              Truncation.single(subset, n_max=1, use_tail=True),
                              tol=1e-7)
        contains = res.bracket[0] - 1e-9 <= beta <= res.bracket[1] + 1e-9
        close = abs(res.value - beta) <= 1e-6
        ok = ok and residual <= 1e-10 and contains and close
        details.append(f"beta={beta}: residual {residual:.2e}, "
                       f"bowen {res.value:.8f}")
    report(3, ok, "; ".join(details))


def test_criterion_4_zero_dimension_evidence():
    ce = build_counterexample(0.5, ShrinkFn.power(1))
    start = time.perf_counter()
    ok = True
    details = []
    for eps, m in ((0.5, 3), (0.2, 6)):
        rep = zero_dim_cover_report(ce, eps=eps, m=m, n_max=14)
        ok = ok and rep.envelope_ok and rep.cover.total <= rep.full_series_bound
        details.append(f"eps={eps}: envelope ok={rep.envelope_ok}, "
                       f"total {rep.cover.total:.3e} <= {rep.full_series_bound:.3f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report(4, ok, "; ".join(details) + f", runtime {elapsed:.2f}s (<30s)")


def test_criterion_5_pressure_bracket_properties():
    rng = random.Random(20240811)
    ok = True
    for case in range(200):
        sys, ratios = random_affine(rng)
        k = len(ratios)
        full = frozenset(range(1, k + 1))
        s = rng.uniform(0.0, 2.0)
        pot = Scale(s, PSI)
        est = pressure_bracket(sys, pot, full, n_max=3)
        ok = ok and est.lower <= est.upper + 1e-12                      # (a)
        uppers = [BirkhoffTable(sys, pot, full).partition(1.0, n, "sup") / n for n in (1, 2, 3)]
        ok = ok and all(b <= a + 1e-12 for a, b in zip(uppers, uppers[1:]))  # (b)
        if k >= 3:
            small = pressure_bracket(sys, pot, frozenset(range(1, k)), n_max=2)
            ok = ok and est.lower >= small.lower - 1e-12                # (c)
        zero = pressure_bracket(sys, Constant(0.0), full, n_max=3)
        # (d): rounded outward around the exact log k
        ok = ok and zero.lower < math.log(k) < zero.upper < zero.lower + 4e-14
        if not ok:
            break
    report(5, ok, f"200 randomized affine systems: bracket validity, "
                  f"depth monotonicity, subset monotonicity, log k within 4e-14")


def test_criterion_6_positivity():
    rng = random.Random(987)
    ok = True
    worst = math.inf
    for case in range(100):
        sys, ratios = random_affine(rng)
        k = len(ratios)
        kind = rng.choice(("const", "scaled_psi", "psi_plus_const"))
        if kind == "const":
            phi = Constant(rng.uniform(0.0, 3.0))
        elif kind == "scaled_psi":
            phi = Scale(rng.uniform(0.0, 1.5), PSI)
        else:
            phi = Sum(Scale(rng.uniform(0.0, 1.5), PSI), Constant(rng.uniform(0.0, 1.0)))
        res = shrink_exponent_potential(sys, phi,
                                        Truncation.single(range(1, k + 1), n_max=2),
                                        tol=1e-6)
        worst = min(worst, res.bracket[0])
        ok = ok and res.bracket[0] > 0.0
        if not ok:
            break
    report(6, ok, f"100 randomized systems: smallest bracket floor {worst:.3g} > 0")


def test_criterion_7_cover_sum_criticality():
    sys = doubling_map()
    target = TargetSpec(y=0.0, rate=Constant(LOG2))

    def accepted(s):
        return upper_dimension_certificate(sys, target, s, m=3, n_max=10,
                                           subset={1, 2}).accepted

    ok = accepted(0.6) and not accepted(0.4)
    lo, hi = 0.4, 0.6
    while hi - lo > 0.02:
        mid = 0.5 * (lo + hi)
        if accepted(mid):
            hi = mid
        else:
            lo = mid
    ok = ok and lo <= 0.5 <= hi and hi - lo <= 0.02
    report(7, ok, f"accept at 0.6, reject at 0.4, transition in "
                  f"[{lo:.4f}, {hi:.4f}] around 1/2")


def test_criterion_8_cylinder_density_floor():
    rng = random.Random(31415)
    ok = True
    worst = math.inf
    samples = []
    for _ in range(10):
        samples.append((doubling_map(), [1, 2], {1, 2}))
        samples.append((gauss_system(), [1, 2, 3, 4, 5], set(range(1, 9))))
    for sys, symbols, subset in samples:
        prefix = tuple(rng.choice(symbols) for _ in range(12))
        iv = cylinder(sys, prefix * 4)
        y = 0.5 * (iv.lo + iv.hi)
        for n in range(3, 11):
            r = 2.0 * cylinder(sys, prefix[:n]).width
            density = cylinder_density(sys, y, n, r, subset)
            worst = min(worst, density)
            ok = ok and density >= 0.5 - 1e-9
    report(8, ok, f"20 sampled repeller points, depths 3..10: "
                  f"smallest density {worst:.9f} >= 0.5 - 1e-9")


def test_criterion_9_hit_time_exactness():
    sys = doubling_map()
    horizon = 50
    rep1 = hit_times(sys, itertools.repeat(1), TargetSpec(0.0, Constant(1.0)), horizon)
    ok1 = rep1.hits == tuple(range(1, horizon + 1)) and not rep1.undecided
    rep2 = hit_times(sys, itertools.repeat(2), TargetSpec(0.0, Constant(1.0)), horizon)
    ok2 = rep2.misses == tuple(range(1, horizon + 1)) and not rep2.undecided
    rep3 = hit_times(sys, itertools.cycle([1, 2]),
                     TargetSpec(1.0 / 3.0, Constant(0.1)), horizon)
    # exact ternary oracle: even epochs return to 1/3 (distance 0); odd epochs
    # sit at 2/3, and 1/3 < e^{-0.1 n} holds exactly for n <= 10
    expect_hits = tuple(sorted([n for n in range(1, horizon + 1) if n % 2 == 0]
                               + [n for n in range(1, horizon + 1, 2)
                                  if 1.0 / 3.0 < math.exp(-0.1 * n)]))
    expect_misses = tuple(n for n in range(1, horizon + 1, 2)
                          if not 1.0 / 3.0 < math.exp(-0.1 * n))
    ok3 = rep3.hits == expect_hits and rep3.misses == expect_misses and not rep3.undecided
    ok = ok1 and ok2 and ok3
    report(9, ok, f"fixed-point-on-target all hits ({ok1}), off-target all "
                  f"misses ({ok2}), odometer schedule exact ({ok3}); zero "
                  f"undecided epochs at horizon {horizon}")
