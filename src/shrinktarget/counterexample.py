"""Zero-dimension counterexample family.

Given beta in (0,1) and a strictly decreasing shrink function Phi -> 0, this
module places countably many affine full branches so that the limit set has
dimension exactly beta (Moran identity certified to a tiny residual) while
the orbits hitting the shrinking balls around y = 0 at rate Phi form a set
whose level cover sums collapse super-exponentially at every positive
exponent.

Branch widths decay like exp(-c n^2) and underflow doubles early, so the
width table is kept in log space throughout; linear-space widths are only
materialized where harmless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .systems import AffineCountableFamily, MarkovSystem
from .targets import CoverReport

__all__ = [
    "ShrinkFn",
    "CounterexampleSystem",
    "ZeroDimCoverReport",
    "build",
    "verify_moran",
    "zero_dim_cover_report",
]

_EULER_TAIL = 1.0 / (math.e - 1.0)  # sum_{k>=1} e^{-k}
# remainder bound at which width-power series stop adding explicit terms
_SERIES_SLACK = 1e-14
# largest symbol index build() tries as n0
_INDEX_CAP = 100_000


@dataclass(frozen=True)
class ShrinkFn:
    """Strictly decreasing rate function n -> (0, 1), vanishing at infinity.

    Monotonicity and positivity are checked on the evaluated range.
    """

    fn: Callable[[int], float]
    _seen: dict = field(default_factory=dict, repr=False, compare=False)

    def __call__(self, n: int) -> float:
        if n in self._seen:
            return self._seen[n]
        v = float(self.fn(n))
        if not (v > 0.0):
            raise ValueError(f"shrink function must be positive; got {v} at {n}")
        prev = self._seen.get(n - 1)
        if prev is not None and not (v < prev):
            raise ValueError(f"shrink function must be strictly decreasing at {n}")
        nxt = self._seen.get(n + 1)
        if nxt is not None and not (nxt < v):
            raise ValueError(f"shrink function must be strictly decreasing at {n + 1}")
        self._seen[n] = v
        return v

    @staticmethod
    def power(p: float) -> "ShrinkFn":
        if p <= 0.0:
            raise ValueError("power exponent must be positive")
        return ShrinkFn(lambda n: float(n) ** (-p))

    @staticmethod
    def exponential(c: float) -> "ShrinkFn":
        if c <= 0.0:
            raise ValueError("exponential rate must be positive")
        return ShrinkFn(lambda n: math.exp(-c * n))


def _geom_series(x: float) -> float:
    """sum_{q>=1} e^{-q x} = 1/(e^x - 1), closed form."""
    return 1.0 / math.expm1(x)


def _log_raw_width(phi: ShrinkFn, n: int) -> float:
    """log of min((2 + sum_q e^{-q/n})^{-n^2} e^{-2n^2}, (Phi(n)-Phi(n+1))/2)."""
    g = _geom_series(1.0 / n)
    first = -float(n * n) * (math.log(2.0 + g) + 2.0)
    gap = phi(n) - phi(n + 1)
    second = math.log(gap) - math.log(2.0)
    return min(first, second)


def _quad_tail(beta_like: float, m: int) -> float:
    """Certified bound for sum_{n > m} e^{-2*beta_like*n^2} (dominates the
    width-power tails since every raw width is below e^{-2n^2})."""
    first = math.exp(-2.0 * beta_like * (m + 1.0) ** 2)
    ratio = math.exp(-2.0 * beta_like * (2.0 * m + 3.0))
    return first / (1.0 - ratio)


def _width_power_series(log_width: Callable[[int], float], exponent: float, start: int,
                        slack: float, total: float = 0.0) -> tuple[float, float]:
    """(total + sum_{n=start}^{m} width_n^exponent, remainder bound) for the
    first m >= start whose quadratic-domination tail is at most the slack (m
    stops at start + 400); terms are added one at a time in order.  The
    remainder bound is _quad_tail(exponent, m) padded by 1e-290, so it stays
    positive where the tail underflows."""
    m = start
    while _quad_tail(exponent, m) > slack and m < start + 400:
        m += 1
    for n in range(start, m + 1):
        total += math.exp(exponent * log_width(n))
    return total, _quad_tail(exponent, m) + 1e-290


@dataclass(frozen=True)
class CounterexampleSystem:
    """The built system: two wide branches near 1 and one branch per gap
    (Phi(n+1), Phi(n)) for n >= n0, all affine onto [0,1].  ``wide_lefts``
    holds the left ends of the two wide branches; ``as_system()`` composes
    every branch image from ``left`` and ``log_width``."""

    beta: float
    phi: ShrinkFn
    n0: int
    log_r12: float
    wide_lefts: tuple[float, float]
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def member(self, n: int) -> bool:
        return n in (1, 2) or n >= self.n0

    def log_width(self, n: int) -> float:
        if n in (1, 2):
            return self.log_r12
        if n < self.n0:
            raise ValueError(f"symbol {n} not in the counterexample alphabet")
        key = ("w", n)
        if key not in self._cache:
            self._cache[key] = _log_raw_width(self.phi, n)
        return self._cache[key]

    def left(self, n: int) -> float:
        """Left end of branch n's image: the centre of its gap less half
        its width."""
        if n in (1, 2):
            return self.wide_lefts[n - 1]
        c = 0.5 * (self.phi(n + 1) + self.phi(n))
        return c - 0.5 * math.exp(self.log_width(n))

    def width_tail_sum(self, exponent: float, beyond: int) -> float:
        """Upper bound for sum over alphabet members i > beyond of width^e,
        via the domination width_n <= e^{-n}."""
        if exponent <= 0.0:
            return math.inf
        total = 0.0
        if beyond < 1:
            total += math.exp(exponent * self.log_r12)
        if beyond < 2:
            total += math.exp(exponent * self.log_r12)
        k0 = max(beyond + 1, self.n0)
        total += math.exp(-exponent * k0) / -math.expm1(-exponent)
        return total

    def as_system(self) -> MarkovSystem:
        if "system" not in self._cache:
            family = AffineCountableFamily(
                member=self.member,
                log_width=self.log_width,
                left=self.left,
                tail_sum=self.width_tail_sum,
            )
            xi = math.exp(-max(self.log_r12, self.log_width(self.n0)))
            self._cache["system"] = MarkovSystem(family, xi=xi)
        return self._cache["system"]


def build(beta: float, phi: ShrinkFn) -> CounterexampleSystem:
    """Construct the counterexample for the given dimension and shrink rate.

    Picks the smallest threshold index n0 > 2 with Phi(n0) < 1 - 2^(1-1/beta)
    and a summable width-power tail, sizes the two wide branches so the
    Moran identity holds exactly, and centers every branch in its gap.
    """
    if not (0.0 < beta < 1.0):
        raise ValueError("beta must lie in (0, 1)")
    threshold = 1.0 - 2.0 ** (1.0 - 1.0 / beta)
    n0 = None
    for n in range(3, _INDEX_CAP):
        cond1 = phi(n) < threshold
        cond2 = math.exp(-beta * n) / -math.expm1(-beta) < 1.0
        if cond1 and cond2:
            n0 = n
            break
    if n0 is None:
        raise RuntimeError(f"no threshold index below the search cap {_INDEX_CAP}; "
                           "the shrink function appears not to vanish")
    small_sum, _ = _width_power_series(lambda n: _log_raw_width(phi, n), beta, n0,
                                       _SERIES_SLACK)
    remaining = 1.0 - small_sum
    if not (remaining > 0.0):
        raise RuntimeError("width-power series consumed the Moran budget")
    log_r12 = (math.log1p(-small_sum) - math.log(2.0)) / beta
    r12 = math.exp(log_r12)
    gap_lo = phi(n0)
    mid = 0.5 * (gap_lo + 1.0)
    if not (2.0 * r12 < 1.0 - gap_lo):
        raise RuntimeError("wide branches do not fit above the gap region")
    c1 = 0.5 * (gap_lo + mid)
    c2 = 0.5 * (mid + 1.0)
    ce = CounterexampleSystem(beta=beta, phi=phi, n0=n0, log_r12=log_r12,
                              wide_lefts=(c1 - 0.5 * r12, c2 - 0.5 * r12))
    residual = verify_moran(ce)
    if residual > 1e-10:
        raise RuntimeError(f"Moran identity residual {residual:.3e} above 1e-10")
    return ce


def verify_moran(ce: CounterexampleSystem) -> float:
    """Certified upper bound for |sum of width^beta - 1|; reads only
    ``beta``, ``n0`` and ``log_width``."""
    logw = ce.log_width
    beta = ce.beta
    total, tail = _width_power_series(logw, beta, ce.n0, _SERIES_SLACK,
                                      math.exp(beta * logw(1)) + math.exp(beta * logw(2)))
    return abs(total - 1.0) + tail


@dataclass(frozen=True)
class ZeroDimCoverReport:
    """Cover sums for the rate-Phi target at y=0 against the e^{-n} envelope."""

    cover: CoverReport
    envelope: tuple[tuple[int, float], ...]
    envelope_ok: bool
    full_series_bound: float


def zero_dim_cover_report(ce: CounterexampleSystem, eps: float, m: int,
                          n_max: int) -> ZeroDimCoverReport:
    """Per-level sums over the words whose last symbol is at least the level.

    The level-n family covers the points still within Phi(n) of 0 after n
    steps; by the product structure of affine widths the sum factorizes as
    (sum of all width^eps)^n times the last-symbol tail, every factor
    evaluated as a certified upper bound.  Levels are checked against the
    paper-style envelope e^{-n} * sum_k e^{-k}.
    """
    if eps <= 0.0:
        raise ValueError("exponent must be positive")
    if m <= 1.0 / eps:
        raise ValueError(f"start level must exceed 1/eps = {1.0 / eps:g}")
    if n_max < m:
        raise ValueError("n_max must be at least the start level")
    explicit, tail = _width_power_series(ce.log_width, eps, ce.n0, _SERIES_SLACK)
    base_upper = 2.0 * math.exp(eps * ce.log_r12) + explicit + tail

    def last_factor(n: int) -> float:
        total, tail = _width_power_series(ce.log_width, eps, max(n, ce.n0),
                                          1e-16 * math.exp(-float(n)))
        return total + tail

    per_level = []
    envelope = []
    ok = True
    total = 0.0
    for n in range(m, n_max + 1):
        value = base_upper ** n * last_factor(n)
        bound = math.exp(-float(n)) * _EULER_TAIL
        per_level.append((n, value))
        envelope.append((n, bound))
        total += value
        if value > bound:
            ok = False
    return ZeroDimCoverReport(cover=CoverReport(per_level=tuple(per_level), total=total),
                              envelope=tuple(envelope),
                              envelope_ok=ok,
                              full_series_bound=_EULER_TAIL ** 2)
