"""Bowen-type equation solvers by monotone bisection over pressure brackets.

All exponents here are infima of nonpositivity sets, not roots: the solved
quantity is inf{s : P(-s*u) <= shift(s)} for a nonnegative potential u and a
linear shift.  A bisection step is certified when the pressure bracket
decides the sign; when the bracket straddles the shift the truncation is
refined along the ladder, and if the ladder is exhausted the widest
certified bracket is returned with ``certified=False``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .pressure import BirkhoffTable, LogDerivative, Potential, Sum
from .systems import DEFAULT_WORD_BUDGET, MarkovSystem

__all__ = [
    "DimensionResult",
    "Truncation",
    "moran_solve",
    "bowen_dimension",
    "shrink_exponent_alpha",
    "shrink_exponent_potential",
    "spectrum",
]

_S_FLOOR = 1e-6   # seed for the bisection bracket; shrink exponents are positive
_S_CAP = 128.0


@dataclass(frozen=True)
class DimensionResult:
    """Bracketed dimension-like exponent.

    ``certified`` is True when pressure brackets (not point estimates) drove
    both bisection sides down to the requested width.
    """

    value: float
    bracket: tuple[float, float]
    truncation: tuple[frozenset[int], int] | None
    certified: bool

    def __post_init__(self):
        lo, hi = self.bracket
        if not (lo <= self.value <= hi):
            raise ValueError("result value must lie inside its bracket")


@dataclass(frozen=True)
class Truncation:
    """Refinement ladder for countable or large systems.

    ``subsets`` is an increasing chain of finite alphabet subsets; ``n_max``
    limits the pressure depth (None picks the deepest level within budget);
    ``use_tail`` switches the upper pressure bounds from subsystem semantics
    to full-alphabet semantics through the family's closed-form tail.
    """

    subsets: tuple[frozenset[int], ...]
    n_max: int | None = None
    budget: int = DEFAULT_WORD_BUDGET
    use_tail: bool = False

    def __post_init__(self):
        if not self.subsets:
            raise ValueError("truncation ladder must be nonempty")

    @staticmethod
    def single(subset: Iterable[int], n_max: int | None = None,
               budget: int = DEFAULT_WORD_BUDGET, use_tail: bool = False) -> "Truncation":
        return Truncation((frozenset(subset),), n_max=n_max, budget=budget,
                          use_tail=use_tail)

    @staticmethod
    def prefix_ladder(sizes: Sequence[int], n_max: int | None = None,
                      budget: int = DEFAULT_WORD_BUDGET, use_tail: bool = False) -> "Truncation":
        return Truncation(tuple(frozenset(range(1, k + 1)) for k in sizes),
                          n_max=n_max, budget=budget, use_tail=use_tail)


def _bisect(decide: Callable[[float], int], lo: float, tol: float) -> tuple[float, float]:
    """Bisect a monotone sign down to a bracket [lo, hi] no wider than tol.

    ``decide(s)`` is +1 while s lies below the root and -1 at or above it,
    and ``decide(lo)`` is taken to be +1.  ``hi`` is found by doubling from 1
    up to _S_CAP.  Raises ValueError once the bracket cannot be split, which
    a tolerance below the float spacing there would otherwise turn into an
    endless loop.
    """
    hi = 1.0
    while decide(hi) == 1:
        lo = hi
        hi *= 2.0
        if hi > _S_CAP:
            raise RuntimeError("no upper bisection endpoint found below the cap")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            raise ValueError(f"tolerance {tol!r} is below float resolution: bisection "
                             f"stopped at [{lo!r}, {hi!r}], width {hi - lo!r}")
        if decide(mid) == 1:
            lo = mid
        else:
            hi = mid
    return lo, hi


class _Solver:
    def __init__(self, sys: MarkovSystem, inner: Potential, shift: Callable[[float], float],
                 trunc: Truncation):
        self.sys = sys
        self.inner = inner
        self.shift = shift
        self.trunc = trunc
        self.tables = [None] * len(trunc.subsets)
        self.index = 0
        self.certified = True
        self.n_used = 0

    def _table(self) -> BirkhoffTable:
        if self.tables[self.index] is None:
            self.tables[self.index] = BirkhoffTable(
                self.sys, self.inner, self.trunc.subsets[self.index],
                budget=self.trunc.budget)
        return self.tables[self.index]

    def _decide_once(self, s: float) -> tuple[int, tuple[float, float]]:
        """+1 when s is certified below the exponent, -1 when at/above,
        0 when the bracket straddles the shift; the bracket rides along."""
        est = self._table().bracket(s, n_max=self.trunc.n_max, use_tail=self.trunc.use_tail)
        self.n_used = max(self.n_used, est.truncation[1])
        target = self.shift(s)
        if est.lower > target:
            return 1, (est.lower, est.upper)
        if est.upper <= target:
            return -1, (est.lower, est.upper)
        return 0, (est.lower, est.upper)

    def decide(self, s: float) -> int:
        """Certified sign where the truncation allows it; once the ladder is
        exhausted the bracket midpoint decides, and the result is flagged
        uncertified (never reporting a certified digit the truncation cannot
        support).

        Lower-side decisions are monotone in the subset and hold at any
        rung.  Without a tail an upper-side decision only certifies that
        rung's subsystem, so it must come from the final rung.
        """
        d, est = self._decide_once(s)
        while self.index + 1 < len(self.trunc.subsets) and (
                d == 0 or (d == -1 and not self.trunc.use_tail)):
            self.index += 1
            d, est = self._decide_once(s)
        if d == 0:
            self.certified = False
            lower, upper = est
            if math.isinf(upper):
                return 1
            midpoint = 0.5 * (lower + upper)
            return 1 if midpoint > self.shift(s) else -1
        return d

    def run(self, tol: float) -> DimensionResult:
        if not 0.0 < tol < math.inf:
            raise ValueError(f"tolerance must be finite and positive, got {tol!r}")
        if self.decide(_S_FLOOR) == -1:
            raise RuntimeError(
                f"pressure already nonpositive at the bisection floor s = {_S_FLOOR:g}: "
                f"the exponent is at most {_S_FLOOR:g} (a one-symbol subset, for "
                "example, has a one-point limit set)")
        lo, hi = _bisect(self.decide, _S_FLOOR, tol)
        subset = self.trunc.subsets[self.index]
        return DimensionResult(value=0.5 * (lo + hi), bracket=(lo, hi),
                               truncation=(subset, self.n_used),
                               certified=self.certified)


def moran_solve(ratios: Sequence[float], tol: float = 1e-10) -> DimensionResult:
    """Solve sum r_i^s = 1 by monotone bisection."""
    rs = [float(r) for r in ratios]
    if not rs:
        raise ValueError("at least one contraction ratio required")
    for r in rs:
        if not (0.0 < r < 1.0):
            raise ValueError("ratios must lie in (0, 1)")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tol!r}")
    lo, hi = _bisect(lambda s: 1 if sum(r ** s for r in rs) - 1.0 > 0.0 else -1, 0.0, tol)
    return DimensionResult(value=0.5 * (lo + hi), bracket=(lo, hi), truncation=None,
                           certified=True)


def bowen_dimension(sys: MarkovSystem, trunc: Truncation, tol: float = 1e-9) -> DimensionResult:
    """dim of the limit set: inf{s : P(-s psi) <= 0} over the truncation."""
    return _Solver(sys, LogDerivative(), lambda s: 0.0, trunc).run(tol)


def shrink_exponent_alpha(sys: MarkovSystem, alpha: float, trunc: Truncation,
                          tol: float = 1e-9) -> DimensionResult:
    """Constant-rate shrinking-target exponent: inf{s : P(-s psi) <= s alpha}."""
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")
    return _Solver(sys, LogDerivative(), lambda s: s * alpha, trunc).run(tol)


def shrink_exponent_potential(sys: MarkovSystem, phi: Potential, trunc: Truncation,
                              tol: float = 1e-9) -> DimensionResult:
    """Potential-rate shrinking-target exponent: inf{s : P(-s(psi+phi)) <= 0}."""
    return _Solver(sys, Sum(LogDerivative(), phi), lambda s: 0.0, trunc).run(tol)


def spectrum(sys: MarkovSystem, alphas: Sequence[float], trunc: Truncation,
             tol: float = 1e-9) -> list[tuple[float, DimensionResult]]:
    """One shrink_exponent_alpha row per grid point (nonincreasing in alpha)."""
    if not alphas:
        raise ValueError("alpha grid must be nonempty")
    return [(a, shrink_exponent_alpha(sys, a, trunc, tol)) for a in alphas]
