"""Bowen-type equation solvers: a secant-guided search over pressure brackets.

All exponents here are infima of nonpositivity sets, not roots: the solved
quantity is inf{s : P(-s*u) <= shift(s)} for a nonnegative potential u and a
linear shift.  Each is the dimension of a subset of the limit set in [0, 1],
so the search stays in (0, 1]: P(-psi) <= 0 for every family here (disjoint
depth-n cylinders in [0, 1], bounded distortion), and u >= psi and a
nonnegative shift only lower the exponent.  A pressure bracket at s decides
that s lies below the exponent (lower end above the shift) or at or above
it (upper end at or below the shift); otherwise it straddles the shift, and
the truncation is refined along the ladder.  Each probe's bracket updates
the running state of three ends: a = sup{s : lower > 0}, b = inf{s : upper
<= 0}, and the root of the bracket midpoint.  An end keeps its nearest
probe on each side and its three values nearest zero, and places its next
probe by interpolation on them.  Certification is per end: a result is
certified when a bracket decides its lower end below, and a bracket or the
bound at s = 1 its upper end above, within tol/2.  When probes prove that
no bracket that narrow can be decided at both ends, the search closes on
the midpoint end instead, within tol, and returns ``certified=False``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .pressure import BirkhoffTable, LogDerivative, Potential, Sum
from .systems import BranchFamily, DEFAULT_WORD_BUDGET

__all__ = [
    "DimensionResult",
    "Truncation",
    "bowen_dimension",
    "shrink_exponent_alpha",
    "shrink_exponent_potential",
    "spectrum",
]

_S_FLOOR = 1e-6   # lower end of the search; shrink exponents are positive


@dataclass(frozen=True)
class DimensionResult:
    """Bracketed dimension-like exponent.

    ``certified`` is True when pressure brackets (not midpoint guesses),
    or the bound at s = 1 for the upper end, decide both ends of
    ``bracket``: the lower end lies below the exponent and the upper end at
    or above it.  A certified bracket is at most tol/2 wide (plus a few
    ulps), an uncertified one at most tol.  ``steps`` counts the pressure
    brackets evaluated.
    """

    value: float
    bracket: tuple[float, float]
    truncation: tuple[frozenset[int], int]
    certified: bool
    steps: int

    def __post_init__(self):
        lo, hi = self.bracket
        if not (lo <= self.value <= hi):
            raise ValueError("result value must lie inside its bracket")


@dataclass(frozen=True)
class Truncation:
    """Refinement ladder for countable or large systems.

    ``subsets`` is an increasing chain of finite alphabet subsets, each a
    subset of the next, so a rung's lower-side decisions hold on later rungs;
    ``n_max`` limits the pressure depth (None: the deepest level within
    budget); ``use_tail`` switches the upper pressure bounds from subsystem
    semantics to full-alphabet semantics through the family's tail.
    """

    subsets: tuple[frozenset[int], ...]
    n_max: int | None = None
    budget: int = DEFAULT_WORD_BUDGET
    use_tail: bool = False

    def __post_init__(self):
        if not self.subsets:
            raise ValueError("truncation ladder must be nonempty")
        for k, (rung, nxt) in enumerate(zip(self.subsets, self.subsets[1:]), 1):
            if not rung <= nxt:
                raise ValueError(f"truncation ladder rung {k} is not a subset of rung {k + 1}")

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


# A probe (s, lower, upper) holds the pressure bracket at s less the shift
# there: lower > 0 certifies that s lies below the exponent, upper <= 0 that
# s lies at or above it, and in between the bracket straddles the shift.
_Probe = tuple[float, float, float]


def _mid(p: _Probe) -> float:
    return math.inf if math.isinf(p[2]) else 0.5 * (p[1] + p[2])


class _End:
    """One end, the root of a step function f of the probe, kept as the
    nearest probe on each side (``below``: f > 0, ``above``: f <= 0), the
    (|f|, s, f) of the three finite values of f nearest zero, and
    ``halved``, the width its interval must shrink to before the next
    probe into it may be placed by interpolation."""

    def __init__(self, f: Callable[[_Probe], float]):
        self.f = f
        self.below: _Probe | None = None
        self.above: _Probe | None = None
        self.near: list[tuple[float, float, float]] = []
        self.halved = math.inf

    def add(self, p: _Probe) -> None:
        v = self.f(p)
        if v > 0.0:
            if self.below is None or p > self.below:
                self.below = p
        elif self.above is None or p < self.above:
            self.above = p
        if math.isfinite(v):
            self.near = sorted(self.near + [(abs(v), p[0], v)])[:3]

    def estimate(self, start: float, stop: float) -> tuple[float, float]:
        """The root in [start, stop] from the three values nearest zero,
        with an error estimate.

        Inverse quadratic interpolation through three points is checked
        against the secant through the best two: their distance estimates
        the error of the secant, which bounds that of the quadratic from
        above.  With two points the secant comes with an infinite error;
        with fewer there is no estimate (nan).  The estimate is clipped to
        [start, stop].
        """
        pts = self.near
        if len(pts) < 2 or pts[0][2] == pts[1][2]:
            return math.nan, math.inf
        (_, x0, f0), (_, x1, f1) = pts[:2]
        root = secant = x0 - f0 * (x0 - x1) / (f0 - f1)
        err = math.inf
        if len(pts) > 2 and pts[2][2] not in (f0, f1):
            _, x2, f2 = pts[2]
            root = (x0 * f1 * f2 / ((f0 - f1) * (f0 - f2)) + x1 * f0 * f2 / ((f1 - f0) * (f1 - f2))
                    + x2 * f0 * f1 / ((f2 - f0) * (f2 - f1)))
            err = abs(root - secant)
        return min(max(root, start), stop), err


def _search(measure: Callable[[float], _Probe], tol: float) -> tuple[float, float, bool]:
    """Close the exponent inf{s : P <= shift} into [lo, hi] no wider than tol.

    The floor probe at _S_FLOOR must have a positive midpoint.  The next
    is at s = 1, and by the module docstring's bound an end it leaves
    undecided takes it, both bracket ends clipped to at most 0, as its
    point above, though not as an interpolation value.  Every probe updates
    the three ends; the next one is placed by interpolation, aimed at a
    from below or at b from above.  Once both
    estimates have settled, a pair of probes a - m and b + m closes the
    bracket to width tol/2, the width a certified bracket is held to.  An
    interpolated probe that fails to halve the interval of its end is
    followed by a halving one.  When straddling probes at least tol/2 apart
    prove b - a >= tol/2, no certified bracket can be that narrow: a and b both
    become the midpoint end, on which the search closes to width tol.
    Holding certified brackets to tol/2 leaves half of the tolerance to
    the truncation, so whether a row certifies does not hinge on a zone
    about tol wide.  The few ulps of zone that rounding alone leaves are
    not charged to tol/2, so that a tol near float resolution still
    certifies an exact pressure.

    Returns lo, hi and whether the probe at lo has lower > 0, the one at
    hi has upper <= 0 and hi - lo is at most the held width.  Raises
    RuntimeError when the midpoint is not positive at the floor, and
    ValueError once the interval cannot be split, which a tolerance below
    the float spacing there would otherwise turn into an endless loop.
    """
    ends = lower, upper, mid = _End(lambda p: p[1]), _End(lambda p: p[2]), _End(_mid)

    def probe(s: float) -> None:
        p = measure(s)
        for end in ends:
            end.add(p)

    probe(_S_FLOOR)
    if mid.below is None:
        raise RuntimeError(
            f"pressure already nonpositive at the search floor s = {_S_FLOOR:g}: "
            f"the exponent is at most {_S_FLOOR:g} (a one-symbol subset, for "
            "example, has a one-point limit set)")
    a, b = (lower, upper) if lower.below is not None else (mid, mid)
    probe(1.0)
    for end in ends:
        if end.above is None:
            # the probe at 1 fell on this end's positive side, so it is the
            # end's below point; the bound makes s = 1 its above point too
            _, low, up = end.below
            end.above = (1.0, min(low, 0.0), min(up, 0.0))
    # the width certified brackets are held to; the few ulps that rounding
    # alone leaves around a root (each decision is padded by an ulp) are
    # not charged to it, so a tol near float resolution still certifies
    half = min(tol, 0.5 * tol + 4.0 * math.ulp(1.0))
    paired = False
    while True:
        lo, up = a.below, b.above
        if up[0] - lo[0] <= (half if a is lower else tol):
            return lo[0], up[0], lo[1] > 0.0 and up[2] <= 0.0 and up[0] - lo[0] <= half
        # a lies in (lo, a_hi] and b in (b_lo, up]
        a_hi, b_lo = a.above[0], b.below[0]
        if a is lower and b_lo - a_hi >= half:
            a = b = mid
            continue
        lo_s, up_s = lo[0], up[0]
        if not lo_s < 0.5 * (lo_s + up_s) < up_s:
            raise ValueError(f"tolerance {tol!r} is below float resolution: the search "
                             f"stopped at [{lo_s!r}, {up_s!r}], width {up_s - lo_s!r}")
        xa, ea = a.estimate(lo_s, a_hi)
        xb, eb = (xa, ea) if a is b else b.estimate(b_lo, up_s)
        # a settled pair a - m, b + m, (gap + tol/2)/2 apart and at least
        # tol/4: outside the zone it closes the bracket, inside (m < 0, when
        # b - a > tol/2) it proves the zone too wide
        gap = xb - xa
        margin = 0.5 * (max(0.5 * half, 0.5 * (gap + half)) - gap)
        pair = [x for x in (xa - margin, xb + margin) if lo_s < x < up_s]
        if not paired and pair and max(ea, eb) <= 0.5 * abs(margin):
            for x in pair:
                probe(x)
            paired = True
            continue
        paired = False
        # one probe, into the wider of the two end intervals
        if a_hi - lo_s >= up_s - b_lo:
            end, start, stop, x = a, lo_s, a_hi, xa
        else:
            end, start, stop, x = b, b_lo, up_s, xb
        width = stop - start
        if not start < x < stop or end.halved < width:
            x = 0.5 * (start + stop)
            if not start < x < stop:
                # this end is as close as floats allow and the bracket is
                # still wider than tol/2: no certified bracket will do
                a = b = mid
                continue
            # a halving probe halves its interval, up to rounding, and a
            # rounding ulp must not force the next probe to halve as well
            end.halved = math.inf
        else:
            pad = 0.25 * min(tol, width)
            x = min(max(x, start + pad), stop - pad)
            end.halved = 0.5 * width
        probe(x)


class _Solver:
    def __init__(self, sys: BranchFamily, inner: Potential, shift: Callable[[float], float],
                 trunc: Truncation, tables: list[BirkhoffTable | None] | None = None):
        self.sys = sys
        self.inner = inner
        self.shift = shift
        self.trunc = trunc
        # one slot per rung, built when the search first reaches it
        self.tables = [None] * len(trunc.subsets) if tables is None else tables
        self.index = 0
        self.n_used = 0
        self.steps = 0

    def _table(self) -> BirkhoffTable:
        if self.tables[self.index] is None:
            self.tables[self.index] = BirkhoffTable(
                self.sys, self.inner, self.trunc.subsets[self.index],
                budget=self.trunc.budget)
        return self.tables[self.index]

    def measure(self, s: float) -> _Probe:
        """The probe at s, from the first rung whose probe decides it.

        Lower-side decisions are monotone in the subset and hold at any
        rung.  Without a tail an upper-side decision only certifies that
        rung's subsystem, so it must come from the final rung.  A probe that
        still straddles at the final rung is returned as it is.
        """
        shift = self.shift(s)
        while True:
            est = self._table().bracket(s, n_max=self.trunc.n_max, use_tail=self.trunc.use_tail)
            self.steps += 1
            self.n_used = max(self.n_used, est.truncation[1])
            # Partition sums are rounded to nearest, not outward, and a probe
            # placed by interpolation can land within rounding of the root:
            # one ulp at the scale of the compared values keeps it from
            # deciding a side it does not lie on.  A bracket inverted by
            # rounding (see PressureEstimate) is widened, so it decides at
            # most one side.
            lower, upper = est.lower, max(est.lower, est.upper)
            pad = math.ulp(max([1.0, abs(shift)] + [abs(v) for v in (lower, upper)
                                                    if math.isfinite(v)]))
            probe = s, lower - shift - pad, upper - shift + pad
            decided = probe[1] > 0.0 or (probe[2] <= 0.0 and self.trunc.use_tail)
            if decided or self.index + 1 == len(self.trunc.subsets):
                return probe
            self.index += 1

    def run(self, tol: float) -> DimensionResult:
        if not 0.0 < tol < math.inf:
            raise ValueError(f"tolerance must be finite and positive, got {tol!r}")
        lo, hi, certified = _search(self.measure, tol)
        subset = self.trunc.subsets[self.index]
        return DimensionResult(value=0.5 * (lo + hi), bracket=(lo, hi),
                               truncation=(subset, self.n_used), certified=certified,
                               steps=self.steps)


def bowen_dimension(sys: BranchFamily, trunc: Truncation, tol: float = 1e-9) -> DimensionResult:
    """dim of the limit set: inf{s : P(-s psi) <= 0} over the truncation."""
    return _Solver(sys, LogDerivative(), lambda s: 0.0, trunc).run(tol)


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")


def shrink_exponent_alpha(sys: BranchFamily, alpha: float, trunc: Truncation,
                          tol: float = 1e-9, *, _tables=None) -> DimensionResult:
    """Constant-rate shrinking-target exponent: inf{s : P(-s psi) <= s alpha}."""
    _check_alpha(alpha)
    # _tables: spectrum's per-rung list, shared by its rows; each row stays
    # one call of this function, which bench/tracing.py spans as a solve
    return _Solver(sys, LogDerivative(), lambda s: s * alpha, trunc, _tables).run(tol)


def shrink_exponent_potential(sys: BranchFamily, phi: Potential, trunc: Truncation,
                              tol: float = 1e-9) -> DimensionResult:
    """Potential-rate shrinking-target exponent: inf{s : P(-s(psi+phi)) <= 0}."""
    return _Solver(sys, Sum(LogDerivative(), phi), lambda s: 0.0, trunc).run(tol)


def spectrum(sys: BranchFamily, alphas: Sequence[float], trunc: Truncation,
             tol: float = 1e-9) -> list[tuple[float, DimensionResult]]:
    """One shrink_exponent_alpha row per grid point (nonincreasing in alpha).

    The whole grid is checked before any table is built.  Every row shares
    one list of ladder tables, so each rung is built once per spectrum and
    a probe an earlier row took (each row probes the floor and s = 1) is
    served from its table.  Each row still starts at rung 0, so it depends
    only on its own alpha and equals shrink_exponent_alpha called alone.
    """
    if not alphas:
        raise ValueError("alpha grid must be nonempty")
    for a in alphas:
        _check_alpha(a)
    tables: list[BirkhoffTable | None] = [None] * len(trunc.subsets)
    return [(a, shrink_exponent_alpha(sys, a, trunc, tol, _tables=tables)) for a in alphas]
