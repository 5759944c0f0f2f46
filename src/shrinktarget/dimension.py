"""Bowen-type equation solvers: a proven interval from convex pressure brackets.

All exponents here are infima of nonpositivity sets, not roots: the solved
quantity is inf{s : g(s) <= 0} with g(s) = P(-s*u) - shift(s), for a
nonnegative potential u and a linear shift.  Each is the dimension of a
subset of the limit set in [0, 1], so the search stays in (0, 1]: P(-psi)
<= 0 for every family here (disjoint depth-n cylinders in [0, 1], bounded
distortion), and u >= psi and a nonnegative shift only lower the exponent.
A pressure bracket at s decides that s lies below the exponent (lower end
above the shift) or at or above it (upper end at or below the shift);
otherwise it straddles the shift, and the truncation is refined along the
ladder.  g is convex, so besides these decisions the chords through any
two probes' brackets bound the exponent, and every probe tightens one
proven interval [lo, hi] around it.  Probes aim at the root of the bracket
midpoint, then at the ends of the zone where the brackets straddle.  A
result is certified when hi - lo is at most tol/2; every result,
certified or not, reports [lo, hi] as its bracket.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .pressure import BirkhoffTable, LogDerivative, Potential, Sum, _U, _outward
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

    ``bracket`` is proven in every result: its lower end lies below the
    exponent and its upper end at or above it, by the pressure brackets of
    the probes, the chords through them and the bound at s = 1.
    ``certified`` is True when it is at most tol/2 wide (plus a few ulps);
    an uncertified bracket may be wider than tol.  ``value`` is the root of
    the bracket midpoint, clipped into ``bracket``.  ``steps`` counts the
    pressure brackets evaluated, and ``matrix_depth`` the deepest cylinder
    transfer matrix behind a probe that decided (0 when none did).
    """

    value: float
    bracket: tuple[float, float]
    truncation: tuple[frozenset[int], int]
    certified: bool
    steps: int
    matrix_depth: int = 0

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


# A probe (s, lower, upper) holds a bracket of g(s) = P(-s*u) - shift(s):
# lower > 0 decides that s lies below the exponent, upper <= 0 that s lies at
# or above it, and in between the bracket straddles the shift.
_Probe = tuple[float, float, float]


def _bound(p: _Probe) -> _Probe:
    """The probe with the bound at s = 1 applied: g(1) <= 0 (module docstring)."""
    return (1.0, min(p[1], 0.0), min(p[2], 0.0)) if p[0] == 1.0 else p


def _mid(p: _Probe) -> float:
    return 0.5 * (p[1] + p[2])


def _zero(s0: float, y0: float, s1: float, y1: float, toward: float) -> float:
    """The zero of the line through (s0, y0) and (s1, y1), y0 != y1, moved
    outward (down where ``toward`` is -1, up where 1) past its roundings:
    four in the quotient and one in the sum."""
    q = y0 * (s1 - s0) / (y0 - y1)
    x = s0 + q
    return _outward(x, _U * (5.0 * abs(q) + 2.0 * abs(x)), toward)


def _secant(p0: _Probe, p1: _Probe, end: Callable[[_Probe], float], default: float) -> float:
    """The zero of the secant through ``end`` of two probes, if it falls."""
    slope = (end(p0) - end(p1)) / (p0[0] - p1[0])
    return p0[0] - end(p0) / slope if slope < 0.0 else default


def _search(measure: Callable[[float], _Probe], tol: float) -> tuple[float, float, float, bool]:
    """Close the exponent r = inf{s : g(s) <= 0} into a proven interval [lo, hi].

    g is convex and nonincreasing (pressure is convex in the potential, and
    nonincreasing in s for u >= 0; the shift is linear and nondecreasing),
    so the chord through the brackets of two probes s0 < s1 bounds r
    besides their own decisions.  Extended to the right of two points below
    r the chord lies below g, so r >= s1 + L1 (s1 - s0) / (U0 - L1) when
    L1 > 0; extended to the left it does too, so r >= s0 + L0 (s1 - s0) /
    (L0 - U1) when L0 <= 0 and L0 > U1; between the points it lies above g,
    so r <= s0 + U0 (s1 - s0) / (U0 - U1) when U0 > 0 >= U1.  A new probe
    applies these with its two neighbours, and the probe at s = 1 enters
    them with both ends clipped to at most 0, by the module docstring.

    Probes first aim at the root of the bracket midpoint: the secant through
    the two midpoints nearest zero (their lower ends where an upper end is
    infinite), kept tol/4 inside the interval between the nearest probes
    with a positive and a non-positive midpoint, or its middle when it did
    not halve over the last two probes.  Once that interval is within tol,
    or the secant moves the probe of least |midpoint| by at most tol/4,
    closing probes aim at the ends of the zone where brackets straddle: the
    secant zero of the two lower ends nearest zero less a pad, and of the
    upper ends plus a pad.  The pad is a quarter of what the estimated zone
    leaves of the held width (tol/8 when it leaves nothing), and a closing
    probe goes only where it would move its end by more than a quarter of
    what hi - lo exceeds the held width by, while hi - lo shrinks.

    Certified brackets are held to tol/2, which leaves half of the
    tolerance to the truncation, so whether a row certifies does not hinge
    on a zone about tol wide; the few ulps of zone that rounding alone
    leaves are not charged to it.  Returns lo, hi, the midpoint root
    clipped into [lo, hi], and whether hi - lo is within the held width.
    Raises RuntimeError when the midpoint is not positive at the floor, and
    ValueError once the midpoint interval cannot be split, which a
    tolerance below the float spacing would otherwise make an endless loop.
    """
    probes: list[_Probe] = []  # sorted by s, as measured
    lo, hi = 0.0, 1.0

    def probe(s: float) -> None:
        nonlocal lo, hi
        i = bisect.bisect(probes, (s,))
        if i < len(probes) and probes[i][0] == s:
            return
        probes.insert(i, measure(s))
        _, low, up = _bound(probes[i])
        if low > 0.0:
            lo = max(lo, s)
        if up <= 0.0:
            hi = min(hi, s)
        near = [_bound(p) for p in probes[max(i - 1, 0):i + 2]]
        for (s0, l0, u0), (s1, l1, u1) in zip(near, near[1:]):
            if l1 > 0.0 and u0 > l1:
                lo = max(lo, _zero(s1, l1, s0, u0, -1.0))
            if l0 <= 0.0 and l0 > u1:
                lo = max(lo, _zero(s0, l0, s1, u1, -1.0))
            if u0 > 0.0 >= u1 and u0 < math.inf:
                hi = min(hi, _zero(s0, u0, s1, u1, 1.0))

    def estimate() -> tuple[float, float, float, float]:
        """The probes either side of the midpoint root, the secant root kept
        between them (else their middle), and the probe of least |midpoint|."""
        k = next(k for k, p in enumerate(probes) if _mid(_bound(p)) <= 0.0)
        start, stop = probes[k - 1][0], probes[k][0]
        p0, p1 = sorted(probes, key=lambda p: abs(_mid(p)))[:2]
        end = (lambda p: p[1]) if math.inf in (p0[2], p1[2]) else _mid
        x = _secant(p0, p1, end, 0.5 * (start + stop))
        return start, stop, min(max(x, start), stop), p0[0]

    def zone_end(end: int, default: float) -> float:
        """The secant zero of the lower (1) or upper (2) ends nearest 0."""
        finite = sorted((p for p in probes if abs(p[end]) < math.inf), key=lambda p: abs(p[end]))
        if len(finite) < 2:
            return default
        return _secant(finite[0], finite[1], lambda p: p[end], default)

    probe(_S_FLOOR)
    if not _mid(probes[0]) > 0.0:
        raise RuntimeError(
            f"pressure already nonpositive at the search floor s = {_S_FLOOR:g}: "
            f"the exponent is at most {_S_FLOOR:g} (a one-symbol subset, for "
            "example, has a one-point limit set)")
    probe(1.0)
    # the width certified brackets are held to; the few ulps that rounding
    # alone leaves around a root (each decision is padded by an ulp) are
    # not charged to it, so a tol near float resolution still certifies
    half = min(tol, 0.5 * tol + 4.0 * math.ulp(1.0))
    widths = (math.inf, math.inf)  # the midpoint interval two and one probes ago
    while hi - lo > half:
        start, stop, x, nearest = estimate()
        width, pad = stop - start, 0.25 * tol
        if width <= tol:
            break
        if not start < 0.5 * (start + stop) < stop:
            raise ValueError(f"tolerance {tol!r} is below float resolution: the search "
                             f"stopped at [{start!r}, {stop!r}], width {width!r}")
        if start < x < stop and abs(x - nearest) <= pad:
            break
        x = min(max(x, start + pad), stop - pad)
        if width > 0.5 * widths[0] or not start < x < stop:
            x = 0.5 * (start + stop)
        widths = (widths[1], width)
        probe(x)
    spans = (math.inf, math.inf)  # hi - lo two and one closing rounds ago
    while half < hi - lo < spans[0]:
        spans = (spans[1], hi - lo)
        a, b = max(zone_end(1, lo), lo), min(zone_end(2, hi), hi)
        spare = half - (b - a)
        pad = 0.25 * spare if spare > 0.0 else 0.125 * tol
        reach = 0.25 * (hi - lo - half)
        count = len(probes)
        if lo + reach < a - pad:
            probe(a - pad)
        if b + pad < hi - reach:
            probe(b + pad)
        if len(probes) == count:
            break
    return lo, hi, min(max(estimate()[2], lo), hi), hi - lo <= half


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
        self.matrix_depth = 0

    def _table(self) -> BirkhoffTable:
        if self.tables[self.index] is None:
            self.tables[self.index] = BirkhoffTable(
                self.sys, self.inner, self.trunc.subsets[self.index],
                budget=self.trunc.budget)
        return self.tables[self.index]

    def measure(self, s: float) -> _Probe:
        """The probe at s, from the first rung whose probe decides it.

        A lower end holds at any rung, since the pressure grows with the
        subset.  Without a tail an upper end bounds only that rung's
        subsystem, so below the final rung it enters as +inf and cannot
        decide.  A probe that still straddles at the final rung is returned
        as it is.  The table is given the shift, so it decides by the same
        margins (``PressureEstimate.margins``) as the probe does here.
        """
        shift = self.shift(s)
        while True:
            est = self._table().bracket(s, n_max=self.trunc.n_max, use_tail=self.trunc.use_tail,
                                        target=shift)
            self.steps += 1
            self.n_used = max(self.n_used, est.truncation[1])
            low, up = est.margins(shift)
            final = self.index + 1 == len(self.trunc.subsets)
            if not (final or self.trunc.use_tail):
                up = math.inf
            if low > 0.0 or up <= 0.0:
                self.matrix_depth = max(self.matrix_depth, est.matrix_depth)
                return s, low, up
            if final:
                return s, low, up
            self.index += 1

    def run(self, tol: float) -> DimensionResult:
        if not 0.0 < tol < math.inf:
            raise ValueError(f"tolerance must be finite and positive, got {tol!r}")
        lo, hi, value, certified = _search(self.measure, tol)
        subset = self.trunc.subsets[self.index]
        return DimensionResult(value=value, bracket=(lo, hi),
                               truncation=(subset, self.n_used), certified=certified,
                               steps=self.steps, matrix_depth=self.matrix_depth)


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
