"""Birkhoff-sum brackets and two-sided truncated pressure estimates.

A potential is its two finite coefficients, psi_coef * psi + const over
the log-derivative psi = log|T'|; the constructors ``LogDerivative``,
``Constant``, ``Scale`` and ``Sum`` build the nonnegative ones.
The sign convention is fixed here once: partition sums always receive the
already-negated exponent, i.e. for a nonnegative potential u the weights are
exp(-end) with `end` an endpoint of the Birkhoff bracket of S_n(u).  The
"sup" mode uses the lower endpoint (a dominating sum, giving upper pressure
bounds); the "inf" mode uses the upper endpoint (a dominated sum, giving
Fekete lower bounds for a pressure of the form P(-u)).

``BirkhoffTable.bracket`` is the one entry point for pressure brackets: it
picks the default depth and computes the branch family's tail itself, and
the family supplies all per-symbol geometry.  A table is additive when its
potential has no psi part or the family is affine (exact per-symbol psi,
read from ``affine_terms``): its level-n partition sum is n times level 1,
so a pressure bracket takes one log-sum-exp per mode, whatever its depth,
and it builds no level.  The other tables build levels of psi geometry
alone: level n holds the bracket of S_n psi over every cylinder of F^n,
the same arrays for every potential.  Every table applies the potential
by one rule: S_n(u) = psi_coef * S_n psi + n * const, so a word's weight
at scale s is exp(-(s * psi_coef) * S_n psi) times exp(-s * n * const),
a factor all words share, which ``partition`` takes out of the
log-sum-exp and the tail takes out of its sum.  A
word of length n+1 is a word w of length n with one more outer branch s
prepended, whose cylinder is phi_s(phi_w([0,1])).  The family's
``map_intervals`` and ``deriv_brackets`` take the column of symbols and a
block of frontier rows and return symbol-major (K, C) arrays: the
children's intervals, and the bracket of |phi_s'| over each parent
interval, whose -log is added to the psi sums.  Each block is copied,
transposed, into its parents' rows, so children are laid out parent-major
and the words come out in one fixed order.  A request for level n sweeps
once from the root, with the frontier local to that sweep: each level is
its frontier's psi arrays, and only the levels below n carry child
intervals, so no interval array of level n is ever held.  Callers ask for
their deepest level first (``bracket`` asks for n_max, ``cover_sum`` for
its deepest unpruned level), so one sweep builds the whole table; a later,
deeper request sweeps again from the root.
Each log is padded one ulp outward, because np.log may sit an ulp away
from the correctly rounded value: the step is taken on the IEEE bit
pattern, equal to np.nextafter bit for bit and several times cheaper; the
level sums are rounded to nearest.

A bracket is read from the levels in one of two ways.  Fekete's lemma
bounds P by the best level partition over n (the dominated sums from below,
the dominating ones from above), a width that shrinks like 1/n; this is
the bracket of ``pressure_bracket``, of every request without a target,
with a tail or on an additive table.
A probe of the dimension search asks with its target, the shift it is
compared with, and gets the first depth-m cylinder transfer matrix bracket
(McMullen 1998), m = 1, 2, ..., that decides it by at least its own width
(at the deepest m by any margin), read from levels m and m + 1 alone; its
width shrinks like the distortion over depth-m cylinders, geometrically
in m.  Every bound is rounded outward through ``_outward``:
the partition sums, the quotients of the Fekete levels and the matrix
weights, row sums and logs; ``PressureEstimate.margins`` is the one rule
by which a bracket decides a target.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .systems import (
    BranchFamily,
    BudgetExceededError,
    DEFAULT_WORD_BUDGET,
    Word,
    cylinder,  # not called here; bench/tracing.py spans pressure.cylinder
)

__all__ = [
    "Potential",
    "LogDerivative",
    "Constant",
    "Scale",
    "Sum",
    "PressureEstimate",
    "BirkhoffTable",
    "birkhoff_bracket",
    "pressure_bracket",
]


@dataclass(frozen=True)
class Potential:
    """The potential psi_coef * psi + const, psi = log|T'|, built by the
    constructors below.  ``nodes`` counts the nodes of the expression built
    (1 for a pair given directly), a bound on the roundings behind each
    coefficient (see ``_fold_rounding``).  A coefficient that is negative
    or not finite (an overflowed scale or sum, a nan) raises ValueError."""

    psi_coef: float
    const: float
    nodes: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.psi_coef) and math.isfinite(self.const)):
            raise ValueError(f"potential flattens to {self.psi_coef!r} * psi + "
                             f"{self.const!r}; both coefficients must be finite")
        if self.psi_coef < 0.0 or self.const < 0.0:
            raise ValueError("potential coefficients must be nonnegative")


def LogDerivative() -> Potential:
    """The distinguished geometric potential psi = log|T'|."""
    return Potential(1.0, 0.0)


def Constant(value: float) -> Potential:
    return Potential(0.0, float(value))


def Scale(factor: float, inner: Potential) -> Potential:
    if factor < 0.0:
        raise ValueError("scale factors must be nonnegative")
    # a Python float's products overflow to inf without a numpy warning
    factor = float(factor)
    return Potential(factor * inner.psi_coef, factor * inner.const, inner.nodes + 1)


def Sum(left: Potential, right: Potential) -> Potential:
    return Potential(left.psi_coef + right.psi_coef, left.const + right.const,
                     left.nodes + right.nodes + 1)


def _birkhoff_fold(sys: BranchFamily, pot: Potential,
                   word: Iterable[int]) -> Iterator[tuple[float, float]]:
    """Brackets of S_n(pot) over the cylinders of the first n symbols of the
    word, for n = 1, 2, ..., one symbol read per step.

    Each is n * const plus psi_coef times the psi bracket of one family
    composer advanced by one ``child`` per symbol, all rounded to nearest
    (``_fold_rounding`` bounds the error).  A symbol outside the alphabet
    raises ValueError when it is read, unless the potential reads no
    symbols (a constant).
    """
    comp = sys.composer()
    for n, s in enumerate(word, 1):
        lo = hi = n * pot.const
        if pot.psi_coef != 0.0:
            sys._check_symbol(s)
            comp = comp.child(s)
            plo, phi_ = comp.psi()
            lo += pot.psi_coef * plo
            hi += pot.psi_coef * phi_
        yield lo, hi


def _fold_rounding(pot: Potential) -> float:
    """Relative bound on the roundings to nearest that ``_birkhoff_fold``
    leaves unpadded: the constructors' products and sums of scales and
    constants (at most one per node of the potential on any term's path),
    then n * const, psi_coef * psi and their sum.  Every term is
    nonnegative, so k such roundings move a bracket end by less than 2 k u
    of itself (u = 2^-53) while k u is small; the bound keeps one spare
    rounding beyond those."""
    return (pot.nodes + 3) * 2.0 ** -52


def _pad_fold(lo, hi, rel: float):
    """Fold bracket ends (floats or arrays) stepped outward by the relative
    rounding bound ``rel`` and then one ulp, for that step's own rounding.
    A fold that overflowed to +inf keeps its ends: its lower step is capped
    at the largest double, so inf - inf never makes a nan, and an upper end
    that overflows is +inf, an outward rounding."""
    with np.errstate(over="ignore"):
        return (np.nextafter(lo - np.minimum(rel * np.abs(lo), np.finfo(float).max), -np.inf),
                np.nextafter(hi + rel * hi, np.inf))


def birkhoff_bracket(sys: BranchFamily, pot: Potential, word: Word) -> tuple[float, float]:
    """Interval containing the range of S_n(pot) over the cylinder of the word:
    the last bracket of ``_birkhoff_fold``, both ends stepped outward by
    ``_fold_rounding`` (see ``_pad_fold``), so it contains S_n whatever the
    fold rounded to nearest.

    For the log-derivative the bracket is the cylinder's psi bracket, which
    the family's composer computes (exact per-symbol logs for affine
    families, continuants for Gauss); sums and scalings combine by interval
    arithmetic.
    """
    if not word:
        raise ValueError("word must be nonempty")
    for last in _birkhoff_fold(sys, pot, word):
        pass
    return tuple(map(float, _pad_fold(*last, _fold_rounding(pot))))


@dataclass(frozen=True)
class PressureEstimate:
    """Two-sided truncated pressure bracket for P(-u) at truncation (F, n),
    n the deepest level read.  ``matrix_depth`` is the depth m of the
    cylinder transfer matrix behind the bracket, 0 when none was read."""

    lower: float
    upper: float
    truncation: tuple[frozenset[int], int]
    diverged: bool = False
    matrix_depth: int = 0

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(f"invalid pressure bracket [{self.lower}, {self.upper}]")

    def margins(self, target: float) -> tuple[float, float]:
        """(lower - target, upper - target), each padded one ulp at the scale
        of the compared values against the target: the first positive
        decides that the pressure lies above the target, the second at most
        0 that it lies at or below it.  The pad keeps a target within an
        ulp of either end from deciding the side it is on by rounding."""
        return _margins(self.lower, self.upper, target)


def _margins(lower: float, upper: float, target: float) -> tuple[float, float]:
    # the pad's scale skips an infinite end (abs(nan) < inf is False too)
    pad = math.ulp(max(1.0, abs(target), abs(lower) if abs(lower) < math.inf else 0.0,
                       abs(upper) if abs(upper) < math.inf else 0.0))
    return lower - target - pad, upper - target + pad


def _decides(lower: float, upper: float, target: float, by_width: bool = False) -> bool:
    """Whether the bracket decides the target by ``_margins``; with
    ``by_width``, also with a margin at least the bracket's width."""
    low, up = _margins(lower, upper, target)
    need = upper - lower if by_width else 0.0
    return (low > 0.0 and low >= need) or (up <= 0.0 and -up >= need)


# unit roundoff: a rounding to nearest moves a double by at most _U of itself
_U = 2.0 ** -53


def _outward(x, err, toward):
    """x moved outward by the absolute error bound err and then one ulp, for
    that step's own rounding: up where ``toward`` is 1, down where it is -1.
    Floats, or arrays with ``toward`` a broadcasting array of signs; a float
    that is not finite is returned as it is."""
    if isinstance(x, float):
        return x if not math.isfinite(x) else math.nextafter(x + toward * err, toward * math.inf)
    return np.nextafter(x + toward * err, toward * np.inf)


def _logsumexp(arr: np.ndarray, m: float) -> float:
    """log sum exp(arr) given m = max(arr), overwriting arr: the caller's
    one temporary is shifted and exponentiated in place."""
    if not math.isfinite(m):
        return m
    np.subtract(arr, m, out=arr)
    np.exp(arr, out=arr)
    # np.sum's pairwise sum without its dispatch layer, bit for bit
    return m + math.log(float(np.add.reduce(arr)))


class _Frontier(NamedTuple):
    """Every word w of one level, in enumeration order: the cylinder
    phi_w([0,1]) as [lo, hi] and the bracket of S_n psi over it."""

    lo: np.ndarray
    hi: np.ndarray
    psi_lo: np.ndarray
    psi_hi: np.ndarray


def _log_step(x: np.ndarray, up: bool) -> np.ndarray:
    """np.nextafter(np.log(x), +-inf), bit for bit.  A double's bit pattern
    read as int64 is its sign and magnitude, so one ulp away from zero is +1
    for a positive value and -1 for a negative one; a zero or non-finite
    value, where that step would be wrong, goes through np.nextafter."""
    y = np.log(x)
    if not (np.isfinite(y).all() and y.all()):
        return np.nextafter(y, np.inf if up else -np.inf)
    bits = y.view(np.int64)
    step = bits >> 63
    step |= 1
    if up:
        bits += step
    else:
        bits -= step
    return y


# children per array step of the level kernel and of the density walk: a
# block of rows times the alphabet, small enough for its temporaries to
# stay in cache
_BLOCK = 1 << 13


class BirkhoffTable:
    """Cached per-word psi brackets over F^n, read through one potential,
    and the one entry point for pressure brackets (``bracket``).

    The table stores, for each level n, arrays (psi_lo, psi_hi) of the
    bracket of S_n psi over every word; levels are built in one sweep from
    the root (see the module docstring) and cached, and they do not depend
    on the potential.  A partition sum for the scaled potential s*u is then
    one vectorized log-sum-exp pass over a psi array scaled by s * psi_coef,
    less s * n * const (see ``partition``), which is what the dimension
    search iterates.  Each estimate ``bracket`` returns is kept too, so a
    probe repeated at the same scale, depth and tail rule (every row of a
    spectrum probes the search floor and s = 1, on tables it shares) is
    computed once.  ``additive`` holds the level-1 psi lower end per symbol
    (exact for an affine family; a potential with no psi part reads it at
    factor 0) when the bracket is additive, else None.
    """

    def __init__(self, sys: BranchFamily, pot: Potential, subset,
                 budget: int = DEFAULT_WORD_BUDGET):
        self.sys = sys
        self.symbols = tuple(sorted(set(subset)))
        if not self.symbols:
            raise ValueError("alphabet subset must be nonempty")
        for s in self.symbols:
            sys._check_symbol(s)
        self.budget = budget
        self.pot = pot
        self._levels: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # per (level, end), ``_psi_range``: partition's log-sum-exp shift
        # and the terms of its rounding bound
        self._ranges: dict[tuple[int, int], tuple[float, float, float]] = {}
        # every bracket returned, by (scale, resolved n_max, use_tail, target)
        self._brackets: dict[tuple[float, int, bool, float | None], PressureEstimate] = {}
        self._column = np.array(self.symbols)[:, None]
        self.additive: np.ndarray | None = None
        if pot.psi_coef == 0.0 or sys.is_affine:
            self.additive = np.array([sys.psi_bracket(i)[0] for i in self.symbols])

    @cached_property
    def _max_level(self) -> int:
        """Deepest level whose word count fits the budget (at least 1)."""
        k = len(self.symbols)
        if k == 1:
            raise ValueError("a one-symbol subset has one word at every level, "
                             "so no budget bounds the depth; set n_max")
        n = 1
        while k ** (n + 1) <= self.budget:
            n += 1
        return n

    def level(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(psi_lo, psi_hi) arrays over all words of length n: the bracket of
        S_n psi over each cylinder, whatever the potential (``partition``
        applies it).  The enumeration order is deterministic: one sweep from
        the root keeps every level up to n, child k of frontier word p at
        p*K + k, each block of children copied transposed into its parents'
        rows.  Prepending s_k composes one more outer branch, so the psi sums
        gain -log of the bracket of |phi_s'| over phi_w([0,1]).  An additive
        table has no levels.

        The child intervals are rounded to nearest, so each bracket of
        |phi_s'| is taken over an interval whose ends drift from the exact
        cylinder's; the family's padding covers that drift.  For Gauss
        (u = 2^-53): an end y = 1/(s + x) is rounded twice, within 2u y, and
        inherits the parent's drift times y^2, since each ``apply`` is a
        contraction; y nears 1 only where x nears 0, so the drift stays below
        about 2.3u (measured: 1.3u on {1,2} to depth 14).  A drift d moves
        (j + y)^-2 by at most 2d / (j + y) relative, at most about 3.1u,
        and with ``deriv_bracket``'s own 4u of roundings that stays inside
        the 8u of its _PAD (measured: at least 4.8u of it left on {1,2} to
        depth 14, 1..4 to depth 5, 1..8 to depth 3 and 1..16 to depth 2)."""
        if self.additive is not None:
            raise ValueError("an additive table has no levels: its level n is n times level 1")
        if n in self._levels:
            return self._levels[n]
        if n < 1:
            raise ValueError("level must be at least 1")
        count = len(self.symbols) ** n
        if count > self.budget:
            raise BudgetExceededError("partition", count, self.budget)
        step = max(1, _BLOCK // len(self.symbols))
        f = _Frontier(*(np.array([v]) for v in (0.0, 1.0, 0.0, 0.0)))
        for depth in range(1, n + 1):
            deeper = depth < n
            # the last level needs no child intervals
            nxt = [np.empty((len(f.lo), len(self.symbols))) for _ in range(4 if deeper else 2)]
            for start in range(0, len(f.lo), step):
                rows = slice(start, start + step)
                span = _Frontier(*(a[rows] for a in f))
                blo, bhi = self.sys.deriv_brackets(self._column, span)
                # np.log may differ from the correctly rounded log by an ulp
                parts = (span.psi_lo - _log_step(bhi, True), span.psi_hi - _log_step(blo, False))
                if deeper:
                    parts = self.sys.map_intervals(self._column, span) + parts
                for dst, src in zip(nxt, parts):
                    dst[rows] = src.T
            nxt = [a.ravel() for a in nxt]
            self._levels[depth] = (nxt[-2], nxt[-1])
            if deeper:
                f = _Frontier(*nxt)
        return self._levels[n]

    def _psi_range(self, depth: int, end: int) -> tuple[float, float, float]:
        """Of one end's psi array at a level (an additive table's level 1 at
        depth 1), cached for ``partition``: its min, which sets the shift,
        and the two parts of the rounding bound that depend on the level
        alone, 32 + log2 of its length and the factor of |f|,
        4 (max - min) + depth * max|psi|."""
        psi = self.additive if self.additive is not None else self.level(depth)[end]
        least = float(np.min(psi))
        spread = float(np.max(psi)) - least
        span = self._ranges[depth, end] = (least, 32 + math.log2(len(psi)),
                                           4 * spread + depth * (abs(least) + spread))
        return span

    def partition(self, scale: float, n: int, mode: str) -> float:
        """log sum over F^n of exp(-scale * end) with end the bracket
        endpoint of S_n(u) selected by mode ('sup' -> lower endpoint,
        dominating), by the module's one rule: a log-sum-exp over the psi
        array alone (level n, or an additive table's level 1 taken n times),
        less scale * n * const.  Its shift is m = f * min(psi), f =
        -(scale * psi_coef), since rounding is monotone.

        The result is rounded outward, 'sup' up and 'inf' down, by a bound
        on its roundings to nearest, u the unit roundoff.  Level n's psi
        sums are each rounded n times, so they sit within n u max|psi| of
        their exact values, which moves each exponent by |f| times that.
        The products psi * f and their difference from m move each exponent
        d <= 0 by at most u (4|m| + 3|d|), and |d| <= |f| * (max - min)(psi);
        exp adds at most 4u relative; numpy sums a contiguous array
        pairwise, in blocks of at most 128 terms kept in eight running sums,
        within (25 + log2 K) u relative for K terms.  The log, m, the
        constant scale * (n * const) and the sums of these add u of each;
        the bound takes 8u of each magnitude.  The n-fold product of an
        additive table's level 1 (covers read it; ``bracket`` reads level 1
        alone) is rounded to nearest.  A negative or nan scale raises
        ValueError."""
        if mode not in ("sup", "inf"):
            raise ValueError("mode must be 'sup' or 'inf'")
        if not scale >= 0.0:
            raise ValueError(f"scale must be nonnegative, got {scale!r}")
        end = 0 if mode == "sup" else 1
        if self.additive is not None:
            psi, times, depth = self.additive, n, 1
        else:
            psi, times, depth = self.level(n)[end], 1, n
        least, terms, per_f = self._ranges.get((depth, end)) or self._psi_range(depth, end)
        f = -(scale * self.pot.psi_coef)
        shift = f * least
        lse = _logsumexp(psi * f, shift)
        c = scale * (depth * self.pot.const)
        err = _U * (terms + 8 * (abs(shift) + abs(lse) + c) - f * per_f)
        return times * _outward(lse - c, err, 1.0 if mode == "sup" else -1.0)

    @cached_property
    def _skipped_psi(self) -> list[float]:
        """The family's depth-1 psi lower ends on its symbols outside F (for
        a countable family, those below max F)."""
        chosen = set(self.symbols)
        kmax = self.symbols[-1]
        symbols = self.sys.symbols() if self.sys.finite else itertools.takewhile(
            lambda i: i <= kmax, self.sys.symbols())
        return [self.sys.psi_bracket(i)[0] for i in symbols if i not in chosen]

    def _tail(self, scale: float) -> float:
        """Bound for the depth-1 dominating weight sum beyond F (+inf when
        no closed form applies): the skipped symbols, plus the family's
        closed form beyond max F (0 for a finite family), by the same rule
        as ``partition``."""
        sa = scale * self.pot.psi_coef
        beyond = self.sys.tail_weight_sum(sa, self.symbols[-1])
        return math.exp(-scale * self.pot.const) * (
            beyond + sum(math.exp(-sa * p) for p in self._skipped_psi))

    def bracket(self, scale: float, n_max: int | None = None, use_tail: bool = False,
                target: float | None = None) -> PressureEstimate:
        """Two-sided estimate of P(-scale*u) over the truncation.

        ``n_max`` defaults to the deepest level within the budget.  Without
        ``use_tail`` the upper bound certifies the F-subsystem.  With it the
        upper bound is the depth-1 dominated sum plus the family's
        closed-form tail beyond F, dominating the full alphabet; an infinite
        tail (none known, or a divergent series) sets ``diverged`` and
        upper = +inf.  An additive table reads level 1 alone, whatever n_max
        is: its level n is exactly n times level 1, so level 1 is already
        the bracket.

        Otherwise the bracket is read from the levels 1..n_max by Fekete's
        lemma (the best of the level partitions over n), unless a ``target``
        is given and n_max >= 2: then it is the first cylinder transfer
        matrix bracket, at depth m = 1, 2, ..., n_max - 1, that decides the
        target (see ``PressureEstimate.margins``), below n_max - 1 by at
        least its own width, read from levels m and m + 1 alone.  One that
        still straddles the target at m = n_max - 1 is intersected with the
        Fekete bracket.  A target is ignored with ``use_tail``, on an
        additive table and at n_max = 1.  The estimate is kept, keyed by
        (scale, resolved n_max, use_tail, target), so a repeat returns it
        without touching any level.
        """
        if n_max is None:
            n_max = self._max_level
        if n_max < 1:
            raise ValueError("n_max must be at least 1")
        if use_tail or self.additive is not None or n_max == 1:
            target = None
        key = (scale, n_max, use_tail, target)
        est = self._brackets.get(key)
        if est is None:
            est = self._brackets[key] = (self._fekete(scale, n_max, use_tail) if target is None
                                         else self._climb(scale, n_max, target))
        return est

    def _fekete(self, scale: float, n_max: int, use_tail: bool) -> PressureEstimate:
        """The level bracket: max over n of the dominated partitions / n
        below, and above min over n of the dominating ones / n, or with
        ``use_tail`` the depth-1 dominating sum and the family tail.  A
        quotient by n > 1 is stepped an ulp outward."""
        levels = range(1, 2 if self.additive is not None else n_max + 1)
        if self.additive is None:
            self.level(n_max)  # one sweep builds every level below it too
        lower = max(self._per_level(scale, n, "inf") for n in levels)
        diverged = False
        if not use_tail:
            upper = min(self._per_level(scale, n, "sup") for n in levels)
        else:
            tail = self._tail(scale)
            diverged = not math.isfinite(tail)
            if diverged:
                upper = math.inf
            else:
                z1 = self.partition(scale, 1, "sup")
                upper = float(np.logaddexp(z1, math.log(tail))) if tail > 0.0 else z1
        return PressureEstimate(lower=lower, upper=upper,
                                truncation=(frozenset(self.symbols), n_max), diverged=diverged)

    def _per_level(self, scale: float, n: int, mode: str) -> float:
        z = self.partition(scale, n, mode)
        return z if n == 1 else _outward(z / n, 0.0, 1.0 if mode == "sup" else -1.0)

    def _climb(self, scale: float, n_max: int, target: float) -> PressureEstimate:
        """The first matrix bracket, at depth 1, 2, ..., that decides the
        target; at n_max - 1 one that straddles it is intersected with the
        Fekete bracket of levels 1..n_max.

        Below n_max - 1 a bracket decides only by at least its own width
        (``_decides`` by_width), so that the margin it decides by is at
        least half the exact distance to the target.  The dimension search
        bounds its exponent by chords through these margins, and a chord
        through a bracket that barely decides, with a margin near 0 wherever
        the target is, reaches no further than that probe itself.
        """
        subset = frozenset(self.symbols)
        for m in range(1, n_max):
            last = m == n_max - 1
            lower, upper = self._matrix(scale, m, target, last)
            if _decides(lower, upper, target, by_width=not last):
                return PressureEstimate(lower, upper, (subset, m + 1), matrix_depth=m)
        fek = self._fekete(scale, n_max, False)
        return PressureEstimate(max(lower, fek.lower), min(upper, fek.upper), (subset, n_max),
                                matrix_depth=n_max - 1)

    def _matrix(self, scale: float, m: int, target: float, last: bool) -> tuple[float, float]:
        """Bracket of P(-scale*u) on the F-subsystem from its depth-m cylinder
        transfer matrices (McMullen, Amer. J. Math. 120, 1998).

        State c = c_1..c_m steps to i.c_1..c_{m-1} with the weight
        A(i, c) = exp(-scale * (psi_coef * dpsi(i, c) + const)), dpsi the
        bracket of -log|phi_i'| over cyl(c): child i.c of level m + 1 less c
        of level m, at idx(c) * K + i.  Its lower ends give M_sup and its
        upper ends M_inf, and chaining the weights along a word gives
        log rho(M_inf) <= P <= log rho(M_sup).  For any positive x,
        Collatz-Wielandt gives min(Mx/x) <= rho(M) <= max(Mx/x), so x comes
        from a plain power iteration of each matrix, started at the level-m
        weights, and only the roundings of the bounds are padded: each
        weight by its exponent's roundings, dpsi's subtraction included,
        and exp's, the K-term row sums and their quotient by (K+3)u relative,
        and the logs by an ulp.  The iteration stops once the two
        Collatz-Wielandt gaps sum to at most 2^-10 of the inner width
        log min(M_sup x/x) - log max(M_inf x/x) (or 2^-40), or after
        _POWER_STEPS, so that the bracket is a continuous function of the
        scale up to that gap; at the ``last`` depth also at the first step
        whose bounds decide the target, and below it once the inner bounds,
        which the converged bracket contains, show that it cannot decide the
        target by its width.
        Weights below _TINY_WEIGHT, whose products could leave the normal
        range, give no bracket, (-inf, inf).  Row 0 of every stacked array
        belongs to M_sup and row 1 to M_inf, and ``out`` steps each row
        outward: M_sup's weights up and M_inf's down.
        """
        k = len(self.symbols)
        f = -(scale * self.pot.psi_coef)
        g = -(scale * self.pot.const)
        out = np.array([[[1.0]], [[-1.0]]])
        parent = np.stack(self.level(m))[:, None, :]
        child = np.stack(self.level(m + 1)).reshape(2, -1, k).transpose(0, 2, 1)
        a = f * (child - parent)
        w = np.exp(a + g)
        # child - parent rounds by at most 2u of |child| + |parent|, which
        # moves the exponent by |f| times that; f, a and a + g round by at
        # most u of |a| + |g| each, exp by 4u; 4u of each term leaves room
        # for the second-order terms (the exponent's error is far below 1)
        err = 1.0 + np.abs(a) + abs(g) + abs(f) * (np.abs(child) + np.abs(parent))
        w = _outward(w, 4 * _U * err * w, out)
        if w[1].min() < _TINY_WEIGHT:
            return -math.inf, math.inf
        w = w.reshape(2, k, k, -1)
        x = np.maximum(np.exp(f * (parent[:, 0] - parent[:, 0].min(axis=1, keepdims=True))),
                       _TINY_WEIGHT)
        # the K-term row sums and their quotient by x; then the log
        rel = (k + 3) * _U

        def bounds() -> tuple[float, float]:
            lower, upper = math.log(inf_lo), math.log(sup_hi)
            return (_outward(lower, rel + 2 * _U * abs(lower), -1.0),
                    _outward(upper, rel + 2 * _U * abs(upper), 1.0))

        for _ in range(_POWER_STEPS):
            y = np.einsum("eijr,ejr->eri", w, x.reshape(2, k, -1)).reshape(2, -1)
            r = y / x
            lo, hi = r.min(axis=1), r.max(axis=1)
            x = np.maximum(y / hi[:, None], _TINY_WEIGHT)
            (sup_lo, inf_lo), (sup_hi, inf_hi) = lo.tolist(), hi.tolist()
            inner_lo, inner_hi = math.log(inf_hi), math.log(sup_lo)
            if last:
                if _decides(*bounds(), target):
                    break
            elif (inner_lo - target < inner_hi - inner_lo
                  and target - inner_hi < inner_hi - inner_lo):
                break
            gap = math.log(sup_hi / sup_lo) + math.log(inf_hi / inf_lo)
            if gap <= 2.0 ** -10 * max(inner_hi - inner_lo, 2.0 ** -30):
                break
        return bounds()


# power iteration steps per matrix bracket at most, and the least weight and
# vector entry it admits: products of two stay normal doubles
_POWER_STEPS = 200
_TINY_WEIGHT = 2.0 ** -500


def pressure_bracket(sys: BranchFamily, pot: Potential, subset,
                     n_max: int | None = None, use_tail: bool = False,
                     budget: int = DEFAULT_WORD_BUDGET) -> PressureEstimate:
    """Two-sided truncated estimate of P(-pot) over the finite subset.

    The lower bound is the best Fekete (supermultiplicative) level value of
    the dominated sums, valid for the full system.  Without a tail the upper
    bound is the best submultiplicative level value of the dominating sums
    and certifies the F-subsystem; ``use_tail`` adds the branch family's
    closed-form tail to dominate the full countable alphabet, at the price
    of a depth-1 upper bound (see ``BirkhoffTable.bracket``).
    """
    table = BirkhoffTable(sys, pot, subset, budget=budget)
    return table.bracket(1.0, n_max=n_max, use_tail=use_tail)
