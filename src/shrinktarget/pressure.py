"""Birkhoff-sum brackets and two-sided truncated pressure estimates.

Potentials are nonnegative expression trees over the log-derivative
psi = log|T'|, constants, scalings and sums, so each one flattens to
psi_coef * psi + const with finite coefficients.
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
the same arrays for every potential, and ``partition`` applies the
potential, psi_coef times those sums plus the level's sum of const.  A
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
sums are rounded to nearest.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .systems import (
    BudgetExceededError,
    DEFAULT_WORD_BUDGET,
    MarkovSystem,
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


class Potential:
    """Base class for nonnegative potentials evaluated as cylinder brackets."""


@dataclass(frozen=True)
class LogDerivative(Potential):
    """The distinguished geometric potential psi = log|T'|."""


@dataclass(frozen=True)
class Constant(Potential):
    value: float

    def __post_init__(self):
        if self.value < 0.0:
            raise ValueError("constant potentials must be nonnegative")


@dataclass(frozen=True)
class Scale(Potential):
    factor: float
    inner: Potential

    def __post_init__(self):
        if self.factor < 0.0:
            raise ValueError("scale factors must be nonnegative")


@dataclass(frozen=True)
class Sum(Potential):
    left: Potential
    right: Potential


@dataclass(frozen=True)
class _Flat:
    """Flattened potential psi_coef * psi + const in Python floats, whose
    products overflow to inf without a numpy warning.  A coefficient that
    is not finite (an overflowed scale or sum, a nan) raises ValueError."""

    psi_coef: float
    const: float

    def __post_init__(self):
        if not (math.isfinite(self.psi_coef) and math.isfinite(self.const)):
            raise ValueError(f"potential flattens to {self.psi_coef!r} * psi + "
                             f"{self.const!r}; both coefficients must be finite")


def _flatten(pot: Potential, scale: float = 1.0) -> _Flat:
    if isinstance(pot, LogDerivative):
        return _Flat(scale, 0.0)
    if isinstance(pot, Constant):
        return _Flat(0.0, scale * float(pot.value))
    if isinstance(pot, Scale):
        return _flatten(pot.inner, scale * float(pot.factor))
    if isinstance(pot, Sum):
        a = _flatten(pot.left, scale)
        b = _flatten(pot.right, scale)
        return _Flat(a.psi_coef + b.psi_coef, a.const + b.const)
    raise TypeError(f"unknown potential node {pot!r}")


def _birkhoff_fold(sys: MarkovSystem, pot: Potential,
                   word: Iterable[int]) -> Iterator[tuple[float, float]]:
    """Brackets of S_n(pot) over the cylinders of the first n symbols of the
    word, for n = 1, 2, ..., one symbol read per step.

    Each is n * const plus psi_coef times the psi bracket of one family
    composer advanced by one ``child`` per symbol, all rounded to nearest
    (``_fold_rounding`` bounds the error).  A symbol outside the alphabet
    raises ValueError when it is read, unless the potential reads no
    symbols (a constant).
    """
    flat = _flatten(pot)
    fam = sys.branches
    comp = fam.composer()
    for n, s in enumerate(word, 1):
        lo = hi = n * flat.const
        if flat.psi_coef != 0.0:
            fam._check_symbol(s)
            comp = comp.child(s)
            plo, phi_ = comp.geometry()[3]
            lo += flat.psi_coef * plo
            hi += flat.psi_coef * phi_
        yield lo, hi


def _nodes(pot: Potential) -> int:
    """Number of nodes of the potential's expression tree."""
    if isinstance(pot, Scale):
        return 1 + _nodes(pot.inner)
    if isinstance(pot, Sum):
        return 1 + _nodes(pot.left) + _nodes(pot.right)
    return 1


def _fold_rounding(pot: Potential) -> float:
    """Relative bound on the roundings to nearest that ``_birkhoff_fold``
    leaves unpadded: ``_flatten``'s products and sums of scales and
    constants (at most one per node of the potential on any term's path),
    then n * const, psi_coef * psi and their sum.  Every term is
    nonnegative, so k such roundings move a bracket end by less than 2 k u
    of itself (u = 2^-53) while k u is small; the bound keeps one spare
    rounding beyond those."""
    return (_nodes(pot) + 3) * 2.0 ** -52


def _pad_fold(lo, hi, rel: float):
    """Fold bracket ends (floats or arrays) stepped outward by the relative
    rounding bound ``rel`` and then one ulp, for that step's own rounding.
    A fold that overflowed to +inf keeps its ends: its lower step is capped
    at the largest double, so inf - inf never makes a nan, and an upper end
    that overflows is +inf, an outward rounding."""
    with np.errstate(over="ignore"):
        return (np.nextafter(lo - np.minimum(rel * np.abs(lo), np.finfo(float).max), -np.inf),
                np.nextafter(hi + rel * hi, np.inf))


def birkhoff_bracket(sys: MarkovSystem, pot: Potential, word: Word) -> tuple[float, float]:
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
    """Two-sided truncated pressure bracket for P(-u) at truncation (F, n)."""

    lower: float
    upper: float
    truncation: tuple[frozenset[int], int]
    diverged: bool = False

    def __post_init__(self):
        if math.isfinite(self.lower) and math.isfinite(self.upper):
            if self.lower > self.upper + 1e-12:
                raise ValueError(f"invalid pressure bracket [{self.lower}, {self.upper}]")


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


def _log_up(x: np.ndarray) -> np.ndarray:
    # np.log may differ from the correctly rounded log by an ulp
    return _log_step(x, True)


def _log_down(x: np.ndarray) -> np.ndarray:
    return _log_step(x, False)


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
    on the potential.  Partition sums for the scaled potential s*u are then
    single vectorized log-sum-exp passes over psi_coef * psi + const, which
    is what the dimension search iterates.  Each estimate ``bracket``
    returns is kept too, so a probe repeated at the same scale, depth and
    tail rule (every row of a spectrum probes the search floor and s = 1, on
    tables it shares) is computed once.  ``additive`` holds the level-1 ends
    (lower and upper alike), const + psi_coef * psi per symbol, when the
    bracket is additive (no psi part, or an affine family), else None.
    """

    def __init__(self, sys: MarkovSystem, pot: Potential, subset,
                 budget: int = DEFAULT_WORD_BUDGET):
        self.sys = sys
        self.symbols = tuple(sorted(set(subset)))
        if not self.symbols:
            raise ValueError("alphabet subset must be nonempty")
        fam = sys.branches
        for s in self.symbols:
            fam._check_symbol(s)
        self.budget = budget
        self._flat = _flatten(pot)
        self._levels: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # smallest end per (level, end), the log-sum-exp shift of partition
        self._least: dict[tuple[int, int], float] = {}
        # every bracket returned, by (scale, resolved n_max, use_tail)
        self._brackets: dict[tuple[float, int, bool], PressureEstimate] = {}
        self._column = np.array(self.symbols)[:, None]
        self.additive: np.ndarray | None = None
        pc = self._flat.psi_coef
        if pc == 0.0 or fam.is_affine:
            self.additive = self._ends([fam.psi_bracket(i)[0] if pc else 0.0
                                        for i in self.symbols])

    def _ends(self, psi: list[float]) -> np.ndarray:
        """const + psi_coef * psi, elementwise, rounded as floats are."""
        return self._flat.const + self._flat.psi_coef * np.array(psi)

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
        table has no levels."""
        if self.additive is not None:
            raise ValueError("an additive table has no levels: its level n is n times level 1")
        if n in self._levels:
            return self._levels[n]
        if n < 1:
            raise ValueError("level must be at least 1")
        count = len(self.symbols) ** n
        if count > self.budget:
            raise BudgetExceededError("partition", count, self.budget)
        fam = self.sys.branches
        step = max(1, _BLOCK // len(self.symbols))
        f = _Frontier(*(np.array([v]) for v in (0.0, 1.0, 0.0, 0.0)))
        for depth in range(1, n + 1):
            deeper = depth < n
            # the last level needs no child intervals
            nxt = [np.empty((len(f.lo), len(self.symbols))) for _ in range(4 if deeper else 2)]
            for start in range(0, len(f.lo), step):
                rows = slice(start, start + step)
                span = _Frontier(*(a[rows] for a in f))
                blo, bhi = fam.deriv_brackets(self._column, span)
                parts = (span.psi_lo - _log_up(bhi), span.psi_hi - _log_down(blo))
                if deeper:
                    parts = fam.map_intervals(self._column, span) + parts
                for dst, src in zip(nxt, parts):
                    dst[rows] = src.T
            nxt = [a.ravel() for a in nxt]
            self._levels[depth] = (nxt[-2], nxt[-1])
            if deeper:
                f = _Frontier(*nxt)
        return self._levels[n]

    def partition(self, scale: float, n: int, mode: str) -> float:
        """log sum over F^n of exp(-scale * end) with end the bracket
        endpoint selected by mode ('sup' -> lower endpoint, dominating).

        A level's ends are psi_coef times its psi sums plus the level's sum
        of const, added one symbol at a time from 0.0; they are formed in
        this call's one temporary, which is then scaled in place.  A factor
        1 or a term 0 is not applied: skipping it changes at most the sign
        of a zero end, and a zero of either sign gives the same shifted
        exponential and the same result.  The
        log-sum-exp shift max(-scale * end) is -scale * min(end) for
        scale > 0, since rounding is monotone; min(end) is cached per level
        and end."""
        if mode not in ("sup", "inf"):
            raise ValueError("mode must be 'sup' or 'inf'")
        end = 0 if mode == "sup" else 1
        if self.additive is not None:
            ends, temp, times, key = self.additive, None, n, (1, end)
        else:
            psi = self.level(n)[end]
            pc, add = self._flat.psi_coef, 0.0
            for _ in range(n):
                add += self._flat.const
            ends = psi if pc == 1.0 else np.multiply(psi, pc)
            if add != 0.0:
                ends = np.add(ends, add, out=None if ends is psi else ends)
            temp = None if ends is psi else ends
            times, key = 1, (n, end)
        if scale > 0.0:
            least = self._least.get(key)
            if least is None:
                least = self._least[key] = float(np.min(ends))
            m = -scale * least
        arr = np.multiply(ends, -scale, out=temp)
        if scale <= 0.0:
            m = float(np.max(arr))
        return times * _logsumexp(arr, m)

    @cached_property
    def _skipped_ends(self) -> list[float]:
        """Lower bracket ends of the potential on the family's symbols
        outside F (for a countable family, those below max F), each with
        the family's depth-1 psi bracket."""
        fam = self.sys.branches
        chosen = set(self.symbols)
        kmax = self.symbols[-1]
        symbols = fam.symbols() if fam.finite else itertools.takewhile(
            lambda i: i <= kmax, fam.symbols())
        return self._ends([fam.psi_bracket(i)[0] for i in symbols if i not in chosen]).tolist()

    def _tail(self, scale: float) -> float:
        """Bound for the depth-1 dominating weight sum beyond F (+inf when
        no closed form applies): the skipped symbols, plus the family's
        closed form beyond max F (0 for a finite family)."""
        ends = self._skipped_ends
        beyond = self.sys.branches.tail_weight_sum(scale * self._flat.psi_coef,
                                                   self.symbols[-1])
        return (beyond * math.exp(-scale * self._flat.const)
                + sum(math.exp(-scale * e) for e in ends))

    def bracket(self, scale: float, n_max: int | None = None,
                use_tail: bool = False) -> PressureEstimate:
        """Two-sided estimate of P(-scale*u) over the truncation.

        ``n_max`` defaults to the deepest level within the budget.  Without
        ``use_tail`` the upper bound certifies the F-subsystem, and deeper
        levels sharpen it by submultiplicativity.  With it the upper bound
        is the depth-1 dominated sum plus the family's closed-form tail
        beyond F, dominating the full alphabet; an infinite tail (none
        known, or a divergent series) sets ``diverged`` and upper = +inf.
        An additive table reads level 1 alone, whatever n_max is: its level
        n is exactly n times level 1, so level 1 is already the bracket.
        The estimate is kept, keyed by (scale, resolved n_max, use_tail), so
        a repeat returns it without touching any level.
        """
        if n_max is None:
            n_max = self._max_level
        if n_max < 1:
            raise ValueError("n_max must be at least 1")
        key = (scale, n_max, use_tail)
        est = self._brackets.get(key)
        if est is not None:
            return est
        levels = range(1, 2 if self.additive is not None else n_max + 1)
        if self.additive is None:
            self.level(n_max)  # one sweep builds every level below it too
        lower = max(self.partition(scale, n, "inf") / n for n in levels)
        diverged = False
        if not use_tail:
            upper = min(self.partition(scale, n, "sup") / n for n in levels)
        else:
            tail = self._tail(scale)
            diverged = not math.isfinite(tail)
            if diverged:
                upper = math.inf
            else:
                z1 = self.partition(scale, 1, "sup")
                upper = float(np.logaddexp(z1, math.log(tail))) if tail > 0.0 else z1
        est = self._brackets[key] = PressureEstimate(
            lower=lower, upper=upper, truncation=(frozenset(self.symbols), n_max),
            diverged=diverged)
        return est


def pressure_bracket(sys: MarkovSystem, pot: Potential, subset,
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
