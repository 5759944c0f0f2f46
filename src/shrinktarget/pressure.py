"""Birkhoff-sum brackets and two-sided truncated pressure estimates.

Potentials are nonnegative expression trees over the log-derivative
psi = log|T'|, constants, scalings and sums, plus raw per-symbol brackets.
The sign convention is fixed here once: partition sums always receive the
already-negated exponent, i.e. for a nonnegative potential u the weights are
exp(-end) with `end` an endpoint of the Birkhoff bracket of S_n(u).  The
"sup" mode uses the lower endpoint (a dominating sum, giving upper pressure
bounds); the "inf" mode uses the upper endpoint (a dominated sum, giving
Fekete lower bounds for a pressure of the form P(-u)).

Affine systems factor symbolwise and never enumerate words: the level-n
partition sum of such an additive table is n times level 1, so a pressure
bracket takes one log-sum-exp per mode, whatever its depth.  For the other
families ``BirkhoffTable`` builds level n+1 from level n: a word of length
n+1 is a word w of length n with one more outer branch s prepended, whose
cylinder is phi_s(phi_w([0,1])).  One array step per symbol maps the
intervals of every word at once to their children, adds -log of the bracket
of |phi_s'| over each interval to the psi sums and adds the symbol's constant
and table part to the additive sums; children are laid out parent-major, so
the words come out in one fixed order.  Only the frontier one level behind
the deepest cached level is kept (intervals and running sums); going one
level deeper re-advances it once, at most 1/K of that level's work, and
writes the new level's endpoints straight from the per-symbol sums, so no
interval array of the deepest level is ever held.  Each log is padded one
ulp outward with np.nextafter, because np.log may sit an ulp away from the
correctly rounded value; the running sums are rounded to nearest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Mapping, NamedTuple

import numpy as np

from .systems import (
    BudgetExceededError,
    DEFAULT_WORD_BUDGET,
    Interval,
    MarkovSystem,
    Word,
    cylinder,
)

__all__ = [
    "Potential",
    "LogDerivative",
    "Constant",
    "Scale",
    "Sum",
    "PerSymbolBracket",
    "PressureEstimate",
    "BirkhoffTable",
    "birkhoff_bracket",
    "partition_sum",
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
class PerSymbolBracket(Potential):
    """Potential known only through per-branch [inf, sup] brackets.

    ``table`` maps a symbol to the bracket of the potential over that branch
    domain.
    """

    table: Callable[[int], tuple[float, float]]

    @staticmethod
    def from_mapping(entries: Mapping[int, tuple[float, float]]) -> "PerSymbolBracket":
        data = dict(entries)
        for i, (lo, hi) in data.items():
            if not (0.0 <= lo <= hi):
                raise ValueError(f"bracket for symbol {i} must satisfy 0 <= lo <= hi")
        return PerSymbolBracket(table=lambda i: data[i])


@dataclass(frozen=True)
class _Flat:
    """Flattened potential: psi_coef * psi + const + sum of scaled tables."""

    psi_coef: float
    const: float
    tables: tuple[tuple[float, Callable[[int], tuple[float, float]]], ...]


def _flatten(pot: Potential, scale: float = 1.0) -> _Flat:
    if isinstance(pot, LogDerivative):
        return _Flat(scale, 0.0, ())
    if isinstance(pot, Constant):
        return _Flat(0.0, scale * pot.value, ())
    if isinstance(pot, Scale):
        return _flatten(pot.inner, scale * pot.factor)
    if isinstance(pot, Sum):
        a = _flatten(pot.left, scale)
        b = _flatten(pot.right, scale)
        return _Flat(a.psi_coef + b.psi_coef, a.const + b.const, a.tables + b.tables)
    if isinstance(pot, PerSymbolBracket):
        return _Flat(0.0, 0.0, ((scale, pot.table),))
    raise TypeError(f"unknown potential node {pot!r}")


def _symbol_ends(flat: _Flat, i: int, psi: float = 0.0) -> tuple[float, float]:
    """Bracket ends of the flattened potential on symbol i: the constant,
    then psi_coef * psi, then the tables.  psi = 0.0 leaves the additive
    (constant and table) part alone, since const + psi_coef * 0.0 == const."""
    lo = flat.const + flat.psi_coef * psi
    hi = lo
    for sc, table in flat.tables:
        tlo, thi = table(i)
        lo += sc * tlo
        hi += sc * thi
    return (lo, hi)


def _per_symbol_psi_lo(sys: MarkovSystem, i: int) -> float:
    """Lower endpoint of the psi bracket over branch i (depth 1)."""
    lr = sys.branches.log_deriv_point(i)
    if lr is not None:
        return -lr
    dlo, dhi = sys.branches.deriv_bracket(i, Interval(0.0, 1.0))
    return -math.nextafter(math.log(dhi), math.inf)


def birkhoff_bracket(sys: MarkovSystem, pot: Potential, word: Word) -> tuple[float, float]:
    """Interval containing the range of S_n(pot) over the cylinder of the word.

    For the log-derivative the bracket is the cylinder's psi bracket, which
    the family's composer computes (exact per-symbol logs for affine
    families, continuants for Gauss); sums and scalings combine by interval
    arithmetic.  A symbol outside the alphabet raises ValueError wherever
    the potential reads the symbols (a constant potential reads none).
    """
    if not word:
        raise ValueError("word must be nonempty")
    flat = _flatten(pot)
    if flat.psi_coef != 0.0 or flat.tables:
        for s in word:
            sys.branches._check_symbol(s)
    n = len(word)
    lo = hi = n * flat.const
    if flat.psi_coef != 0.0:
        plo, phi_ = cylinder(sys, word).psi_bracket
        lo += flat.psi_coef * plo
        hi += flat.psi_coef * phi_
    for sc, table in flat.tables:
        for s in word:
            tlo, thi = table(s)
            lo += sc * tlo
            hi += sc * thi
    return (lo, hi)


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


def _logsumexp(arr: np.ndarray) -> float:
    m = float(np.max(arr))
    if not math.isfinite(m):
        return m
    return m + math.log(float(np.sum(np.exp(arr - m))))


class _Frontier(NamedTuple):
    """Every word w of one level, in enumeration order: the cylinder
    phi_w([0,1]) as [lo, hi] and the running sums behind the bracket of
    S_n(u), psi sums apart from the additive (constant and table) sums."""

    lo: np.ndarray
    hi: np.ndarray
    psi_lo: np.ndarray
    psi_hi: np.ndarray
    add_lo: np.ndarray
    add_hi: np.ndarray


def _log_up(x: np.ndarray) -> np.ndarray:
    # np.log may differ from the correctly rounded log by an ulp
    return np.nextafter(np.log(x), np.inf)


def _log_down(x: np.ndarray) -> np.ndarray:
    return np.nextafter(np.log(x), -np.inf)


def _deriv_brackets(fam, s: int, f: _Frontier) -> tuple[np.ndarray, np.ndarray]:
    """Bracket of |phi_s'| over each frontier interval: one call with the
    frontier's arrays as the interval when the family is array-safe, one
    call per interval otherwise."""
    if fam.array_safe:
        return fam.deriv_bracket(s, f)
    ends = [fam.deriv_bracket(s, Interval(lo, hi))
            for lo, hi in zip(f.lo.tolist(), f.hi.tolist())]
    blo, bhi = np.array(ends, dtype=float).reshape(-1, 2).T
    return blo, bhi


def _images(fam, s: int, x: np.ndarray) -> np.ndarray:
    """phi_s at each point of x, elementwise unless the family is array-safe."""
    if fam.array_safe:
        return fam.apply(s, x)
    return np.array([fam.apply(s, v) for v in x.tolist()], dtype=float)


class BirkhoffTable:
    """Cached per-word Birkhoff bracket endpoints over F^n for one potential.

    The table stores, for each level n, arrays (c_lo, c_hi) of bracket
    endpoints of S_n(u) over every word; levels are built incrementally
    (see the module docstring) and cached.  Partition sums for the scaled
    potential s*u are then single vectorized log-sum-exp passes, which is
    what dimension bisections iterate.
    """

    def __init__(self, sys: MarkovSystem, pot: Potential, subset,
                 budget: int = DEFAULT_WORD_BUDGET):
        self.sys = sys
        self.pot = pot
        self.symbols = tuple(sorted(set(subset)))
        if not self.symbols:
            raise ValueError("alphabet subset must be nonempty")
        for s in self.symbols:
            sys.branches._check_symbol(s)
        self.budget = budget
        self.flat = _flatten(pot)
        self._levels: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # interval frontier one level behind the deepest cached level
        self._frontier = _Frontier(*(np.array([v]) for v in (0.0, 1.0, 0.0, 0.0, 0.0, 0.0)))
        # per-symbol additive part (constant plus tables) of the level sums
        base = [_symbol_ends(self.flat, i) for i in self.symbols]
        self._base_lo = [lo for lo, _ in base]
        self._base_hi = [hi for _, hi in base]
        # the whole bracket is additive when psi is absent or exact per symbol
        self.additive: tuple[np.ndarray, np.ndarray] | None = None
        log_ds = [sys.branches.log_deriv_point(i) for i in self.symbols]
        if self.flat.psi_coef == 0.0:
            self.additive = (np.array(self._base_lo), np.array(self._base_hi))
        elif None not in log_ds:
            ends = [_symbol_ends(self.flat, i, -lr) for i, lr in zip(self.symbols, log_ds)]
            self.additive = (np.array([lo for lo, _ in ends]),
                             np.array([hi for _, hi in ends]))

    def max_level(self) -> int:
        """Deepest level whose word count fits the budget (at least 1)."""
        return self._max_level

    @cached_property
    def _max_level(self) -> int:
        k = len(self.symbols)
        if k == 1:
            raise ValueError("a one-symbol subset has one word at every level, "
                             "so no budget bounds the depth; set n_max")
        n = 1
        while k ** (n + 1) <= self.budget:
            n += 1
        return n

    def level(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(c_lo, c_hi) arrays over all words of length n (enumeration order
        is deterministic)."""
        if n in self._levels:
            return self._levels[n]
        if n < 1:
            raise ValueError("level must be at least 1")
        count = len(self.symbols) ** n
        if count > self.budget:
            raise BudgetExceededError("partition", count, self.budget)
        while len(self._levels) < n:
            depth = len(self._levels)
            if depth:
                self._frontier = self._advance(self._frontier)
            self._levels[depth + 1] = self._enumerate_level(self._frontier)
        return self._levels[n]

    def _child_sums(self, f: _Frontier):
        """Per symbol s_k, the running sums of the words s_k w for every
        frontier word w, as (k, psi_lo, psi_hi, add_lo, add_hi) with arrays
        over the frontier.  Prepending s_k composes one more outer branch,
        so the psi sums gain -log of the bracket of |phi_s'| over phi_w([0,1])."""
        fam = self.sys.branches
        for k, s in enumerate(self.symbols):
            blo, bhi = _deriv_brackets(fam, s, f)
            yield (k, f.psi_lo - _log_up(bhi), f.psi_hi - _log_down(blo),
                   f.add_lo + self._base_lo[k], f.add_hi + self._base_hi[k])

    def _advance(self, f: _Frontier) -> _Frontier:
        """The frontier one level deeper: child k of parent p sits at p*K + k."""
        fam = self.sys.branches
        shape = (len(f.lo), len(self.symbols))
        out = _Frontier(*(np.empty(shape) for _ in _Frontier._fields))
        for k, psi_lo, psi_hi, add_lo, add_hi in self._child_sums(f):
            a = _images(fam, self.symbols[k], f.lo)
            b = _images(fam, self.symbols[k], f.hi)
            out.lo[:, k] = np.minimum(a, b)
            out.hi[:, k] = np.maximum(a, b)
            out.psi_lo[:, k] = psi_lo
            out.psi_hi[:, k] = psi_hi
            out.add_lo[:, k] = add_lo
            out.add_hi[:, k] = add_hi
        return _Frontier(*(a.ravel() for a in out))

    def _enumerate_level(self, f: _Frontier) -> tuple[np.ndarray, np.ndarray]:
        """(c_lo, c_hi) over the children of every frontier word, in the
        order of _advance; no child interval is kept."""
        shape = (len(f.lo), len(self.symbols))
        c_lo = np.empty(shape)
        c_hi = np.empty(shape)
        pc = self.flat.psi_coef
        for k, psi_lo, psi_hi, add_lo, add_hi in self._child_sums(f):
            c_lo[:, k] = pc * psi_lo + add_lo
            c_hi[:, k] = pc * psi_hi + add_hi
        return (c_lo.ravel(), c_hi.ravel())

    def partition(self, scale: float, n: int, mode: str) -> float:
        """log sum over F^n of exp(-scale * end) with end the bracket
        endpoint selected by mode ('sup' -> lower endpoint, dominating)."""
        if mode not in ("sup", "inf"):
            raise ValueError("mode must be 'sup' or 'inf'")
        if self.additive is not None:
            lo1, hi1 = self.additive
            c = lo1 if mode == "sup" else hi1
            return n * _logsumexp(-scale * c)
        c_lo, c_hi = self.level(n)
        c = c_lo if mode == "sup" else c_hi
        return _logsumexp(-scale * c)

    def tail_rule(self) -> Callable[[float], float] | None:
        """Bound for the depth-1 dominating weight sum beyond F, as a
        function of the overall scale; None when no closed form applies."""
        return self._tail_rule

    @cached_property
    def _tail_rule(self) -> Callable[[float], float] | None:
        fam = self.sys.branches
        chosen = set(self.symbols)
        if fam.finite:
            skipped = [i for i in fam.symbols() if i not in chosen]
        elif self.flat.tables:
            return None  # no closed form joins a raw table with the family tail
        else:
            kmax = max(self.symbols)
            skipped = [i for i in _family_symbols_upto(fam, kmax) if i not in chosen]
        ends = [_symbol_ends(self.flat, i, _per_symbol_psi_lo(self.sys, i))[0]
                for i in skipped]
        if fam.finite:
            return lambda scale: sum((math.exp(-scale * e) for e in ends), 0.0)
        a = self.flat.psi_coef
        b = self.flat.const

        def rule(scale: float) -> float:
            tail = fam.tail_weight_sum(scale * a, kmax) * math.exp(-scale * b)
            return tail + sum(math.exp(-scale * e) for e in ends)

        return rule

    def bracket(self, scale: float, n_max: int | None = None,
                tail: float | None = None) -> PressureEstimate:
        """Two-sided estimate of P(-scale*u) over the truncation.

        ``tail``: certified bound for the depth-1 dominating weight sum of
        the alphabet beyond F (None for subsystem semantics).  With a tail
        the upper bound is the depth-1 dominated sum; without it, deeper
        levels sharpen the upper bound by submultiplicativity.  An additive
        table reads level 1 alone, whatever n_max is: its level n is exactly
        n times level 1, so level 1 is already the pressure bracket.
        """
        if n_max is None:
            n_max = self.max_level()
        if n_max < 1:
            raise ValueError("n_max must be at least 1")
        levels = range(1, 2 if self.additive is not None else n_max + 1)
        lower = max(self.partition(scale, n, "inf") / n for n in levels)
        if tail is None:
            upper = min(self.partition(scale, n, "sup") / n for n in levels)
            diverged = False
        else:
            diverged = not math.isfinite(tail)
            if diverged:
                upper = math.inf
            else:
                z1 = self.partition(scale, 1, "sup")
                upper = np.logaddexp(z1, math.log(tail)) if tail > 0.0 else z1
                upper = float(upper)
        return PressureEstimate(lower=lower, upper=upper,
                                truncation=(frozenset(self.symbols), n_max),
                                diverged=diverged)


def _family_symbols_upto(fam, kmax: int) -> Iterator[int]:
    for i in fam.symbols():
        if i > kmax:
            return
        yield i


def partition_sum(sys: MarkovSystem, pot: Potential, subset, n: int, mode: str,
                  budget: int = DEFAULT_WORD_BUDGET) -> float:
    """log sum_{w in F^n} exp(-end_w) with end_w the Birkhoff bracket
    endpoint of S_n(pot) selected by mode; log-sum-exp stabilized.

    'sup' selects the lower endpoint (dominating weights, the sum behind
    upper pressure bounds); 'inf' the upper endpoint.
    """
    table = BirkhoffTable(sys, pot, subset, budget=budget)
    return table.partition(1.0, n, mode)


def pressure_bracket(sys: MarkovSystem, pot: Potential, subset,
                     n_max: int | None = None,
                     tail: float | str | None = None,
                     budget: int = DEFAULT_WORD_BUDGET) -> PressureEstimate:
    """Two-sided truncated estimate of P(-pot) over the finite subset.

    The lower bound is the best Fekete (supermultiplicative) level value of
    the dominated sums, valid for the full system.  Without a tail the upper
    bound is the best submultiplicative level value of the dominating sums
    and certifies the F-subsystem; pass ``tail="family"`` (closed form from
    the branch family) or an explicit beyond-F bound to dominate the full
    countable alphabet, at the price of a depth-1 upper bound.  An infinite
    tail sets ``diverged`` and upper = +inf; finite-F lower bounds remain
    valid.
    """
    table = BirkhoffTable(sys, pot, subset, budget=budget)
    tail_value: float | None
    if tail == "family":
        rule = table.tail_rule()
        tail_value = math.inf if rule is None else rule(1.0)
    elif tail is None:
        tail_value = None
    else:
        tail_value = float(tail)
    return table.bracket(1.0, n_max=n_max, tail=tail_value)
