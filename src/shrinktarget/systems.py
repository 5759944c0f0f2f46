"""Expanding interval maps through their inverse-branch function systems.

A system is its family of contracting inverse branches, indexed by a finite
or countable alphabet of positive integers (1-based).  Compositions of
branches over finite symbol words give nested cylinder intervals; this
module provides their geometry.  The families are finite affine, countable
affine and Gauss; each derives its own expansion constant ``xi``.

Each family owns its geometry.  A cylinder is read from the family's
forward composer, extended one symbol at a time in word order, as two
things: its interval (``interval()``, which ``cylinder`` returns) and the
bracket of S_n psi = -log|phi_w'| over [0,1] (``psi()``), the one place its
contraction is kept.  Affine families keep the running interval and the sum
of -log ratios, both read from ``affine_terms``, so their psi brackets are
exact points.  The Gauss family keeps the exact integer continuants of
phi_w(t) = (p_n + t p_{n-1}) / (q_n + t q_{n-1}): correctly rounded
endpoints, and |phi_w'| in [1/(q_n + q_{n-1})^2, 1/q_n^2], whose -log ends
are rounded outward.  ``psi_bracket(i)`` is the depth-1 psi bracket of a
symbol.

Composers also extend whole levels for tree walks.  ``level()`` gives a
cylinder as a one-cylinder level: a tuple of numpy columns of composer state,
one row per cylinder.  ``level_children(level, column)`` takes a (K, 1)
column of symbols and a block of C level rows and returns the children of
every row in one broadcast step, as symbol-major (K, C) arrays: their
intervals ``lo`` and ``hi`` and their level columns.  Gauss continuants are
int64 below 2^53 and Python ints past it.  The Gauss composer also gives
``boundaries(level, column)``, the ends that neighbouring children share,
so that a run of children of consecutive symbols is read from its two
outer ends; affine composers set ``boundaries`` to None.

Gauss, the one non-affine family, also gives the array step of the pressure
level kernel: ``map_intervals`` and ``deriv_brackets`` take a (K, 1) column
of symbols and a block of C frontier intervals, and broadcast its pointwise
``apply`` and ``deriv_bracket`` to symbol-major (K, C) results.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "Word",
    "Interval",
    "BranchFamily",
    "AffineFamily",
    "AffineCountableFamily",
    "GaussFamily",
    "BudgetExceededError",
    "cylinder",
    "forward_composer",
    "doubling_map",
    "affine_system",
    "geometric_system",
    "gauss_system",
    "DEFAULT_WORD_BUDGET",
]

Word = tuple[int, ...]

DEFAULT_WORD_BUDGET = 10_000_000

# Outward-rounding pad: generous enough to absorb the handful of floating
# point operations behind each bracket endpoint.
_PAD = 1.0 - 2.0**-50


def _down(x: float) -> float:
    return x * _PAD


def _up(x: float) -> float:
    return x / _PAD


class BudgetExceededError(Exception):
    """A size (words, symbols, rows or epochs) would exceed the configured budget."""

    def __init__(self, key: str, requested: float, budget: int,
                 completed_level: int | None = None):
        msg = f"budget '{key}' exceeded: {requested:.4g} needed, budget {budget}"
        if completed_level is not None:
            msg += f" (deepest completed level: {completed_level})"
        super().__init__(msg)
        self.requested = requested
        self.budget = budget
        self.completed_level = completed_level


@dataclass(frozen=True)
class Interval:
    """Closed subinterval of [0, 1]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo <= self.hi <= 1.0):
            raise ValueError(f"invalid interval [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo


class BranchFamily:
    """An expanding Markov map, given by its inverse-branch family.

    Branch indices are 1-based.  Implementations keep branch images inside
    [0,1] with pairwise disjoint interiors and sup|phi_i'| <= 1.  Every
    family gives its alphabet (``contains_symbol``, ``symbols``), its branch
    images (``branch_interval``) and its forward ``composer``, whose
    ``interval()`` and ``psi()`` are a cylinder's whole geometry and from
    which ``psi_bracket`` is read; countable families override
    ``tail_weight_sum``.  Affine families also give ``affine_terms``, and
    Gauss the array step of the pressure level kernel (see the module
    docstring).

    ``xi`` (> 1, derived by each family from its own checked data) is the
    uniform iterate-expansion constant from depth ``expansion_depth`` on:
    every depth-n cylinder with n >= expansion_depth has |phi_w'| <= xi^-n,
    which bounds the depth a window of given width needs.
    """

    finite: bool = True
    is_affine: bool = False
    xi: float
    expansion_depth: int = 1

    def contains_symbol(self, i: int) -> bool:
        raise NotImplementedError

    def symbols(self) -> Iterator[int]:
        """Alphabet in ascending index order (unbounded for countable families)."""
        raise NotImplementedError

    def branch_interval(self, i: int) -> Interval:
        raise NotImplementedError

    def composer(self):
        """Forward composer of the empty word (see the module docstring);
        its ``child(s)`` takes a symbol already checked against the alphabet."""
        raise NotImplementedError

    def psi_bracket(self, i: int) -> tuple[float, float]:
        """Bracket of -log|phi_i'| over [0,1], read from the composer; a
        symbol outside the alphabet raises ValueError."""
        self._check_symbol(i)
        return self.composer().child(i).psi()

    def tail_weight_sum(self, exponent: float, beyond: int) -> float:
        """Upper bound for sum_{i > beyond} sup|phi_i'|^exponent.

        Returns +inf when the sum diverges or no closed form is known.
        """
        return 0.0 if self.finite else math.inf

    def _check_symbol(self, i: int) -> None:
        if not self.contains_symbol(i):
            raise ValueError(f"symbol {i} not in the system alphabet")

    def depth_for(self, width: float) -> int:
        """A depth at which xi-contraction certainly brings every cylinder
        below the width."""
        return int(self.depths_for(np.array([width]))[0])

    def depths_for(self, widths: np.ndarray) -> np.ndarray:
        """``depth_for`` of each width, as an int64 array.  The logs go
        through math.log, which np.log may differ from by an ulp; since
        xi >= 1 + 2^-52 and -log(width) < 745, every depth fits in int64."""
        neg_log = -np.fromiter(map(math.log, widths.tolist()), float, len(widths))
        return (np.ceil(np.maximum(0.0, neg_log) / math.log(self.xi)).astype(np.int64)
                + self.expansion_depth + 2)


class _AffineBranches(BranchFamily):
    """Affine branches, composed from affine_terms(i) = (image lo, image hi,
    -log ratio), read for symbols already checked."""

    is_affine = True

    def composer(self):
        return _AffineComposer(self)


class AffineFamily(_AffineBranches):
    """Finitely many affine branches phi_i(x) = left_i + ratio_i * x, each
    with the image [left_i, left_i + ratio_i]; xi is 1 / max ratio."""

    finite = True

    def __init__(self, lefts: Sequence[float], ratios: Sequence[float]):
        if len(lefts) != len(ratios):
            raise ValueError("one ratio per branch required")
        if len(ratios) < 2:
            raise ValueError("at least two branches required")
        for r in ratios:
            if not 0.0 < r < 1.0:
                raise ValueError(f"branch ratio {r} must lie in (0, 1)")
        self.ratios = tuple(float(r) for r in ratios)
        self.xi = 1.0 / max(self.ratios)
        for i, (l, r) in enumerate(zip(lefts, self.ratios), 1):
            if not 0.0 <= l <= l + r <= 1.0:
                raise ValueError(f"branch {i} image [{l}, {l + r}] leaves [0, 1]")
        self.images = tuple(Interval(l, l + r) for l, r in zip(lefts, self.ratios))
        for a, b in itertools.combinations(self.images, 2):
            if min(a.hi, b.hi) > max(a.lo, b.lo):
                raise ValueError(f"branch images {a} and {b} overlap")
        self._terms = tuple((iv.lo, iv.hi, -math.log(r))
                            for iv, r in zip(self.images, self.ratios))

    def affine_terms(self, i: int) -> tuple[float, float, float]:
        return self._terms[i - 1]

    def contains_symbol(self, i: int) -> bool:
        return 1 <= i <= len(self.images)

    def symbols(self) -> Iterator[int]:
        return iter(range(1, len(self.images) + 1))

    def branch_interval(self, i: int) -> Interval:
        self._check_symbol(i)
        return self.images[i - 1]


class AffineCountableFamily(_AffineBranches):
    """Countable affine branch family defined lazily by a subclass, which
    gives ``contains_symbol`` (on symbols >= 1), ``left(i)`` and
    ``log_width(i)`` (widths in log space, so that subexponentially small
    branches survive double precision), ``tail_weight_sum`` (a certified
    upper bound for sum_{i > k} width_i^e, or +inf) and ``xi``."""

    finite = False

    def affine_terms(self, i: int) -> tuple[float, float, float]:
        iv = self.branch_interval(i)
        return (iv.lo, iv.hi, -self.log_width(i))

    def symbols(self) -> Iterator[int]:
        return (i for i in itertools.count(1) if self.contains_symbol(i))

    def branch_interval(self, i: int) -> Interval:
        self._check_symbol(i)
        lo = self.left(i)
        return Interval(lo, min(1.0, lo + math.exp(self.log_width(i))))


class _GeometricFamily(AffineCountableFamily):
    """Widths a*q^(i-1) packed from 0; xi is 1/a."""

    def __init__(self, a: float, q: float):
        if not (0.0 < q < 1.0 and 0.0 < a):
            raise ValueError("geometric widths need a > 0 and 0 < q < 1")
        # a >= 1 is caught apart: 1 - q rounds to 1 for a tiny q
        if a / (1.0 - q) > 1.0 or a >= 1.0:
            raise ValueError("geometric widths exceed total length 1")
        self.a = a
        self.q = q
        self.xi = 1.0 / a

    def contains_symbol(self, i: int) -> bool:
        return i >= 1

    def left(self, i: int) -> float:
        # sum of widths of branches 1..i-1
        return self.a * (1.0 - self.q ** (i - 1)) / (1.0 - self.q)

    def log_width(self, i: int) -> float:
        return math.log(self.a) + (i - 1) * math.log(self.q)

    def tail_weight_sum(self, exponent: float, beyond: int) -> float:
        a, q = self.a, self.q
        return ((a * q ** beyond) ** exponent) / (1.0 - q ** exponent) if exponent > 0 else math.inf


class GaussFamily(BranchFamily):
    """Inverse branches of the Gauss map: phi_i(x) = 1/(i + x), i >= 1.
    Continuant estimates give |(T^n)'| > sqrt(2)^n from depth 2."""

    finite = False
    xi = math.sqrt(2.0)
    expansion_depth = 2

    def contains_symbol(self, i: int) -> bool:
        return i >= 1

    def symbols(self) -> Iterator[int]:
        return itertools.count(1)

    def branch_interval(self, i: int) -> Interval:
        self._check_symbol(i)
        return Interval(1.0 / (i + 1.0), 1.0 / i)

    def apply(self, i: int, x: float) -> float:
        """phi_i(x) for x in [0,1]."""
        # i >= 1 and x in [0,1] keep 1/(i+x) in [0,1] in IEEE arithmetic
        return 1.0 / (i + x)

    def deriv_bracket(self, i: int, j: Interval) -> tuple[float, float]:
        """Outward bracket of |phi_i'| over the subinterval j."""
        # |phi_i'(x)| = 1/(i+x)^2, decreasing in x
        a = i + j.hi
        b = i + j.lo
        return (_down(1.0 / (a * a)), _up(1.0 / (b * b)))

    # apply and deriv_bracket work elementwise on numpy arrays as they stand,
    # and a float symbol column against a row of intervals broadcasts to (K, C)

    def deriv_brackets(self, symbols: np.ndarray, span) -> tuple[np.ndarray, np.ndarray]:
        return self.deriv_bracket(symbols.astype(float), span)

    def map_intervals(self, symbols: np.ndarray, span) -> tuple[np.ndarray, np.ndarray]:
        # phi_i is decreasing
        i = symbols.astype(float)
        return self.apply(i, span.hi), self.apply(i, span.lo)

    def composer(self):
        return _MoebiusComposer()

    def tail_weight_sum(self, exponent: float, beyond: int) -> float:
        # sup|phi_i'| = i^{-2}; integral comparison for the p-series tail
        # from max(1, beyond), plus the term i = 1 when beyond < 1
        if exponent <= 0.5:
            return math.inf
        head = 1.0 if beyond < 1 else 0.0
        return head + max(1, beyond) ** (1.0 - 2.0 * exponent) / (2.0 * exponent - 1.0)


def cylinder(sys: BranchFamily, word: Word) -> Interval:
    """The cylinder phi_w([0,1]) as an interval, read from the family's
    forward composer after one child step per symbol.  Its contraction is
    the psi bracket, ``birkhoff_bracket(sys, LogDerivative(), word)``."""
    if not word:
        raise ValueError("word must be nonempty")
    comp = sys.composer()
    for s in word:
        sys._check_symbol(s)
        comp = comp.child(s)
    return Interval(*comp.interval())


class _AffineComposer:
    """Affine branches composed in word order: the running interval and the
    sum of the branch -log ratios.  A child maps the branch image ends
    through its parent's interval, clamped into it, so the intervals nest
    exactly."""

    __slots__ = ("fam", "lo", "hi", "psi_sum")

    # a child's ends are products clamped into its parent's, not quotients
    # its neighbour shares, so no run of children is declared to tile
    boundaries = None

    def __init__(self, fam, lo: float = 0.0, hi: float = 1.0, psi_sum: float = 0.0):
        self.fam = fam
        self.lo = lo
        self.hi = hi
        self.psi_sum = psi_sum

    def child(self, s: int) -> "_AffineComposer":
        a, b, neg_log_r = self.fam.affine_terms(s)
        w = self.hi - self.lo
        hi = min(self.hi, self.lo + w * b)
        return _AffineComposer(self.fam, min(self.lo + w * a, hi), hi,
                               self.psi_sum + neg_log_r)

    def interval(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    def psi(self) -> tuple[float, float]:
        """The psi bracket, an exact point."""
        return (self.psi_sum, self.psi_sum)

    def level(self):
        """This cylinder as a one-cylinder level: the columns (lo, hi)."""
        return np.array([self.lo]), np.array([self.hi])

    def level_children(self, level, column):
        """(lo, hi, child level) of every row and symbol of the column, as
        (K, C) arrays: the operations of ``child`` broadcast over the block,
        with np.minimum in place of min."""
        lo, hi = level
        ends = np.array([self.fam.affine_terms(s)[:2] for s in column[:, 0].tolist()])
        a, b = ends[:, :1], ends[:, 1:]
        w = hi - lo
        c_hi = np.minimum(hi, lo + w * b)
        c_lo = np.minimum(lo + w * a, c_hi)
        return c_lo, c_hi, (c_lo, c_hi)


class _MoebiusComposer:
    """Gauss branches via exact integer continuants:
    phi_w(t) = (p1 + t*p0) / (q1 + t*q0), with p1 q0 - p0 q1 = +-1."""

    __slots__ = ("p0", "p1", "q0", "q1")

    def __init__(self, p0: int = 1, p1: int = 0, q0: int = 0, q1: int = 1):
        self.p0 = p0
        self.p1 = p1
        self.q0 = q0
        self.q1 = q1

    def child(self, s: int) -> "_MoebiusComposer":
        return _MoebiusComposer(self.p1, self.p1 * s + self.p0,
                                self.q1, self.q1 * s + self.q0)

    def ends(self):
        """(phi_w(0), phi_w(1)).  int / int is correctly rounded, and so is
        an int64 array divided by one while all entries stay below 2^53,
        where they convert to float exactly."""
        return self.p1 / self.q1, (self.p1 + self.p0) / (self.q1 + self.q0)

    def interval(self) -> tuple[float, float]:
        a, b = self.ends()
        return (a, b) if a <= b else (b, a)

    def psi(self) -> tuple[float, float]:
        # |phi_w'(t)| = (q1 + t*q0)^-2; math.log of a large int may sit a
        # few ulps off, inside _down/_up
        return (2.0 * _down(math.log(self.q1)), 2.0 * _up(math.log(self.q1 + self.q0)))

    def level(self):
        """This cylinder as a one-cylinder level: the columns (p0, p1, q0,
        q1) as int64 arrays, which ``child`` extends unchanged."""
        return tuple(np.array([v], dtype=np.int64)
                     for v in (self.p0, self.p1, self.q0, self.q1))

    @staticmethod
    def level_children(level, column):
        """(lo, hi, child level) of every row and symbol of the column, as
        (K, C) arrays, from one ``child`` step over the whole block."""
        child = _MoebiusComposer(*_exact(level, int(column.max()) + 1)).child(column)
        a, b = (np.asarray(e, dtype=float) for e in child.ends())
        # the child's p0 and q0 are the block's p1 and q1, one row per parent
        return (np.minimum(a, b), np.maximum(a, b),
                tuple(np.broadcast_to(c, a.shape)
                      for c in (child.p0, child.p1, child.q0, child.q1)))

    @staticmethod
    def boundaries(level, column):
        """phi_w(1/t) = (p1 t + p0) / (q1 t + q0) of every row w and symbol
        t of the column, as a (K, C) float array.  Child s of w is
        phi_w([1/(s+1), 1/s]), and its ``ends`` are the quotients of the
        same integers as the boundaries at s and s + 1, so both are these
        floats: over a run u..v of consecutive symbols the children tile
        the hull of the boundaries at u and v + 1, each child's float ends
        are neighbouring boundaries, and the boundaries are monotone in t
        (phi_w is monotone and rounding is too)."""
        p0, p1, q0, q1 = _exact(level, int(column.max()))
        return np.asarray((p1 * column + p0) / (q1 * column + q0), dtype=float)


def _exact(level, t_max: int):
    """The level's continuant columns, as Python ints once a denominator
    q1 t + q0 with t <= t_max could reach 2^53, so int64 neither wraps nor
    rounds and every quotient is correctly rounded (each numerator
    p1 t + p0 is at most its denominator)."""
    q0, q1 = level[2], level[3]
    if q1.dtype != object and int(q1.max()) * t_max + int(q0.max()) >= 2**53:
        return tuple(c.astype(object) for c in level)
    return level


def forward_composer(sys: BranchFamily):
    """Root composer of the system's family, for walks that extend cylinders
    one symbol at a time."""
    return sys.composer()


def doubling_map() -> AffineFamily:
    """Two affine branches of ratio 1/2 on [0,1/2] and [1/2,1]."""
    return AffineFamily([0.0, 0.5], [0.5, 0.5])


def affine_system(ratios: Sequence[float],
                  placements: Sequence[float] | None = None) -> AffineFamily:
    """Finite affine system; branches packed from 0 unless placements given."""
    if placements is None:
        lefts = list(itertools.accumulate([0.0] + list(ratios[:-1])))
    else:
        lefts = list(placements)
    return AffineFamily(lefts, ratios)


def geometric_system(a: float, q: float) -> AffineCountableFamily:
    """Countable affine system with widths a*q^(i-1) packed from 0."""
    return _GeometricFamily(a, q)


def gauss_system() -> GaussFamily:
    """The Gauss map x -> 1/x mod 1 via its countable inverse branches."""
    return GaussFamily()
