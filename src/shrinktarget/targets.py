"""Shrinking-target machinery for a target point and a rate potential:
cover sums, upper-dimension certificates, cylinder density, and exact
symbolic hitting-time simulation.

Conventions are conservative on both sides: the defining inequality of a
target hit is strict, containment in a density collection requires the
closed cylinder inside the open ball, and floating-point ties resolve to
"undecided" (hit times) or exclusion (density), never to acceptance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable

import numpy as np

from .pressure import (
    BirkhoffTable,
    LogDerivative,
    Potential,
    Sum,
    _BLOCK,
    _birkhoff_fold,
    _fold_rounding,
    _pad_fold,
    birkhoff_bracket,  # not called here; bench/tracing.py spans targets.birkhoff_bracket
)
from .systems import (
    BranchFamily,
    BudgetExceededError,
    DEFAULT_WORD_BUDGET,
    cylinder,
    forward_composer,
)

__all__ = [
    "TargetSpec",
    "CoverReport",
    "CertificateReport",
    "HitReport",
    "cover_sum",
    "upper_dimension_certificate",
    "cylinder_density",
    "hit_times",
]


def _check_y(y: float) -> None:
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"target point y must be a number in [0, 1], got {y!r}")


@dataclass(frozen=True)
class TargetSpec:
    """A target point y in [0, 1] and the rate potential phi: at epoch n the
    ball around y has radius exp(-S_n phi), exp(-n alpha) for Constant(alpha)."""

    y: float
    rate: Potential

    def __post_init__(self):
        _check_y(self.y)


@dataclass(frozen=True)
class CoverReport:
    """Level-by-level cover sums for the target preimage sets."""

    per_level: tuple[tuple[int, float], ...]
    total: float


@dataclass(frozen=True)
class CertificateReport:
    """Accept/reject outcome of the geometric-decay cover certificate."""

    accepted: bool
    cover: CoverReport
    decay_ratio: float | None
    tail_bound: float | None
    total_with_tail: float | None
    message: str


@dataclass(frozen=True)
class HitReport:
    """Hit/miss/undecided partition of the epochs 1..horizon, the number of
    code symbols the epochs' probe windows read, and the number of distinct
    windows composed (``cylinder`` calls)."""

    horizon: int
    hits: tuple[int, ...]
    misses: tuple[int, ...]
    undecided: tuple[int, ...]
    window_symbols: int
    windows_composed: int


def _distance_bracket(y: float, lo: float, hi: float) -> tuple[float, float]:
    """Bracket of the distance from y to the points of [lo, hi]; the
    differences round to nearest, so each end is stepped one ulp outward."""
    d_lo = max(0.0, lo - y, y - hi)
    d_hi = max(abs(hi - y), abs(y - lo))
    return math.nextafter(d_lo, 0.0), math.nextafter(d_hi, math.inf)


def cover_sum(sys: BranchFamily, target: TargetSpec, s: float, m: int, n_max: int,
              subset, budget: int = DEFAULT_WORD_BUDGET) -> CoverReport:
    """Per-level sums of diam^s over the shrinking-target cover sets.

    The diameter of a level-n cover set is bounded by exp(-c_w), with c_w
    the lower end of the Birkhoff bracket of S_n(psi + phi) over the
    cylinder of the word w, so a level sum is a dominating partition sum
    of -s(psi + phi) from one ``BirkhoffTable``: its psi levels with phi
    applied (every log padded one ulp outward), or on affine systems the
    n-th power of the level-1 sum over exact per-symbol ends.  Each
    level's exp and each addition to the running total are stepped one ulp
    up, so every level and the total bound their exact sums from above;
    an empty level is an exact 0.0.  Every
    level's word count is checked against the budget before any level is
    built.  A level contributes only when the ball of radius exp(-n c)
    around y meets some branch image of the subset (otherwise the orbit
    segment cannot both return to the subsystem and hit the target), with
    c the constant part of phi; any psi part of phi is left out of this
    prune test.  The ball shrinks with n, so a level is either the whole
    partition sum or empty, and only the deepest levels are empty.
    """
    if not 0.0 < s < math.inf:
        raise ValueError("exponent s must be positive and finite")
    if m < 1 or n_max < m:
        raise ValueError("levels must satisfy 1 <= m <= n_max")
    table = BirkhoffTable(sys, Sum(LogDerivative(), target.rate), subset, budget=budget)
    symbols = table.symbols
    for n in range(m, n_max + 1):
        count = len(symbols) ** n
        if count > budget:
            raise BudgetExceededError("cover", count, budget)
    dist = min(_distance_bracket(target.y, iv.lo, iv.hi)[0]
               for iv in map(sys.branch_interval, symbols))
    kept = [n for n in range(m, n_max + 1) if dist < math.exp(-n * target.rate.const)]
    sums = {n: math.nextafter(math.exp(table.partition(s, n, "sup")), math.inf) for n in kept}
    per_level = tuple((n, sums.get(n, 0.0)) for n in range(m, n_max + 1))
    total = 0.0  # left to right: builtin sum compensates from Python 3.12
    for _, level in per_level:
        # a sum with a zero term is exact; any other is stepped up
        total = math.nextafter(total + level, math.inf) if total and level else total + level
    return CoverReport(per_level=per_level, total=total)


# trailing cover levels whose decay the certificate checks
_DECAY_WINDOW = 4


def upper_dimension_certificate(sys: BranchFamily, target: TargetSpec, s: float,
                                m: int, n_max: int, subset,
                                budget: int = DEFAULT_WORD_BUDGET) -> CertificateReport:
    """Accepts when the last _DECAY_WINDOW per-level cover sums decay by a
    verified constant factor < 1, yielding a finite geometric tail bound.

    The outcome is numerical evidence at the given truncation that the
    target set has dimension at most s; it is not a proof for the
    untruncated system.
    """
    report = cover_sum(sys, target, s, m, n_max, subset, budget=budget)
    levels = [v for (_, v) in report.per_level]
    window = levels[-_DECAY_WINDOW:]
    message_tail = (f"evidence at truncation (m={m}, n_max={n_max}, "
                    f"|F|={len(set(subset))}); not a proof for the untruncated system")
    if all(v == 0.0 for v in window):
        return CertificateReport(accepted=True, cover=report,
                                 decay_ratio=0.0, tail_bound=0.0,
                                 total_with_tail=report.total,
                                 message="accept: trailing levels vanish; " + message_tail)
    ratios = []
    ok = True
    for prev, cur in zip(window, window[1:]):
        if prev <= 0.0:
            ok = cur == 0.0
            if not ok:
                break
            ratios.append(0.0)
        else:
            ratios.append(cur / prev)
    ratio = max(ratios) if ratios else math.inf
    if not ok or not ratios or not (ratio < 1.0):
        return CertificateReport(accepted=False, cover=report,
                                 decay_ratio=(ratio if ratios else None),
                                 tail_bound=None, total_with_tail=None,
                                 message="reject: no verified geometric decay; " + message_tail)
    tail = levels[-1] * ratio / (1.0 - ratio)
    return CertificateReport(accepted=True, cover=report,
                             decay_ratio=ratio, tail_bound=tail,
                             total_with_tail=report.total + tail,
                             message="accept: verified decay ratio "
                                     f"{ratio:.6g}; " + message_tail)


def cylinder_density(sys: BranchFamily, y: float, n: int, r: float, subset,
                     budget: int = DEFAULT_WORD_BUDGET) -> float:
    """Total length of the depth-n cylinders fully inside the open ball
    B(y, r), divided by r.

    The cylinder tree is walked a level at a time.  A level holds the
    composer state of every cylinder of one depth that meets the ball (see
    the ``systems`` module docstring), and the family's ``level_children``
    extends a block of its rows by every symbol in one broadcast step, with
    at most _BLOCK children per block, so no step holds a whole level's
    children at once.  A child whose closed interval at most touches the
    open ball is dropped; at depth n only children strictly inside the ball
    count.  The nodes visited are those a depth-first walk with the same
    pruning visits: the root and every child of a level above depth n.
    Each level's children are charged to the budget before they are built.
    The leaf widths (hi - lo of the composed ends) go, block by block, to
    one math.fsum, so the total is their correctly rounded sum, whatever
    the walk order.

    A composer that gives ``boundaries`` (Gauss) is not asked for every
    leaf.  The subset splits into runs u..v of consecutive symbols, and for
    each block of depth-(n-1) parents the walk reads the outer ends a <= b
    of each run's children, the boundaries at u and v + 1.  A run with
    ball_lo < a, b < ball_hi and b <= 2a feeds b and -a to the fsum in
    place of its leaf widths, and the result is the same double:
    (1) rounding is monotone, so every leaf end is a boundary in [a, b];
    (2) so each leaf has hi <= b <= 2a <= 2 lo, and hi - lo is exact
    (Sterbenz); (3) neighbouring leaves share one boundary, the same
    quotient of the same integers, so the exact widths telescope to b - a;
    (4) fsum rounds the exact sum of its terms once, and that sum is
    unchanged.  A run with b <= ball_lo or a >= ball_hi has no leaf inside.
    A parent with any other run (one that straddles a ball edge, or lies so
    near 0 that b > 2a) has its leaves composed and summed as above.
    """
    if not 0.0 < r < math.inf:
        raise ValueError("radius must be positive and finite")
    _check_y(y)
    if n < 1:
        raise ValueError("depth must be at least 1")
    symbols = sorted(set(subset))
    if not symbols:
        raise ValueError("alphabet subset must be nonempty")
    for i in symbols:
        sys._check_symbol(i)
    column = np.array(symbols)[:, None]
    # each run's first symbol, then the symbol past each run's last
    chosen = set(symbols)
    cuts = np.array([s for s in symbols if s - 1 not in chosen]
                    + [s + 1 for s in symbols if s + 1 not in chosen])[:, None]
    rows = max(1, _BLOCK // len(symbols))
    ball_lo = y - r
    ball_hi = y + r
    root = forward_composer(sys)
    level = root.level()
    visited = 1
    for depth in range(1, n + 1):
        visited += len(level[0]) * len(symbols)
        if visited > budget:
            raise BudgetExceededError("density", visited, budget, completed_level=depth - 1)
        blocks = (tuple(c[start:start + rows] for c in level)
                  for start in range(0, len(level[0]), rows))
        if depth == n:
            break
        kept = []
        for lo, hi, child in (root.level_children(block, column) for block in blocks):
            # closed cylinder vs open ball: disjoint when it only touches
            meets = (hi > ball_lo) & (lo < ball_hi)
            kept.append(tuple(c[meets] for c in child))
        level = tuple(map(np.concatenate, zip(*kept)))
        if not len(level[0]):
            return 0.0
    terms = (_leaf_terms(root, block, column, cuts, ball_lo, ball_hi) for block in blocks)
    return math.fsum(chain.from_iterable(terms)) / r


def _leaf_terms(root, block, column, cuts, ball_lo: float, ball_hi: float) -> list[float]:
    """Terms whose exact sum is the total width of the block's leaves
    strictly inside the ball (see ``cylinder_density``): b and -a of each
    run inside the ball with b <= 2a, and the leaf widths of every parent
    with a run that is neither that nor outside the ball."""
    terms: list[float] = []
    if root.boundaries is not None:
        ends = root.boundaries(block, cuts)
        runs = len(cuts) // 2
        a = np.minimum(ends[:runs], ends[runs:])
        b = np.maximum(ends[:runs], ends[runs:])
        exact = (ball_lo < a) & (b < ball_hi) & (b <= 2.0 * a)
        settled = (exact | (b <= ball_lo) | (a >= ball_hi)).all(axis=0)
        exact &= settled
        terms = b[exact].tolist() + (-a[exact]).tolist()
        block = tuple(c[~settled] for c in block)
        if not len(block[0]):
            return terms
    lo, hi, _ = root.level_children(block, column)
    return terms + (hi - lo)[(ball_lo < lo) & (hi < ball_hi)].tolist()


# bounds of the window precision hit_times asks for
_PRECISION_CAP = 1e-9
_PRECISION_FLOOR = 1e-280


def _threshold_bracket(b_lo: np.ndarray, b_hi: np.ndarray,
                       rel: float) -> tuple[np.ndarray, np.ndarray]:
    """Brackets of exp(-S) for S in the fold's brackets [b_lo, b_hi], one
    per epoch: each end is padded by ``_pad_fold`` before exp, and each
    threshold stepped one ulp outward after it.  exp goes through math, the
    steps through numpy, bit for bit the same IEEE operations."""
    b_lo, b_hi = _pad_fold(b_lo, b_hi, rel)
    return (np.nextafter(_exp_neg(b_hi), 0.0), np.nextafter(_exp_neg(b_lo), np.inf))


def _exp_neg(b: np.ndarray) -> np.ndarray:
    """exp(-b) elementwise through math.exp, which np.exp may differ from
    by an ulp."""
    return np.fromiter(map(math.exp, (-b).tolist()), float, len(b))


def _window_distance(sys: BranchFamily, y: float, word: tuple[int, ...],
                     windows: dict) -> tuple[float, float]:
    """Padded distance bracket from y to the window's cylinder, read from
    the run's memo ``windows``; only a word seen for the first time is
    composed (one ``cylinder`` call) and stored."""
    bracket = windows.get(word)
    if bracket is None:
        interval = cylinder(sys, word)
        pad = 4 * (len(word) + 1) * math.ulp(interval.hi)
        bracket = windows[word] = _distance_bracket(y, interval.lo - pad, interval.hi + pad)
    return bracket


def hit_times(sys: BranchFamily, code: Iterable[int], target: TargetSpec,
              horizon: int, budget: int = DEFAULT_WORD_BUDGET) -> HitReport:
    """Exact symbolic hit/miss/undecided schedule of the coded orbit.

    The threshold exp(-S_n(phi)) at epoch n comes from the Birkhoff bracket
    over the prefix cylinder, which one running fold (``_birkhoff_fold``)
    extends by a symbol per epoch.  The fold runs once, into arrays, before
    any window is read, and every epoch's thresholds and xi depth are
    computed from those arrays at once: both bracket ends are stepped
    outward by a relative bound on the fold's unpadded roundings and one
    ulp before exp, and each threshold one ulp outward after it.  The
    iterate T^n(pi(w)) lies in the cylinder of the code symbols after
    position n, at the depth ``sys.depths_for`` gives for 1% of the
    threshold (clamped to [_PRECISION_FLOOR, _PRECISION_CAP]), or of
    whatever code is left: the epoch's xi-depth window.  The epoch probes
    prefixes of that window of depth 2, 4, 8, ... while the depth is at
    most half the xi depth, then the xi-depth window itself (one tuple of
    probe depths per xi depth, built once per run), and stops at the first
    window that decides, so an epoch reads fewer than twice the xi depth's
    symbols (``window_symbols`` counts every probe's depth).  Each window
    is padded outward by 4 (depth + 1) ulps of its larger end, a bound on
    the composers' rounding (at most three roundings per affine symbol,
    half an ulp per continuant quotient), so it contains the true cylinder
    however narrow the composed one is, and a shallower window, being
    wider, decides only what the true orbit point decides.  The padded
    distance bracket is a function of the window word alone, so the run
    keeps one memo keyed by the word and composes each distinct window once
    (``windows_composed``): at most one entry per probe, and at most p
    times the number of probe depths for a code of period p.
    An epoch is a hit when the distance interval lies entirely below the
    threshold interval, a miss when entirely above, and undecided otherwise
    (ties, and epochs with no code left after n, included).  The code is
    read once, up to horizon + ``sys.depth_for(_PRECISION_FLOOR)`` symbols,
    after the horizon and horizon times that depth are checked against the
    budget, and a symbol it reads outside the alphabet raises ValueError
    before any epoch.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    # no window is deeper than the one at the precision floor
    depth = sys.depth_for(_PRECISION_FLOOR)
    if horizon > budget:
        raise BudgetExceededError("horizon", horizon, budget)
    if horizon * depth > budget:
        raise BudgetExceededError("horizon", horizon * depth, budget)
    buffer = tuple(islice(code, horizon + depth))
    # a symbol that no window or fold reads still names no orbit
    for symbol in sorted(set(buffer)):
        sys._check_symbol(symbol)
    # epochs with code left after them
    coded = max(0, min(horizon, len(buffer) - 1))
    y = target.y
    folds = chain.from_iterable(_birkhoff_fold(sys, target.rate, buffer[:coded]))
    b_lo, b_hi = np.fromiter(folds, float, 2 * coded).reshape(coded, 2).T
    thr_lo, thr_hi = _threshold_bracket(b_lo, b_hi, _fold_rounding(target.rate))
    widths = np.maximum(np.minimum(_PRECISION_CAP, 0.01 * _exp_neg(b_hi)), _PRECISION_FLOOR)
    xi_depths = np.minimum(sys.depths_for(widths), len(buffer) - np.arange(1, coded + 1))
    hits: list[int] = []
    misses: list[int] = []
    undecided: list[int] = []
    window_symbols = 0
    windows: dict[tuple[int, ...], tuple[float, float]] = {}
    # 2, 4, 8, ... while at most half the xi depth, then the xi depth
    probe_depths: dict[int, tuple[int, ...]] = {}
    for n, lo, hi, xi_depth in zip(range(1, coded + 1), thr_lo.tolist(), thr_hi.tolist(),
                                   xi_depths.tolist()):
        probes = probe_depths.get(xi_depth)
        if probes is None:
            probes = probe_depths[xi_depth] = (
                *(1 << k for k in range(1, xi_depth.bit_length() - 1)), xi_depth)
        for depth in probes:
            d_lo, d_hi = _window_distance(sys, y, buffer[n:n + depth], windows)
            window_symbols += depth
            if d_hi < lo:
                hits.append(n)
                break
            if d_lo > hi:
                misses.append(n)
                break
        else:
            undecided.append(n)
    undecided.extend(range(coded + 1, horizon + 1))
    return HitReport(horizon=horizon, hits=tuple(hits), misses=tuple(misses),
                     undecided=tuple(undecided), window_symbols=window_symbols,
                     windows_composed=len(windows))
