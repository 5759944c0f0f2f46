"""Independent oracles for every benchmark job, and the output checker.

Nothing here imports shrinktarget.  The references are:

- the Gauss two-branch dimension E2 = 0.5312805062772051 (Jenkinson and
  Pollicott, ETDS 21, 2001), which the collocation below reproduces;
- Gauss subsystem pressure P(-s psi) = log of the leading eigenvalue of a
  Chebyshev collocation of the transfer operator
  L_s v(x) = sum_i (i + x)^(-2s) v(1/(i + x));
- the doubling closed form log 2 / (log 2 + alpha) and the full-alphabet
  Jarnik value 2/alpha;
- affine and geometric Moran equations solved by bisection in mpmath;
- the counterexample dimension, which is beta by construction;
- densities and hit schedules from exact rational cylinder endpoints and
  periodic orbits (fractions.Fraction, mpmath for quadratic irrationals).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
import numpy as np

from workloads import E2, Job

SLACK = 1e-12  # oracle accuracy allowance when testing bracket containment


# ------------------------------------------------------------------ pressure

def _chebyshev(count: int) -> tuple[np.ndarray, np.ndarray]:
    k = np.arange(count)
    nodes = 0.5 * (1.0 - np.cos((2 * k + 1) * np.pi / (2 * count)))
    weights = (-1.0) ** k * np.sin((2 * k + 1) * np.pi / (2 * count))
    return nodes, weights


def _interpolation_matrix(points: np.ndarray, nodes: np.ndarray,
                          weights: np.ndarray) -> np.ndarray:
    diff = points[:, None] - nodes[None, :]
    exact = diff == 0.0
    diff[exact] = 1.0
    terms = weights[None, :] / diff
    mat = terms / terms.sum(axis=1, keepdims=True)
    rows = exact.any(axis=1)
    mat[rows] = exact[rows].astype(float)
    return mat


def gauss_pressure(symbols, s: float, count: int = 40) -> float:
    """P(-s psi) of the Gauss subsystem over ``symbols``."""
    nodes, weights = _chebyshev(count)
    op = np.zeros((count, count))
    for i in symbols:
        image = 1.0 / (i + nodes)
        op += (image ** (2.0 * s))[:, None] * _interpolation_matrix(image, nodes, weights)
    return math.log(max(abs(np.linalg.eigvals(op))))


def _bisect(f, lo: float, hi: float, steps: int = 200) -> float:
    """Root of a decreasing function on [lo, hi]."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def gauss_exponent(symbols, alpha: float) -> float:
    """inf{s : P(-s psi) <= s alpha} for the Gauss subsystem."""
    return _bisect(lambda s: gauss_pressure(symbols, s) - s * alpha, 1e-6, 2.0)


def doubling_exponent(alpha: float) -> float:
    return math.log(2.0) / (math.log(2.0) + alpha)


def affine_exponent(ratios, alpha: float) -> float:
    """Root of log sum r_i^s = s alpha, in 40-digit arithmetic."""
    with mpmath.workdps(40):
        rs = [mpmath.mpf(r) for r in ratios]
        a = mpmath.mpf(alpha)
        f = lambda s: mpmath.log(sum(r ** s for r in rs)) - s * a  # noqa: E731
        return float(_bisect(f, mpmath.mpf(0), mpmath.mpf(4), steps=140))


def geometric_dimension(a: float, q: float) -> float:
    """Root of a^s = 1 - q^s: widths a q^(i-1), i >= 1."""
    with mpmath.workdps(40):
        ma, mq = mpmath.mpf(a), mpmath.mpf(q)
        f = lambda s: s * mpmath.log(ma) - mpmath.log(1 - mq ** s)  # noqa: E731
        return float(_bisect(f, mpmath.mpf("1e-6"), mpmath.mpf(1), steps=140))


# ------------------------------------------------------------------ targets

def gauss_density(y: float, r: float, n: int, symbols) -> float:
    """Total length of depth-n cylinders inside the open ball, over r.

    Cylinder endpoints are the exact continuant fractions p/q and
    (p + p')/(q + q'), compared with the ball by integer cross-multiplication;
    each width is exactly 1/(q (q + q')) and the widths are summed with fsum.
    """
    lo_num, lo_den = (Fraction(y) - Fraction(r)).as_integer_ratio()
    hi_num, hi_den = (Fraction(y) + Fraction(r)).as_integer_ratio()
    widths = []
    # (depth, p', p, q', q) with phi_w(t) = (p + t p')/(q + t q')
    stack = [(0, 1, 0, 0, 1)]
    while stack:
        depth, p0, p1, q0, q1 = stack.pop()
        ends = ((p1, q1), (p1 + p0, q1 + q0))
        # endpoint e = num/den lies above the ball's lower end / below its upper end
        above = [num * lo_den > lo_num * den for num, den in ends]
        below = [num * hi_den < hi_num * den for num, den in ends]
        if not any(above) or not any(below):
            continue  # closed cylinder at most touches the open ball
        if depth == n:
            if all(above) and all(below):
                widths.append(1 / (q1 * (q1 + q0)))
            continue
        for s in symbols:
            stack.append((depth + 1, p1, p1 * s + p0, q1, q1 * s + q0))
    return math.fsum(widths) / r


def doubling_density(y: float, r: float, n: int) -> float:
    lo, hi = Fraction(y) - Fraction(r), Fraction(y) + Fraction(r)
    size = 1 << n
    first = max(0, math.floor(lo * size) + 1)
    last = min(size - 1, math.ceil(hi * size) - 2)
    count = max(0, last - first + 1)
    return float(Fraction(count, size) / Fraction(r))


def _orbit(system: str, code) -> list:
    """The periodic orbit pi(sigma^j c), j = 0..p-1, exactly (doubling) or
    to 60 digits (Gauss)."""
    points = []
    for j in range(len(code)):
        word = list(code[j:]) + list(code[:j])
        if system == "doubling":
            digits = sum((s - 1) << (len(word) - 1 - k) for k, s in enumerate(word))
            points.append(mpmath.mpf(digits) / (2 ** len(word) - 1))
        else:
            x = mpmath.mpf("0.5")
            for _ in range(800 // len(word) + 1):
                for s in reversed(word):
                    x = 1 / (s + x)
            points.append(x)
    return points


def hit_schedule(system: str, code, y: float, alpha: float, horizon: int) -> list:
    """Exact status of epochs 1..horizon: 'hit', 'miss', or None when the
    distance and threshold agree to 1e-12 (either decision is then allowed)."""
    with mpmath.workdps(60):
        points = _orbit(system, code)
        my, ma = mpmath.mpf(y), mpmath.mpf(alpha)
        out = []
        for n in range(1, horizon + 1):
            d = abs(points[n % len(code)] - my)
            thr = mpmath.exp(-n * ma)
            if abs(d - thr) <= 1e-12 * thr:
                out.append(None)
            else:
                out.append("hit" if d < thr else "miss")
        return out


# ------------------------------------------------------------------ checker

@dataclass
class Check:
    """What one job's output contributes to the end-to-end metrics."""

    flagged: int = 0
    certified: int = 0
    digits: float = 0.0
    errors: list = field(default_factory=list)
    problems: list = field(default_factory=list)


def _bracket_row(check: Check, row: dict, oracle: float, what: str) -> None:
    value, lo, hi = float(row["value"]), float(row["lower"]), float(row["upper"])
    certified = row["certified"] == "True"
    check.flagged += 1
    if certified:
        check.certified += 1
        check.digits += -math.log10(hi - lo)
    check.errors.append(abs(value - oracle))
    if certified and not (lo - SLACK <= oracle <= hi + SLACK):
        check.problems.append(f"{what}: certified [{lo!r}, {hi!r}] excludes oracle {oracle!r}")


def _dimension_oracle(job: Job) -> float:
    p = job.params
    if p["system"] == "gauss":
        return E2
    if p["system"] == "geometric":
        return geometric_dimension(p["a"], p["q"])
    return p["beta"]


def _exponent_oracle(job: Job, alpha: float) -> float:
    system = job.params["system"]
    if system == "doubling":
        return doubling_exponent(alpha)
    if system == "affine":
        return affine_exponent(job.params["ratios"], alpha)
    return gauss_exponent(job.params["symbols"], alpha)


def check_job(job: Job, output: dict | None) -> Check:
    """Judge one job's checked-pass output against its oracle."""
    check = Check()
    if output is None:
        check.problems.append("no output")
        return check
    rows = output["rows"]
    command = job.command
    if command == "pressure":
        row = rows[0]
        lo, hi = float(row["lower"]), float(row["upper"])
        oracle = gauss_pressure(job.params["symbols"], job.params["s"])
        check.digits += -math.log10(hi - lo)
        check.errors.append(abs(0.5 * (lo + hi) - oracle))
        if not (lo - SLACK <= oracle <= hi + SLACK):
            check.problems.append(f"pressure [{lo!r}, {hi!r}] excludes oracle {oracle!r}")
    elif command == "dimension":
        _bracket_row(check, rows[0], _dimension_oracle(job), "dimension")
    elif command == "spectrum":
        for row in rows:
            alpha = float(row["alpha"])
            _bracket_row(check, row, _exponent_oracle(job, alpha), f"alpha={alpha!r}")
    elif command == "jarnik":
        _bracket_row(check, rows[0], 2.0 / job.params["alpha"], "jarnik")
    elif command == "hits":
        p = job.params
        exact = hit_schedule(p["system"], p["code"], p["y"], p["alpha"], p["horizon"])
        if [int(row["epoch"]) for row in rows] != list(range(1, p["horizon"] + 1)):
            check.problems.append("hits: epochs are not 1..horizon")
        for row, truth in zip(rows, exact):
            check.flagged += 1
            if row["status"] in ("hit", "miss"):
                check.certified += 1
                if truth is not None and row["status"] != truth:
                    check.problems.append(f"epoch {row['epoch']}: {row['status']}, exact {truth}")
    elif command == "density":
        p = job.params
        value = float(rows[0]["density"])
        if p["system"] == "doubling":
            oracle = doubling_density(p["y"], p["r"], p["n"])
        else:
            oracle = gauss_density(p["y"], p["r"], p["n"], p["symbols"])
        check.errors.append(abs(value - oracle))
        if abs(value - oracle) > 1e-9 * max(1.0, oracle):
            check.problems.append(f"density {value!r}, exact {oracle!r}")
    elif command == "cover":
        sums = [float(row["sum"]) for row in rows]
        total = next(float(line.split("=", 1)[1])
                     for line in output["manifest"] if line.startswith("# total"))
        if not all(math.isfinite(v) and v > 0.0 for v in sums):
            check.problems.append(f"cover: level sums not finite and positive: {sums}")
        if not math.isclose(total, math.fsum(sums), rel_tol=1e-12):
            check.problems.append(f"cover: total {total!r} is not the sum of the levels")
    elif command == "counterexample-build":
        summary = rows[0]
        if float(summary["a"]) != job.params["beta"] or float(summary["d"]) > 1e-10:
            check.problems.append(f"counterexample-build summary {summary}")
    elif command == "counterexample-verify":
        if float(rows[0]["residual"]) > 1e-10:
            check.problems.append(f"Moran residual {rows[0]['residual']} above 1e-10")
    elif command == "zero-dim-report":
        row = rows[0]
        if row["envelope_ok"] != "True" or float(row["total"]) > float(row["full_series_bound"]):
            check.problems.append(f"zero-dimension report {row}")
    else:
        check.problems.append(f"no oracle for command {command!r}")
    return check
