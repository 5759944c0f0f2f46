"""Seeded job lists for the three benchmark workloads.

A job is either a CLI job (an INI config run through ``shrinktarget.cli.main``)
or an API job for what no CLI command expresses (the Jarnik potential rate and
the zero-dimension cover report).  Families, alphabets, depths and tolerances
are fixed; the seed draws only the parameters listed under ``ranges`` in
``spec.json``, so the work per pass does not swing with the seed.

This module imports nothing from shrinktarget: the oracles regenerate the same
jobs from the seed to know what each output should be.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

SPEC = json.loads((Path(__file__).with_name("spec.json")).read_text())

WORKLOADS = tuple(SPEC["workloads"])

E2 = 0.5312805062772051
GAUSS_K = 16
AFFINE_RATIOS = (0.3, 0.25, 0.2, 0.15)
GEOMETRIC = (0.3, 0.6)
JARNIK_ALPHA = 4.0


@dataclass(frozen=True)
class Job:
    """One unit of work.  ``command`` is a CLI command, or 'jarnik' /
    'zero-dim-report' for API jobs; ``params`` carries what the oracles need."""

    id: str
    command: str
    config: str | None = None
    params: dict = field(default_factory=dict)

    @property
    def is_cli(self) -> bool:
        return self.config is not None


def _ranges(workload: str) -> dict:
    return SPEC["workloads"][workload]["ranges"]


def _uniform(rng: random.Random, bounds) -> float:
    lo, hi = bounds
    return rng.uniform(lo, hi)


def _stratified(rng: random.Random, bounds, count: int) -> list[float]:
    """One uniform draw in each of ``count`` equal strata of the range, so
    the grid stays fine and evenly spread whatever the seed."""
    lo, hi = bounds
    step = (hi - lo) / count
    return [lo + step * (k + rng.random()) for k in range(count)]


def _fmt(values) -> str:
    return ", ".join(repr(v) for v in values)


def _dyadic(rng: random.Random, bounds, bits: int = 24) -> float:
    """A dyadic rational k/2^bits in the range: exact in binary floating
    point, so exact-arithmetic oracles see the same input as the program."""
    lo, hi = bounds
    scale = 1 << bits
    return rng.randint(math.ceil(lo * scale), math.floor(hi * scale)) / scale


def _gauss_phi(word, x: float) -> float:
    for s in reversed(word):
        x = 1.0 / (s + x)
    return x


def _gap(word, k: int) -> tuple[float, float]:
    """phi_w([0, 1/(k+1))): a part of the cylinder of w that no cylinder one
    level deeper over {1..k} covers."""
    a = _gauss_phi(word, 0.0)
    b = _gauss_phi(word, 1.0 / (k + 1))
    return (min(a, b), max(a, b))


def _inside(rng: random.Random, gap: tuple[float, float]) -> float:
    lo, hi = gap
    pad = 0.1 * (hi - lo)
    return rng.uniform(lo + pad, hi - pad)


def gauss_cycle_point(code) -> float:
    """The point of [0,1] whose continued fraction repeats the code."""
    x = 0.5
    for _ in range(200):
        x = _gauss_phi(code, x)
    return x


def _cli(job_id: str, command: str, config: str, **params) -> Job:
    return Job(job_id, command, config.strip() + "\n", params)


def _gauss_pressure(rng: random.Random, r: dict, tiny: bool) -> list[Job]:
    depth = 8 if tiny else 16
    s = _uniform(rng, r["pressure_s"])
    alphas = ([_uniform(rng, r["spectrum_alpha_low"]) for _ in range(3)]
              + [_uniform(rng, window) for window in r["spectrum_alpha_high"]])
    ladder = (4, 8) if tiny else (16, 32, 64)
    return [
        _cli("pressure", "pressure", f"""
[system]
kind = gauss
[potential]
expr = scale({s!r}, psi)
[run]
subset = 1,2
n_max = {depth}
""", system="gauss", symbols=[1, 2], s=s),
        _cli("dimension", "dimension", f"""
[system]
kind = gauss
[run]
subset = 1,2
n_max = {depth}
tol = 5e-3
""", system="gauss", symbols=[1, 2]),
        _cli("spectrum", "spectrum", f"""
[system]
kind = gauss
[run]
subset = 1..4
n_max = {4 if tiny else 6}
tol = 5e-2
alphas = {_fmt(alphas)}
""", system="gauss", symbols=[1, 2, 3, 4]),
        Job("jarnik", "jarnik", None, {"alpha": JARNIK_ALPHA, "ladder": list(ladder),
                                       "n_max": 2 if tiny else 3, "tol": 1e-4}),
    ]


def _affine_spectrum(rng: random.Random, r: dict, workdir: Path,
                     tiny: bool) -> list[Job]:
    count = 4 if tiny else 16
    doubling_alphas = _stratified(rng, r["alpha"], count)
    affine_alphas = _stratified(rng, r["alpha"], count)
    beta = _uniform(rng, r["beta"])
    system_file = workdir / "counterexample.ini"
    a, q = GEOMETRIC
    return [
        _cli("doubling-spectrum", "spectrum", f"""
[system]
kind = doubling
[run]
tol = 1e-12
alphas = {_fmt(doubling_alphas)}
""", system="doubling"),
        _cli("affine-spectrum", "spectrum", f"""
[system]
kind = affine
ratios = {_fmt(AFFINE_RATIOS)}
[run]
tol = 1e-12
alphas = {_fmt(affine_alphas)}
""", system="affine", ratios=list(AFFINE_RATIOS)),
        _cli("geometric-dimension", "dimension", f"""
[system]
kind = affine_countable
widths = geometric:{a!r},{q!r}
[run]
subset = 1..32
n_max = 1
use_tail = true
tol = 1e-10
""", system="geometric", a=a, q=q),
        _cli("counterexample-build", "counterexample-build", f"""
[system]
kind = counterexample
beta = {beta!r}
phi = power:1
[run]
system_out = {system_file}
""", beta=beta),
        _cli("counterexample-verify", "counterexample-verify", f"""
[system]
kind = counterexample_file
path = {system_file}
""", beta=beta),
        _cli("counterexample-dimension", "dimension", f"""
[system]
kind = counterexample_file
path = {system_file}
[run]
n_max = 1
use_tail = true
tol = 1e-10
""", system="counterexample", beta=beta),
        Job("zero-dim-report", "zero-dim-report", None,
            {"beta": beta, "eps": 0.2, "m": 6, "n_max": 10 if tiny else 14}),
    ]


def _gauss_targets(rng: random.Random, r: dict, tiny: bool) -> list[Job]:
    jobs = [_cli("cover", "cover", f"""
[system]
kind = gauss
truncation = {GAUSS_K}
[target]
y = {_uniform(rng, r["cover_y"])!r}
rate = const:{_uniform(rng, r["cover_rate"])!r}
[run]
s = {_uniform(rng, r["cover_s"])!r}
m = 1
n_max = {3 if tiny else 4}
""")]
    depth = 4 if tiny else 6
    for k, (left, right) in enumerate(r["density_gap_words"]):
        lo = _inside(rng, _gap(left, GAUSS_K))
        hi = _inside(rng, _gap(right, GAUSS_K))
        y, radius = 0.5 * (lo + hi), 0.5 * (hi - lo)
        jobs.append(_cli(f"gauss-density-{k}", "density", f"""
[system]
kind = gauss
truncation = {GAUSS_K}
[target]
y = {y!r}
rate = const:1
[run]
n = {depth}
r = {radius!r}
""", system="gauss", y=y, r=radius, n=depth, symbols=list(range(1, GAUSS_K + 1))))
    horizon = 100 if tiny else 1000
    for k in range(2):
        code = [rng.randint(1, 5) for _ in range(3)]
        offset = _uniform(rng, r["hits_offset"])
        x = gauss_cycle_point(code)
        y = x + offset if x + offset < 1.0 else x - offset
        alpha = _uniform(rng, r["hits_rate"])
        jobs.append(_cli(f"gauss-hits-{k}", "hits", f"""
[system]
kind = gauss
[target]
y = {y!r}
rate = const:{alpha!r}
[run]
code = cycle:{",".join(map(str, code))}
horizon = {horizon}
""", system="gauss", code=code, y=y, alpha=alpha, horizon=horizon))
    code = [rng.randint(1, 2) for _ in range(4)]
    y = _dyadic(rng, r["doubling_y"])
    alpha = _uniform(rng, r["hits_rate"])
    jobs.append(_cli("doubling-hits", "hits", f"""
[system]
kind = doubling
[target]
y = {y!r}
rate = const:{alpha!r}
[run]
code = cycle:{",".join(map(str, code))}
horizon = {horizon}
""", system="doubling", code=code, y=y, alpha=alpha, horizon=horizon))
    y = _dyadic(rng, r["doubling_y"])
    radius = _dyadic(rng, r["doubling_r"])
    jobs.append(_cli("doubling-density", "density", f"""
[system]
kind = doubling
[target]
y = {y!r}
rate = const:1
[run]
n = 14
r = {radius!r}
""", system="doubling", y=y, r=radius, n=14))
    jobs.append(_cli("doubling-spectrum", "spectrum", f"""
[system]
kind = doubling
[run]
n_max = 1
tol = 1e-9
alphas = 0.5, 1.0, 2.0
""", system="doubling"))
    return jobs


def make_jobs(workload: str, seed: int, workdir: Path, tiny: bool = False) -> list[Job]:
    """The workload's job list for this seed; ``tiny`` shrinks depths and
    horizons for the benchmark's self-tests."""
    if workload not in SPEC["workloads"]:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    r = _ranges(workload)
    if workload == "gauss_pressure":
        return _gauss_pressure(rng, r, tiny)
    if workload == "affine_spectrum":
        return _affine_spectrum(rng, r, Path(workdir), tiny)
    return _gauss_targets(rng, r, tiny)
