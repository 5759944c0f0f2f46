import mpmath
import pytest


def _transfer_pressure(branches, s, nodes=24):
    """P(-s psi) of the branches (phi_i, |phi_i'|), given as functions of an
    mpmath x in [0, 1]: the log of the leading eigenvalue of the transfer
    operator f -> sum_i |phi_i'|^s f o phi_i, collocated at Chebyshev points
    on [0, 1] with barycentric interpolation and found by power iteration,
    at 20 digits.  Independent of the package, and accurate to about 1e-16
    for the analytic branches of these tests."""
    with mpmath.workdps(20):
        s = mpmath.mpf(s)
        angles = [mpmath.pi * (2 * j + 1) / (2 * nodes) for j in range(nodes)]
        xs = [(1 - mpmath.cos(a)) / 2 for a in angles]
        weights = [(-1) ** j * mpmath.sin(a) for j, a in enumerate(angles)]
        matrix = []
        for x in xs:
            row = [mpmath.mpf(0)] * nodes
            for phi, dphi in branches:
                y = phi(x)
                c = [w / (y - xj) for w, xj in zip(weights, xs)]
                scale = dphi(x) ** s / mpmath.fsum(c)
                row = [r + scale * cj for r, cj in zip(row, c)]
            matrix.append(row)
        v, lam = [mpmath.mpf(1)] * nodes, mpmath.mpf(0)
        for _ in range(500):
            u = [mpmath.fdot(row, v) for row in matrix]
            new = max(u, key=abs)
            v = [ui / new for ui in u]
            if abs(new - lam) <= mpmath.mpf(10) ** -18 * abs(new):
                return float(mpmath.log(new))
            lam = new
    raise AssertionError("power iteration did not converge")


def _gauss_branches(symbols):
    return [(lambda x, i=i: 1 / (i + x), lambda x, i=i: 1 / (i + x) ** 2) for i in symbols]


@pytest.fixture(scope="session")
def transfer_pressure():
    return _transfer_pressure


@pytest.fixture(scope="session")
def gauss_branches():
    """The Gauss branches over the symbols, for ``transfer_pressure``."""
    return _gauss_branches
