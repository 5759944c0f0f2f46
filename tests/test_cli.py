import configparser
import contextlib
import io
import itertools
import math
import os
import resource
import signal
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as hyst

import shrinktarget
from shrinktarget import cli
from shrinktarget.cli import ConfigError, main, parse_potential, parse_subset
from shrinktarget import Constant, LogDerivative, Scale, ShrinkFn, Sum, build_counterexample


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------- parsers

def test_parse_subset_grammar():
    assert parse_subset("1..4") == frozenset({1, 2, 3, 4})
    assert parse_subset("1,2,5..7") == frozenset({1, 2, 5, 6, 7})


def test_parse_subset_rejects_reversed_range():
    with pytest.raises(ConfigError, match="5..3"):
        parse_subset("1, 5..3")
    with pytest.raises(ConfigError, match="2..1"):
        parse_subset("2..1")
    assert parse_subset("3..3") == frozenset({3})


def test_parse_potential_tree():
    pot = parse_potential("sum(psi, scale(0.5, const(2)))")
    assert pot == Sum(LogDerivative(), Scale(0.5, Constant(2.0)))


def test_parse_potential_rejects_garbage():
    from shrinktarget.cli import ConfigError

    with pytest.raises(ConfigError):
        parse_potential("product(psi, psi)")
    with pytest.raises(ConfigError):
        parse_potential("psi extra")


# (expression, (psi_coef, const, nodes)); any whitespace separates, and a
# number is read as float() reads it; the last four are redundancies that
# Python's expression grammar admits
_POTENTIALS = [
    ("psi", (1.0, 0.0, 1)),
    ("const(2)", (0.0, 2.0, 1)),
    ("scale(0.5, psi)", (0.5, 0.0, 2)),
    ("sum(psi, const(0.3))", (1.0, 0.3, 3)),
    ("scale(0.5, sum(psi, const(0.3)))", (0.5, 0.15, 4)),
    ("sum(scale(2, psi), scale(0.5, const(2)))", (2.0, 1.0, 5)),
    (" sum( psi ,\n\tpsi ) ", (2.0, 0.0, 3)),
    ("sum(psi, psi)", (2.0, 0.0, 3)),
    ("const(1_000)", (0.0, 1000.0, 1)),
    ("const(007)", (0.0, 7.0, 1)),
    ("const(0_5)", (0.0, 5.0, 1)),
    ("const(١٢)", (0.0, 12.0, 1)),
    ("const(+1e-03)", (0.0, 0.001, 1)),
    ("const(.5)", (0.0, 0.5, 1)),
    ("scale(1e308, psi)", (1e308, 0.0, 2)),
    ("sum(psi, " * 200 + "psi" + ")" * 200, (201.0, 0.0, 401)),
    ("(psi)", (1.0, 0.0, 1)),
    ("const((2))", (0.0, 2.0, 1)),
    ("sum(psi, psi,)", (2.0, 0.0, 3)),
    ("psi  # the log-derivative", (1.0, 0.0, 1)),
]


@pytest.mark.parametrize("text, expect", _POTENTIALS,
                         ids=[text[:40] for text, _ in _POTENTIALS])
def test_parse_potential_reads_coefficients(text, expect):
    pot = parse_potential(text)
    assert (pot.psi_coef, pot.const, pot.nodes) == expect


_REFUSED_POTENTIALS = [
    ("product(psi, psi)", "potential expression: unknown node 'product(psi, psi)'"),
    ("psi extra", "invalid syntax at column 5 of 'psi extra'"),
    ("psi()", "unknown node 'psi()'"),
    ("sum(psi,", "'(' was never closed at column 4 of 'sum(psi,'"),
    ("sum(psi, psi))", "unmatched ')' at column 14"),
    ("scale(2)", "unknown node 'scale(2)'"),
    ("const(1, 2)", "unknown node 'const(1, 2)'"),
    ("const(c=1)", "unknown node 'const(c=1)'"),
    ("sum(*psi, psi)", "unknown node '*psi'"),
    ("ｐｓｉ", "unknown node 'ｐｓｉ'"),
    ("const(x)", "const: expected float, got 'x'"),
    ("const(0x10)", "const: expected float, got '0x10'"),
    ("const(nan)", "const: expected a finite number, got 'nan'"),
    ("scale(1e309, psi)", "scale factor: expected a finite number, got '1e309'"),
    ("const(1__0)", "invalid decimal literal"),
    ("const(1if)", "invalid decimal literal"),
    ("const(-1)", "potential coefficients must be nonnegative"),
    ("scale(-1, const(0))", "scale factors must be nonnegative"),
    ("scale(1e308, scale(1e308, psi))", "potential flattens to inf * psi"),
    ("sum(psi, " * 201 + "psi" + ")" * 201, "too many nested parentheses"),
    ("const(" + "-" * 10000 + "1)", "potential expression: nested too deeply"),
]


@pytest.mark.parametrize("text, message", _REFUSED_POTENTIALS,
                         ids=[text[:40] for text, _ in _REFUSED_POTENTIALS])
def test_parse_potential_refuses_with_one_line(tmp_path, capsys, text, message):
    cfg = write(tmp_path, "p.ini", "[system]\nkind = doubling\n\n[potential]\n"
                f"expr = {text}\n\n[run]\nn_max = 2\n")
    assert main(["pressure", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


_HITS = "[system]\nkind = doubling\n\n[target]\ny = 0.3\nrate = const:1\n\n[run]\n"

# command, config, extra arguments, exit status, its one error line
_REFUSALS = {
    "empty-ratios": ("dimension", "[system]\nkind = affine\nratios = ,\n\n[run]\nn_max = 2\n",
                     (), 2, "[system] needs 'ratios'"),
    "empty-subset": ("dimension", "[system]\nkind = doubling\n\n[run]\nsubset = ,\n", (), 2,
                     "empty subset spec ','"),
    "const-code-of-two": ("hits", _HITS + "code = const:1,2\n", (), 2,
                          "const code takes exactly one symbol"),
    "empty-cycle-code": ("hits", _HITS + "code = cycle:\n", (), 2,
                         "cycle code needs at least one symbol"),
    "build-on-gauss": ("counterexample-build",
                       "[system]\nkind = gauss\n\n[run]\nsystem_out = {built}\n", (), 2,
                       "counterexample-build needs [system] kind = counterexample"),
    "verify-on-doubling": ("counterexample-verify", "[system]\nkind = doubling\n", (), 2,
                           "counterexample-verify needs a counterexample system"),
    "subset-over-budget": ("dimension", "[system]\nkind = gauss\n\n[run]\nsubset = 1..100\n",
                           ("--budget", "50"), 3,
                           "budget 'subset' exceeded: 100 needed, budget 50"),
}


@pytest.mark.parametrize("name", sorted(_REFUSALS))
def test_refusal_exits_with_one_line(tmp_path, capsys, name):
    command, text, args, status, message = _REFUSALS[name]
    built = tmp_path / "ce.ini"
    cfg = write(tmp_path, "c.ini", text.format(built=built))
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out), *args]) == status
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists() and not built.exists()


# ---------------------------------------------------------------- commands

def test_spectrum_matches_closed_form(tmp_path):
    cfg = write(tmp_path, "spec.ini", """
[system]
kind = doubling

[run]
alphas = 0.5, 1, 2
tol = 1e-9
""")
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert header == ["alpha", "value", "lower", "upper", "certified"]
    for row in rows:
        alpha, value = float(row[0]), float(row[1])
        assert value == pytest.approx(math.log(2) / (math.log(2) + alpha), abs=1e-9)
        assert row[4] == "True"


def test_pressure_two_branch_zero_potential(tmp_path):
    cfg = write(tmp_path, "p.ini", """
[system]
kind = doubling

[potential]
expr = const(0)

[run]
n_max = 3
""")
    out = tmp_path / "p.csv"
    assert main(["pressure", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert float(rows[0][0]) == pytest.approx(math.log(2), rel=1e-12)
    assert float(rows[0][1]) == pytest.approx(math.log(2), rel=1e-12)


def test_counterexample_round_trip(tmp_path):
    built = tmp_path / "built.ini"
    cfg = write(tmp_path, "ce.ini", f"""
[system]
kind = counterexample
beta = 0.5
phi = power:1

[run]
system_out = {built}
""")
    out = tmp_path / "build.csv"
    assert main(["counterexample-build", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_rows(out)
    summary = rows[0]
    assert summary[0] == "summary"
    assert float(summary[4]) <= 1e-10
    widths_first = {row[0]: row[1] for row in rows[1:]}

    vcfg = write(tmp_path, "verify.ini", f"""
[system]
kind = counterexample_file
path = {built}
""")
    vout = tmp_path / "verify.csv"
    assert main(["counterexample-verify", "--config", vcfg, "--out", str(vout)]) == 0
    _, vrows = read_rows(vout)
    assert float(vrows[0][2]) <= 1e-10

    # round trip: rebuilding from the serialized file reproduces the table
    out2 = tmp_path / "build2.csv"
    cfg2 = write(tmp_path, "ce2.ini", f"""
[system]
kind = counterexample
beta = 0.5
phi = power:1

[run]
system_out = {tmp_path / 'built2.ini'}
""")
    assert main(["counterexample-build", "--config", cfg2, "--out", str(out2)]) == 0
    _, rows2 = read_rows(out2)
    widths_second = {row[0]: row[1] for row in rows2[1:]}
    assert widths_first == widths_second


@pytest.mark.parametrize("beta", [0.5, 0.7, 0.8])
def test_counterexample_build_rows_are_the_composed_images(tmp_path, beta):
    cfg = write(tmp_path, "ce.ini", "[system]\nkind = counterexample\n"
                f"beta = {beta}\nphi = power:1\n[run]\nsystem_out = {tmp_path / 'ce_out.ini'}\n")
    out = tmp_path / "build.csv"
    assert main(["counterexample-build", "--config", cfg, "--out", str(out)]) == 0
    image = build_counterexample(beta, ShrinkFn.power(1)).branch_interval
    _, rows = read_rows(out)
    branch_rows = [row for row in rows if row[0].startswith("branch_")]
    assert branch_rows
    for row in branch_rows:
        iv = image(int(row[0].removeprefix("branch_")))
        assert (float(row[2]), float(row[3])) == (iv.lo, iv.hi)


@pytest.mark.parametrize("phi", ["power:1.23456789", "exp:0.123456789"])
def test_counterexample_file_reloads_the_built_branches(tmp_path, phi):
    # the system file keeps phi as it was read, so the reloaded system's
    # branches are the built ones, bit for bit
    built = tmp_path / "built.ini"
    cfg = write(tmp_path, "ce.ini", "[system]\nkind = counterexample\nbeta = 0.7\n"
                f"phi = {phi}\n[run]\nsystem_out = {built}\n")
    out = tmp_path / "build.csv"
    assert main(["counterexample-build", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_rows(out)
    branch_rows = [row for row in rows if row[0].startswith("branch_")]
    assert branch_rows
    reload = configparser.ConfigParser()
    reload["system"] = {"kind": "counterexample_file", "path": str(built)}
    ce = shrinktarget.cli._load_system(reload["system"], 10**6).system
    image = ce.branch_interval
    for row in branch_rows:
        n = int(row[0].removeprefix("branch_"))
        iv = image(n)
        assert row[1:4] == [repr(ce.log_width(n)), repr(iv.lo), repr(iv.hi)]


@pytest.mark.parametrize("truncation", [None, "20"])
def test_counterexample_build_system_file_keys(tmp_path, truncation):
    # the loader rebuilds from beta and phi, so the file holds nothing else
    built = tmp_path / "built.ini"
    extra = "" if truncation is None else f"truncation = {truncation}\n"
    cfg = write(tmp_path, "ce.ini", "[system]\nkind = counterexample\nbeta = 0.7\n"
                f"phi = power:1\n{extra}[run]\nsystem_out = {built}\n")
    assert main(["counterexample-build", "--config", cfg, "--out",
                 str(tmp_path / "build.csv")]) == 0
    written = configparser.ConfigParser()
    written.read(built)
    assert written.sections() == ["system"]
    expected = {"kind": "counterexample", "beta": "0.7", "phi": "power:1"}
    if truncation is not None:
        expected["truncation"] = truncation
    assert dict(written["system"]) == expected


def test_hits_csv_statuses(tmp_path):
    cfg = write(tmp_path, "h.ini", """
[system]
kind = doubling

[target]
y = 0.0
rate = const:1.0

[run]
code = const:1
horizon = 10
""")
    out = tmp_path / "h.csv"
    assert main(["hits", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert len(rows) == 10
    assert all(row[1] == "hit" for row in rows)


def test_hits_manifest_counts_window_symbols(tmp_path):
    # the doubling odometer past the precision floor: every epoch decides on
    # a probe of depth 2 or 4, far below its 934-symbol xi-depth window
    cfg = write(tmp_path, "h.ini", "[system]\nkind = doubling\n[target]\ny = 0.3\n"
                "rate = const:1\n[run]\ncode = cycle:1,2\nhorizon = 2000\n")
    outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for out in outs:
        assert main(["hits", "--config", cfg, "--out", str(out)]) == 0
    assert outs[0].read_text() == outs[1].read_text()
    manifest = outs[0].read_text().splitlines()
    lines = [k for k, line in enumerate(manifest) if line.startswith("# window")]
    assert len(lines) == 2
    report = shrinktarget.hit_times(shrinktarget.doubling_map(), itertools.cycle([1, 2]),
                                    shrinktarget.TargetSpec(0.3, shrinktarget.Constant(1.0)),
                                    2000)
    assert manifest[lines[0]] == f"# window_symbols = {report.window_symbols}"
    assert manifest[lines[0] + 1] == f"# windows_composed = {report.windows_composed}"
    assert report.window_symbols <= 6 * 2000
    # the two shifts of the 2-cycle probe a few depths each
    assert 0 < report.windows_composed <= 2 * 12


def test_density_csv(tmp_path):
    cfg = write(tmp_path, "d.ini", """
[system]
kind = doubling

[target]
y = 0.0

[run]
n = 3
r = 0.25
""")
    out = tmp_path / "d.csv"
    assert main(["density", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert float(rows[0][2]) == pytest.approx(0.5)


@pytest.mark.parametrize("rate", ["const:1", "potential:scale(1e308, scale(1e308, psi))", "x"])
def test_density_reads_no_rate(tmp_path, rate):
    # the ball B(y, r) has a fixed radius: a rate that cover and hits would
    # refuse is left unparsed, and the rows equal those of a config without it
    run = "\n[run]\nn = 3\nr = 0.25\n"
    plain = write(tmp_path, "plain.ini", "[system]\nkind = doubling\n\n[target]\ny = 0.3\n" + run)
    rated = write(tmp_path, "rated.ini",
                  f"[system]\nkind = doubling\n\n[target]\ny = 0.3\nrate = {rate}\n" + run)
    assert main(["density", "--config", plain, "--out", str(tmp_path / "plain.csv")]) == 0
    assert main(["density", "--config", rated, "--out", str(tmp_path / "rated.csv")]) == 0
    assert read_rows(tmp_path / "rated.csv")[1] == read_rows(tmp_path / "plain.csv")[1]


def test_cover_csv(tmp_path):
    cfg = write(tmp_path, "c.ini", """
[system]
kind = doubling

[target]
y = 0.0
rate = const:0.6931471805599453

[run]
s = 1.0
m = 3
n_max = 6
""")
    out = tmp_path / "c.csv"
    assert main(["cover", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert [int(r[0]) for r in rows] == [3, 4, 5, 6]
    assert float(rows[0][1]) == pytest.approx(0.125, rel=1e-9)


def test_cover_with_a_huge_constant_rate_is_silent(tmp_path):
    # -n * rate overflows to -inf, so every ball misses every branch image;
    # a numpy scalar product used to warn about the overflow on stderr
    cfg = write(tmp_path, "c.ini", "[system]\nkind = doubling\n\n[target]\ny = 0.3\n"
                "rate = const:1e308\n\n[run]\ns = 0.5\nm = 1\nn_max = 2\n")
    out = tmp_path / "c.csv"
    proc = run_cli(["cover", "--config", cfg, "--out", str(out)])
    assert (proc.returncode, proc.stderr) == (0, "")
    _, rows = read_rows(out)
    assert rows == [["1", "0.0"], ["2", "0.0"]]


def test_byte_identical_reruns(tmp_path):
    cfg = write(tmp_path, "spec.ini", """
[system]
kind = gauss
truncation = 8

[run]
alphas = 1, 2
tol = 1e-6
n_max = 2
""")
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["spectrum", "--config", cfg, "--out", str(a)]) == 0
    assert main(["spectrum", "--config", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def _manifest_value(path, key):
    prefix = f"# {key} = "
    return [l[len(prefix):] for l in path.read_text().splitlines() if l.startswith(prefix)]


def test_pressure_brackets_in_the_manifest(tmp_path):
    cfg = write(tmp_path, "spec.ini", """
[system]
kind = doubling

[run]
alphas = 0.25, 0.5, 1, 2, 4, 8
tol = 1e-12
""")
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    (count,) = _manifest_value(out, "pressure_brackets")
    assert 6 <= int(count) <= 36
    assert all(row[4] == "True" for row in read_rows(out)[1])
    cfg = write(tmp_path, "dim.ini", "[system]\nkind = doubling\n\n[run]\nn_max = 4\n")
    out = tmp_path / "dim.csv"
    assert main(["dimension", "--config", cfg, "--out", str(out)]) == 0
    (count,) = _manifest_value(out, "pressure_brackets")
    assert 2 <= int(count) <= 6


def test_matrix_depth_in_the_manifest(tmp_path):
    # an affine table builds no matrix; Gauss {1,2} certifies E2 at matrix
    # depth 8, reading levels 8 and 9 alone
    cfg = write(tmp_path, "dim.ini", "[system]\nkind = doubling\n\n[run]\nn_max = 4\n")
    out = tmp_path / "dim.csv"
    assert main(["dimension", "--config", cfg, "--out", str(out)]) == 0
    assert _manifest_value(out, "matrix_depth") == ["0"]
    cfg = write(tmp_path, "e2.ini", "[system]\nkind = gauss\n\n"
                "[run]\nsubset = 1,2\nn_max = 16\ntol = 5e-3\n")
    assert main(["dimension", "--config", cfg, "--out", str(out)]) == 0
    assert _manifest_value(out, "matrix_depth") == ["8"]
    assert _manifest_value(out, "truncation") == ["F={1,2} n=9"]
    cfg = write(tmp_path, "spec.ini", "[system]\nkind = gauss\n\n"
                "[run]\nsubset = 1..4\nn_max = 6\ntol = 5e-2\nalphas = 4, 0.9\n")
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    # the deepest over the rows: 1 at alpha = 4, 3 at alpha = 0.9
    assert _manifest_value(out, "matrix_depth") == ["3"]


# ---------------------------------------------------------------- errors

def test_missing_config_file(tmp_path, capsys):
    assert main(["spectrum", "--config", str(tmp_path / "absent.ini")]) == 2
    assert "not found" in capsys.readouterr().err


def test_parse_error_reports_line(tmp_path, capsys):
    cfg = write(tmp_path, "bad.ini", "[system\nkind = doubling\n")
    assert main(["spectrum", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "parse failure" in err and "line" in err.lower()


def test_extra_section_rejected(tmp_path, capsys):
    cfg = write(tmp_path, "x.ini", """
[system]
kind = doubling

[target]
y = 0
rate = const:1

[run]
alphas = 1
""")
    assert main(["spectrum", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "unexpected config section" in err and "target" in err


def test_missing_section_rejected(tmp_path, capsys):
    cfg = write(tmp_path, "x.ini", "[system]\nkind = doubling\n")
    assert main(["dimension", "--config", cfg]) == 2
    assert "missing config section" in capsys.readouterr().err


def test_affine_countable_geometric_system(tmp_path):
    # widths 0.5^i packed from 0: Moran sum at s=1 over the full family is 1,
    # so the dimension solver should certify a value near 1
    cfg = write(tmp_path, "g.ini", """
[system]
kind = affine_countable
widths = geometric:0.5,0.5

[run]
subset = 1..20
use_tail = true
tol = 1e-6
n_max = 1
""")
    out = tmp_path / "g.csv"
    assert main(["dimension", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert float(rows[0][0]) == pytest.approx(1.0, abs=1e-5)


@pytest.mark.parametrize("widths, message", [
    ("geometric:0.5,1.5", "geometric widths need a > 0 and 0 < q < 1"),
    ("geometric:0.6,0.5", "geometric widths exceed total length 1"),
    # 1 - q rounds to 1, so only a >= 1 shows the excess (and keeps xi = 1/a above 1)
    ("geometric:1,1e-300", "geometric widths exceed total length 1"),
])
def test_affine_countable_bad_widths_exit_2(tmp_path, capsys, widths, message):
    cfg = write(tmp_path, "g.ini", f"[system]\nkind = affine_countable\nwidths = {widths}\n"
                "\n[run]\nn_max = 1\n")
    assert main(["dimension", "--config", cfg]) == 2
    assert capsys.readouterr().err.strip() == f"error: {message}"


def test_budget_exit_code(tmp_path, capsys):
    # affine systems factorize and never enumerate, so the budget bites on a
    # genuinely enumerated family
    cfg = write(tmp_path, "big.ini", """
[system]
kind = gauss
truncation = 8

[run]
tol = 1e-6
n_max = 12
""")
    assert main(["dimension", "--config", cfg, "--budget", "100"]) == 3
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-5"])
@pytest.mark.parametrize("system, run", [("doubling", ""), ("gauss", "subset = 1..3\n")],
                         ids=["doubling", "gauss-1..3"])
def test_budget_below_one_exits_2(tmp_path, capsys, system, run, budget):
    cfg = write(tmp_path, "b.ini", f"[system]\nkind = {system}\n\n[run]\n{run}n_max = 4\n"
                "tol = 1e-6\n")
    out = tmp_path / "b.csv"
    assert main(["dimension", "--config", cfg, "--out", str(out), "--budget", budget]) == 2
    assert capsys.readouterr().err == f"error: --budget: expected an int >= 1, got {budget}\n"
    assert not out.exists()


@pytest.mark.parametrize("system, subset", [("gauss", "1..3"), ("doubling", "1,2")])
def test_overflowing_potential_exits_2(tmp_path, capsys, system, subset):
    # psi_coef = 1e308 * 1e308 is inf: the bracket read nan or -inf before
    cfg = write(tmp_path, "p.ini", f"[system]\nkind = {system}\n\n[potential]\n"
                "expr = scale(1e308, scale(1e308, psi))\n\n"
                f"[run]\nsubset = {subset}\nn_max = 2\n")
    out = tmp_path / "p.csv"
    assert main(["pressure", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: potential flattens to inf * psi")
    assert "must be finite" in err and len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tolerance_rejected(tmp_path, capsys, tol):
    cfg = write(tmp_path, "t.ini", f"""
[system]
kind = doubling

[run]
tol = {tol}
""")
    out = tmp_path / "t.csv"
    assert main(["dimension", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "tolerance" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


_TARGET = """
[system]
kind = doubling

[target]
y = 0.0
rate = const:1.0

[run]
"""


@pytest.mark.parametrize("command, keys, missing", [
    ("cover", {"s": "1.0", "m": "3", "n_max": "6"}, "s"),
    ("cover", {"s": "1.0", "m": "3", "n_max": "6"}, "m"),
    ("cover", {"s": "1.0", "m": "3", "n_max": "6"}, "n_max"),
    ("density", {"n": "3", "r": "0.25"}, "n"),
    ("density", {"n": "3", "r": "0.25"}, "r"),
])
def test_missing_required_run_key(tmp_path, capsys, command, keys, missing):
    run = "".join(f"{k} = {v}\n" for k, v in keys.items() if k != missing)
    cfg = write(tmp_path, "k.ini", _TARGET + run)
    out = tmp_path / "k.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.strip() == f"error: [run] needs {missing!r}"
    assert not out.exists()


@pytest.mark.parametrize("run, message", [
    ("n = three\nr = 0.25\n", "[run] n: expected int"),
    ("n = 3\nr = nan\n", "[run] r: expected a finite number"),
])
def test_malformed_required_run_key(tmp_path, capsys, run, message):
    cfg = write(tmp_path, "k.ini", _TARGET + run)
    assert main(["density", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert message in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command, target, run, message", [
    ("density", "y = nan\nrate = const:1.0\n", "n = 3\nr = 0.25\n", "[target] y"),
    ("density", "y = 1.5\n", "n = 3\nr = 0.25\n", "in [0, 1]"),
    ("hits", "y = nan\nrate = const:1.0\n", "code = const:1\nhorizon = 5\n", "[target] y"),
    ("hits", "y = 1.5\nrate = const:1.0\n", "code = const:1\nhorizon = 5\n", "in [0, 1]"),
    ("hits", "y = 0.0\nrate = const:nan\n", "code = const:1\nhorizon = 5\n", "[target] rate"),
    ("cover", "y = 0.0\nrate = const:inf\n", "s = 1.0\nm = 1\nn_max = 3\n", "[target] rate"),
])
def test_non_finite_target_rejected(tmp_path, capsys, command, target, run, message):
    cfg = write(tmp_path, "t.ini", "[system]\nkind = doubling\n\n[target]\n" + target
                + "\n[run]\n" + run)
    out = tmp_path / "t.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("alphas", ["nan, 1", "1, inf"])
def test_non_finite_alphas_rejected(tmp_path, capsys, alphas):
    cfg = write(tmp_path, "a.ini", f"[system]\nkind = doubling\n\n[run]\nalphas = {alphas}\n")
    out = tmp_path / "a.csv"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [run] alphas: expected a finite number")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_seq_flag_removed(tmp_path, capsys):
    cfg = write(tmp_path, "s.ini", "[system]\nkind = doubling\n\n[run]\nalphas = 1\n")
    with pytest.raises(SystemExit) as info:
        main(["spectrum", "--config", cfg, "--seq"])
    assert info.value.code == 2


def run_cli(args, timeout=60, address_space=None):
    """The CLI in a child process, so that a hang fails the test instead of
    stalling the suite; ``address_space`` caps the child's memory in bytes,
    so that a runaway allocation fails instead of exhausting the machine."""
    env = dict(os.environ)
    src = str(Path(shrinktarget.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cap = None if address_space is None else (
        lambda: resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space)))
    return subprocess.run([sys.executable, "-m", "shrinktarget.cli", *args],
                          capture_output=True, text=True, timeout=timeout, env=env,
                          preexec_fn=cap)


_OVERSIZE = {
    "gauss-truncation": ("dimension", "[system]\nkind = gauss\ntruncation = 1000000000\n"
                         "[run]\nn_max = 2\n"),
    "counterexample-truncation": ("dimension", "[system]\nkind = counterexample\nbeta = 0.5\n"
                                  "phi = power:1\ntruncation = 1000000000\n[run]\nn_max = 1\n"),
    "subset": ("pressure", "[system]\nkind = gauss\n[potential]\nexpr = psi\n"
               "[run]\nsubset = 1..1000000000\n"),
    "ladder": ("dimension", "[system]\nkind = gauss\n[run]\nladder = 1..4; 1..1000000000\n"
               "n_max = 2\n"),
    "table-depth": ("counterexample-build", "[system]\nkind = counterexample\nbeta = 0.5\n"
                    "phi = power:1\n[run]\nsystem_out = {out}\ntable_depth = 1000000000\n"),
    "horizon": ("hits", "[system]\nkind = doubling\n[target]\ny = 0.3\nrate = const:1\n"
                "[run]\ncode = cycle:1,2\nhorizon = 1000000000\n"),
}


@pytest.mark.parametrize("name", sorted(_OVERSIZE))
def test_oversize_keys_exit_3_before_allocating(tmp_path, name):
    # each key asks for 10^9 symbols or table rows, tens of GB as Python
    # sets; under a 1.5 GB cap an allocation would die with MemoryError
    command, text = _OVERSIZE[name]
    system_out = tmp_path / "ce.ini"
    cfg = write(tmp_path, "big.ini", text.format(out=system_out))
    proc = run_cli([command, "--config", cfg, "--budget", "5000"], timeout=30,
                   address_space=1536 << 20)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: budget '") and "1e+09" in proc.stderr
    assert "words" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert not system_out.exists()


def test_hits_budget_bounds_the_window_symbols(tmp_path):
    # 20000 epochs are within the default budget, but their xi-depth windows
    # at the precision floor (934 symbols each on doubling) are not; the CLI
    # charges them although probe windows decide these epochs at depth 4
    cfg = write(tmp_path, "h.ini", "[system]\nkind = doubling\n[target]\ny = 0.3\n"
                "rate = const:1\n[run]\ncode = cycle:1,2\nhorizon = 20000\n")
    proc = run_cli(["hits", "--config", cfg], timeout=5)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: budget 'horizon' exceeded")
    assert len(proc.stderr.strip().splitlines()) == 1


def test_non_nested_ladder_exits_2(tmp_path, capsys):
    # the final rung {1} has a one-point limit set; a bracket decided on
    # {1, 2} must not be reported as certified for it
    cfg = write(tmp_path, "l.ini", "[system]\nkind = doubling\n\n[run]\nladder = 1,2; 1\n"
                "n_max = 4\ntol = 1e-3\n")
    out = tmp_path / "l.csv"
    assert main(["dimension", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: truncation ladder rung 1 is not a subset of rung 2\n"
    assert not out.exists()


def test_reversed_subset_range_exits_2(tmp_path):
    # read as {1} this subset would need an n_max; it must be refused instead
    cfg = write(tmp_path, "r.ini", "[system]\nkind = doubling\n\n[potential]\nexpr = psi\n\n"
                "[run]\nsubset = 1, 5..3\n")
    proc = run_cli(["pressure", "--config", cfg])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "5..3" in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


def _counterexample_fixed_point():
    # the fixed point of branch 1, the affine map onto its image [l, h]
    v1 = shrinktarget.build_counterexample(
        0.5, shrinktarget.ShrinkFn.power(1.0)).branch_interval(1)
    lo, hi = Fraction(v1.lo), Fraction(v1.hi)
    return lo / (1 - (hi - lo))


@pytest.mark.parametrize("system, code, orbit", [
    ("kind = doubling", "cycle:1,2", lambda n: Fraction(1 + n % 2, 3)),
    ("kind = counterexample\nbeta = 0.5\nphi = power:1", "const:1",
     lambda n: _counterexample_fixed_point()),
], ids=["doubling", "counterexample"])
def test_hits_below_float_spacing_run_in_seconds(tmp_path, system, code, orbit):
    # the thresholds e^-n fall below the float spacing at the orbit points,
    # where hit windows used to double their depth up to 100,000 symbols
    # (8 to 15 s); a run now takes well under a second
    mp = pytest.importorskip("mpmath")
    cfg = write(tmp_path, "h.ini", f"[system]\n{system}\n\n[target]\ny = 0.3\n"
                f"rate = const:1\n\n[run]\ncode = {code}\nhorizon = 50\n")
    out = tmp_path / "h.csv"
    proc = run_cli(["hits", "--config", cfg, "--out", str(out)], timeout=5)
    assert proc.returncode == 0, proc.stderr
    _, rows = read_rows(out)
    with mp.workdps(60):
        def status(n):
            d = abs(orbit(n) - Fraction(0.3))
            return "hit" if mp.mpf(d.numerator) / d.denominator < mp.exp(-n) else "miss"
        assert rows == [[str(n), status(n)] for n in range(1, 51)]


@pytest.mark.parametrize("command, sections", [
    ("dimension", "[run]\nsubset = 1\ntol = 1e-3\n"),
    ("pressure", "[potential]\nexpr = psi\n\n[run]\nsubset = 1\n"),
])
def test_one_symbol_subset_without_n_max_exits_2(tmp_path, command, sections):
    cfg = write(tmp_path, "one.ini", f"[system]\nkind = doubling\n\n{sections}")
    out = tmp_path / "one.csv"
    proc = run_cli([command, "--config", cfg, "--out", str(out)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "set n_max" in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert not out.exists()


def test_one_symbol_subset_with_n_max(tmp_path):
    cfg = write(tmp_path, "one.ini", "[system]\nkind = doubling\n\n[potential]\nexpr = psi\n\n"
                "[run]\nsubset = 1\nn_max = 3\n")
    out = tmp_path / "one.csv"
    assert main(["pressure", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert header == ["lower", "upper", "diverged"]
    # the partition sums are rounded outward, around the exact -log 2
    assert float(rows[0][0]) < -math.log(2.0) < float(rows[0][1])
    assert float(rows[0][1]) - float(rows[0][0]) < 4e-14


def test_tolerance_below_float_resolution_exits_2(tmp_path):
    cfg = write(tmp_path, "t.ini", "[system]\nkind = doubling\n\n[run]\ntol = 1e-20\n")
    out = tmp_path / "t.csv"
    proc = run_cli(["dimension", "--config", cfg, "--out", str(out)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: tolerance 1e-20 is below float resolution")
    assert len(proc.stderr.strip().splitlines()) == 1
    assert not out.exists()


def test_exponent_at_the_bisection_floor_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "one.ini", "[system]\nkind = doubling\n\n[run]\nsubset = 1\nn_max = 3\n")
    assert main(["dimension", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "the exponent is at most 1e-06" in err and "one-symbol subset" in err
    assert len(err.strip().splitlines()) == 1


def test_hit_code_outside_the_alphabet_exits_2(tmp_path):
    cfg = write(tmp_path, "h.ini", "[system]\nkind = doubling\n\n[target]\ny = 0.3\n"
                "rate = potential:psi\n\n[run]\ncode = const:3\nhorizon = 5\n")
    proc = run_cli(["hits", "--config", cfg])
    assert proc.returncode == 2
    assert proc.stderr.strip() == "error: symbol 3 not in the system alphabet"


def test_hit_code_symbol_that_nothing_reads_still_exits_2(tmp_path):
    # the 3 opens the code, so it lies in no window, and a constant rate
    # folds no symbol: the code still names no orbit
    code = "cycle:3," + ",".join(["1,2"] * 40)
    cfg = write(tmp_path, "h.ini", "[system]\nkind = doubling\n\n[target]\ny = 0.3\n"
                f"rate = const:1\n\n[run]\ncode = {code}\nhorizon = 3\n")
    proc = run_cli(["hits", "--config", cfg])
    assert proc.returncode == 2
    assert proc.stderr.strip() == "error: symbol 3 not in the system alphabet"


@pytest.mark.parametrize("system, message", [
    ("ratios = 0.5, 0.6\n", "error: branch 2 image [0.5, 1.1] leaves [0, 1]"),
    ("ratios = 0.5, 0.3\nplacements = 0, 0.9\n", "error: branch 2 image [0.9, 1.2] leaves [0, 1]"),
], ids=["packed", "placed"])
def test_affine_branch_image_outside_the_unit_interval_exits_2(tmp_path, system, message):
    cfg = write(tmp_path, "a.ini", f"[system]\nkind = affine\n{system}\n[run]\nn_max = 2\n")
    proc = run_cli(["dimension", "--config", cfg])
    assert proc.returncode == 2
    assert proc.stderr.strip() == message
    assert len(proc.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("command, system, run, message", [
    ("dimension", "kind = doubling\n", "subset = 1, x\n", "error: subset '1, x': expected int, got 'x'"),
    ("dimension", "kind = doubling\n", "n_max = 0\n", "error: [run] n_max: expected an int >= 1, got '0'"),
    ("dimension", "kind = gauss\ntruncation = -1\n", "n_max = 2\n",
     "error: [system] truncation: expected an int >= 1, got '-1'"),
    ("dimension", "kind = doubling\n", "use_tail = maybe\n",
     "error: [run] use_tail: expected bool, got 'maybe'"),
    ("dimension", "kind = affine\nratios = 0.5, x\n", "",
     "error: [system] ratios: expected float, got 'x'"),
    ("spectrum", "kind = doubling\n", "alphas =\n", "error: [run] needs 'alphas'"),
    ("counterexample-verify", "kind = counterexample\nphi = power:1\n", "",
     "error: [system] needs 'beta'"),
])
def test_keys_are_read_by_one_typed_reader(tmp_path, capsys, command, system, run, message):
    cfg = write(tmp_path, "k.ini", f"[system]\n{system}\n[run]\n{run}")
    assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err.strip() == message


def test_counterexample_file_must_hold_a_counterexample(tmp_path, capsys):
    # a file that names itself used to recurse until Python's stack limit
    cfg = tmp_path / "self.ini"
    cfg.write_text(f"[system]\nkind = counterexample_file\npath = {cfg}\n")
    assert main(["counterexample-verify", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: serialized system file") and "kind = counterexample" in err
    assert len(err.strip().splitlines()) == 1


_CE = "kind = counterexample\nbeta = 0.5\nphi = power:1\n"


@pytest.mark.parametrize("command, text, message", [
    ("dimension", "[system]\nkind = doubling\nratio = 0.3\n\n[run]\nn_mx = 4\ntoll = 1e-3\n",
     "[run] unknown key(s) ['n_mx', 'toll']; it reads ['ladder', 'n_max', 'subset', 'tol', "
     "'use_tail']"),
    ("dimension", "[system]\nkind = doubling\nratio = 0.3\n\n[run]\nn_max = 4\n",
     "[system] unknown key(s) ['ratio']; it reads ['kind']"),
    ("pressure", "[system]\nkind = doubling\n\n[potential]\nexp = const(0)\n\n[run]\n",
     "[potential] unknown key(s) ['exp']; it reads ['expr']"),
    ("cover", "[system]\nkind = doubling\n\n[target]\ny = 0.3\nrate = const:1\nr = 0.1\n\n"
     "[run]\ns = 1\nm = 1\nn_max = 2\n", "[target] unknown key(s) ['r']; it reads ['rate', 'y']"),
    ("counterexample-build", f"[system]\n{_CE}\n[run]\nsystem_out = {{built}}\ntable_dept = 5\n",
     "[run] unknown key(s) ['table_dept']; it reads ['system_out', 'table_depth']"),
    ("counterexample-verify", f"[system]\n{_CE}\n[run]\nn_max = 1\n",
     "[run] unknown key(s) ['n_max']; it reads []"),
    ("counterexample-verify", "[system]\nkind = counterexample_file\npath = {ce}\n",
     "serialized system file '{ce}': [system] unknown key(s) ['truncaton']; it reads "
     "['beta', 'kind', 'phi', 'truncation']"),
], ids=["run", "system", "potential", "target", "build-run", "verify-run", "file-system"])
def test_unknown_key_exits_2_before_any_file_is_written(tmp_path, capsys, command, text,
                                                         message):
    # a key no reader reads used to be ignored: the first config printed a
    # certified dimension at the default tol and n_max
    ce, built = tmp_path / "ce.ini", tmp_path / "built.ini"
    ce.write_text(f"[system]\n{_CE}truncaton = 50\n")
    cfg = write(tmp_path, "k.ini", text.format(ce=ce, built=built))
    out = tmp_path / "k.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message.format(ce=ce)}\n"
    assert not out.exists() and not built.exists()


@pytest.mark.parametrize("inner, message", [
    ("beta = 0.5\nphi = power:1\ntruncaton = 50\n",
     "[system] unknown key(s) ['truncaton']; it reads ['beta', 'kind', 'phi', 'truncation']"),
    ("phi = power:1\n", "[system] needs 'beta'"),
    ("beta = 0.5\nphi = power:1\ntruncation = x\n",
     "[system] truncation: expected int, got 'x'"),
    ("beta = 0.5\nphi = cubic:1\n",
     "unknown shrink function spec 'cubic:1' (use power:p or exp:c)"),
], ids=["unknown-key", "missing-key", "malformed-key", "malformed-phi"])
def test_counterexample_file_errors_name_the_file(tmp_path, capsys, inner, message):
    # these read '[system] ...' alone, as if the config itself were wrong
    ce = tmp_path / "ce.ini"
    ce.write_text(f"[system]\nkind = counterexample\n{inner}")
    cfg = write(tmp_path, "v.ini", f"[system]\nkind = counterexample_file\npath = {ce}\n")
    assert main(["counterexample-verify", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"error: serialized system file {str(ce)!r}: {message}\n"


def test_out_in_a_missing_directory_exits_2_before_the_system_is_loaded(tmp_path, capsys,
                                                                         monkeypatch):
    # it used to be reported by the final write, after the whole run
    def fail(*args):
        raise AssertionError("the run went ahead")

    monkeypatch.setattr(cli, "_load_system", fail)
    monkeypatch.setitem(cli._COMMANDS, "dimension", (fail, cli._COMMANDS["dimension"][1]))
    cfg = write(tmp_path, "d.ini", "[system]\nkind = doubling\n\n[run]\nn_max = 4\n")
    out = tmp_path / "missing" / "d.csv"
    assert main(["dimension", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: [Errno 2] No such file or directory: {str(out.parent)!r}\n")


def test_a_failed_run_leaves_an_existing_out_as_it_was(tmp_path):
    cfg = write(tmp_path, "d.ini", "[system]\nkind = doubling\n\n[run]\nn_max = 4\ntol = -1\n")
    out = tmp_path / "d.csv"
    out.write_text("kept\n")
    assert main(["dimension", "--config", cfg, "--out", str(out)]) == 2
    assert out.read_text() == "kept\n"


def test_subset_and_ladder_together_exit_2(tmp_path, capsys):
    # the ladder used to win silently: F={1,2} was reported for subset 1..3
    cfg = write(tmp_path, "l.ini", "[system]\nkind = gauss\n\n[run]\nsubset = 1..3\n"
                "ladder = 1,2\nn_max = 4\ntol = 1e-2\n")
    out = tmp_path / "l.csv"
    assert main(["dimension", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: [run] takes a subset or a ladder, not both\n"
    assert not out.exists()


@pytest.mark.parametrize("out, system_out", [("missing/out.csv", "ce.ini"),
                                             ("out.csv", "missing/ce.ini")],
                         ids=["out", "system_out"])
def test_output_in_a_missing_directory_exits_2(tmp_path, capsys, out, system_out):
    cfg = write(tmp_path, "b.ini",
                f"[system]\n{_CE}\n[run]\nsystem_out = {tmp_path / system_out}\n")
    assert main(["counterexample-build", "--config", cfg, "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno") and "missing" in err
    assert len(err.strip().splitlines()) == 1


# one valid config per command, [system] aside; together with the system
# kinds below they lead the readers to every key they read
_VALID_SECTIONS = {
    "pressure": ["[potential]\nexpr = psi\n\n[run]\nn_max = 2\n"],
    "dimension": ["[run]\nn_max = 2\ntol = 1e-3\n", "[run]\nladder = 1; 1,2\nn_max = 2\n"],
    "spectrum": ["[run]\nalphas = 1\ntol = 1e-3\n"],
    "cover": ["[target]\ny = 0.3\nrate = const:1\n\n[run]\ns = 1\nm = 1\nn_max = 2\n"],
    "density": ["[target]\ny = 0.3\n\n[run]\nn = 2\nr = 0.1\n"],
    "hits": ["[target]\ny = 0.3\nrate = const:1\n\n[run]\ncode = cycle:1,2\nhorizon = 5\n"],
    "counterexample-build": ["[run]\nsystem_out = {built}\n"],
    "counterexample-verify": ["", "[run]\n"],
}


def test_the_key_table_is_the_keys_the_readers_read(tmp_path, monkeypatch):
    cli = shrinktarget.cli
    read = set()
    real = cli._key

    def recording(section, key, *args, **kwargs):
        read.add((section.name, key))
        return real(section, key, *args, **kwargs)

    monkeypatch.setattr(cli, "_key", recording)
    ce = tmp_path / "ce.ini"
    ce.write_text(f"[system]\n{_CE}")
    paths = {"ce": ce, "built": tmp_path / "built.ini"}

    def keys_read(command, system, sections):
        read.clear()
        text = f"[system]\n{system.format(**paths)}\n{sections.format(**paths)}"
        cfg = write(tmp_path, "c.ini", text)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "c.csv")]) == 0, text
        return read

    for system in _SYSTEMS:
        kind = system["kind"]
        text = "".join(f"{key} = {value}\n" for key, value in system.items())
        got = {key for name, key in keys_read("dimension", text, "[run]\nn_max = 1\ntol = 1e-3\n")
               if name == "system"}
        inner = cli._SYSTEM_KEYS["counterexample"] if kind == "counterexample_file" else ()
        assert got == {"kind", *cli._SYSTEM_KEYS[kind], *inner}, kind
    assert {system["kind"] for system in _SYSTEMS} == set(cli._SYSTEM_KEYS)

    assert set(_VALID_SECTIONS) == set(cli._COMMANDS)
    for command, configs in _VALID_SECTIONS.items():
        sections = cli._COMMANDS[command][1]
        got = {name: set() for name in sections}
        system = _CE if command.startswith("counterexample") else "kind = doubling\n"
        for text in configs:
            for name, key in keys_read(command, system, text):
                if name != "system":
                    got[name].add(key)
        want = {name: set(keys) for name, keys in sections.items()}
        if command == "density":
            want["target"].remove("rate")  # accepted, and left unparsed
        assert got == want, command


# ---------------------------------------------------------------- fuzz

# A fuzz document starts from valid sections, then has up to two of its keys
# replaced by hostile values or removed.  In values, "{ce}" names a valid
# counterexample file and "{self}" the document itself.
_SYSTEMS = [
    {"kind": "doubling"},
    {"kind": "affine", "ratios": "0.5, 0.3"},
    {"kind": "affine", "ratios": "0.3, 0.25, 0.2", "placements": "0, 0.4, 0.7"},
    {"kind": "gauss", "truncation": "4"},
    {"kind": "affine_countable", "widths": "geometric:0.5,0.5"},
    {"kind": "counterexample", "beta": "0.5", "phi": "power:1"},
    {"kind": "counterexample_file", "path": "{ce}"},
]
# hits on the counterexample family can take seconds per document
_COMMAND_SYSTEMS = {"counterexample-build": _SYSTEMS[5:6], "counterexample-verify": _SYSTEMS[5:],
                    "hits": _SYSTEMS[:5]}
_EXTRA_SECTION = {"pressure": "potential", "cover": "target", "density": "target",
                  "hits": "target"}
# valid values per key; None leaves the key out
_SECTION_VALUES = {
    "potential": {"expr": ["psi", "const(0)", "scale(0.5, psi)", "sum(psi, const(0.3))"]},
    "target": {"y": ["0.3", "0", "1"],
               "rate": ["const:1", "const:0.5", "potential:psi", "potential:scale(0.5, psi)"]},
}
_DIMENSION_RUN = {"subset": [None, "1,2"], "ladder": [None, "1; 1..2"], "n_max": [None, "2"],
                  "tol": [None, "1e-3", "1e-6"], "use_tail": [None, "true"]}
_RUN_VALUES = {
    "pressure": {"subset": [None, "1,2"], "n_max": ["2", "3"], "use_tail": [None, "false"]},
    "dimension": _DIMENSION_RUN,
    "spectrum": {**_DIMENSION_RUN, "alphas": ["0.5, 1", "2"]},
    "cover": {"subset": [None, "1,2"], "s": ["0.5", "1"], "m": ["1", "2"], "n_max": ["2", "3"]},
    "density": {"subset": [None, "1,2"], "n": ["2", "3"], "r": ["0.1", "0.25"]},
    # symbol 3 is outside the doubling and two-ratio alphabets
    "hits": {"code": ["const:1", "cycle:1,2", "const:3"], "horizon": ["5", "10"]},
    "counterexample-build": {"system_out": ["{built}"], "table_depth": [None, "5"]},
    "counterexample-verify": {},
}
# hostile values: these per key, and _BAD for every key (None removes it)
_BAD = [None, "nan", "inf", "0", "-1", "1e-20", "x", "50%"]
_HOSTILE = {
    "kind": ["tent"], "ratios": ["0.5", "1.5, 0.2"], "widths": ["geometric:2,0.5"],
    "path": ["{self}", "{missing}"], "phi": ["power:x"], "expr": ["psi)"],
    "y": ["1.5"], "rate": ["const:nan", "potential:sum(psi, const(nan))"],
    "subset": ["3..1", "1, 7", "1, x"], "ladder": ["1..2; 3..1"], "alphas": ["1, inf", ","],
    "code": ["cycle:2,0", "cycle:"], "system_out": ["{missing}/x.ini"],
}


def _values(command, section):
    return _RUN_VALUES[command] if section == "run" else _SECTION_VALUES[section]


@hyst.composite
def _ini_documents(draw):
    command = draw(hyst.sampled_from(sorted(_RUN_VALUES)))
    doc = {"system": dict(draw(hyst.sampled_from(_COMMAND_SYSTEMS.get(command, _SYSTEMS))))}
    for section in filter(None, [_EXTRA_SECTION.get(command), "run"]):
        drawn = {key: draw(hyst.sampled_from(values))
                 for key, values in _values(command, section).items()}
        doc[section] = {key: value for key, value in drawn.items() if value is not None}
    keys = sorted({("system", key) for key in doc["system"]}
                  | {(section, key) for section in doc if section != "system"
                     for key in _values(command, section)})
    for section, key in draw(hyst.lists(hyst.sampled_from(keys), max_size=2)):
        value = draw(hyst.sampled_from(_HOSTILE.get(key, []) + _BAD))
        if value is None and key == "horizon":
            continue  # the default horizon of 50 can take seconds per document
        doc[section].pop(key, None)
        if value is not None:
            doc[section][key] = value
    return command, doc


@contextlib.contextmanager
def _time_limit(seconds):
    """Raise TimeoutError in the main thread if the body runs too long, so a
    hang fails the example instead of stalling the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"no exit within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@settings(derandomize=True, max_examples=1000, deadline=None, database=None)
@given(_ini_documents())
def test_fuzz_every_exit_is_0_2_or_3_with_one_error_line(document):
    command, sections = document
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg, out = tmp / "fuzz.ini", tmp / "out.csv"
        ce = tmp / "ce.ini"
        ce.write_text("[system]\nkind = counterexample\nbeta = 0.5\nphi = power:1\n")
        paths = {"ce": ce, "self": cfg, "missing": tmp / "absent.ini", "built": tmp / "built.ini"}
        text = "".join(f"[{name}]\n" + "".join(f"{key} = {value.format(**paths)}\n"
                                               for key, value in values.items())
                       for name, values in sections.items())
        cfg.write_text(text)
        err = io.StringIO()
        cwd = os.getcwd()
        # a hostile system_out such as 'x' is a path relative to the working directory
        os.chdir(tmp)
        try:
            with _time_limit(20), contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                status = main([command, "--config", str(cfg), "--out", str(out),
                               "--budget", "5000"])
        finally:
            os.chdir(cwd)
        err = err.getvalue()
        assert status in (0, 2, 3), (text, err)
        if status:
            assert err.startswith("error:") and len(err.strip().splitlines()) == 1, (text, err)
            assert not out.exists()
