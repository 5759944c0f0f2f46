"""Batch front end: INI-style configs in, CSV with a manifest header out.

Subcommands: pressure, dimension, spectrum, cover, density, hits,
counterexample-build, counterexample-verify.  Each validates exactly the
config sections it needs and rejects extras.  CSV output starts with a
'#'-prefixed manifest block (config echo, truncation actually used,
certification flags) followed by a header row and one row per result item.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import io
import itertools
import math
import sys as _sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .counterexample import CounterexampleSystem, ShrinkFn, build as build_counterexample
from .counterexample import verify_moran
from .dimension import Truncation, bowen_dimension, spectrum
from .pressure import Constant, LogDerivative, Potential, Scale, Sum, pressure_bracket
from .systems import (
    BudgetExceededError,
    DEFAULT_WORD_BUDGET,
    MarkovSystem,
    affine_system,
    doubling_map,
    gauss_system,
    geometric_system,
)
from .targets import (
    _PRECISION_FLOOR,
    ConstantRate,
    PotentialRate,
    TargetSpec,
    cover_sum,
    cylinder_density,
    hit_times,
)

__all__ = ["main", "run"]


class ConfigError(ValueError):
    """Configuration document rejected, with a precise reason."""


def _parse_number(text: str, what: str, kind: type = float):
    """One number of a config value: an int, or a finite float."""
    text = text.strip()
    try:
        value = kind(text)
    except ValueError as exc:
        raise ConfigError(f"{what}: expected {kind.__name__}, got {text!r}") from exc
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{what}: expected a finite number, got {text!r}")
    return value


def _numbers(text: str, what: str, kind: type = float) -> list:
    """A comma-separated list of numbers; empty items are skipped."""
    return [_parse_number(item, what, kind) for item in text.split(",") if item.strip()]


_NEEDED = object()


def _key(section: configparser.SectionProxy, key: str, kind: type, default=_NEEDED,
         what: str | None = None):
    """The value of ``key`` read as ``kind``: str, bool, int (a count, at
    least 1) or float (finite).  An absent or empty key gives ``default``,
    and is an error when there is none.  Messages name the key as
    ``what``, by default '[section] key'."""
    text = section.get(key, "")
    if not text:
        if default is _NEEDED:
            raise ConfigError(f"[{section.name}] needs {key!r}")
        return default
    what = what or f"[{section.name}] {key}"
    if kind is str:
        return text
    if kind is bool:
        value = configparser.ConfigParser.BOOLEAN_STATES.get(text.lower())
        if value is None:
            raise ConfigError(f"{what}: expected bool, got {text!r}")
        return value
    value = _parse_number(text, what, kind)
    if kind is int and value < 1:
        raise ConfigError(f"{what}: expected an int >= 1, got {text!r}")
    return value


def _symbols(ranges: Sequence[range], budget: int, key: str) -> frozenset[int]:
    """The union of the ranges.  A union of more than ``budget`` symbols
    raises BudgetExceededError (charged to ``key``) before any set is built."""
    count, end = 0, -math.inf
    for r in sorted((r for r in ranges if r), key=lambda r: r.start):
        count += max(0, r.stop - max(r.start, end))
        end = max(end, r.stop)
    if count > budget:
        raise BudgetExceededError(key, count, budget)
    return frozenset(itertools.chain(*ranges))


def parse_subset(text: str, budget: int = DEFAULT_WORD_BUDGET) -> frozenset[int]:
    """Subset grammar: comma-separated items, each 'a' or 'a..b'."""
    ranges = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        ends = [_parse_number(end, f"subset {text!r}", int) for end in item.split("..", 1)]
        if ends[-1] < ends[0]:
            raise ConfigError(f"subset range {item!r} is reversed (use a..b with a <= b)")
        ranges.append(range(ends[0], ends[-1] + 1))
    if not ranges:
        raise ConfigError(f"empty subset spec {text!r}")
    return _symbols(ranges, budget, "subset")


def parse_ladder(text: str, budget: int = DEFAULT_WORD_BUDGET) -> tuple[frozenset[int], ...]:
    return tuple(parse_subset(part, budget) for part in text.split(";") if part.strip())


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise ConfigError(f"potential expression: expected {ch!r} at column "
                              f"{self.pos + 1} of {self.text!r}")
        self.pos += 1

    def word(self) -> str:
        self.peek()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                             or self.text[self.pos] in "._+-"):
            self.pos += 1
        return self.text[start:self.pos]


def parse_potential(text: str) -> Potential:
    """Tiny prefix notation: psi | const(c) | scale(c, expr) | sum(expr, expr)."""
    toks = _Tokens(text)
    pot = _parse_potential_expr(toks)
    if toks.peek():
        raise ConfigError(f"potential expression: trailing input at column "
                          f"{toks.pos + 1} of {text!r}")
    return pot


def _parse_potential_expr(toks: _Tokens) -> Potential:
    name = toks.word()
    if name == "psi":
        return LogDerivative()
    if name == "const":
        toks.expect("(")
        value = _parse_number(toks.word(), "const")
        toks.expect(")")
        return Constant(value)
    if name == "scale":
        toks.expect("(")
        factor = _parse_number(toks.word(), "scale factor")
        toks.expect(",")
        inner = _parse_potential_expr(toks)
        toks.expect(")")
        return Scale(factor, inner)
    if name == "sum":
        toks.expect("(")
        left = _parse_potential_expr(toks)
        toks.expect(",")
        right = _parse_potential_expr(toks)
        toks.expect(")")
        return Sum(left, right)
    raise ConfigError(f"potential expression: unknown node {name!r}")


def parse_shrink_fn(text: str) -> ShrinkFn:
    kind, _, arg = text.partition(":")
    kind = kind.strip()
    if kind == "power":
        return ShrinkFn.power(_parse_number(arg, "power shrink function"))
    if kind == "exp":
        return ShrinkFn.exponential(_parse_number(arg, "exponential shrink function"))
    raise ConfigError(f"unknown shrink function spec {text!r} (use power:p or exp:c)")


def _parse_code(text: str):
    kind, _, arg = text.partition(":")
    symbols = _numbers(arg, "[run] code", int)
    if kind.strip() == "const":
        if len(symbols) != 1:
            raise ConfigError("const code takes exactly one symbol")
        return itertools.repeat(symbols[0])
    if kind.strip() == "cycle":
        if not symbols:
            raise ConfigError("cycle code needs at least one symbol")
        return itertools.cycle(symbols)
    raise ConfigError(f"unknown code spec {text!r} (use const:i or cycle:a,b,...)")


def _read_config(path: str) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser()
    try:
        read = cfg.read(path)
    except configparser.Error as exc:
        # configparser spreads its messages over several lines
        raise ConfigError(f"config parse failure: {' '.join(str(exc).split())}") from exc
    if not read:
        raise ConfigError(f"config file {path!r} not found")
    return cfg


@dataclass
class _LoadedSystem:
    system: MarkovSystem
    default_subset: frozenset[int]
    counterexample: CounterexampleSystem | None = None


def _load_counterexample(section: configparser.SectionProxy) -> CounterexampleSystem:
    return build_counterexample(_key(section, "beta", float),
                                parse_shrink_fn(_key(section, "phi", str)))


def _load_system(section: configparser.SectionProxy, budget: int) -> _LoadedSystem:
    kind = _key(section, "kind", str)
    if kind == "counterexample_file":
        path = _key(section, "path", str)
        inner = _read_config(path)
        if inner.get("system", "kind", fallback=None) != "counterexample":
            raise ConfigError(f"serialized system file {path!r} needs a [system] section "
                              "with kind = counterexample")
        section, kind = inner["system"], "counterexample"
    if kind == "doubling":
        return _LoadedSystem(doubling_map(), frozenset({1, 2}))
    if kind == "affine":
        ratios = _numbers(_key(section, "ratios", str), "[system] ratios")
        if not ratios:
            raise ConfigError("[system] needs 'ratios'")
        placements = _key(section, "placements", str, None)
        if placements is not None:
            placements = _numbers(placements, "[system] placements")
        return _LoadedSystem(affine_system(ratios, placements),
                             frozenset(range(1, len(ratios) + 1)))
    if kind == "gauss":
        k = _key(section, "truncation", int, 32)
        return _LoadedSystem(gauss_system(), _symbols([range(1, k + 1)], budget, "truncation"))
    if kind == "counterexample":
        ce = _load_counterexample(section)
        k = _key(section, "truncation", int, ce.n0 + 40)
        subset = _symbols([range(1, 3), range(ce.n0, k + 1)], budget, "truncation")
        return _LoadedSystem(ce.as_system(), subset, ce)
    if kind == "affine_countable":
        law, _, args = _key(section, "widths", str).partition(":")
        if law.strip() != "geometric":
            raise ConfigError("affine_countable currently supports widths=geometric:a,q")
        a_str, _, q_str = args.partition(",")
        a = _parse_number(a_str, "geometric width scale")
        q = _parse_number(q_str, "geometric width ratio")
        return _LoadedSystem(geometric_system(a, q), frozenset(range(1, 33)))
    raise ConfigError(f"unknown system kind {kind!r}")


def _load_target(section: configparser.SectionProxy) -> TargetSpec:
    y = _key(section, "y", float)
    rate_text = _key(section, "rate", str)
    kind, _, arg = rate_text.partition(":")
    if kind.strip() == "const":
        return TargetSpec(y=y, rate=ConstantRate(_parse_number(arg, "[target] rate")))
    if kind.strip() == "potential":
        return TargetSpec(y=y, rate=PotentialRate(parse_potential(arg)))
    raise ConfigError(f"unknown target rate {rate_text!r} (use const:a or potential:expr)")


def _manifest_lines(command: str, cfg: configparser.ConfigParser,
                    extra: dict[str, object]) -> list[str]:
    lines = [f"# shrinktarget {command}"]
    for section in cfg.sections():
        for key, value in cfg.items(section):
            lines.append(f"# config {section}.{key} = {value}")
    for key, value in extra.items():
        lines.append(f"# {key} = {value}")
    return lines


def _format_cell(v: object) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _emit(out_path: str | None, manifest: list[str], header: Sequence[str],
          rows: Sequence[Sequence[object]]) -> None:
    buf = io.StringIO()
    for line in manifest:
        buf.write(line + "\n")
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(map(_format_cell, row)) + "\n")
    text = buf.getvalue()
    if out_path is None:
        _sys.stdout.write(text)
    else:
        Path(out_path).write_text(text)


def _truncation_text(truncation: tuple[frozenset[int], int]) -> str:
    subset, n = truncation
    return "F={" + ",".join(str(i) for i in sorted(subset)) + f"}} n={n}"


def _run_subset(run_sec: configparser.SectionProxy, loaded: _LoadedSystem,
                budget: int) -> frozenset[int]:
    text = _key(run_sec, "subset", str, None)
    return loaded.default_subset if text is None else parse_subset(text, budget)


def _truncation(run_sec: configparser.SectionProxy, loaded: _LoadedSystem,
                budget: int) -> tuple[Truncation, float]:
    """The solver ladder of ``dimension`` and ``spectrum``, and their tolerance."""
    ladder = _key(run_sec, "ladder", str, None)
    trunc = Truncation(
        subsets=((_run_subset(run_sec, loaded, budget),) if ladder is None
                 else parse_ladder(ladder, budget)),
        n_max=_key(run_sec, "n_max", int, None),
        budget=budget,
        use_tail=_key(run_sec, "use_tail", bool, False),
    )
    return trunc, _key(run_sec, "tol", float, 1e-9, what="[run] tol (search tolerance)")


# A handler reads its sections and returns (manifest extras, header, rows).

def _pressure(cfg: configparser.ConfigParser, budget: int):
    loaded = _load_system(cfg["system"], budget)
    pot = parse_potential(_key(cfg["potential"], "expr", str, "psi"))
    run_sec = cfg["run"]
    subset = _run_subset(run_sec, loaded, budget)
    est = pressure_bracket(loaded.system, pot, subset, n_max=_key(run_sec, "n_max", int, None),
                           use_tail=_key(run_sec, "use_tail", bool, False), budget=budget)
    return ({"truncation": _truncation_text(est.truncation), "budget": budget},
            ["lower", "upper", "diverged"], [[est.lower, est.upper, est.diverged]])


def _dimension(cfg: configparser.ConfigParser, budget: int):
    loaded = _load_system(cfg["system"], budget)
    trunc, tol = _truncation(cfg["run"], loaded, budget)
    res = bowen_dimension(loaded.system, trunc, tol=tol)
    return ({"truncation": _truncation_text(res.truncation), "certified": res.certified,
             "pressure_brackets": res.steps, "budget": budget},
            ["value", "lower", "upper", "certified"],
            [[res.value, res.bracket[0], res.bracket[1], res.certified]])


def _spectrum(cfg: configparser.ConfigParser, budget: int):
    loaded = _load_system(cfg["system"], budget)
    run_sec = cfg["run"]
    trunc, tol = _truncation(run_sec, loaded, budget)
    alphas = _numbers(_key(run_sec, "alphas", str), "[run] alphas")
    results = spectrum(loaded.system, alphas, trunc, tol=tol)
    rows = [[alpha, res.value, res.bracket[0], res.bracket[1], res.certified]
            for alpha, res in results]
    return ({"certified": all(row[-1] for row in rows),
             "pressure_brackets": sum(res.steps for _, res in results), "budget": budget},
            ["alpha", "value", "lower", "upper", "certified"], rows)


def _cover(cfg: configparser.ConfigParser, budget: int):
    loaded = _load_system(cfg["system"], budget)
    target = _load_target(cfg["target"])
    run_sec = cfg["run"]
    subset = _run_subset(run_sec, loaded, budget)
    report = cover_sum(loaded.system, target, s=_key(run_sec, "s", float),
                       m=_key(run_sec, "m", int), n_max=_key(run_sec, "n_max", int),
                       subset=subset, budget=budget)
    return ({"total": repr(report.total), "budget": budget},
            ["level", "sum"], [[n, v] for n, v in report.per_level])


def _density(cfg: configparser.ConfigParser, budget: int):
    loaded = _load_system(cfg["system"], budget)
    # the density of a fixed ball reads no rate: a rate key is left unparsed
    y = _key(cfg["target"], "y", float)
    if not 0.0 <= y <= 1.0:
        raise ConfigError(f"target point y must be a number in [0, 1], got {y!r}")
    run_sec = cfg["run"]
    subset = _run_subset(run_sec, loaded, budget)
    n = _key(run_sec, "n", int)
    r = _key(run_sec, "r", float)
    value = cylinder_density(loaded.system, y, n, r, subset, budget=budget)
    return {"budget": budget}, ["n", "r", "density"], [[n, r, value]]


def _hits(cfg: configparser.ConfigParser, budget: int):
    loaded = _load_system(cfg["system"], budget)
    target = _load_target(cfg["target"])
    run_sec = cfg["run"]
    code = _parse_code(_key(run_sec, "code", str))
    horizon = _key(run_sec, "horizon", int, 50)
    if horizon > budget:
        # every epoch writes a row
        raise BudgetExceededError("horizon", horizon, budget)
    # and its xi-depth window is at most depth_for(_PRECISION_FLOOR) symbols
    # deep; its probe windows read at most twice that
    symbols = horizon * loaded.system.depth_for(_PRECISION_FLOOR)
    if symbols > budget:
        raise BudgetExceededError("horizon", symbols, budget)
    report = hit_times(loaded.system, code, target, horizon)
    # the three epoch tuples partition 1..horizon
    rows = [[n, None] for n in range(1, horizon + 1)]
    for status, epochs in (("hit", report.hits), ("miss", report.misses),
                           ("undecided", report.undecided)):
        for n in epochs:
            rows[n - 1][1] = status
    return ({"hits": len(report.hits), "misses": len(report.misses),
             "undecided": len(report.undecided), "window_symbols": report.window_symbols,
             "windows_composed": report.windows_composed, "budget": budget},
            ["epoch", "status"], rows)


def _counterexample_build(cfg: configparser.ConfigParser, budget: int):
    section = cfg["system"]
    if section.get("kind") != "counterexample":
        raise ConfigError("counterexample-build needs [system] kind = counterexample")
    ce = _load_counterexample(section)
    run_sec = cfg["run"]
    system_out = _key(run_sec, "system_out", str)
    depth = _key(run_sec, "table_depth", int, ce.n0 + 8)
    branches = _symbols([range(1, 3), range(ce.n0, depth + 1)], budget, "table_depth")
    _write_counterexample(ce, system_out, section)
    residual = verify_moran(ce)
    rows = [["summary", ce.beta, ce.n0, ce.log_r12, residual]]
    image = ce.as_system().branches.branch_interval
    for n in sorted(branches):
        iv = image(n)
        rows.append([f"branch_{n}", ce.log_width(n), iv.lo, iv.hi, ""])
    return ({"system_out": system_out, "moran_residual": repr(residual)},
            ["row", "a", "b", "c", "d"], rows)


def _counterexample_verify(cfg: configparser.ConfigParser, budget: int):
    ce = _load_system(cfg["system"], budget).counterexample
    if ce is None:
        raise ConfigError("counterexample-verify needs a counterexample system")
    residual = verify_moran(ce)
    return {}, ["beta", "n0", "residual"], [[ce.beta, ce.n0, residual]]


# command -> (handler, required sections, optional sections)
_COMMANDS = {
    "pressure": (_pressure, {"system", "potential", "run"}, set()),
    "dimension": (_dimension, {"system", "run"}, set()),
    "spectrum": (_spectrum, {"system", "run"}, set()),
    "cover": (_cover, {"system", "target", "run"}, set()),
    "density": (_density, {"system", "target", "run"}, set()),
    "hits": (_hits, {"system", "target", "run"}, set()),
    "counterexample-build": (_counterexample_build, {"system", "run"}, set()),
    "counterexample-verify": (_counterexample_verify, {"system"}, {"run"}),
}


def run(command: str, cfg: configparser.ConfigParser, out_path: str | None,
        budget: int) -> int:
    """Dispatch a parsed config document.  Returns the process exit status."""
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    if budget < 1:
        raise ConfigError(f"--budget: expected an int >= 1, got {budget}")
    handler, needed, optional = _COMMANDS[command]
    present = set(cfg.sections())
    missing = needed - present
    if missing:
        raise ConfigError(f"{command}: missing config section(s) {sorted(missing)}")
    extras = present - needed - optional
    if extras:
        raise ConfigError(f"{command}: unexpected config section(s) {sorted(extras)}; "
                          f"this command reads {sorted(needed)}")
    extra, header, rows = handler(cfg, budget)
    _emit(out_path, _manifest_lines(command, cfg, extra), header, rows)
    return 0


def _write_counterexample(ce: CounterexampleSystem, path: str,
                          source: configparser.SectionProxy) -> None:
    out = configparser.ConfigParser()
    out["system"] = {
        "kind": "counterexample",
        "beta": repr(ce.beta),
        # the text read, not a formatted float, so a reload rebuilds the
        # same system
        "phi": source["phi"],
    }
    if source.get("truncation"):
        out["system"]["truncation"] = source["truncation"]
    with open(path, "w") as fh:
        out.write(fh)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged."""
    parser = argparse.ArgumentParser(
        prog="shrinktarget",
        description="pressure, dimension, and shrinking-target computations "
                    "for expanding interval maps")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="INI config document")
    parser.add_argument("--out", default=None, help="CSV output path (stdout if absent)")
    parser.add_argument("--budget", type=int, default=DEFAULT_WORD_BUDGET,
                        help="enumeration budget in words")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return run(args.command, _read_config(args.config), args.out, args.budget)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 3
    except (ValueError, RuntimeError, configparser.Error) as exc:
        # ConfigError is a ValueError; configparser.Error covers bad
        # '%' interpolation in a value
        print(f"error: {exc}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
