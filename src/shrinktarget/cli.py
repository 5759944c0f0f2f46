"""Batch front end: INI-style configs in, CSV with a manifest header out.

Subcommands: pressure, dimension, spectrum, cover, density, hits,
counterexample-build, counterexample-verify.  Each reads the config sections
and keys that _COMMANDS and _SYSTEM_KEYS list for it, and rejects any other
section or key before it builds a system or writes a file.  CSV output starts
with a '#'-prefixed manifest block (config echo, truncation actually used,
certification flags) followed by a header row and one row per result item.
"""

from __future__ import annotations

import argparse
import ast
import configparser
import functools
import itertools
import math
import re
import sys as _sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .counterexample import CounterexampleSystem, ShrinkFn, build as build_counterexample
from .counterexample import verify_moran
from .dimension import Truncation, bowen_dimension, spectrum
from .pressure import Constant, LogDerivative, Potential, Scale, Sum, pressure_bracket
from .systems import (
    BranchFamily,
    BudgetExceededError,
    DEFAULT_WORD_BUDGET,
    affine_system,
    doubling_map,
    gauss_system,
    geometric_system,
)
from .targets import (
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


def parse_potential(text: str) -> Potential:
    """A potential psi | const(c) | scale(c, expr) | sum(expr, expr), read by
    Python's expression parser, never compiled or evaluated; each c is its
    source text, a finite float.  docs/cli.md gives its redundancies and limit."""
    # any whitespace separates, and float() reads non-ASCII decimal digits
    # and leading zeros: put those in Python's terms
    text = re.sub(r"\d", lambda m: str(int(m[0])), re.sub(r"\s", " ", text.strip()))
    text = re.sub(r"(?<![\w.])0(?:_?0)*_?(?=\d)", "", text)
    try:
        with warnings.catch_warnings():
            # a warning, such as 'invalid decimal literal', refuses the text
            warnings.simplefilter("error")
            return _potential(ast.parse(text, mode="eval").body, text)
    except SyntaxError as exc:
        where = f" at column {exc.offset}" if exc.offset else ""
        raise ConfigError(f"potential expression: {exc.msg}{where} of {text!r}") from None
    except (MemoryError, RecursionError):
        # how Python's parser gives up on a unary chain thousands deep
        raise ConfigError(f"potential expression: nested too deeply: {text!r}") from None


def _potential(node: ast.expr, text: str) -> Potential:
    # names are compared as written, since Python reads 'ｐｓｉ' as psi
    source = functools.partial(ast.get_source_segment, text)
    if source(node) == "psi":
        return LogDerivative()
    match node:
        case ast.Call(args=[c], keywords=[]) if source(node.func) == "const":
            return Constant(_parse_number(source(c), "const"))
        case ast.Call(args=[c, inner], keywords=[]) if source(node.func) == "scale":
            return Scale(_parse_number(source(c), "scale factor"), _potential(inner, text))
        case ast.Call(args=[left, right], keywords=[]) if source(node.func) == "sum":
            return Sum(_potential(left, text), _potential(right, text))
    raise ConfigError(f"potential expression: unknown node {source(node)!r}")


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


def _check_keys(section: configparser.SectionProxy, allowed: Sequence[str]) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"[{section.name}] unknown key(s) {unknown}; it reads {sorted(allowed)}")


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
    system: BranchFamily
    default_subset: frozenset[int]


# system kind -> the [system] keys it reads besides 'kind'
_SYSTEM_KEYS = {
    "doubling": (),
    "affine": ("ratios", "placements"),
    "gauss": ("truncation",),
    "counterexample": ("beta", "phi", "truncation"),
    "counterexample_file": ("path",),
    "affine_countable": ("widths",),
}


def _load_system(section: configparser.SectionProxy, budget: int) -> _LoadedSystem:
    kind = _key(section, "kind", str)
    if kind not in _SYSTEM_KEYS:
        raise ConfigError(f"unknown system kind {kind!r}")
    _check_keys(section, ("kind", *_SYSTEM_KEYS[kind]))
    if kind == "counterexample_file":
        path = _key(section, "path", str)
        inner = _read_config(path)
        # the file's kind is checked first, so this recurses once at most
        if inner.get("system", "kind", fallback=None) != "counterexample":
            raise ConfigError(f"serialized system file {path!r} needs a [system] section "
                              "with kind = counterexample")
        try:
            return _load_system(inner["system"], budget)
        except ConfigError as exc:
            raise ConfigError(f"serialized system file {path!r}: {exc}") from exc
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
        ce = build_counterexample(_key(section, "beta", float),
                                  parse_shrink_fn(_key(section, "phi", str)))
        k = _key(section, "truncation", int, ce.n0 + 40)
        subset = _symbols([range(1, 3), range(ce.n0, k + 1)], budget, "truncation")
        return _LoadedSystem(ce, subset)
    law, _, args = _key(section, "widths", str).partition(":")
    if law.strip() != "geometric":
        raise ConfigError("affine_countable currently supports widths=geometric:a,q")
    a_str, _, q_str = args.partition(",")
    a = _parse_number(a_str, "geometric width scale")
    q = _parse_number(q_str, "geometric width ratio")
    return _LoadedSystem(geometric_system(a, q), frozenset(range(1, 33)))


def _load_target(section: configparser.SectionProxy) -> TargetSpec:
    y = _key(section, "y", float)
    rate_text = _key(section, "rate", str)
    kind, _, arg = rate_text.partition(":")
    if kind.strip() == "const":
        alpha = _parse_number(arg, "[target] rate")
        if alpha <= 0.0:
            raise ConfigError("rate alpha must be positive and finite")
        return TargetSpec(y=y, rate=Constant(alpha))
    if kind.strip() == "potential":
        return TargetSpec(y=y, rate=parse_potential(arg))
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


def _emit(out_path: str | None, manifest: list[str], header: Sequence[str],
          rows: Sequence[Sequence[object]]) -> None:
    # str of a Python float is its repr, the shortest text that reads back
    lines = [*manifest, ",".join(header), *(",".join(map(str, row)) for row in rows)]
    text = "".join(line + "\n" for line in lines)
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
    if ladder is not None and _key(run_sec, "subset", str, None) is not None:
        # a subset is a one-rung ladder: with both, one would go unread
        raise ConfigError("[run] takes a subset or a ladder, not both")
    trunc = Truncation(
        subsets=((_run_subset(run_sec, loaded, budget),) if ladder is None
                 else parse_ladder(ladder, budget)),
        n_max=_key(run_sec, "n_max", int, None),
        budget=budget,
        use_tail=_key(run_sec, "use_tail", bool, False),
    )
    return trunc, _key(run_sec, "tol", float, 1e-9, what="[run] tol (search tolerance)")


# A handler reads its sections, given the loaded [system], and returns
# (manifest extras, header, rows).

def _pressure(cfg: configparser.ConfigParser, loaded: _LoadedSystem, budget: int):
    pot = parse_potential(_key(cfg["potential"], "expr", str, "psi"))
    run_sec = cfg["run"]
    subset = _run_subset(run_sec, loaded, budget)
    est = pressure_bracket(loaded.system, pot, subset, n_max=_key(run_sec, "n_max", int, None),
                           use_tail=_key(run_sec, "use_tail", bool, False), budget=budget)
    return ({"truncation": _truncation_text(est.truncation), "budget": budget},
            ["lower", "upper", "diverged"], [[est.lower, est.upper, est.diverged]])


def _dimension(cfg: configparser.ConfigParser, loaded: _LoadedSystem, budget: int):
    trunc, tol = _truncation(cfg["run"], loaded, budget)
    res = bowen_dimension(loaded.system, trunc, tol=tol)
    return ({"truncation": _truncation_text(res.truncation), "certified": res.certified,
             "pressure_brackets": res.steps, "budget": budget},
            ["value", "lower", "upper", "certified"],
            [[res.value, res.bracket[0], res.bracket[1], res.certified]])


def _spectrum(cfg: configparser.ConfigParser, loaded: _LoadedSystem, budget: int):
    run_sec = cfg["run"]
    trunc, tol = _truncation(run_sec, loaded, budget)
    alphas = _numbers(_key(run_sec, "alphas", str), "[run] alphas")
    results = spectrum(loaded.system, alphas, trunc, tol=tol)
    rows = [[alpha, res.value, res.bracket[0], res.bracket[1], res.certified]
            for alpha, res in results]
    return ({"certified": all(row[-1] for row in rows),
             "pressure_brackets": sum(res.steps for _, res in results), "budget": budget},
            ["alpha", "value", "lower", "upper", "certified"], rows)


def _cover(cfg: configparser.ConfigParser, loaded: _LoadedSystem, budget: int):
    target = _load_target(cfg["target"])
    run_sec = cfg["run"]
    subset = _run_subset(run_sec, loaded, budget)
    report = cover_sum(loaded.system, target, s=_key(run_sec, "s", float),
                       m=_key(run_sec, "m", int), n_max=_key(run_sec, "n_max", int),
                       subset=subset, budget=budget)
    return ({"total": report.total, "budget": budget},
            ["level", "sum"], [[n, v] for n, v in report.per_level])


def _density(cfg: configparser.ConfigParser, loaded: _LoadedSystem, budget: int):
    # the density of a fixed ball reads no rate: a rate key is left unparsed
    y = _key(cfg["target"], "y", float)
    run_sec = cfg["run"]
    subset = _run_subset(run_sec, loaded, budget)
    n = _key(run_sec, "n", int)
    r = _key(run_sec, "r", float)
    value = cylinder_density(loaded.system, y, n, r, subset, budget=budget)
    return {"budget": budget}, ["n", "r", "density"], [[n, r, value]]


def _hits(cfg: configparser.ConfigParser, loaded: _LoadedSystem, budget: int):
    target = _load_target(cfg["target"])
    run_sec = cfg["run"]
    code = _parse_code(_key(run_sec, "code", str))
    horizon = _key(run_sec, "horizon", int, 50)
    report = hit_times(loaded.system, code, target, horizon, budget=budget)
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


def _counterexample_build(cfg: configparser.ConfigParser, loaded: _LoadedSystem, budget: int):
    section = cfg["system"]
    if section["kind"] != "counterexample":
        raise ConfigError("counterexample-build needs [system] kind = counterexample")
    ce = loaded.system
    run_sec = cfg["run"]
    system_out = _key(run_sec, "system_out", str)
    depth = _key(run_sec, "table_depth", int, ce.n0 + 8)
    branches = _symbols([range(1, 3), range(ce.n0, depth + 1)], budget, "table_depth")
    _write_counterexample(system_out, section)
    residual = verify_moran(ce)
    rows = [["summary", ce.beta, ce.n0, ce.log_r12, residual]]
    for n in sorted(branches):
        iv = ce.branch_interval(n)
        rows.append([f"branch_{n}", ce.log_width(n), iv.lo, iv.hi, ""])
    return ({"system_out": system_out, "moran_residual": residual},
            ["row", "a", "b", "c", "d"], rows)


def _counterexample_verify(cfg: configparser.ConfigParser, loaded: _LoadedSystem,
                           budget: int):
    ce = loaded.system
    if not isinstance(ce, CounterexampleSystem):
        raise ConfigError("counterexample-verify needs a counterexample system")
    residual = verify_moran(ce)
    return {}, ["beta", "n0", "residual"], [[ce.beta, ce.n0, residual]]


_LADDER_KEYS = ("subset", "ladder", "n_max", "use_tail", "tol")
_TARGET_KEYS = ("y", "rate")

# command -> (handler, {section: the keys it reads}).  Every command also
# reads [system], whose keys _SYSTEM_KEYS gives per kind.  A section that
# holds no keys may be left out; density leaves [target] rate unparsed.
_COMMANDS = {
    "pressure": (_pressure, {"potential": ("expr",), "run": ("subset", "n_max", "use_tail")}),
    "dimension": (_dimension, {"run": _LADDER_KEYS}),
    "spectrum": (_spectrum, {"run": (*_LADDER_KEYS, "alphas")}),
    "cover": (_cover, {"target": _TARGET_KEYS, "run": ("subset", "s", "m", "n_max")}),
    "density": (_density, {"target": _TARGET_KEYS, "run": ("subset", "n", "r")}),
    "hits": (_hits, {"target": _TARGET_KEYS, "run": ("code", "horizon")}),
    "counterexample-build": (_counterexample_build, {"run": ("system_out", "table_depth")}),
    "counterexample-verify": (_counterexample_verify, {"run": ()}),
}


def run(command: str, cfg: configparser.ConfigParser, out_path: str | None,
        budget: int) -> int:
    """Dispatch a parsed config document.  Returns the process exit status."""
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    if budget < 1:
        raise ConfigError(f"--budget: expected an int >= 1, got {budget}")
    handler, sections = _COMMANDS[command]
    needed = {"system"} | {name for name, keys in sections.items() if keys}
    present = set(cfg.sections())
    missing = needed - present
    if missing:
        raise ConfigError(f"{command}: missing config section(s) {sorted(missing)}")
    extras = present - needed - set(sections)
    if extras:
        raise ConfigError(f"{command}: unexpected config section(s) {sorted(extras)}; "
                          f"this command reads {sorted(needed)}")
    for name in sorted(present - {"system"}):
        _check_keys(cfg[name], sections[name])
    if out_path is not None:
        # a missing directory raises here, before any work; the file itself
        # is written at the end, so a failed run leaves it as it was
        Path(out_path).parent.stat()
    loaded = _load_system(cfg["system"], budget)
    extra, header, rows = handler(cfg, loaded, budget)
    _emit(out_path, _manifest_lines(command, cfg, extra), header, rows)
    return 0


def _write_counterexample(path: str, section: configparser.SectionProxy) -> None:
    # the text read, not formatted numbers, so a reload rebuilds the same system
    out = configparser.ConfigParser()
    out["system"] = dict(section)
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
    except (ValueError, RuntimeError, OSError, configparser.Error) as exc:
        # ConfigError is a ValueError; configparser.Error covers bad
        # '%' interpolation in a value; OSError an output path that cannot
        # be written
        print(f"error: {exc}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
