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
import io
import itertools
import math
import sys as _sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .counterexample import CounterexampleSystem, ShrinkFn, build as build_counterexample
from .counterexample import verify_moran
from .dimension import Truncation, bowen_dimension, full_subset, spectrum
from .pressure import Constant, LogDerivative, Potential, Scale, Sum, pressure_bracket
from .systems import (
    BudgetExceededError,
    DEFAULT_WORD_BUDGET,
    MarkovSystem,
    affine_system,
    doubling_map,
    gauss_system,
)
from .targets import (
    ConstantRate,
    PotentialRate,
    TargetSpec,
    cover_sum,
    cylinder_density,
    hit_times,
)

__all__ = ["main", "run"]

_COMMANDS = (
    "pressure",
    "dimension",
    "spectrum",
    "cover",
    "density",
    "hits",
    "counterexample-build",
    "counterexample-verify",
)

_SECTIONS = {
    "pressure": ({"system", "potential", "run"}, set()),
    "dimension": ({"system", "run"}, set()),
    "spectrum": ({"system", "run"}, set()),
    "cover": ({"system", "target", "run"}, set()),
    "density": ({"system", "target", "run"}, set()),
    "hits": ({"system", "target", "run"}, set()),
    "counterexample-build": ({"system", "run"}, set()),
    "counterexample-verify": ({"system"}, {"run"}),
}


class ConfigError(Exception):
    """Configuration document rejected, with a precise reason."""


def _parse_number(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"{what}: expected a number, got {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{what}: expected a finite number, got {text!r}")
    return value


def _required(section: configparser.SectionProxy, key: str, kind: type):
    """A required key of the section converted by ``kind`` (int or float);
    floats must be finite."""
    text = section.get(key)
    if text is None:
        raise ConfigError(f"[{section.name}] needs {key!r}")
    try:
        value = kind(text)
    except ValueError as exc:
        raise ConfigError(f"[{section.name}] {key}: expected {kind.__name__}, "
                          f"got {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"[{section.name}] {key}: expected a finite number, got {text!r}")
    return value


def parse_subset(text: str) -> frozenset[int]:
    """Subset grammar: comma-separated items, each 'a' or 'a..b'."""
    out: set[int] = set()
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if ".." in item:
            a, b = (int(end) for end in item.split("..", 1))
            if b < a:
                raise ConfigError(f"subset range {item!r} is reversed (use a..b with a <= b)")
            out.update(range(a, b + 1))
        else:
            out.add(int(item))
    if not out:
        raise ConfigError(f"empty subset spec {text!r}")
    return frozenset(out)


def parse_ladder(text: str) -> tuple[frozenset[int], ...]:
    return tuple(parse_subset(part) for part in text.split(";") if part.strip())


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
    symbols = [int(v) for v in arg.split(",") if v.strip()]
    if kind.strip() == "const":
        if len(symbols) != 1:
            raise ConfigError("const code takes exactly one symbol")
        return itertools.repeat(symbols[0])
    if kind.strip() == "cycle":
        if not symbols:
            raise ConfigError("cycle code needs at least one symbol")
        return itertools.cycle(symbols)
    raise ConfigError(f"unknown code spec {text!r} (use const:i or cycle:a,b,...)")


@dataclass
class _LoadedSystem:
    system: MarkovSystem
    kind: str
    counterexample: CounterexampleSystem | None = None
    default_subset: frozenset[int] | None = None


def _load_system(section: configparser.SectionProxy) -> _LoadedSystem:
    kind = section.get("kind")
    if kind is None:
        raise ConfigError("[system] section needs a 'kind' key")
    if kind == "doubling":
        sysm = doubling_map()
        return _LoadedSystem(sysm, kind, default_subset=frozenset({1, 2}))
    if kind == "affine":
        ratios = [float(v) for v in section.get("ratios", "").split(",") if v.strip()]
        if not ratios:
            raise ConfigError("[system] affine kind needs 'ratios'")
        placements = None
        if section.get("placements"):
            placements = [float(v) for v in section["placements"].split(",")]
        sysm = affine_system(ratios, placements)
        return _LoadedSystem(sysm, kind,
                             default_subset=frozenset(range(1, len(ratios) + 1)))
    if kind == "gauss":
        k = section.getint("truncation", fallback=32)
        return _LoadedSystem(gauss_system(), kind,
                             default_subset=frozenset(range(1, k + 1)))
    if kind == "counterexample":
        beta = _parse_number(section.get("beta", ""), "[system] beta")
        phi = parse_shrink_fn(section.get("phi", ""))
        ce = build_counterexample(beta, phi)
        k = section.getint("truncation", fallback=ce.n0 + 40)
        subset = frozenset({1, 2}) | frozenset(range(ce.n0, k + 1))
        return _LoadedSystem(ce.as_system(), kind, counterexample=ce,
                             default_subset=subset)
    if kind == "counterexample_file":
        path = section.get("path")
        if not path:
            raise ConfigError("[system] counterexample_file kind needs 'path'")
        inner = configparser.ConfigParser()
        read = inner.read(path)
        if not read:
            raise ConfigError(f"[system] serialized system file {path!r} not found")
        if "system" not in inner:
            raise ConfigError(f"serialized system file {path!r} lacks a [system] section")
        return _load_system(inner["system"])
    if kind == "affine_countable":
        spec = section.get("widths", "")
        law, _, args = spec.partition(":")
        if law.strip() != "geometric":
            raise ConfigError("affine_countable currently supports widths=geometric:a,q")
        a_str, _, q_str = args.partition(",")
        a = _parse_number(a_str, "geometric width scale")
        q = _parse_number(q_str, "geometric width ratio")
        sysm = _geometric_countable(a, q)
        return _LoadedSystem(sysm, kind, default_subset=frozenset(range(1, 33)))
    raise ConfigError(f"unknown system kind {kind!r}")


def _geometric_countable(a: float, q: float) -> MarkovSystem:
    """Countable affine family with widths a*q^(i-1) packed from 0."""
    if not (0.0 < q < 1.0 and 0.0 < a):
        raise ConfigError("geometric widths need a > 0 and 0 < q < 1")
    if a / (1.0 - q) > 1.0:
        raise ConfigError("geometric widths exceed total length 1")
    from .systems import AffineCountableFamily

    def left(i: int) -> float:
        # sum of widths of branches 1..i-1
        return a * (1.0 - q ** (i - 1)) / (1.0 - q)

    family = AffineCountableFamily(
        member=lambda i: i >= 1,
        log_width=lambda i: math.log(a) + (i - 1) * math.log(q),
        left=left,
        tail_sum=lambda e, k: ((a * q ** k) ** e) / (1.0 - q ** e) if e > 0 else math.inf,
    )
    return MarkovSystem(family, xi=1.0 / a)


def _load_target(section: configparser.SectionProxy) -> TargetSpec:
    y = _parse_number(section.get("y", ""), "[target] y")
    rate_text = section.get("rate", "")
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
        buf.write(",".join(_format_cell(v) for v in row) + "\n")
    text = buf.getvalue()
    if out_path is None:
        _sys.stdout.write(text)
    else:
        Path(out_path).write_text(text)


def _subset_text(subset: frozenset[int]) -> str:
    return "{" + ",".join(str(i) for i in sorted(subset)) + "}"


def _run_subset(run: configparser.SectionProxy, loaded: _LoadedSystem,
                key: str = "subset") -> frozenset[int]:
    if run.get(key):
        return parse_subset(run[key])
    if loaded.default_subset is not None:
        return loaded.default_subset
    return full_subset(loaded.system)


def _run_ladder(run: configparser.SectionProxy, loaded: _LoadedSystem) -> tuple[frozenset[int], ...]:
    if run.get("ladder"):
        return parse_ladder(run["ladder"])
    return (_run_subset(run, loaded),)


def run(command: str, cfg: configparser.ConfigParser, out_path: str | None,
        budget: int) -> int:
    """Dispatch a parsed config document.  Returns the process exit status."""
    if command not in _SECTIONS:
        raise ConfigError(f"unknown command {command!r}")
    needed, optional = _SECTIONS[command]
    present = set(cfg.sections())
    missing = needed - present
    if missing:
        raise ConfigError(f"{command}: missing config section(s) {sorted(missing)}")
    extras = present - needed - optional
    if extras:
        raise ConfigError(f"{command}: unexpected config section(s) {sorted(extras)}; "
                          f"this command reads {sorted(needed)}")

    if command == "pressure":
        loaded = _load_system(cfg["system"])
        pot = parse_potential(cfg["potential"].get("expr", "psi"))
        run_sec = cfg["run"]
        subset = _run_subset(run_sec, loaded)
        n_max = run_sec.getint("n_max", fallback=None)
        tail = "family" if run_sec.getboolean("use_tail", fallback=False) else None
        est = pressure_bracket(loaded.system, pot, subset, n_max=n_max,
                               tail=tail, budget=budget)
        manifest = _manifest_lines(command, cfg, {
            "truncation": f"F={_subset_text(est.truncation[0])} n={est.truncation[1]}",
            "budget": budget,
        })
        _emit(out_path, manifest, ["lower", "upper", "diverged"],
              [[est.lower, est.upper, est.diverged]])
        return 0

    if command in ("dimension", "spectrum"):
        loaded = _load_system(cfg["system"])
        run_sec = cfg["run"]
        trunc = Truncation(
            subsets=_run_ladder(run_sec, loaded),
            n_max=run_sec.getint("n_max", fallback=None),
            budget=budget,
            use_tail=run_sec.getboolean("use_tail", fallback=False),
        )
        tol = run_sec.getfloat("tol", fallback=1e-9)
        if command == "dimension":
            res = bowen_dimension(loaded.system, trunc, tol=tol)
            manifest = _manifest_lines(command, cfg, {
                "truncation": f"F={_subset_text(res.truncation[0])} n={res.truncation[1]}",
                "certified": res.certified,
                "budget": budget,
            })
            _emit(out_path, manifest,
                  ["value", "lower", "upper", "certified"],
                  [[res.value, res.bracket[0], res.bracket[1], res.certified]])
            return 0
        alphas = [_parse_number(v.strip(), "[run] alphas")
                  for v in run_sec.get("alphas", "").split(",") if v.strip()]
        if not alphas:
            raise ConfigError("spectrum: [run] needs 'alphas'")
        rows = []
        all_certified = True
        for alpha, res in spectrum(loaded.system, alphas, trunc, tol=tol):
            rows.append([alpha, res.value, res.bracket[0], res.bracket[1], res.certified])
            all_certified = all_certified and res.certified
        manifest = _manifest_lines(command, cfg, {
            "certified": all_certified,
            "budget": budget,
        })
        _emit(out_path, manifest,
              ["alpha", "value", "lower", "upper", "certified"], rows)
        return 0

    if command == "cover":
        loaded = _load_system(cfg["system"])
        target = _load_target(cfg["target"])
        run_sec = cfg["run"]
        subset = _run_subset(run_sec, loaded)
        report = cover_sum(loaded.system, target,
                           s=_required(run_sec, "s", float),
                           m=_required(run_sec, "m", int),
                           n_max=_required(run_sec, "n_max", int),
                           subset=subset, budget=budget)
        manifest = _manifest_lines(command, cfg, {
            "total": repr(report.total),
            "budget": budget,
        })
        _emit(out_path, manifest, ["level", "sum"],
              [[n, v] for n, v in report.per_level])
        return 0

    if command == "density":
        loaded = _load_system(cfg["system"])
        target = _load_target(cfg["target"])
        run_sec = cfg["run"]
        subset = _run_subset(run_sec, loaded)
        n = _required(run_sec, "n", int)
        r = _required(run_sec, "r", float)
        value = cylinder_density(loaded.system, target.y, n, r, subset, budget=budget)
        manifest = _manifest_lines(command, cfg, {"budget": budget})
        _emit(out_path, manifest, ["n", "r", "density"], [[n, r, value]])
        return 0

    if command == "hits":
        loaded = _load_system(cfg["system"])
        target = _load_target(cfg["target"])
        run_sec = cfg["run"]
        code = _parse_code(run_sec.get("code", ""))
        horizon = run_sec.getint("horizon", fallback=50)
        report = hit_times(loaded.system, code, target, horizon)
        manifest = _manifest_lines(command, cfg, {
            "hits": len(report.hits),
            "misses": len(report.misses),
            "undecided": len(report.undecided),
            "budget": budget,
        })
        status = {}
        for n in report.hits:
            status[n] = "hit"
        for n in report.misses:
            status[n] = "miss"
        for n in report.undecided:
            status[n] = "undecided"
        _emit(out_path, manifest, ["epoch", "status"],
              [[n, status[n]] for n in range(1, horizon + 1)])
        return 0

    if command == "counterexample-build":
        section = cfg["system"]
        if section.get("kind") != "counterexample":
            raise ConfigError("counterexample-build needs [system] kind = counterexample")
        beta = _parse_number(section.get("beta", ""), "[system] beta")
        phi = parse_shrink_fn(section.get("phi", ""))
        ce = build_counterexample(beta, phi)
        run_sec = cfg["run"]
        system_out = run_sec.get("system_out")
        if not system_out:
            raise ConfigError("counterexample-build: [run] needs 'system_out'")
        _write_counterexample(ce, system_out, section)
        residual = verify_moran(ce)
        rows = [["summary", ce.beta, ce.n0, ce.log_r12, residual]]
        depth = run_sec.getint("table_depth", fallback=ce.n0 + 8)
        for n in sorted({1, 2} | set(range(ce.n0, depth + 1))):
            iv = ce.interval(n)
            rows.append([f"branch_{n}", ce.log_width(n), iv.lo, iv.hi, ""])
        manifest = _manifest_lines(command, cfg, {
            "system_out": system_out,
            "moran_residual": repr(residual),
        })
        _emit(out_path, manifest, ["row", "a", "b", "c", "d"], rows)
        return 0

    if command == "counterexample-verify":
        loaded = _load_system(cfg["system"])
        if loaded.counterexample is None:
            raise ConfigError("counterexample-verify needs a counterexample system")
        ce = loaded.counterexample
        residual = verify_moran(ce)
        manifest = _manifest_lines(command, cfg, {})
        _emit(out_path, manifest, ["beta", "n0", "residual"],
              [[ce.beta, ce.n0, residual]])
        return 0

    raise ConfigError(f"unhandled command {command!r}")


def _write_counterexample(ce: CounterexampleSystem, path: str,
                          source: configparser.SectionProxy) -> None:
    out = configparser.ConfigParser()
    out["system"] = {
        "kind": "counterexample",
        "beta": repr(ce.beta),
        "phi": ce.phi.spec,
        "n0": str(ce.n0),
    }
    if source.get("truncation"):
        out["system"]["truncation"] = source["truncation"]
    with open(path, "w") as fh:
        out.write(fh)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="shrinktarget",
        description="pressure, dimension, and shrinking-target computations "
                    "for expanding interval maps")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="INI config document")
    parser.add_argument("--out", default=None, help="CSV output path (stdout if absent)")
    parser.add_argument("--budget", type=int, default=DEFAULT_WORD_BUDGET,
                        help="enumeration budget in words")
    args = parser.parse_args(argv)

    cfg = configparser.ConfigParser()
    try:
        read = cfg.read(args.config)
        if not read:
            print(f"error: config file {args.config!r} not found", file=_sys.stderr)
            return 2
    except configparser.Error as exc:
        print(f"error: config parse failure: {exc}", file=_sys.stderr)
        return 2

    try:
        return run(args.command, cfg, args.out, args.budget)
    except ConfigError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 3
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
