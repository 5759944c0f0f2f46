"""Spans and counters recorded from outside the package.

``Tracer.install`` replaces each traced name where its caller looks it up
(``cli`` imports ``bowen_dimension`` by name, ``targets`` imports ``cylinder``
and ``birkhoff_bracket`` by name, methods are looked up on their class) and
``uninstall`` puts the originals back.  A span records name, start, end,
parent and job id; a layer's self time is its span time minus the time of
its child spans.  Hot per-node calls (``deriv_bracket``, ``apply``, composer
``child``) are counted only.

Spans of the first traced pass are kept in memory and written out at the
end; every traced pass is aggregated into per-name call counts, self and
total times.
"""

from __future__ import annotations

import json
import math
import statistics
import weakref
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("systems", "pressure", "dimension", "targets", "counterexample", "cli")

# (module, attribute, span name): functions replaced in the namespace that
# looks them up.
SPANNED_FUNCTIONS = (
    ("cli", "pressure_bracket", "pressure.pressure_bracket"),
    ("cli", "bowen_dimension", "dimension.solve"),
    ("cli", "spectrum", "dimension.spectrum"),
    ("cli", "cover_sum", "targets.cover"),
    ("cli", "cylinder_density", "targets.density"),
    ("cli", "hit_times", "targets.hits"),
    ("cli", "build_counterexample", "counterexample.build"),
    ("cli", "verify_moran", "counterexample.verify"),
    ("counterexample", "zero_dim_cover_report", "counterexample.report"),
    ("dimension", "shrink_exponent_alpha", "dimension.solve"),
    ("dimension", "shrink_exponent_potential", "dimension.solve"),
    ("pressure", "cylinder", "systems.cylinder"),
    ("targets", "cylinder", "systems.cylinder"),
    ("targets", "birkhoff_bracket", "pressure.birkhoff_bracket"),
)

# BirkhoffTable methods, looked up on the class by every caller.
SPANNED_METHODS = (
    ("__init__", "pressure.table"),
    ("level", "pressure.level"),
    ("partition", "pressure.partition"),
    ("bracket", "pressure.bracket"),
)

COUNTED_FAMILY_METHODS = ("deriv_bracket", "apply")


class Tracer:
    """Per-pass span and counter aggregates over the modules it patches
    (``modules`` maps each package module name to the imported module)."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.job = None
        self.keep_spans = False
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple] = []
        self._levels_seen = weakref.WeakKeyDictionary()
        self.missing: list[str] = []
        self.reset()

    # ----------------------------------------------------------- recording

    def reset(self) -> None:
        """Start a new pass: clear the per-pass aggregates."""
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = Counter()
        self.widths: list[float] = []

    def _enter(self, name: str) -> list:
        self._next_id += 1
        parent = self._stack[-1][2] if self._stack else None
        frame = [perf_counter(), 0.0, self._next_id, parent, name]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        start, child, span_id, parent, name = frame
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        self.calls[name] += 1
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        if self.keep_spans:
            self.spans.append((span_id, parent, name, start, end, self.job))

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; the benchmark uses this for its own calls."""
        frame = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame)

    def _spanned(self, fn, name: str, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, key: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------- hooks

    def _after_solve(self, result) -> None:
        self.counts["solves"] += 1
        if not result.certified:
            self.counts["uncertified_solves"] += 1

    def _after_pressure(self, result) -> None:
        width = result.upper - result.lower
        if math.isfinite(width) and width > 0.0:
            self.widths.append(math.log10(width))

    def _after_hits(self, result) -> None:
        self.counts["hit_epochs"] += result.horizon
        self.counts["hit_decided"] += len(result.hits) + len(result.misses)

    def _level(self, fn):
        tracer = self
        spanned = self._spanned(fn, "pressure.level")

        def level(table, n):
            seen = tracer._levels_seen.setdefault(table, set())
            result = spanned(table, n)
            if n not in seen:
                seen.add(n)
                tracer.counts["level_builds"] += 1
                tracer.counts["level_words"] += len(result[0])
            return result

        return level

    def _bracket(self, fn):
        tracer = self
        spanned = self._spanned(fn, "pressure.bracket")

        def bracket(*args, **kwargs):
            if any(f[4] == "dimension.solve" for f in tracer._stack):
                tracer.counts["solve_steps"] += 1
            return spanned(*args, **kwargs)

        return bracket

    def _composer(self, fn):
        tracer = self

        def forward_composer(*args, **kwargs):
            root = fn(*args, **kwargs)
            cls = type(root)
            if "child" in vars(cls) and not hasattr(vars(cls)["child"], "__wrapped__"):
                tracer._patch(cls, "child",
                              tracer._counted(vars(cls)["child"], "composer_child"))
            return root

        forward_composer.__wrapped__ = fn
        return forward_composer

    # ------------------------------------------------------ install/remove

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        m = self.modules
        self.missing = []
        hooks = {"dimension.solve": self._after_solve,
                 "pressure.pressure_bracket": self._after_pressure,
                 "targets.hits": self._after_hits}
        for module, attr, name in SPANNED_FUNCTIONS:
            owner = m[module]
            if not hasattr(owner, attr):
                self.missing.append(f"{module}.{attr}")
                continue
            self._patch(owner, attr,
                        self._spanned(getattr(owner, attr), name, hooks.get(name)))
        table = m["pressure"].BirkhoffTable
        for attr, name in SPANNED_METHODS:
            fn = vars(table).get(attr)
            if fn is None:
                self.missing.append(f"pressure.BirkhoffTable.{attr}")
                continue
            if attr == "level":
                new = self._level(fn)
            elif attr == "bracket":
                new = self._bracket(fn)
            else:
                new = self._spanned(fn, name)
            self._patch(table, attr, new)
        if hasattr(m["targets"], "forward_composer"):
            self._patch(m["targets"], "forward_composer",
                        self._composer(m["targets"].forward_composer))
        else:
            self.missing.append("targets.forward_composer")
        systems = m["systems"]
        for cls in vars(systems).values():
            if isinstance(cls, type) and issubclass(cls, systems.BranchFamily):
                for attr in COUNTED_FAMILY_METHODS:
                    if attr in vars(cls):
                        self._patch(cls, attr, self._counted(vars(cls)[attr], attr))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # ------------------------------------------------------------ results

    def pass_stats(self) -> dict:
        """Aggregates of the pass just run, as plain JSON data."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counts": dict(self.counts),
            "width_log10": (statistics.fmean(self.widths) if self.widths else 0.0),
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, name, start, end, job in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end, "job": job}) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0.0 else 0.0


def layer_metrics(stats: dict, pass_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (``pass_s`` is its wall time)."""
    calls, self_s, total_s, counts = (stats["calls"], stats["self_s"],
                                      stats["total_s"], stats["counts"])

    def layer_self(layer: str) -> float:
        return sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)

    level_calls = calls.get("pressure.level", 0)
    builds = counts.get("level_builds", 0)
    solves = counts.get("solves", 0)
    out = {
        "systems.deriv_bracket.calls": counts.get("deriv_bracket", 0),
        "systems.apply.calls": counts.get("apply", 0),
        "systems.cylinder.calls": calls.get("systems.cylinder", 0),
        "systems.cylinder.self_s": self_s.get("systems.cylinder", 0.0),
        "systems.composer_child.calls": counts.get("composer_child", 0),
        "pressure.table.builds": calls.get("pressure.table", 0),
        "pressure.level.builds": builds,
        "pressure.level.words": counts.get("level_words", 0),
        "pressure.level.self_s": self_s.get("pressure.level", 0.0),
        "pressure.level.words_per_s": _ratio(counts.get("level_words", 0),
                                             self_s.get("pressure.level", 0.0)),
        "pressure.level.reuse_ratio": _ratio(level_calls - builds, level_calls),
        "pressure.partition.calls": calls.get("pressure.partition", 0),
        "pressure.partition.self_s": self_s.get("pressure.partition", 0.0),
        "pressure.bracket.calls": calls.get("pressure.bracket", 0),
        "pressure.bracket.self_s": self_s.get("pressure.bracket", 0.0),
        "pressure.width_log10": stats["width_log10"],
        "dimension.solves": solves,
        "dimension.steps": counts.get("solve_steps", 0),
        "dimension.steps_per_solve": _ratio(counts.get("solve_steps", 0), solves),
        "dimension.uncertified_solves": counts.get("uncertified_solves", 0),
        "targets.cover.self_s": self_s.get("targets.cover", 0.0),
        "targets.density.self_s": self_s.get("targets.density", 0.0),
        "targets.density.nodes_per_s": _ratio(counts.get("composer_child", 0),
                                               total_s.get("targets.density", 0.0)),
        "targets.hits.self_s": self_s.get("targets.hits", 0.0),
        "targets.hits.epochs_per_s": _ratio(counts.get("hit_epochs", 0),
                                            total_s.get("targets.hits", 0.0)),
        "targets.hits.decided_ratio": _ratio(counts.get("hit_decided", 0),
                                             counts.get("hit_epochs", 0)),
        "counterexample.build_s": total_s.get("counterexample.build", 0.0),
        "counterexample.verify_s": total_s.get("counterexample.verify", 0.0),
        "counterexample.report_s": total_s.get("counterexample.report", 0.0),
        "cli.jobs": calls.get("cli.main", 0),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self(layer)
    out["bench.self_s"] = pass_s - sum(out[f"{layer}.self_s"] for layer in LAYERS)
    return out
