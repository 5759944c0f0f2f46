"""Self-tests of the benchmark: python3 -m pytest bench

They run every workload end to end at a tiny size, untraced and traced, twice
with one seed, and check metric names, determinism, which spans and counters
fire where, the oracles against known constants, and that the tracer leaves
the package as it found it.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
from workloads import E2, SPEC, WORKLOADS, make_jobs  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def run_bench(workload: str, trace: int, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


_CACHE: dict = {}


def result(workload: str, trace: int, attempt: int = 0) -> dict:
    key = (workload, trace, attempt)
    if key not in _CACHE:
        proc = run_bench(workload, trace)
        assert proc.returncode == 0, proc.stderr
        _CACHE[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _CACHE[key]


def values(res: dict) -> dict:
    return {name: m["value"] for name, m in res["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_end_to_end_and_is_correct(workload):
    res = result(workload, 0)
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 1
    assert [n for n in res["metrics"]] == [m["name"] for m in BENCHMARK["end_to_end"]]
    for m in BENCHMARK["end_to_end"]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] != 0 and math.isfinite(got["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    res = result(workload, 1)
    assert res["correct"] is True
    assert [n for n in res["metrics"]] == [m["name"] for m in BENCHMARK["per_layer"]]
    got = values(res)
    # layer self times account for the traced pass; the rest is the benchmark's own
    assert 0.0 <= got["bench.self_s"] < 0.1 * got["trace.pass_s.p50"]
    assert got["trace.overhead_ratio"] > 0.0


def test_spec_and_benchmark_list_the_same_metrics():
    assert list(SPEC["per_layer"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert set(SPEC["end_to_end"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert list(SPEC["workloads"]) == [w["name"] for w in BENCHMARK["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_counts_and_accuracy(workload):
    first, second = result(workload, 0), result(workload, 0, attempt=1)
    for name in ("certified_frac", "digits.sum", "abs_err.max"):
        assert first["metrics"][name] == second["metrics"][name]
    t1, t2 = values(result(workload, 1)), values(result(workload, 1, attempt=1))
    counts = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] == "count"]
    assert {n: t1[n] for n in counts} == {n: t2[n] for n in counts}
    assert t1["targets.hits.decided_ratio"] == t2["targets.hits.decided_ratio"]
    assert t1["pressure.width_log10"] == t2["pressure.width_log10"]


@pytest.mark.parametrize("metric", [n for n, s in SPEC["per_layer"].items()
                                    if s["moves"] or s.get("bypass")])
def test_layer_metric_fires_on_its_workloads_and_not_on_the_bypass(metric):
    spec = SPEC["per_layer"][metric]
    for workload in sorted({w for ws in spec["moves"].values() for w in ws}):
        assert values(result(workload, 1))[metric] != 0, workload
    for workload in spec.get("bypass", []):
        assert values(result(workload, 1))[metric] == 0, workload


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("gauss_targets", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_collocation_reproduces_e2_and_closed_forms():
    e2 = oracles._bisect(lambda s: oracles.gauss_pressure([1, 2], s), 0.1, 1.0)
    assert abs(e2 - E2) < 1e-12
    for alpha in (0.3, 1.0, 5.0):
        assert abs(oracles.affine_exponent([0.5, 0.5], alpha)
                   - oracles.doubling_exponent(alpha)) < 1e-15
    assert oracles.doubling_density(0.5, 0.25, 2) == 0.0  # touching cylinders are out
    r = 0.25 + 2 ** -20
    assert oracles.doubling_density(0.5, r, 2) == 0.5 / r  # [1/4,1/2] and [1/2,3/4]


def test_seed_changes_parameters_not_job_shape(tmp_path):
    for workload in WORKLOADS:
        a, b = make_jobs(workload, 1, tmp_path), make_jobs(workload, 2, tmp_path)
        assert [j.id for j in a] == [j.id for j in b]
        assert [j.config for j in a] != [j.config for j in b]
        assert make_jobs(workload, 1, tmp_path) == a


def test_tracer_restores_every_name():
    sys.path.insert(0, str(ROOT / "src"))
    import importlib
    from tracing import Tracer
    names = ("systems", "pressure", "dimension", "targets", "counterexample", "cli")
    modules = {n: importlib.import_module(f"shrinktarget.{n}") for n in names}

    def snapshot():
        out = {}
        for name, mod in modules.items():
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
                if isinstance(value, type):
                    for k, v in vars(value).items():
                        out[(name, attr, k)] = v
        return out

    before = snapshot()
    tracer = Tracer(modules)
    tracer.install()
    gauss = modules["systems"].gauss_system()
    modules["targets"].cylinder_density(gauss, 0.3, 2, 0.05, range(1, 5))
    assert tracer.counts["composer_child"] > 0
    assert tracer.missing == []
    tracer.uninstall()
    assert snapshot() == before
