"""Benchmark worker: sets up one workload, then runs passes over its jobs.

Started by run.py in a fresh process whose numpy/BLAS thread variables are
pinned to 1.  It writes one JSON document (``--result``) holding the set-up
time, every job time, the calibration times taken around them, the outputs
of the checked pass, the failures seen and, with ``--trace 1``, per-pass span
aggregates.  It judges no output against an oracle; run.py does that.
"""

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402
import configparser  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(BENCH))

from tracing import Tracer  # noqa: E402
from workloads import Job, make_jobs  # noqa: E402

MODULES = ("systems", "pressure", "dimension", "targets", "counterexample", "cli")
SETUP_CALIBRATIONS = 40


def import_package() -> dict:
    pkg = importlib.import_module("shrinktarget")
    source = (ROOT / "src" / "shrinktarget").resolve()
    if Path(pkg.__file__).resolve().parent != source:
        raise RuntimeError(f"shrinktarget imported from {pkg.__file__}, not {source}")
    return {name: importlib.import_module(f"shrinktarget.{name}") for name in MODULES}


class Runner:
    """Runs jobs through the public entry points and reads their outputs."""

    def __init__(self, jobs: list[Job], workdir: Path, modules: dict):
        self.jobs = jobs
        self.m = modules
        self.argv = {}
        for job in jobs:
            if job.is_cli:
                config = workdir / f"{job.id}.ini"
                config.write_text(job.config)
                parsed = configparser.ConfigParser()
                if not parsed.read(config):
                    raise RuntimeError(f"config {config} unreadable")
                out = workdir / f"{job.id}.csv"
                self.argv[job.id] = [job.command, "--config", str(config), "--out", str(out)]
        systems, counterexample = modules["systems"], modules["counterexample"]
        self.gauss = systems.gauss_system()
        self.counterexample = {}
        self.api_results = {}
        for job in jobs:
            if job.command == "zero-dim-report":
                self.counterexample[job.id] = counterexample.build(
                    job.params["beta"], counterexample.ShrinkFn.power(1))

    def run(self, job: Job, tracer=None):
        """Run one job; returns the CLI exit status (0 for API jobs)."""
        call = tracer.span if tracer is not None else (lambda _name, fn, *a: fn(*a))
        if job.is_cli:
            return call("cli.main", self.m["cli"].main, self.argv[job.id])
        if job.command == "jarnik":
            self.api_results[job.id] = self._jarnik(job.params)
        else:
            self.api_results[job.id] = self._zero_dim(job)
        return 0

    def _jarnik(self, p: dict) -> list[dict]:
        d, pr = self.m["dimension"], self.m["pressure"]
        phi = pr.Scale(p["alpha"] / 2.0 - 1.0, pr.LogDerivative())
        trunc = d.Truncation.prefix_ladder(p["ladder"], n_max=p["n_max"], use_tail=True)
        res = d.shrink_exponent_potential(self.gauss, phi, trunc, tol=p["tol"])
        return [{"value": repr(res.value), "lower": repr(res.bracket[0]),
                 "upper": repr(res.bracket[1]), "certified": str(res.certified)}]

    def _zero_dim(self, job: Job) -> list[dict]:
        p = job.params
        rep = self.m["counterexample"].zero_dim_cover_report(
            self.counterexample[job.id], eps=p["eps"], m=p["m"], n_max=p["n_max"])
        return [{"envelope_ok": str(rep.envelope_ok), "total": repr(rep.cover.total),
                 "full_series_bound": repr(rep.full_series_bound)}]

    def output(self, job: Job) -> list[dict] | str:
        """The output of the job's last run: CSV text, or rows for API jobs."""
        if not job.is_cli:
            return self.api_results[job.id]
        return Path(self.argv[job.id][-1]).read_text()

    def one_pass(self, tracer=None, calibrated=False) -> tuple[list, list, list]:
        """Time one pass over the jobs.  Returns the seconds of each job; with
        ``calibrated``, the calibration times taken before the first job and
        after each job, outside the job clocks (else an empty list); and per
        job (exit status or traceback, output), outputs read after the clocks."""
        statuses, job_s = [], []
        calibration_s = [calibrate()] if calibrated else []
        for job in self.jobs:
            if tracer is not None:
                tracer.job = job.id
            start = perf_counter()
            try:
                status = self.run(job, tracer)
            except Exception:  # a failing job is a measured outcome, not a crash
                status = traceback.format_exc(limit=3)
            job_s.append(perf_counter() - start)
            statuses.append(status)
            if calibrated:
                calibration_s.append(calibrate())
        return job_s, calibration_s, [(status, self.output(job) if status == 0 else None)
                                      for job, status in zip(self.jobs, statuses)]


def calibrate() -> float:
    """Seconds taken by a fixed reference computation: a pure-Python
    continued-fraction tree walk and small numpy log-sum-exps, the mix of
    work the program does, but no code of the program.  Timed just before
    and just after every job, it tracks the speed this shared machine runs at
    during that job; it takes a few milliseconds, so that costs little.
    The garbage collector is off so the program's heap does not slow it.
    """
    gc.disable()
    start = perf_counter()
    acc = 0.0
    stack = [(0, 0.0, 1.0)]
    while stack:
        depth, lo, hi = stack.pop()
        if depth == 7:
            acc += hi - lo
            continue
        for s in (1, 2, 3):
            a, b = 1.0 / (s + lo), 1.0 / (s + hi)
            stack.append((depth + 1, min(a, b), max(a, b)))
    v = np.linspace(0.0, 1.0, 64)
    for _ in range(60):
        m = float(np.max(v))
        acc += m + math.log(float(np.sum(np.exp(v - m))))
    elapsed = perf_counter() - start
    gc.enable()
    return elapsed


def parse_csv(text: str) -> dict:
    lines = text.splitlines()
    manifest = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    header = body[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in body[1:]]
    return {"manifest": manifest, "rows": rows}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--spans", default=None, help="where to write the spans of a traced pass")
    args = ap.parse_args()

    workdir = Path(args.workdir)
    modules = import_package()
    jobs = make_jobs(args.workload, args.seed, workdir, tiny=args.tiny)
    runner = Runner(jobs, workdir, modules)
    setup_s = perf_counter() - STARTED
    result = {"setup_s": setup_s}
    if args.setup_only:
        result["calibration_s"] = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
        Path(args.result).write_text(json.dumps(result))
        return 0

    failures: list[dict] = []
    attempted = 0

    def record(pass_index: int, statuses: list, reference: list | None = None) -> None:
        nonlocal attempted
        attempted += len(jobs)
        for k, (job, (status, output)) in enumerate(zip(jobs, statuses)):
            if status != 0:
                failures.append({"job": job.id, "pass": pass_index,
                                 "reason": f"exit status / exception: {status}"})
            elif reference is not None and output != reference[k][1]:
                failures.append({"job": job.id, "pass": pass_index,
                                 "reason": "output differs from the checked pass"})

    # Checked pass: warms caches and lazy imports; its outputs go to the oracles.
    _, _, checked = runner.one_pass()
    record(0, checked)
    result["outputs"] = {
        job.id: (None if status != 0 else
                 parse_csv(out) if job.is_cli else {"manifest": [], "rows": out})
        for job, (status, out) in zip(jobs, checked)
    }

    tracer = Tracer(modules) if args.trace else None
    job_s, job_calibration_s, traced_s, traced_stats = [], [], [], []
    deadline = perf_counter() + args.seconds
    while True:
        times, calibrations, statuses = runner.one_pass(calibrated=True)
        job_s.append(times)
        job_calibration_s.append(calibrations)
        record(len(job_s) + len(traced_s), statuses, checked)
        if tracer is not None:
            tracer.reset()
            tracer.keep_spans = not traced_s
            tracer.install()
            try:
                times, _, statuses = runner.one_pass(tracer)
            finally:
                tracer.uninstall()
            traced_s.append(sum(times))
            traced_stats.append(tracer.pass_stats())
            record(len(job_s) + len(traced_s), statuses, checked)
        if perf_counter() >= deadline:
            break

    result.update({
        "pass_s": [sum(times) for times in job_s],
        "job_s": job_s,
        "job_calibration_s": job_calibration_s,
        "calibration_s": [c for calibrations in job_calibration_s for c in calibrations],
        "attempted": attempted,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if tracer is not None:
        result.update({"traced_pass_s": traced_s, "traced_stats": traced_stats,
                       "trace_missing": tracer.missing})
        if args.spans:
            tracer.write_spans(args.spans)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
