"""shrinktarget benchmark: certified accuracy and wall time per workload.

    python3 bench/run.py --workload gauss_pressure --seed 1 --seconds 35 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Set-up time is measured in several fresh worker processes, then
one worker runs a checked pass and timed passes for ``--seconds``; with
``--trace 1`` it alternates untraced and traced passes and the per-layer
metrics are reported instead of the end-to-end ones.  Reported times are
scaled to a reference machine speed by a calibration loop timed in the same
processes (see REFERENCE_CAL_S), each job by the calibrations taken just
before and just after it; raw wall times are printed beside them.
Every metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Outputs of the checked pass are judged against independent
oracles (bench/oracles.py).  Scratch files go to ``.bench_work/`` and the
full result, with provenance and per-job checks, to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from oracles import check_job  # noqa: E402
from tracing import layer_metrics  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402

SETUP_PROBES = 10
# Median of worker.calibrate() on the machine the bounds were set on (a
# 2-vCPU Intel Xeon VM).  Times are reported scaled by REFERENCE_CAL_S over
# the calibration time measured beside them, i.e. in seconds at that
# machine's speed, so that the shared host's speed changes cancel: drift of
# about +-20% over minutes, and spells of a few seconds at half speed or
# less.  Each job of a pass is scaled by the mean of the calibrations taken
# just before and just after it, so a slow spell slows the job and its scale
# alike; a set-up probe is scaled by the median of its own calibrations.
REFERENCE_CAL_S = 0.0025
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKER_GRACE_S = 120.0


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args, workdir: Path, result: Path, *extra: str) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir),
           "--result", str(result), *extra]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, env=worker_env(), cwd=str(workdir),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=args.seconds + WORKER_GRACE_S)
    if proc.returncode != 0 or not result.exists():
        raise RuntimeError(f"worker failed with status {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-4000:]}")
    return json.loads(result.read_text())


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 passes beyond it (the 11th
    slowest pass) and that percentile; the slowest pass below 11 passes."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def scaled_pass(job_s: list[float], calibration_s: list[float]) -> float:
    """A pass time at the reference speed: each job's seconds times
    REFERENCE_CAL_S over the mean of the calibrations just before and just
    after it (``calibration_s`` has one more entry than ``job_s``)."""
    return sum(t * 2.0 * REFERENCE_CAL_S / (before + after)
               for t, before, after in zip(job_s, calibration_s, calibration_s[1:]))


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(seed: int) -> dict:
    import numpy
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"commit": git_commit(), "seed": seed, "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu": cpu, "nproc": os.cpu_count(),
            "threads": {name: "1" for name in THREAD_VARS}}


def judge(jobs, outputs: dict) -> tuple[dict, list, dict]:
    """Checked-pass quality metrics, the failures the oracles found, and
    each job's share of the quality metrics."""
    checks = {job.id: check_job(job, outputs.get(job.id)) for job in jobs}
    flagged = sum(c.flagged for c in checks.values())
    errors = [e for c in checks.values() for e in c.errors]
    quality = {
        "certified_frac": (sum(c.certified for c in checks.values()) / flagged
                           if flagged else 0.0),
        "digits.sum": sum(c.digits for c in checks.values()),
        "abs_err.max": max(errors, default=0.0),
    }
    failures = [{"job": job_id, "pass": 0, "reason": p}
                for job_id, c in checks.items() for p in c.problems]
    per_job = {job_id: {"flagged": c.flagged, "certified": c.certified, "digits": c.digits,
                        "abs_err.max": max(c.errors, default=None)}
               for job_id, c in checks.items()}
    return quality, failures, per_job


def traced_metrics(worker: dict) -> dict:
    per_pass = [layer_metrics(stats, t)
                for stats, t in zip(worker["traced_stats"], worker["traced_pass_s"])]
    out = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    traced = statistics.median(worker["traced_pass_s"])
    untraced = statistics.median(worker["pass_s"])
    out["trace.pass_s.p50"] = traced
    out["trace.overhead_ratio"] = traced / untraced
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink depths and horizons (the benchmark's self-tests)")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "shrinktarget" / "__init__.py").exists():
        print(f"error: no shrinktarget sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = benchmark_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_dir = ROOT / ".bench_out"
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        probes = [run_worker(args, workdir, workdir / f"setup{k}.json", "--setup-only")
                  for k in range(SETUP_PROBES)]
        worker = run_worker(args, workdir, workdir / "result.json",
                            "--spans", str(out_dir / f"spans-{stem}.jsonl"))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    jobs = make_jobs(args.workload, args.seed, workdir, tiny=args.tiny)
    quality, oracle_failures, per_job = judge(jobs, worker["outputs"])
    failures = worker["failures"] + oracle_failures
    attempted = worker["attempted"]
    failed = len({(f["job"], f["pass"]) for f in failures})
    scaled = [scaled_pass(times, calibrations) for times, calibrations
              in zip(worker["job_s"], worker["job_calibration_s"])]
    pass_tail, tail_pct = tail(scaled)
    speed = REFERENCE_CAL_S / statistics.median(worker["calibration_s"])
    setups = [p["setup_s"] * REFERENCE_CAL_S / statistics.median(p["calibration_s"])
              for p in probes] + [worker["setup_s"] * speed]
    wall = {"pass_s.p50": statistics.median(worker["pass_s"]),
            "pass_s.tail": tail(worker["pass_s"])[0]}
    e2e = {"setup_s": statistics.median(setups),
           "pass_s.p50": statistics.median(scaled),
           "pass_s.tail": pass_tail,
           **quality,
           "peak_rss_mb": worker["peak_rss_mb"]}
    values = traced_metrics(worker) if args.trace else e2e
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    prov = provenance(args.seed)
    for f in failures:
        print(f"FAILED job={f['job']} pass={f['pass']}: {f['reason']}")
    if args.trace and worker["trace_missing"]:
        print(f"warning: traced names not found: {worker['trace_missing']}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(worker['pass_s'])}  jobs/pass {len(jobs)}")
    print(f"  pass_s.tail is p{tail_pct:.1f} of {len(worker['pass_s'])} passes")
    print(f"  times below are scaled to the reference machine speed (median factor "
          f"{speed:.4f}); wall pass_s.p50 = {wall['pass_s.p50']:.6g} s, wall pass_s.tail = "
          f"{wall['pass_s.tail']:.6g} s")
    print(f"  failed_frac = {failed / attempted:.6g} ratio  ({failed} of {attempted} jobs)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  provenance {json.dumps(prov)}")
    report = {"workload": args.workload, "provenance": prov, "attempted": attempted,
              "failed": failed, "failures": failures, "pass_s": worker["pass_s"],
              "job_s": worker["job_s"], "job_calibration_s": worker["job_calibration_s"],
              "scaled_pass_s": scaled,
              "pass_s.tail_percentile": tail_pct, "setup_s_samples": setups,
              "speed_factor": speed, "wall": wall,
              "end_to_end": e2e, "per_job": per_job, "metrics": metrics}
    (out_dir / f"result-{stem}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
