#!/usr/bin/env python3
"""Benchmark hardylab end to end and layer by layer.

Usage:
    python3 perfbench/run.py --workload NAME --seed S --seconds N --trace 0|1
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 0

A closed loop with one client: each pass runs the workload's configs one at
a time, each in a fresh process (perfbench/child.py), the way
`hardylab run <cfg>` is used, and passes repeat for --seconds. With --trace 0
it reports the end-to-end metrics as medians over passes; with --trace 1 it
alternates untraced and traced passes and reports the per-layer metrics. Every
config run is checked (perfbench/checks.py); a run that crashes, exits
non-zero or fails a check counts in `failed`. The last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}. Outputs and the
environment record go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import filecmp
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_run
from tracer import RUNNER_SPANS, SPAN_NAMES, TOTAL_SPANS
from workloads import WORKLOADS, Config, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference"
CHILD_TIMEOUT_S = 120

END_TO_END = {"wall_s": "s", "setup_s": "s", "compute_s": "s", "peak_rss_mb": "MB"}
SCENARIO_METRICS = {f"E{k}": f"e{k}_s" for k in range(1, 6)}
# untraced runner time may exceed the traced span sum by at most this much
# (run_experiment's own bookkeeping: tag, mkdir, .meta.txt, progress line)
INTEGRITY_SLACK_FRAC, INTEGRITY_SLACK_S = 0.01, 0.01


@dataclass
class ConfigRun:
    cfg: Config
    code: int
    wall_s: float
    maxrss_mb: float
    setup_s: float = 0.0
    compute_s: float = 0.0
    spans: dict | None = None
    problems: list[str] = field(default_factory=list)


def spawn_child(args: list[str], log: Path) -> tuple[int, float, float]:
    """Run child.py to completion; returns (exit code, wall s, max RSS MB)."""
    with open(log, "w") as log_fh:
        t0 = time.monotonic()
        cmd = [sys.executable, str(BENCH / "child.py"), *args, "--spawned-at", repr(t0)]
        proc = subprocess.Popen(cmd, stdout=log_fh, stderr=subprocess.STDOUT, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_config(cfg: Config, cfg_path: Path, out_dir: Path, trace: bool,
               reference_dir: Path | None) -> ConfigRun:
    result = out_dir / f"{cfg.name}.result.json"
    log = out_dir / f"{cfg.name}.log"
    args = ["--result", str(result), "--config", str(cfg_path), "--out-dir", str(out_dir)]
    code, wall, rss = spawn_child(args + (["--trace"] if trace else []), log)
    run = ConfigRun(cfg, code, wall, rss)
    if code != 0 or not result.is_file():
        tail = log.read_text().strip().splitlines()[-1:] if log.is_file() else []
        run.problems.append(f"{cfg.name}: exit code {code} {' '.join(tail)}")
        return run
    data = json.loads(result.read_text())
    run.setup_s, run.compute_s = data["setup_s"], data["compute_s"]
    run.spans = data.get("spans")
    if not Path(data["hardylab_file"]).resolve().is_relative_to(ROOT / "src"):
        run.problems.append(f"{cfg.name}: imported hardylab from {data['hardylab_file']}")
    run.problems += [f"{cfg.name}: {p}" for p in check_run(cfg, out_dir, reference_dir)]
    return run


@dataclass
class Pass:
    runs: list[ConfigRun]
    out_dir: Path
    duration_s: float

    def metrics(self) -> dict[str, float]:
        m = {"wall_s": sum(r.wall_s for r in self.runs),
             "compute_s": sum(r.compute_s for r in self.runs),
             "peak_rss_mb": max(r.maxrss_mb for r in self.runs)}
        for scenario, name in SCENARIO_METRICS.items():
            m[name] = sum(r.compute_s for r in self.runs if r.cfg.scenario.startswith(scenario + "-"))
        return m


def run_pass(wl: Workload, cfg_dir: Path, out_dir: Path, trace: bool,
             reference_dir: Path | None) -> Pass:
    out_dir.mkdir(parents=True)
    t0 = time.monotonic()
    runs = [run_config(c, cfg_dir / f"{c.name}.cfg", out_dir, trace, reference_dir)
            for c in wl.configs]
    return Pass(runs, out_dir, time.monotonic() - t0)


# ---------------------------------------------------------------------------
# per-layer metrics from the traced passes


def layer_metrics(traced: Pass, untraced: Pass) -> dict[str, tuple[float, str]]:
    calls: dict = defaultdict(int)
    self_s: dict = defaultdict(float)
    total_s: dict = defaultdict(float)
    caused: dict = defaultdict(int)
    fft_points, fft_flops = 0, 0.0
    for run in traced.runs:
        sp = run.spans or {}
        for k, v in sp.get("calls", {}).items():
            calls[k] += v
        for k, v in sp.get("self_s", {}).items():
            self_s[k] += v
        for k, v in sp.get("total_s", {}).items():
            total_s[k] += v
        for parent, child, n in sp.get("caused", []):
            caused[(parent, child)] += n
        fft_points += sp.get("fft_points", 0)
        fft_flops += sp.get("fft_flops", 0.0)

    m: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.self_s"] = (self_s[name], "s")
    for name in TOTAL_SPANS:
        m[f"{name}.total_s"] = (total_s[name], "s")
    m["fft.points"] = (fft_points, "count")
    m["fft.gflop_computed"] = (fft_flops / 1e9, "GFLOP")
    atoms = calls["atoms.make_atom"]
    draws = caused[("atoms.make_atom", "atoms.random_smooth_field")]
    m["atoms.make_atom.attempts_per_atom"] = (draws / atoms if atoms else 0.0, "ratio")
    projections = (calls["moments.poly_project"] + calls["moments.weighted_poly_project"]
                   + calls["moments.match_moments_with_bump"])
    for name in ("linalg.cho_factor", "grid.Ball.mask"):
        m[f"{name}.per_projection"] = (calls[name] / projections if projections else 0.0, "ratio")
    t, u = traced.metrics()["compute_s"], untraced.metrics()["compute_s"]
    m["trace_overhead_frac"] = (t / u - 1.0, "ratio")
    for name, v in untraced.metrics().items():
        if name in SCENARIO_METRICS.values():
            m[name] = (v, "s")
    return m


def trace_problems(wl: Workload, traced: Pass, untraced: Pass) -> list[str]:
    """The traced pass must write the same CSV bytes as the untraced one, its
    runner spans must account for its compute time, and the workload's
    bypassed layers must record no calls."""
    bad = []
    for run in traced.runs:
        name = f"{run.cfg.tag}.csv"
        a, b = traced.out_dir / name, untraced.out_dir / name
        if not (a.is_file() and b.is_file() and filecmp.cmp(a, b, shallow=False)):
            bad.append(f"traced {name} differs from the untraced one")
    runner = sum(run.spans["total_s"].get(s, 0.0) for run in traced.runs if run.spans
                 for s in RUNNER_SPANS)
    compute = traced.metrics()["compute_s"]
    slack = INTEGRITY_SLACK_FRAC * compute + INTEGRITY_SLACK_S * len(traced.runs)
    if not 0.0 <= compute - runner <= slack:
        bad.append(f"runner spans cover {runner:.4f} s of traced compute {compute:.4f} s")
    for span in wl.zero_spans:
        n = sum((run.spans or {}).get("calls", {}).get(span, 0) for run in traced.runs)
        if n:
            bad.append(f"{span} called {n} times on {wl.name}")
    return bad


# ---------------------------------------------------------------------------


def git_sha() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = git / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def stats(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def run_workload(wl: Workload, seed: int, seconds: int, trace: bool) -> dict | None:
    out = OUT / f"{wl.name}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    cfg_dir = out / "configs"
    cfg_dir.mkdir(parents=True)
    config_hashes = {}
    for c in wl.configs:
        text = c.text(seed)
        (cfg_dir / f"{c.name}.cfg").write_text(text)
        config_hashes[c.name] = hashlib.sha256(text.encode()).hexdigest()

    probe = out / "probe.json"
    code, _, _ = spawn_child(["--result", str(probe)], out / "probe.log")
    if code != 0 or not probe.is_file():
        sys.stderr.write(f"hardylab does not import from {ROOT / 'src'}:\n"
                         + (out / "probe.log").read_text())
        return None
    data = json.loads(probe.read_text())
    env = {**data["environment"], "numpy_trapz_alias": data["numpy_trapz_alias"]}
    reference_dir = REFERENCE / wl.name if seed == 0 else None

    t_start = time.monotonic()
    untraced: list[Pass] = []
    traced: list[Pass] = []
    while True:
        k = len(untraced)
        untraced.append(run_pass(wl, cfg_dir, out / f"pass{k}", False, reference_dir))
        if trace:
            traced.append(run_pass(wl, cfg_dir, out / f"pass{k}-traced", True, reference_dir))
        step = untraced[-1].duration_s + (traced[-1].duration_s if trace else 0.0)
        if time.monotonic() - t_start + step > seconds:
            break

    all_passes = untraced + traced
    runs = [r for p in all_passes for r in p.runs]
    problems = [p for r in runs for p in r.problems]
    if trace:
        for t, u in zip(traced, untraced):
            problems += trace_problems(wl, t, u)

    if trace:
        per_pass = [layer_metrics(t, u) for t, u in zip(traced, untraced)]
        units = {k: unit for k, (_, unit) in per_pass[0].items()}
        series = {k: [m[k][0] for m in per_pass] for k in units}
        calls = [{k: v for k, (v, _) in m.items() if k.endswith(".calls")} for m in per_pass]
        if any(c != calls[0] for c in calls):
            problems.append("span call counts differ between traced passes")
    else:
        per_pass = [p.metrics() for p in untraced]
        units = {**END_TO_END, **{n: "s" for n in SCENARIO_METRICS.values()}}
        # every process of the run is one set-up sample; scaled to a pass, the
        # median of all of them is steadier than the median of a few pass sums
        setups = [r.setup_s * len(wl.configs) for p in untraced for r in p.runs]
        series = {k: setups if k == "setup_s" else [m[k] for m in per_pass] for k in units}

    missing = sorted({m for p in traced for r in p.runs if r.spans for m in r.spans["missing"]})
    env.update({
        "workload": wl.name, "workload_seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "git_sha": git_sha(),
        "config_sha256": config_hashes, "passes": len(untraced), "missing_spans": missing,
    })
    (out / "environment.json").write_text(json.dumps(env, indent=2))
    report = {"correct": not problems, "attempted": len(runs),
              "failed": sum(1 for r in runs if r.problems),
              "environment": env, "problems": problems,
              "metrics": {k: dict(zip(("median", "q1", "q3"), stats(v)), n=len(v), unit=units[k])
                          for k, v in series.items()},
              "runs": [{"pass": p.out_dir.name, "config": r.cfg.name, "code": r.code,
                        "wall_s": r.wall_s, "setup_s": r.setup_s, "compute_s": r.compute_s,
                        "maxrss_mb": r.maxrss_mb} for p in all_passes for r in p.runs]}
    (out / "report.json").write_text(json.dumps(report, indent=2))
    return report


def print_report(report: dict, keys: list[str]) -> None:
    env = report["environment"]
    print(f"== {env['workload']}  seed={env['workload_seed']}  trace={int(env['trace'])}  "
          f"passes={env['passes']}  nproc={env['nproc']}  python={env['python']}  "
          f"numpy={env['numpy']}  scipy={env['scipy']}  blas={env['blas']}  "
          f"numpy_trapz_alias={str(env['numpy_trapz_alias']).lower()}  git={env['git_sha']}")
    print(f"   why: {WORKLOADS[env['workload']].why}")
    print(f"   thread env: {env['thread_env']}  scipy_fft_workers={env['scipy_fft_workers']}")
    if env["missing_spans"]:
        print(f"   spans whose target no longer exists (0 calls): {env['missing_spans']}")
    for k in keys:
        s = report["metrics"][k]
        print(f"   {k:44s} {s['median']:14.6g} {s['unit']:6s} "
              f"q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}")
    print(f"   {'failed_frac':44s} {report['failed'] / report['attempted']:14.6g} ratio  "
          f"({report['failed']} of {report['attempted']} config runs)")
    for p in report["problems"][:20]:
        print(f"   FAILED: {p}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through spawn_child so the running child is killed too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "hardylab" / "__init__.py").is_file():
        print(f"no hardylab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        report = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        if report is None:
            return 2
        keys = list(report["metrics"])
        if not args.trace:  # e1_s..e5_s only where the workload runs that scenario
            keys = [k for k in keys if k in END_TO_END or report["metrics"][k]["median"] > 0]
        print_report(report, keys)
        correct &= report["correct"]
        attempted += report["attempted"]
        failed += report["failed"]
        prefix = "" if len(names) == 1 else f"{name}/"
        shown = END_TO_END if not args.trace else report["metrics"]
        metrics.update({prefix + k: {"value": report["metrics"][k]["median"],
                                     "unit": report["metrics"][k]["unit"]} for k in shown})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
