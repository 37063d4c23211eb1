"""minkpair benchmark: one workload, one run, one JSON result on the last line.

    python3 perfbench/run.py --workload summand3 --seed 7 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`.  `--trace 0` times operations with tracing off and reports the
end-to-end metrics; `--trace 1` alternates untraced and traced passes over
freshly built pools of the same operations and reports the per-layer
metrics, then a scaling report.
The line before the result is an `{"info": ...}` object with the run's
context (commit, Python, nproc, load average, source size, sample count,
failed ratio).  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("summand3", "build3", "planar", "cli")
DEFAULT_SEED = 1
STARTUP_REPEATS = 5
REFERENCE = HERE / "reference.json"
SCRATCH = ROOT / ".perfbench"


def draw(workload, seed, workdir, in_process=False):
    """The workload's builders: inputs drawn from the seed, sets not yet built."""
    module = importlib.import_module(f"w_{workload}")
    if workload == "cli":
        return module.draw(seed, workdir, ROOT, in_process)
    return module.draw(seed)


def reference_attacher(workload, seed):
    """attach(ops): give each op the recorded digest that applies to it on this seed."""
    recorded = json.loads(REFERENCE.read_text(encoding="utf-8"))
    entries = recorded["workloads"][workload]

    def attach(ops):
        for op in ops:
            if seed == recorded["default_seed"] or op.key.startswith("shipped/"):
                if op.key not in entries:
                    raise SystemExit(f"perfbench: no recorded reference for {workload} op {op.key}")
                op.expect = entries[op.key]
    return attach


def startup_costs():
    """Median bare interpreter start-up, and import of minkpair.cli beyond it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def median_run(code):
        times = []
        for _ in range(STARTUP_REPEATS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                           stdout=subprocess.DEVNULL, timeout=60)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    bare = median_run("pass")
    return bare, median_run("import minkpair.cli") - bare


def timed_run(args, workdir):
    import harness

    builders = draw(args.workload, args.seed, workdir)
    if args.workload == "cli":
        import w_cli
        probe = w_cli.startup_probe(ROOT)
    else:
        probe = harness.INTERPRETER
    tally, setups = harness.run_passes(builders, args.seconds, probe,
                                       reference_attacher(args.workload, args.seed))
    rss = harness.peak_rss_mb(children=args.workload == "cli")
    metrics = harness.end_to_end(tally, setups, rss, probe.reference_s)
    typical = harness.typical_times(tally, probe.reference_s)
    p90 = metrics["op_p90_ms"][0] / 1e3
    info = {"setup_runs_s": [sum(seconds for seconds, _ in times) for times in setups],
            "distinct_ops": len(typical), "distinct_ops_beyond_p90": sum(t > p90 for t in typical.values()),
            "raw_op_mean_s": sum(tally.durations) / len(tally.durations),
            "probe_slowdown_median": statistics.median(tally.probes) / probe.reference_s}
    return tally, metrics, info


def traced_run(args, workdir):
    import harness
    import scaling
    import tracer as tracing

    builders = draw(args.workload, args.seed, workdir, in_process=True)
    attach = reference_attacher(args.workload, args.seed)

    def fresh_pool():
        ops, _ = harness.build(builders)
        attach(ops)
        return ops

    # whole passes over fresh pools, alternating untraced and traced, so machine
    # drift hits both; the builds run untraced
    untraced, traced, tracer = harness.Tally(), harness.Tally(), tracing.Tracer()
    start = time.perf_counter()
    while not traced.attempted or time.perf_counter() - start < args.seconds:
        untraced.extend(harness.run_pass(fresh_pool()))
        ops = fresh_pool()
        tracer.install()
        try:
            traced.extend(harness.run_pass(ops, invoke=tracer.invoke))
        finally:
            tracer.uninstall()
    extra = {"trace.overhead_ratio": sum(traced.durations) / sum(untraced.durations),
             "cli.interpreter_s": 0.0, "cli.import_s": 0.0}
    if args.workload == "cli":
        extra["cli.interpreter_s"], extra["cli.import_s"] = startup_costs()
    metrics, by_module = tracing.layer_metrics(tracer, extra)
    spans_file = SCRATCH / f"spans-{args.workload}-seed{args.seed}.tsv"
    tracer.write(spans_file)
    untraced.extend(traced)
    info = {"module_self_s": by_module, "spans": len(tracer.names),
            "spans_file": str(spans_file.relative_to(ROOT)), "scaling": scaling.report(args.seed)}
    return untraced, metrics, info


def context():
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    loc = sum(len(p.read_text(encoding="utf-8").splitlines())
              for p in sorted((ROOT / "src" / "minkpair").glob("*.py")))
    return {"git_commit": commit, "python": platform.python_version(), "nproc": os.cpu_count(),
            "src_loc": loc}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "minkpair" / "__init__.py").is_file():
        print(f"perfbench: no minkpair sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    SCRATCH.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    try:
        load_before = os.getloadavg()
        t0 = time.perf_counter()
        tally, metrics, info = (traced_run if args.trace else timed_run)(args, workdir)
        info.update(context())
        info.update({
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "wall_s": time.perf_counter() - t0, "samples": len(tally.durations),
            "failed_ratio": tally.failed_ratio, "failures": tally.failures,
            "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        })
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
