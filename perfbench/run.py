"""eivmix benchmark: one workload, one closed-loop client, one JSON result.

    python3 perfbench/run.py --workload fit-cubic-general --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it installs span tracing on the package's public layer
boundaries and reports per-layer metrics. Either way every op's output is
checked against an oracle after the timed loop, and a self-check confirms
that a perturbed objective would be caught. The last line of standard output
is the JSON result; a copy with provenance goes to ``.perfbench_results/``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# One client on one core: without this, OpenBLAS keeps a helper thread
# spinning on the second core after each call. Set before numpy loads, and
# whatever the caller's environment says, so every run measures one thread.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# fresh set-up processes per run, split before and after the timed loop so
# that their median spans the host's speed over the whole run
SETUP_REPEATS = 21
MIN_TAIL_BEYOND = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"],
                   help="one workload, or all of them, each in a fresh process")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def workdir_for(workload):
    return os.path.join(ROOT, ".perfbench_run", f"{workload}-{os.getpid()}")


def setup_probe(args):
    """Import eivmix and build the inputs in this fresh process; print the time."""
    t0 = time.perf_counter()
    workdir = workdir_for(args.workload)
    os.makedirs(workdir)
    try:
        WORKLOADS[args.workload]().build(args.seed, workdir)
        print(time.perf_counter() - t0)
    finally:
        shutil.rmtree(workdir)
    return 0


def measure_setup(args, repeats):
    """Set-up times of ``repeats`` fresh processes, one after another."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    samples = []
    for _ in range(repeats):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError("set-up probe failed: " + done.stderr.strip())
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def tail(latencies):
    """Highest percentile with at least MIN_TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond). With too few samples for
    any such percentile, the maximum is returned with 0 beyond.
    """
    xs = sorted(latencies)
    n = len(xs)
    j = n - 1 - MIN_TAIL_BEYOND
    if j < 0:
        return xs[-1], 100.0, 0
    return xs[j], 100.0 * j / (n - 1), n - 1 - j


def timed_loop(wl, deadline, min_ops, tracer=None):
    """Run ops 0, 1, ... back to back until the deadline and min_ops are met."""
    latencies, results = [], []
    i = 0
    while True:
        if tracer is not None:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        try:
            result = wl.op(i)
        except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
            result = exc
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        results.append(result)
        i += 1
        if t1 >= deadline and len(latencies) >= min_ops:
            return latencies, results


def check_all(wl, results):
    failures = []
    for i, result in enumerate(results):
        if isinstance(result, Exception):
            reason = f"raised {type(result).__name__}: {result}"
        else:
            reason = wl.check(i, result)
        if reason is not None:
            failures.append((i, reason))
    return failures


# Two defects the correctness gate must catch in each objective it checks:
# a wrong value with the right minimizer, and a shifted minimizer.
VALUE_SCALE, ARGMIN_SHIFT = 1e-3, 1e-2


def _perturbed(original, kind):
    import numpy as np

    def perturbed(self, alpha, *args, **kwargs):
        if kind == "value":
            v = original(self, alpha, *args, **kwargs)
            return dataclasses.replace(v, value=v.value * (1 + VALUE_SCALE) + VALUE_SCALE)
        return original(self, np.asarray(alpha, dtype=float) + ARGMIN_SHIFT, *args, **kwargs)

    return perturbed


def self_check(wl):
    """Run op 0 once per perturbed objective and kind of defect.

    Each run must fail the check, and its reason must name every part of
    the op listed as expected to catch that defect. Returns
    {"<target> <kind>": reason or None}; None means the defect went unseen.
    """
    outcome = {}
    for module_name, path, expect in wl.perturb:
        owner, attr, original = tracing.resolve(module_name, path)
        for kind in ("value", "argmin"):
            undo = tracing.rebind(owner, attr, original, _perturbed(original, kind))
            try:
                result = wl.op(0)
            except Exception as exc:  # noqa: BLE001 - as in timed_loop
                result = exc
            finally:
                tracing.restore(undo)
            reason = (f"raised {type(result).__name__}: {result}"
                      if isinstance(result, Exception) else wl.check(0, result))
            if reason is not None and not all(label in reason for label in expect[kind]):
                reason = None
            outcome[f"{path} {kind}"] = reason
    return outcome


def provenance(args):
    import numpy

    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.splitlines()
        same = top.returncode == 0 and os.path.samefile(lines[0], ROOT)
        commit = lines[1] if same else "unavailable (not a git checkout)"
    except (OSError, subprocess.SubprocessError, IndexError):
        commit = "unavailable (git not found)"
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            names = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one client: each op starts when the previous one returns",
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ[k] for k in BLAS_THREAD_VARS},
        "cpu": cpu,
    }


def run(args):
    import eivmix

    if os.path.dirname(os.path.abspath(eivmix.__file__)) != os.path.join(SRC, "eivmix"):
        raise RuntimeError(f"eivmix imported from {eivmix.__file__}, not from {SRC}")
    setup_samples = measure_setup(args, SETUP_REPEATS - SETUP_REPEATS // 2)

    wl = WORKLOADS[args.workload]()
    workdir = workdir_for(args.workload)
    os.makedirs(workdir)
    try:
        wl.build(args.seed, workdir)
        wl.op(0)  # warm-up, untimed: first-call costs are not steady state
        start = time.perf_counter()
        deadline = start + args.seconds
        extra = {}
        if args.trace:
            # the first count_ops ops untraced, then again traced, give the
            # tracing overhead; tracing then continues to the deadline
            plain, _ = timed_loop(wl, 0.0, wl.count_ops)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                latencies, results = timed_loop(wl, deadline, wl.count_ops, tracer)
            finally:
                tracer.uninstall()
            overhead = sum(latencies[: wl.count_ops]) / sum(plain) - 1.0
            metrics = tracing.layer_metrics(tracer.spans, len(latencies), wl.count_ops,
                                            tracer.missing_spans())
            metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
            shares, inclusive = tracing.layer_shares(tracer.spans, sum(latencies))
            extra = {"self_time_share": shares, "evaluate_share": inclusive,
                     "missing": tracer.missing}
        else:
            latencies, results = timed_loop(wl, deadline, 1)
        wall = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        setup_samples += measure_setup(args, SETUP_REPEATS // 2)
        failures = check_all(wl, results)
        caught = self_check(wl)
        gate_ok = all(r is not None for r in caught.values())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    n = len(results)
    tail_s, tail_pct, beyond = tail(latencies)
    if not args.trace:
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "op_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "op_tail_s": {"value": tail_s, "unit": "s"},
            "ops_per_s": {"value": n / wall, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "op_success_rate": {"value": (n - len(failures)) / n, "unit": "ratio"},
        }
    result = {"correct": not failures and gate_ok, "attempted": n,
              "failed": len(failures), "metrics": metrics}
    record = {
        "provenance": provenance(args),
        "setup_samples_s": setup_samples,
        "latencies_s": latencies,
        "op_tail": {"percentile": tail_pct, "beyond": beyond, "samples": n},
        "op_failure_rate": len(failures) / n,
        "failures": failures[:20],
        "self_check": caught,
        **extra,
        "result": result,
    }
    out_dir = os.path.join(ROOT, ".perfbench_results")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        tracer.write(stem + "-spans.jsonl")
    report(record)
    print(json.dumps(result))
    return 0


def report(record):
    prov, res, tail_info = record["provenance"], record["result"], record["op_tail"]
    print(f"# {prov['workload']}  seed={prov['seed']}  {prov['load']}")
    print("# " + "  ".join(f"{k}={prov[k]}" for k in
                           ("commit", "python", "numpy", "nproc", "blas_threads", "cpu")))
    for name, m in res["metrics"].items():
        note = ""
        if name == "op_tail_s":
            note = (f"  (p{tail_info['percentile']:.1f}, {tail_info['beyond']} of "
                    f"{tail_info['samples']} ops beyond)")
        elif name == "setup_s":
            note = f"  (median of {len(record['setup_samples_s'])} fresh processes)"
        elif name == "objective.general.grid_nodes":
            note = "  (computed from dataset shape and IntegrationConfig)"
        print(f"{name:36s} {m['value']:.6g} {m['unit']}{note}")
    print(f"{'op_failure_rate':36s} {record['op_failure_rate']:.6g} ratio"
          f"  ({res['failed']} of {res['attempted']} ops)")
    for i, reason in record["failures"]:
        print(f"  op {i} failed: {reason}")
    if "evaluate_share" in record:
        for name, share in sorted(record["evaluate_share"].items()):
            print(f"  {name} (inclusive) {100 * share:.1f}% of op time")
        top = sorted(record["self_time_share"].items(), key=lambda kv: -kv[1])
        print("  self time: " + ", ".join(f"{k} {100 * v:.1f}%" for k, v in top))
        if record["missing"]:
            print("  missing public names: " + ", ".join(record["missing"]))
    for defect, reason in record["self_check"].items():
        print(f"self-check: {defect} " + (f"caught ({reason})" if reason else "NOT caught"))


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", w,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for w in WORKLOADS]
        return max(codes)
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    try:
        return run(args)
    except (ImportError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
