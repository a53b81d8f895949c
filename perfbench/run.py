"""prostasim benchmark: serial workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload study_default --seed 20260823 --seconds 30 --trace 0

``--workload all`` runs every workload in turn.  Each measured run is a
fresh interpreter (perfbench/worker.py) so that set-up time is real.
Runs repeat until ``--seconds`` is used up; the result is the median over
runs, with set-up and wall times scaled to a nominal machine speed
measured while they run (PROBE_NOMINAL_S).  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` alternates untraced and traced runs
and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the full record, environment
included, goes to .perfbench_out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(ROOT, ".perfbench_out")

# set-up is timed in every run; runs that stop after set-up top the
# samples up to this many, so setup_s is a median even when the main
# call is long
MIN_SETUP_SAMPLES = 7
# a whole invocation must end within 180 s
RUN_LIMIT_S = 170.0

# numpy's BLAS pool would compete with the serial study for the few cores
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# The shared machine's speed switches between states up to ~2x apart,
# within seconds and over minutes, which a median over runs cannot absorb.
# Each run samples that speed through set-up and through its main call
# (worker.SpeedProbe), and setup_s and wall_s are those times scaled to a
# machine on which one probe slice takes PROBE_NOMINAL_S, its typical
# time on the 2-core host the benchmark was tuned on.  The unscaled times
# stay in the record.
PROBE_NOMINAL_S = 0.0012

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "insertions_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Starts worker processes one at a time and collects their results."""

    def __init__(self, workload: str, seed: int, work_dir: str, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.deadline = deadline
        self.count = 0

    FLAGS = {"untraced": (), "traced": ("--trace",), "setup": ("--setup-only",)}

    def spawn(self, kind: str) -> dict:
        self.count += 1
        run_dir = os.path.join(self.work_dir, f"run{self.count:02d}")
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        env = dict(os.environ, **CHILD_ENV)
        t0 = _now()
        cmd = [
            sys.executable, WORKER, "--workload", self.workload, "--seed", str(self.seed),
            "--dir", run_dir, "--t0", repr(t0), *self.FLAGS[kind],
        ]
        try:
            proc = subprocess.run(
                cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - t0),
            )
        except subprocess.TimeoutExpired:
            return {"kind": kind, "failures": ["run timed out"], "elapsed_s": _now() - t0}
        elapsed = _now() - t0
        result_path = os.path.join(run_dir, "result.json")
        if proc.returncode != 0 or not os.path.exists(result_path):
            tail = proc.stderr.strip().splitlines()[-20:]
            return {
                "kind": kind,
                "failures": [f"worker exited {proc.returncode}:\n" + "\n".join(tail)],
                "elapsed_s": elapsed,
            }
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        result.setdefault("failures", [])
        result.update(kind=kind, elapsed_s=elapsed)
        return result


def run_workload(wl, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    work_dir = os.path.join(OUT, wl.name)
    shutil.rmtree(work_dir, ignore_errors=True)
    runner = Runner(wl.name, seed, work_dir, deadline)
    start = _now()
    runs: list[dict] = []

    def budget_left(step: float) -> bool:
        now = _now()
        return now + step - start <= seconds and now + step < deadline

    while True:
        t = _now()
        runs.append(runner.spawn("untraced"))
        if trace:
            runs.append(runner.spawn("traced"))
        if not budget_left(_now() - t):
            break
    if not trace:
        while sum("setup_s" in r for r in runs) < MIN_SETUP_SAMPLES and _now() < deadline:
            runs.append(runner.spawn("setup"))

    check_consistency(wl, runs)
    return {"workload": wl.name, "seed": seed, "trace": trace, "runs": runs}


def check_consistency(wl, runs: list[dict]):
    """Cross-run checks; failures are added to the offending runs."""
    main_runs = [r for r in runs if r["kind"] != "setup" and "digests" in r]
    reference = next((r["digests"] for r in main_runs if not r["failures"]), None)
    for r in main_runs:
        if reference is not None and r["digests"] != reference:
            r["failures"].append("output digests differ from the first good run at this seed")
    traced = [r for r in runs if r["kind"] == "traced" and "layers" in r]
    for r in traced:
        for layer in wl.layers:
            calls = sum(
                v for k, v in r["layers"].items()
                if k.startswith(layer + ".") and k.endswith(".calls")
            )
            if calls == 0:
                r["failures"].append(f"traced run recorded 0 calls into layer {layer}")
        calls = {k: v for k, v in r["layers"].items() if k.endswith(".calls")}
        first = {k: v for k, v in traced[0]["layers"].items() if k.endswith(".calls")}
        if calls != first:
            r["failures"].append("call counts differ between traced runs at one seed")


def _median(values: list[float]) -> float:
    if not values:
        raise RuntimeError("no run produced this metric")
    return float(statistics.median(values))


def scaled(seconds: float, probe_s: list[float]) -> float:
    """Seconds at the probe's nominal speed; slices are uniform in time."""
    return seconds * statistics.fmean(PROBE_NOMINAL_S / p for p in probe_s)


def scaled_wall_s(run: dict) -> float:
    return scaled(run["wall_s"], run["probe_s"])


def metrics(record: dict, units: dict[str, str]) -> dict[str, dict]:
    runs = record["runs"]
    main_runs = [r for r in runs if r["kind"] != "setup" and "wall_s" in r]
    untraced = [r for r in main_runs if r["kind"] == "untraced"]
    if not record["trace"]:
        values = {
            "setup_s": _median([scaled(r["setup_s"], r["setup_probe_s"]) for r in runs if "setup_s" in r]),
            "wall_s": _median([scaled_wall_s(r) for r in untraced]),
            "insertions_per_s": _median([r["insertions"] / scaled_wall_s(r) for r in untraced]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in untraced]),
        }
    else:
        traced = [r for r in main_runs if r["kind"] == "traced" and "layers" in r]
        values = {
            name: _median([r["layers"][name] for r in traced])
            for name in units if name != "trace.overhead_frac"
        }
        values["trace.overhead_frac"] = (
            _median([scaled_wall_s(r) for r in traced])
            / _median([scaled_wall_s(r) for r in untraced]) - 1.0
        )
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def print_record(wl, record: dict, result: dict):
    runs = record["runs"]
    kinds = {k: sum(r["kind"] == k for r in runs) for k in ("untraced", "traced", "setup")}
    print(f"== {wl.name} (seed {record['seed']}): {wl.why}")
    print(
        f"   runs: {kinds['untraced']} untraced, {kinds['traced']} traced, "
        f"{kinds['setup']} set-up only; failed {result['failed']}/{result['attempted']}"
    )
    for r in runs:
        for failure in r["failures"]:
            print(f"   FAILED ({r['kind']} run): {failure}")
    for name, m in result["metrics"].items():
        print(f"   {name:<40} {m['value']:>16.6g} {m['unit']}")
    frac = result["failed"] / result["attempted"]
    print(f"   {'failed_frac':<40} {frac:>16.6g} ratio")
    untraced = [r for r in runs if r["kind"] == "untraced" and "wall_s" in r]
    if untraced:
        setup = statistics.median(r["setup_s"] for r in runs if "setup_s" in r)
        raw = statistics.median(r["wall_s"] for r in untraced)
        probe = statistics.median(p for r in untraced for p in r["probe_s"])
        print(f"   {'unscaled setup_s':<40} {setup:>16.6g} s")
        print(f"   {'unscaled wall_s':<40} {raw:>16.6g} s")
        print(f"   {'probe slice':<40} {probe:>16.6g} s (nominal {PROBE_NOMINAL_S})")
    env = next((r["environment"] for r in runs if "environment" in r), {})
    print(f"   environment: {json.dumps(dict(env, commit=git_commit()), sort_keys=True)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = _now() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "prostasim", "__init__.py")):
        print(f"error: no prostasim sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tracer
    import workloads

    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    if seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    units = tracer.metric_units() if args.trace else END_TO_END

    os.makedirs(OUT, exist_ok=True)
    results = {}
    for name in names:
        wl = workloads.WORKLOADS[name]
        record = run_workload(wl, seed, args.seconds, bool(args.trace), deadline)
        # a set-up probe is attempted work only when it fails
        counted = [r for r in record["runs"] if r["kind"] != "setup" or r["failures"]]
        attempted = len(counted)
        failed = sum(bool(r["failures"]) for r in counted)
        try:
            values = metrics(record, units)
        except RuntimeError as e:
            print_record(wl, record, {"attempted": attempted, "failed": failed, "metrics": {}})
            print(f"error: {name}: {e}", file=sys.stderr)
            return 1
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": values}
        print_record(wl, record, result)
        record.update(result, commit=git_commit())
        path = os.path.join(OUT, f"{name}-seed{seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        results[name] = result

    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items() for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
