"""One benchmark run of one workload in a fresh interpreter.

Started by run.py, never by hand.  It times set-up from interpreter start
(``--t0`` is the parent's CLOCK_MONOTONIC reading just before it started
this process), makes the workload's main call, checks and hashes the
outputs, and writes everything it measured to ``<dir>/result.json``.
A speed probe runs through set-up and through the main call.
A run that raises NoFeasiblePath or any other error, or fails its
output checks, still writes a result, marked as failed.

    python3 perfbench/worker.py --workload NAME --seed N --dir DIR --t0 T
        [--setup-only] [--trace]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import sys
import time
import traceback

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Speed probe: every PROBE_INTERVAL_S of set-up and of the main call, a
# ~1.2 ms slice of fixed reference work is timed (see SpeedProbe)
PROBE_INTERVAL_S = 0.05
PROBE_ITERATIONS = 100


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _reference_work(iterations: int) -> float:
    rng = np.random.default_rng(12345)
    points = rng.standard_normal((2000, 3))
    acc = 0.0
    for i in range(iterations):
        v = rng.standard_normal((3, 3)) @ rng.standard_normal(3)
        acc += float(np.linalg.norm(v)) + math.sqrt(abs(acc) % 7.0 + i)
        if i % 50 == 0:
            d = points - v
            acc += float(np.min(np.einsum("ij,ij->i", d, d)))
    return acc


class SpeedProbe:
    """Samples how fast the shared machine runs this process.

    The machine's speed switches between states up to ~2x apart within
    seconds, so a reference timed before and after a multi-second call
    misses what the call itself ran at.  While started, a SIGALRM timer
    interrupts the process every PROBE_INTERVAL_S and times one slice of
    fixed reference work, which calls no prostasim code: a change to the
    program never moves the slices, only the machine's speed does.  The
    slices are sampled uniformly in time, so the call ran at the mean of
    their inverse durations.
    """

    def __init__(self):
        self.samples: list[float] = []
        # time spent in the probe, to take off the interval it ran in
        self.spent_s = 0.0
        self._previous = None

    def sample(self, *_signal_args):
        t = time.perf_counter()
        _reference_work(PROBE_ITERATIONS)
        dt = time.perf_counter() - t
        self.samples.append(dt)
        self.spent_s += dt

    def start(self):
        t = time.perf_counter()
        _reference_work(PROBE_ITERATIONS)  # first-call costs of einsum and linalg
        self.spent_s += time.perf_counter() - t
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # an interval shorter than one probe period
            self.sample()


def environment() -> dict:
    import numpy
    import scipy
    import yaml

    import prostasim

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "prostasim": prostasim.__version__,
        "backend": prostasim.active_backend(),
        # prostasim imports numba at import time when it is installed
        "numba_imports": "numba" in sys.modules,
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    # set-up: imports, config resolve + validate, phantoms, arch
    setup_probe = SpeedProbe()
    setup_probe.start()
    sys.path.insert(0, SRC)
    import prostasim
    from prostasim import planning, study

    if os.path.dirname(os.path.abspath(prostasim.__file__)) != os.path.join(SRC, "prostasim"):
        raise RuntimeError(f"imported prostasim from {prostasim.__file__}, not from {SRC}")
    import workloads
    from tracer import Tracer

    wl = workloads.WORKLOADS[args.workload]
    cfg = wl.make_config(args.seed)
    cfg.validate()
    study.build_phantoms(cfg)
    cfg.arch.build()
    setup_probe.stop()
    setup_s = _now() - args.t0 - setup_probe.spent_s

    result = {
        "workload": wl.name,
        "seed": args.seed,
        "setup_s": setup_s,
        "setup_probe_s": setup_probe.samples,
    }
    if not args.setup_only:
        out_dir = os.path.join(args.dir, "outputs")
        shutil.rmtree(out_dir, ignore_errors=True)
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        failures = []
        done = {"insertions": 0}
        probe = SpeedProbe()
        t = time.perf_counter()
        probe.start()
        try:
            wl.main(cfg, out_dir, done)
        except planning.NoFeasiblePath as e:
            failures.append(f"NoFeasiblePath: {e}")
        except Exception:
            failures.append("main call raised:\n" + traceback.format_exc())
        finally:
            probe.stop()
        wall_s = time.perf_counter() - t - probe.spent_s
        if tracer is not None:
            tracer.remove()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if "payload" in done:
            try:
                failures += wl.check(cfg, out_dir, done["payload"])
            except Exception:
                failures.append("output check raised:\n" + traceback.format_exc())
        result.update(
            wall_s=wall_s,
            probe_s=probe.samples,
            insertions=done["insertions"],
            peak_rss_mb=peak_rss_mb,
            failures=failures,
            digests=workloads.digests(out_dir) if os.path.isdir(out_dir) else {},
            environment=environment(),
        )
        if tracer is not None:
            result["layers"] = tracer.metrics()
            tracer.write_spans(os.path.join(args.dir, "spans.tsv.gz"))

    with open(os.path.join(args.dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
