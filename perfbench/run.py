"""bodychannel benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/`` and every file the run writes goes under ``.perfbench_tmp/``,
which is removed at the end.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones; the last stdout line is the JSON result.
See README.md in this directory for the workloads and metrics.
"""

import argparse
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("sweeps", "design_loop")
SETUP_SAMPLES = 3  # fresh interpreters timed to their first op; the median is reported
IMPORT_SAMPLES = 3  # -X importtime runs in a trace run
OP_TIMEOUT_S = 60.0
HARD_LIMIT_S = 100.0  # stop starting passes after this, whatever --seconds says
#: The tail percentile of each workload: the highest level its op count per
#: run supports with ten samples beyond it, fixed so that it does not move
#: from run to run.  Every run makes at least ``min_ops`` ops to support it.
TAIL = {"sweeps": 90.0, "design_loop": 99.0}


def min_ops(workload):
    return math.ceil(10.0 / (1.0 - TAIL[workload] / 100.0) - 1e-9)


def more(start, last, seconds, ops, minimum=1):
    """Whether to start another pass: yes until ``minimum`` ops ran, then
    while the run would end nearer to ``seconds`` with it than without it,
    and within the hard limit."""
    elapsed = time.perf_counter() - start
    if elapsed > HARD_LIMIT_S:
        return False
    return ops < minimum or elapsed + last / 2.0 < seconds


class Harness:
    def __init__(self, root: Path, workload: str, seed: int, seconds: float):
        self.root, self.workload, self.seed, self.seconds = root, workload, seed, seconds
        self.children = []
        (root / ".perfbench_tmp").mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=root / ".perfbench_tmp"))
        threads = str(len(os.sched_getaffinity(0)))
        self.env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            PYTHONHASHSEED="0",
            TMPDIR=str(self.tmp),
            OMP_NUM_THREADS=threads,
            OPENBLAS_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
            NUMEXPR_NUM_THREADS=threads,
        )
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def spawn(self, argv, **kwargs):
        proc = subprocess.Popen([sys.executable, *argv], env=self.env, cwd=self.tmp, **kwargs)
        self.children.append(proc)
        return proc

    def call(self, argv, timeout=OP_TIMEOUT_S):
        """Run a child to exit; returns (seconds from spawn to exit, exit code, stderr)."""
        t0 = time.perf_counter()
        proc = self.spawn(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        _, err = proc.communicate(timeout=timeout)
        return time.perf_counter() - t0, proc.returncode, err.decode(errors="replace")

    def worker(self, deck, mode, extra=()):
        """Start a worker; returns (process, seconds from spawn to READY)."""
        t0 = time.perf_counter()
        proc = self.spawn([str(HERE / "worker.py"), "--deck", str(deck), "--mode", mode, *extra],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        line = proc.stdout.readline().decode().strip()
        ready = time.perf_counter() - t0
        if line != "READY":
            _, err = proc.communicate(timeout=OP_TIMEOUT_S)
            raise RuntimeError(f"worker failed to set up: {err.decode(errors='replace')[-2000:]}")
        return proc, ready

    def finish(self, proc, timeout=170.0):
        """Wait for a worker; returns its stdout lines after READY."""
        out, err = proc.communicate(timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}: {err.decode(errors='replace')[-2000:]}")
        return out.decode().strip().splitlines()

    def result(self, proc):
        return json.loads(self.finish(proc)[-1])

    def close(self):
        for proc in self.children:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            (self.root / ".perfbench_tmp").rmdir()
        except OSError:
            pass

    def import_split(self):
        """Import cost by package from ``python -X importtime`` (self times
        summed per top-level package), plus a bare interpreter start."""
        totals = {"numpy": [], "scipy": [], "bodychannel": []}
        for _ in range(IMPORT_SAMPLES):
            _, code, err = self.call(["-X", "importtime", "-c", "import bodychannel.cli"])
            if code != 0:
                raise RuntimeError(f"import failed: {err[-2000:]}")
            sums = dict.fromkeys(totals, 0)
            for m in re.finditer(r"^import time:\s+(\d+) \|\s+\d+ \|\s*([\w.]+)", err, re.M):
                top = m.group(2).split(".")[0]
                if top in sums:
                    sums[top] += int(m.group(1))
            for k in totals:
                totals[k].append(sums[k] * 1e-6)
        bare = [self.call(["-c", "pass"])[0] for _ in range(IMPORT_SAMPLES)]
        out = {"import.interpreter_s": statistics.median(bare)}
        out.update({f"import.{k}_s": statistics.median(v) for k, v in totals.items()})
        return out

    def run(self, trace: bool):
        import gen

        deck = gen.generate(self.workload, self.seed, self.tmp)
        # One untimed worker first: .pyc compilation and a cold file cache
        # are paid here, not by a timed sample.
        self.finish(self.worker(deck, "setup")[0])
        if trace:
            result = self.result(self.worker(deck, "trace", ["--seconds", str(self.seconds)])[0])
            result["imports"] = self.import_split()
            return result
        setup = []
        for _ in range(SETUP_SAMPLES - 1):
            proc, ready = self.worker(deck, "setup")
            self.finish(proc)
            setup.append(ready)
        proc, ready = self.worker(deck, "measure", ["--seconds", str(self.seconds),
                                                    "--min-ops", str(min_ops(self.workload))])
        setup.append(ready)
        result = self.result(proc)
        result["setup"] = setup
        return result


def tail_level(workload, n):
    """The workload's tail percentile, or, if a run was cut short, the
    highest percentile with ten samples beyond it."""
    if n * (1.0 - TAIL[workload] / 100.0) >= 10.0 - 1e-9:
        return TAIL[workload]
    return max(0.0, float(int(100.0 * (1.0 - 10.0 / n))))


def percentile(values, p):
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(workload, result):
    lat = result["lat"]
    tail = tail_level(workload, len(lat))
    # The median is taken over the deck's ops, each at its mean over the
    # run's passes (``lat`` holds whole passes in deck order).  The host's
    # speed swings between two levels for seconds at a time; a median of
    # the pooled samples jumps from one level to the other as the share of
    # fast samples crosses one half, while a mean per op moves with it.
    n = result["deck_ops"]
    per_op = [statistics.fmean(lat[i::n]) for i in range(n)]
    metrics = {
        "setup_s": (statistics.median(result["setup"]), "s"),
        "op_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "op_tail_ms": (percentile(lat, tail) * 1e3, "ms"),
        "points_per_s": (result["rows"] / sum(lat), "1/s"),
        "ok_ratio": (1.0 - result["failed"] / result["attempted"], "ratio"),
        "peak_rss_mib": (result["maxrss_kb"] / 1024.0, "MiB"),
    }
    notes = f"ops={len(lat)} tail=p{tail:g} fail_ratio={result['failed'] / result['attempted']:.4g}"
    return metrics, notes


def per_layer(result):
    from tracer import LAYER_SPEC, layer_metrics

    snaps = result["snapshots"]
    per_pass = [layer_metrics(s) for s in snaps]
    metrics = {}
    for name, (unit, _) in LAYER_SPEC.items():
        values = [m[name] for m in per_pass]
        # Counts repeat exactly between passes; times are the per-pass median.
        metrics[name] = (statistics.median(values) if unit in ("s", "us") else values[0], unit)
    for name, value in result["imports"].items():
        metrics[name] = (value, "s")
    overhead = sum(result["traced_s"]) / sum(result["plain_s"])
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    notes = f"traced passes={len(snaps)} ops={result['attempted']} overhead={overhead:.3f}x"
    return metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "bodychannel" / "__init__.py").is_file():
        print(f"error: {root} is not a bodychannel checkout (no src/bodychannel)", file=sys.stderr)
        return 2
    # A terminated run still stops and reaps every process it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    harness = Harness(root, args.workload, args.seed, args.seconds)
    try:
        result = harness.run(bool(args.trace))
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1
    finally:
        harness.close()
    metrics, notes = per_layer(result) if args.trace else end_to_end(args.workload, result)
    for err in result["errors"]:
        print(f"failed: {err}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {notes}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
