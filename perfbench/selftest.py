"""Self-test of the benchmark's tracer.

    python3 perfbench/selftest.py        # from the root of a checkout

Checks that
  * two traced runs of the same ops record identical call counts;
  * calls bound with ``from .x import name`` are seen (golden-section
    searches started by ``analysis.find_resonant_peak``);
  * a 10k-point ``sweep-load`` records 10000 ``channel.received_power``
    calls.  This pins the per-point loop of the current package: a change
    that evaluates the sweep in one broadcast call should update it.
Exits 0 when all hold, 1 otherwise.
"""

import json
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import worker  # noqa: E402
from bodychannel import cli  # noqa: E402
from tracer import Tracer, counts, layer_metrics  # noqa: E402


def traced(tracer, fn):
    tracer.install()
    tracer.active = True
    try:
        fn()
    finally:
        tracer.active = False
        tracer.uninstall()
    return tracer.snapshot()


def main():
    warnings.simplefilter("ignore")
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".perfbench_tmp"))
    failures = []
    try:
        deck = worker.Deck(gen.generate("design_loop", 0, tmp / "design"))
        tracer = Tracer()

        def one_pass():
            errors = []
            worker.run_pass(deck, {}, [], errors)
            failures.extend(errors)

        first, second = traced(tracer, one_pass), traced(tracer, one_pass)
        if counts(first) != counts(second):
            failures.append("two traced passes over the same deck gave different counts")
        searches = layer_metrics(first)["optimize.golden_section.calls"]
        peaks = layer_metrics(first)["analysis.find_resonant_peak.calls"]
        if not peaks or searches < peaks:
            failures.append(f"{searches} golden-section searches seen for {peaks} peak searches")

        closed = gen.generate("sweeps", 0, tmp / "sweeps")
        ops = json.loads(closed.read_text(encoding="utf-8"))["ops"]
        scn = next(op["scn"] for op in ops if op.get("command") == "sweep-load")
        config = cli.load_scenario(closed.parent / scn)
        snap = traced(Tracer(), lambda: cli.run("sweep-load", config, points=10000))
        got = layer_metrics(snap)["channel.received_power.calls"]
        if got != 10000:
            failures.append(f"10k-point sweep-load recorded {got} channel.received_power calls")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            (ROOT / ".perfbench_tmp").rmdir()
        except OSError:
            pass
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
