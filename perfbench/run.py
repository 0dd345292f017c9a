"""eqgenus benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` and nothing needs building.  Workloads (chosen in workloads.py):
expand-deep, rigidity-sweep, numeric-checks.

Each command runs in a fresh interpreter, as the ``eqgenus`` CLI does, so
no in-process cache carries over from one command to the next.  A pass
runs every command of the workload once and checks every output; passes
repeat, closed loop, one command at a time, while another pass still fits
in S seconds (at least one pass).  The seed fixes the inputs and the
command order.  GENUS_THREADS is left unset and PYTHONHASHSEED is fixed,
so runs repeat exactly.

On a few cores of a shared host, the same command's time drifts by up to
2x within minutes, as other tenants load the machine.  So the benchmark
also runs calib.py, a fixed exact computation by the same interpreter in
a fresh process, once before the first pass and then after every untraced
command.  A command's time is taken in calibration units: its seconds
divided by the mean of the two calibration runs around it.  The host's
speed then cancels; the program's does not, since calib.py shares no code
with it.  This tracks the host only over a few seconds, so every command
is kept short (one to two seconds on a 2-core VM).

--trace 0 reports the end-to-end metrics:
    wall_calib      each command's median time over passes, in calibration
                    units, summed over commands
    max_task_calib  the slowest command's median time, in calibration units
    setup_s         interpreter start plus ``import eqgenus.cli``, in
                    seconds: the median of SETUP_SAMPLES starts, plus one
                    before each pass
    peak_rss_mb     largest peak RSS of any command process
The same times in seconds, and the calibration times, go to stderr.
--trace 1 alternates untraced and traced passes and reports, per wrapped
function (tracer.LAYERS), ``<module>.<function>.calls`` (per pass, which
must repeat exactly) and ``.self_s`` (median over traced passes), plus
``trace.overhead_s``: traced minus untraced wall_s.

A command fails on a nonzero exit or a wrong output; ``failed`` counts
failed command runs out of ``attempted``.  The last stdout line is the JSON
result; progress and failures go to stderr.  Inputs, outputs and span files
are written under perfbench/work/.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
CALIB = os.path.join(HERE, "calib.py")
WORK = os.path.join(HERE, "work")

SETUP_SAMPLES = 5
# every run must end within 180 s; leave room for the untimed post-checks
RUN_DEADLINE_S = 150.0


@dataclass
class Outcome:
    task: str
    seconds: float
    rss_mb: float
    error: str | None
    calib_s: float = 0.0  # mean of the calibration runs before and after; 0 if none


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("GENUS_THREADS", None)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], out_path: str, deadline: float) -> tuple[int, float, float]:
    """Run argv to completion; (exit code, wall seconds, peak RSS in MB).
    The process is killed at the deadline (time.monotonic)."""
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()),
                                os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    # reaped by wait4 (which also gives the peak RSS); tell Popen so
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0


def calibrate(workdir: str, deadline: float) -> float:
    """Seconds taken by one calibration run."""
    code, seconds, _ = spawn([sys.executable, CALIB], os.path.join(workdir, "calib.out"),
                             deadline)
    if code != 0:
        raise RuntimeError("calibration run failed with exit code %d" % code)
    return seconds


def run_pass(tasks, workdir: str, label: str, deadline: float, trace: bool,
             calib: float | None = None) -> tuple[list[Outcome], float | None]:
    """Run each task once, in order.  With calib, the seconds of the last
    calibration run, the pass is calibrated: a calibration run follows each
    task.  Returns the outcomes and the last calibration's seconds."""
    outcomes = []
    for task in tasks:
        stem = os.path.join(workdir, "%s-%s" % (label, task.name.replace(":", "_")))
        prefix = ["--trace", stem + ".spans.json", "%s/%s" % (label, task.name)] if trace else []
        code, seconds, rss = spawn([sys.executable, CHILD, *prefix, *task.args],
                                   stem + ".out", deadline)
        with open(stem + ".out", encoding="utf-8", errors="replace") as fh:
            error = task.check(code, fh.read())
        if error is None and time.monotonic() >= deadline:
            error = "killed at the run deadline"
        if error is not None:
            with open(stem + ".out.err", encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-400:].strip()
            print("FAIL %s %s: %s%s" % (label, task.name, error,
                                        " | stderr: " + tail if tail else ""), file=sys.stderr)
        outcome = Outcome(task.name, seconds, rss, error)
        if calib is not None:
            after = calibrate(workdir, deadline)
            outcome.calib_s, calib = (calib + after) / 2, after
        outcomes.append(outcome)
    return outcomes, calib


def setup_sample(workdir: str, deadline: float) -> float:
    """Seconds to start an interpreter and import eqgenus.cli."""
    code, seconds, _ = spawn([sys.executable, "-c", "import eqgenus.cli"],
                             os.path.join(workdir, "setup.out"), deadline)
    if code != 0:
        raise RuntimeError("import eqgenus.cli failed with exit code %d" % code)
    return seconds


def task_medians(passes, calibrated: bool = False) -> dict[str, float]:
    """Each command's median time over the passes, in seconds or, if
    calibrated, in calibration units."""
    times: dict[str, list[float]] = {}
    for outcomes in passes:
        for o in outcomes:
            times.setdefault(o.task, []).append(o.seconds / o.calib_s if calibrated else o.seconds)
    return {task: statistics.median(t) for task, t in times.items()}


def read_layers(workdir: str, label: str, tasks) -> dict[str, tuple[int, float]]:
    from tracer import SPAN_NAMES, layer_totals
    totals = {name: [0, 0.0] for name in SPAN_NAMES}
    for task in tasks:
        path = os.path.join(workdir, "%s-%s.spans.json" % (label, task.name.replace(":", "_")))
        if not os.path.exists(path):  # the command was killed; its failure is counted
            continue
        with open(path, encoding="utf-8") as fh:
            spans = json.load(fh)["spans"]
        for name, (calls, self_s) in layer_totals(spans).items():
            totals[name][0] += calls
            totals[name][1] += self_s
    return {name: (calls, self_s) for name, (calls, self_s) in totals.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "eqgenus", "cli.py")):
        print("no eqgenus sources under %s; run from the root of a checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("unknown workload %r (have: %s)" % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    workdir = os.path.join(WORK, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    tasks = workloads.build(args.workload, args.seed, workdir)
    setup_sample(workdir, deadline)  # warm-up: bytecode caches written, files cached
    setup = [setup_sample(workdir, deadline) for _ in range(SETUP_SAMPLES)]

    # closed loop: start another pass (or untraced/traced pair) while it fits
    plain, traced = [], []
    calib = calibrate(workdir, deadline)
    start = time.monotonic()
    while True:
        begun = time.monotonic()
        setup.append(setup_sample(workdir, deadline))
        outcomes, calib = run_pass(tasks, workdir, "pass%d" % len(plain), deadline, False, calib)
        plain.append(outcomes)
        if args.trace:
            outcomes, _ = run_pass(tasks, workdir, "traced%d" % len(traced), deadline, True)
            traced.append(outcomes)
        step = time.monotonic() - begun
        if time.monotonic() - start + step > args.seconds or time.monotonic() + step > deadline:
            break

    failing = {}
    for task in tasks:
        if task.post_check is None:
            continue
        if time.monotonic() < deadline:
            error = task.post_check()
        else:
            error = "post-check skipped at the run deadline"
        if error is not None:
            failing[task.name] = error
            print("FAIL post-check %s: %s" % (task.name, error), file=sys.stderr)
    runs = [o for p in plain + traced for o in p]
    with open(os.path.join(workdir, "outcomes.json"), "w", encoding="utf-8") as fh:
        json.dump({"setup_s": setup, "passes": [[vars(o) for o in p] for p in plain],
                   "traced": [[vars(o) for o in p] for p in traced]}, fh, indent=1)
    failed = sum(1 for o in runs if o.error is not None or o.task in failing)

    if args.trace:
        layers = [read_layers(workdir, "traced%d" % i, tasks) for i in range(len(traced))]
        metrics = {}
        for name in layers[0]:
            calls = [l[name][0] for l in layers]
            if len(set(calls)) != 1:
                print("WARN %s calls differ across traced passes: %s" % (name, calls),
                      file=sys.stderr)
            metrics[name + ".calls"] = {"value": calls[0], "unit": "count"}
            metrics[name + ".self_s"] = {"value": statistics.median(l[name][1] for l in layers),
                                         "unit": "s"}
        overhead = sum(task_medians(traced).values()) - sum(task_medians(plain).values())
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        medians = task_medians(plain, calibrated=True)
        metrics = {
            "wall_calib": {"value": sum(medians.values()), "unit": "calib"},
            "max_task_calib": {"value": max(medians.values()), "unit": "calib"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": max(o.rss_mb for o in runs), "unit": "MB"},
        }

    medians = task_medians(plain)
    for task in tasks:
        print("  %-45s median %.3f s" % (task.name, medians[task.name]), file=sys.stderr)
    calib = [o.calib_s for p in plain for o in p]
    print("wall_s %.3f, max_task_s %.3f, calib_s median %.4f (%.4f-%.4f)"
          % (sum(medians.values()), max(medians.values()), statistics.median(calib),
             min(calib), max(calib)), file=sys.stderr)
    print("%s seed %d: %d passes%s, %d of %d command runs failed (failed_frac %.4f)"
          % (args.workload, args.seed, len(plain),
             " + %d traced" % len(traced) if args.trace else "",
             failed, len(runs), failed / len(runs)), file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
