#!/usr/bin/env python3
"""Benchmark of the laxcat command line tool.

    python3 bench/run.py --workload tables --seed 1 --seconds 40 --trace 0

Run from a checkout: the program is imported and started from ./src.  The
seeded inputs are written as JSON into a scratch directory under
./.bench_work, then whole passes over the workload's command list run,
one `python -m laxcat` subprocess at a time (a closed loop with one
caller), until --seconds of passes are spent.  The first pass is checked
in full by bench/checks.py; every later pass must reproduce its exit codes
and output bytes.

--trace 0 reports the end-to-end metrics.  --trace 1 instead calls
laxcat.cli.main in process, alternating plain passes with passes in which
bench/spans.py records a span around every public laxcat function, and
reports the per-layer metrics and the tracing overhead.  The spans of the
last traced pass are written to .bench_work/spans/.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Earlier lines are informational.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
IMPORT_REPEATS = 5

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cmd_p50_ms": "ms",
                    "peak_rss_mb": "MB"}


# -- running one command -----------------------------------------------------------

class Subprocesses:
    """`python -m laxcat ARGV`, one child at a time, started by
    bench/launcher.py; close() returns the largest child's peak RSS."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __call__(self, argv):
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["code"], reply["err"]

    def close(self):
        self.proc.stdin.close()
        try:
            last = self.proc.stdout.readline()
        finally:
            self.proc.wait()
        return json.loads(last)["maxrss_kb"] / 1024


def in_process(argv):
    """laxcat.cli.main(ARGV) in this interpreter.  An exception escaping it
    is reported as the traceback and exit code 1 a user would see."""
    import laxcat.cli
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = laxcat.cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = 1
    return code, err.getvalue()


def command_line(ws, op):
    return ["--workspace", str(ws.root), "--out", ws.out(op.name),
            "--max-objects", str(op.caps[0]), "--max-elements", str(op.caps[1]),
            *op.args]


def op_failed(op, code, err):
    """The CLI contract is broken: wrong exit code, or an error exit that is
    not a one-line message."""
    if code != op.expect:
        return True
    return code == 2 and ("Traceback" in err or err.strip().count("\n") > 0)


# -- a pass ------------------------------------------------------------------------

class Pass:
    def __init__(self, ws, ops, runner, on_op=None):
        out_dir = ws.root / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir()
        self.times, self.results = [], []
        start = time.perf_counter()
        for op in ops:
            argv = command_line(ws, op)
            t0 = time.perf_counter()
            self.results.append(runner(argv))
            self.times.append(time.perf_counter() - t0)
            if on_op is not None:
                on_op(op)
        self.wall = time.perf_counter() - start
        self.outputs = {}
        for op in ops:
            path = Path(ws.out(op.name))
            self.outputs[op.name] = path.read_bytes() if path.is_file() else None

    def signature(self, ops):
        return [(code, op_failed(op, code, err), self.outputs[op.name])
                for op, (code, err) in zip(ops, self.results)]


class Verdict:
    """Checks the first pass in full; later passes must repeat it."""

    def __init__(self, ops):
        self.ops = ops
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.digest = None

    def problem(self, message):
        self.correct = False
        print(f"incorrect: {message}", file=sys.stderr)

    def add(self, p):
        sig = p.signature(self.ops)
        self.attempted += len(self.ops)
        self.failed += sum(1 for _, failed, _ in sig if failed)
        if self.reference is None:
            self.reference = sig
            self._check_first(p, sig)
        elif sig != self.reference:
            changed = [op.name for op, a, b in zip(self.ops, sig, self.reference)
                       if a != b]
            self.problem(f"passes differ at {changed[:3]}")

    def _check_first(self, p, sig):
        h = hashlib.sha256()
        for op, (code, failed, out) in zip(self.ops, sig):
            h.update(f"{op.name}\0{code}\0".encode())
            h.update(out or b"")
            if failed:
                what = op.fault or "unexpected failure"
                print(f"failed: {op.name}: exit {code}: {what}", file=sys.stderr)
                continue
            if op.check is None:
                continue
            try:
                op.check(json.loads(out), p.outputs)
            except Exception as e:
                self.problem(f"{op.name}: {type(e).__name__}: {e}")
        self.digest = h.hexdigest()


# -- set-up ------------------------------------------------------------------------

def set_up(build, seed, run_dir, before=None, after=None):
    """Build the inputs SETUP_REPEATS times into fresh directories; return
    the median build time and the operations over the last build."""
    from workloads import Workspace
    times = []
    for i in range(SETUP_REPEATS):
        root = run_dir / f"setup{i}"
        root.mkdir()
        if before:
            before()
        t0 = time.perf_counter()
        ws = Workspace(root)
        ops = build(seed, ws)
        times.append(time.perf_counter() - t0)
        if after:
            after()
        if i + 1 < SETUP_REPEATS:
            shutil.rmtree(root)
    return statistics.median(times), ws, ops


def enough(walls, seconds):
    """Stop before a pass that would run past the measuring time."""
    return sum(walls) + statistics.median(walls) > seconds


# -- the two modes ---------------------------------------------------------------------

def end_to_end(build, args, run_dir):
    setup_s, ws, ops = set_up(build, args.seed, run_dir)
    run = Subprocesses()
    try:
        run(["--help"])  # byte-compiles the package once, outside the timing
        verdict, walls, times = Verdict(ops), [], []
        while not walls or not enough(walls, args.seconds):
            p = Pass(ws, ops, run)
            verdict.add(p)
            walls.append(p.wall)
            times.extend(p.times)
    finally:
        peak_rss_mb = run.close()
    print(f"passes: {len(walls)} of {len(ops)} commands; "
          f"outputs sha256 {verdict.digest}")
    metrics = {"setup_s": setup_s,
               "wall_s": statistics.median(walls),
               "cmd_p50_ms": 1000 * statistics.median(times),
               "peak_rss_mb": peak_rss_mb}
    return verdict, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def import_ms():
    code = ("import time; t = time.perf_counter(); import laxcat.cli; "
            "print(1000 * (time.perf_counter() - t))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    runs = [float(subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                                 capture_output=True, text=True, check=True,
                                 timeout=60).stdout)
            for _ in range(IMPORT_REPEATS)]
    return statistics.median(runs)


def traced_pass(tracer, ws, ops):
    """One in-process pass with tracing on: the pass, and for each
    operation its self time by module and its counters."""
    import spans
    marks, counts = [0], []

    def mark(op):
        marks.append(len(tracer.spans))
        counts.append(dict(tracer.counts))
        tracer.counts.update(dict.fromkeys(spans.COUNTERS, 0))

    tracer.reset()
    tracer.install()
    try:
        p = Pass(ws, ops, in_process, on_op=mark)
    finally:
        tracer.uninstall()
    per_op = [(op.name, spans.module_split(tracer.self_times(lo, hi)), c)
              for op, lo, hi, c in zip(ops, marks, marks[1:], counts)]
    return p, per_op


def traced(build, args, run_dir):
    import spans
    tracer = spans.Tracer()
    rand_setup = []

    def setup_start():
        tracer.reset()
        tracer.install()

    def setup_done():
        tracer.uninstall()
        rand_setup.append(spans.module_split(tracer.self_times()).get("rand", 0.0))

    _, ws, ops = set_up(build, args.seed, run_dir, setup_start, setup_done)
    verdict = Verdict(ops)
    plain, walls, layers, splits = [], [], [], []
    while not walls or len(walls) % 2 or not enough(walls, args.seconds):
        if len(walls) % 2 == 0:
            p = Pass(ws, ops, in_process)
            plain.append(p.wall)
        else:
            p, per_op = traced_pass(tracer, ws, ops)
            times = tracer.self_times()
            counts = spans.sum_counts(c for _, _, c in per_op)
            layers.append(spans.layer_metrics(times, counts))
            splits.append(spans.module_split(times))
        verdict.add(p)
        walls.append(p.wall)

    metrics = {k: statistics.median_low(m[k] for m in layers) for k in layers[0]}
    metrics["rand.generate_s"] += statistics.median_low(rand_setup)
    metrics["cli.import_ms"] = import_ms()
    traced_wall = statistics.median(walls[1::2])
    metrics["trace.overhead_pct"] = 100 * (traced_wall / statistics.median(plain) - 1)

    split = {k: statistics.median(s.get(k, 0.0) for s in splits)
             for k in spans.MODULES + ("trace",)}
    total = sum(split.values())
    print(f"passes: {len(plain)} plain, {len(walls) - len(plain)} traced; "
          f"outputs sha256 {verdict.digest}")
    print("self time by module: " + ", ".join(
        f"{k} {v:.3f}s ({100 * v / total:.1f}%)" for k, v in split.items()))
    for name, op_split, c in per_op:
        busy = sorted(op_split.items(), key=lambda kv: -kv[1])[:3]
        shown = {k.split(".")[1]: v for k, v in c.items()
                 if v and k in spans.SHOWN_PER_OP}
        print(f"  {name}: {1000 * sum(op_split.values()):.1f} ms; " + ", ".join(
            f"{k} {1000 * v:.1f}" for k, v in busy) + (f"; {shown}" if shown else ""))
    out = WORK / "spans" / f"{args.workload}-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"ops": [op.name for op in ops], "spans": tracer.spans}))
    return verdict, {k: (metrics[k], unit) for k, unit in spans.UNITS.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "laxcat" / "cli.py").is_file():
        print(f"error: no laxcat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import laxcat
    if Path(laxcat.__file__).resolve().parent != SRC / "laxcat":
        print(f"error: laxcat imported from {laxcat.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")

    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir()
    try:
        mode = traced if args.trace else end_to_end
        verdict, metrics = mode(WORKLOADS[args.workload], args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
