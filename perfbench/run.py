"""Seeded benchmark of qshift: synthesis, compilation, verification, simulation.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload css-synth --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Workloads (see ``workloads.py``): ``css-synth``, ``cascade-compile``,
``impulse-verify``, ``stream-simulate``; ``all`` runs each in a process
of its own.  Each is a closed loop: one process, one client, one call at
a time, no threads.

A run imports qshift from ``src/`` of the checkout (nothing else), builds
its inputs from the seed, and then:

* ``--trace 0`` times every item's call, round after round, until
  ``--seconds`` have passed (at least one full round), and reports the
  end-to-end metrics from the per-item medians;
* ``--trace 1`` times one round of a fixed share of the items without
  and then with the probes of ``tracing.py`` installed, and reports the
  per-layer calls, self times and counters plus the tracing overhead.

Host speed.  The speed of a shared host drifts by tens of percent within
seconds, and it moves Python loops by similar factors.  So a short
reference loop that shares no code with qshift runs before every timed
call, and each call's time is scaled by REFERENCE_MS over the median of
the reference times around it: the reported times are milliseconds at
the host speed at which the reference takes REFERENCE_MS.  The raw
times and the reference times are kept in the result file.

Every output of the first round is then checked against an oracle, and
later rounds must repeat it.  The per-item rows, span records and run
metadata go to ``perfbench/out/``; the last line of standard output is
the JSON summary.  ``correct`` is false when an output was wrong (an
oracle failure or a result that changed between repeats); ``failed``
counts every item that did not pass, including the program's refusals
and its failed self-checks.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

import tracing  # noqa: E402  (sibling module; the script directory is on sys.path)
import workloads  # noqa: E402

SETUP_REPEATS = 3
TRACE_SHARE = 4  # the traced run covers every TRACE_SHARE-th item
REFERENCE_MS = 0.34  # reference loop time that the reported times are scaled to
WINDOW = 7  # reference times on each side of a call that set its scale

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "total_s": "s",
    "frames_mean": "frames",
    "pass_ratio": "ratio",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


SUPPORTS = tuple(frozenset(range(k, k + 1 + k % 5)) for k in range(24))


def reference_work():
    """Fixed work shaped like qshift's inner loops: sparse GF(2) products on sets.

    Of the loops tried, this one followed compile times most closely when
    the host slowed down; synthesis and simulation times still moved up to
    about a tenth away from it in the slowest phases measured.
    """
    acc, sizes = frozenset(), []
    for a in SUPPORTS:
        for b in SUPPORTS[::4]:
            prod = set()
            for x in a:
                for y in b:
                    e = x + y
                    if e in prod:
                        prod.remove(e)
                    else:
                        prod.add(e)
            acc = acc ^ frozenset(prod)
            sizes.append(len(acc))
    return sizes


class HostClock:
    """Times calls and scales each by the reference times measured around it."""

    def __init__(self):
        self.refs = []  # reference loop times, seconds, in the order taken

    def tick(self) -> int:
        start = time.perf_counter()
        reference_work()
        self.refs.append(time.perf_counter() - start)
        return len(self.refs) - 1

    def time(self, fn, *args):
        """(raw seconds, reference index, result of fn) with a reference before it."""
        j = self.tick()
        start = time.perf_counter()
        result = fn(*args)
        return time.perf_counter() - start, j, result

    def scale(self, j: int) -> float:
        """Factor that turns a raw time near reference ``j`` into reference-speed time."""
        window = self.refs[max(0, j - WINDOW):j + WINDOW + 1]
        return REFERENCE_MS / 1e3 / statistics.median(window)


def load_qshift():
    """Import qshift afresh from the checkout's ``src`` directory."""
    for name in [n for n in sys.modules if n == "qshift" or n.startswith("qshift.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    importlib.invalidate_caches()
    q = importlib.import_module("qshift")
    importlib.import_module("qshift.cli")
    if os.path.dirname(os.path.dirname(os.path.abspath(q.__file__))) != SRC:
        raise BenchError(f"qshift imported from {q.__file__}, not from {SRC}")
    return q


def setup(wl, seed: int, workdir: str, clock: HostClock):
    """Import, generate and write inputs; returns (scaled seconds, qshift, items)."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    def work():
        q = load_qshift()
        items = wl.generate(q, random.Random(f"{wl.name}:{seed}"))
        wl.write(q, items, workdir)
        return q, items

    for _ in range(WINDOW):
        clock.tick()
    took, j, (q, items) = clock.time(work)
    for _ in range(WINDOW):
        clock.tick()
    return took * clock.scale(j), q, items


def call_item(wl, q, item):
    """(output, exception) of one call; every failure is kept, none stops the run."""
    try:
        return wl.call(q, item), None
    except Exception as exc:
        return None, exc


def fingerprint(wl, out, exc):
    if exc is not None:
        return ("raised", type(exc).__name__, str(exc))
    return wl.fingerprint(out)


class Timing:
    """Raw time samples per item with their reference indices, and the results."""

    def __init__(self, count: int):
        self.raw = [[] for _ in range(count)]
        self.refs = [[] for _ in range(count)]
        self.first = [None] * count
        self.prints = [None] * count
        self.unstable = set()
        self.rounds = 0

    def record(self, wl, k, took, j, result):
        self.raw[k].append(took)
        self.refs[k].append(j)
        fp = fingerprint(wl, *result)
        if self.first[k] is None:
            self.first[k], self.prints[k] = result, fp
        elif fp != self.prints[k]:
            self.unstable.add(k)

    def scaled(self, clock: HostClock):
        """Per item: median over its samples of the scaled times."""
        return [statistics.median(t * clock.scale(j) for t, j in zip(ts, js))
                for ts, js in zip(self.raw, self.refs)]


def timed_rounds(wl, q, items, seconds: float, clock: HostClock) -> Timing:
    timing = Timing(len(items))
    deadline = time.perf_counter() + seconds
    while True:
        for k, item in enumerate(items):
            if timing.rounds and time.perf_counter() >= deadline:
                return timing
            took, j, result = clock.time(call_item, wl, q, item)
            timing.record(wl, k, took, j, result)
        timing.rounds += 1


def traced_round(wl, q, items, timing: Timing, clock: HostClock):
    """One traced round over ``items``; returns (tracer, scaled times)."""
    tracer = tracing.Tracer()
    traced = Timing(len(items))
    tracer.install()
    try:
        for k, item in enumerate(items):
            tracer.item = k
            took, j, result = clock.time(call_item, wl, q, item)
            traced.record(wl, k, took, j, result)
    finally:
        tracer.uninstall()
    for k in range(len(items)):
        if traced.prints[k] != timing.prints[k]:
            timing.unstable.add(k)
    return tracer, traced.scaled(clock)


def check_items(wl, q, items, timing: Timing):
    rows = []
    for k, (item, (out, exc)) in enumerate(zip(items, timing.first)):
        row = {"item": k, **item["size"]}
        if exc is not None:
            outcome, detail, extra = wl.classify(q, exc), f"{type(exc).__name__}: {exc}", {}
        else:
            try:
                outcome, detail, extra = wl.check(q, item, out)
            except Exception as e:  # an oracle that cannot digest the output fails it
                outcome, detail, extra = workloads.ORACLE, f"check raised {e!r}", {}
        if k in timing.unstable:
            outcome, detail = workloads.ORACLE, "output changed between repeats"
        row.update(extra)
        row["outcome"] = outcome
        row["detail"] = detail[:300]
        rows.append(row)
    return rows


def item_frames(rows):
    """Compiled memory m of each item that compiled, else its input circuit's."""
    return [r["m"] if "m" in r else r["frames"] for r in rows if "m" in r or "frames" in r]


def summarize(rows, times, setup_s: float) -> dict:
    frames = item_frames(rows)
    passed = sum(r["outcome"] == workloads.OK for r in rows)
    return {
        "setup_s": setup_s,
        "latency_p50_ms": statistics.median(times) * 1e3,
        "latency_p90_ms": statistics.quantiles(times, n=10, method="inclusive")[8] * 1e3,
        "total_s": sum(times),
        "frames_mean": sum(frames) / len(frames) if frames else 0.0,
        "pass_ratio": passed / len(rows),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run(args):
    if not os.path.isfile(os.path.join(SRC, "qshift", "__init__.py")):
        raise BenchError(f"no qshift sources under {SRC}")
    wl = workloads.WORKLOADS[args.workload]
    meta = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)), "loadavg_start": os.getloadavg()}
    clock = HostClock()
    workdir = os.path.join(OUT, f"work-{wl.name}-{os.getpid()}")
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            took, q, items = setup(wl, args.seed, workdir, clock)
            setups.append(took)
        setup_s = statistics.median(setups)
        if args.trace:
            items = items[::TRACE_SHARE]
            timing = timed_rounds(wl, q, items, 0.0, clock)
            tracer, traced = traced_round(wl, q, items, timing, clock)
        else:
            timing = timed_rounds(wl, q, items, args.seconds, clock)
        rows = check_items(wl, q, items, timing)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times = timing.scaled(clock)
    for row, t, raw in zip(rows, times, timing.raw):
        row.update(time_ms=t * 1e3, raw_ms=statistics.median(raw) * 1e3, samples=len(raw))
    summary = summarize(rows, times, setup_s)
    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in tracer.metrics().items()}
        metrics["trace.overhead_ratio"] = {"value": sum(traced) / sum(times), "unit": "ratio"}
        spans = tracer.span_records()
        meta["spans_dropped"] = tracer.dropped
    else:
        metrics = {name: {"value": summary[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        spans = []
    outcomes = {o: sum(r["outcome"] == o for r in rows) for o in workloads.OUTCOMES}
    meta.update(rounds=timing.rounds, setup_runs_s=setups,
                raw_total_s=sum(statistics.median(r) for r in timing.raw),
                reference_ms_median=statistics.median(clock.refs) * 1e3,
                reference_ms=[round(r * 1e3, 4) for r in clock.refs],
                loadavg_end=os.getloadavg())
    result = {
        "correct": outcomes[workloads.ORACLE] == 0,
        "attempted": len(rows),
        "failed": len(rows) - outcomes[workloads.OK],
        "metrics": metrics,
    }
    record = {"meta": meta, **result, "outcomes": outcomes,
              "failed_ratio": result["failed"] / len(rows),
              "frames_total": sum(item_frames(rows)),
              "summary": summary, "rows": rows,
              "span_fields": tracing.Tracer.SPAN_FIELDS, "spans": spans}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return result, path


def run_all(args) -> int:
    """Every workload in a process of its own, one after the other."""
    status = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        status = max(status, subprocess.run(argv, check=False).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    try:
        result, path = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']} rows={os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
