"""One pass of one workload, in the fresh interpreter that runs this file.

    python3 perfbench/worker.py WORKLOAD SEED SIZE TRACE MODE SPAWNED_AT

MODE is "pass" (set up, then time every verdict) or "setup" (set up and
stop).  SPAWNED_AT is the parent's `time.monotonic()` just before it started
this process, so the set-up time includes interpreter start.  The speed
probe (`speed.py`) is sampled all through set-up, and read a few times right
after it; the set-up time leaves out the readings, and the parent scales it
by their mean together with its own readings from just before the start.
Traced runs sample no probe during set-up or the pass: a reading inside a
traced call would count as that call's own time.  The record is printed as
one JSON line on standard output.

`relwp` is imported from the `src` directory next to this benchmark, never
from anywhere else on the path.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_relwp() -> None:
    sys.path.insert(0, str(SRC))
    import relwp.domains
    where = Path(relwp.domains.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"relwp was imported from {where}, not from {SRC}")


def run_pass(questions, sampler=None, sample=True) -> list:
    """Ask every question in order, timing each verdict alone, and grade it.
    A question that raises, asked or graded, is recorded as an error and the
    pass goes on.  With `sample`, the speed probe is read from a timer all
    through the pass (`speed.Sampler`).  Each verdict carries `s`, its wall
    time less the probe readings taken inside it, and `probe_s`, the probe
    time around it."""
    if sampler is None:
        sampler = speed.Sampler()
        sampler.read(speed.SETUP_READINGS)
    verdicts, spans = [], []
    if sample:
        sampler.start()
    try:
        for q in questions:
            rec = {"id": q.id, "input": q.input}
            t0, t1 = time.perf_counter(), None
            try:
                result = q.ask()
                t1 = time.perf_counter()
                g = q.grade(result)
            except Exception as e:
                if t1 is None:
                    t1 = time.perf_counter()
                rec.update(checks=0, status="error", decided=False,
                           note=f"{type(e).__name__}: {e}")
            else:
                rec.update(checks=g.checks, status=g.status, decided=g.decided, note=g.note)
            verdicts.append(rec)
            spans.append((t0, t1))
    finally:
        sampler.stop()
    sampler.read(speed.SETUP_READINGS)
    for rec, (t0, t1), (inside, probe_s) in zip(verdicts, spans, sampler.around(spans)):
        rec["s"] = t1 - t0 - inside
        rec["probe_s"] = probe_s
    return verdicts


def main(argv) -> int:
    workload, seed, size, trace, mode, spawned_at = argv
    sample = trace == "0"
    sampler = speed.Sampler()
    if sample:
        sampler.start()
    try:
        _import_relwp()
        tracer = None
        if trace == "1":
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
        import workloads

        questions = workloads.build(workload, int(seed), size)
    finally:
        sampler.stop()
    setup_end = time.monotonic()
    record = {"setup_s": setup_end - float(spawned_at) - sum(p for _, p in sampler.readings)}
    sampler.read(speed.SETUP_READINGS)
    record["setup_probes"] = [p for _, p in sampler.readings]
    if mode == "pass":
        record["verdicts"] = run_pass(questions, sampler, sample)
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record["recorded_checks"] = workloads.RECORDED_CHECKS[workload][size]
        if tracer is not None:
            record["trace"] = tracer.snapshot()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
