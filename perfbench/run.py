"""Fixed-seed benchmark for relwp.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One caller, closed loop: each measured
pass runs every verdict of the workload, in order, in a fresh interpreter
(`worker.py`), so process-wide caches never carry over between passes.

--trace 0 runs passes until S seconds have gone (at least one), plus extra
set-up-only interpreters, and reports the end-to-end metrics.  --trace 1 runs
one plain pass and one traced pass and reports the per-layer metrics, the
tracing overhead (traced minus plain verdict time) and fails if a layer made
no calls on its home workload.

Times are reported at reference speed (`speed.py`): each verdict's wall time,
and each set-up's, is scaled by a fixed probe sampled all through the set-up
and the pass, because the machine's own speed drifts by more than the bounds
allow.  The unscaled figures are printed on a line of their own.

Every verdict is graded against its independent answer, and every pass must
decide exactly the recorded number of elementary checks.  Metric names and
units come from BENCHMARK.json; the last line of standard output is the
result as one JSON object.  --size tiny shrinks every workload, for the
benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from spans import layer_calls, layer_metric  # noqa: E402

WORKLOADS = ("laws", "exc_strict", "ni", "oracle")
SETUP_ONLY_RUNS = 2       # set-up-only interpreters per run, on top of each pass's own
DEADLINE_S = 170          # a run ends within this, whatever --seconds says
MIN_TAIL_BEYOND = 10      # samples the tail percentile must leave above it


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, size: str, trace: bool, mode: str, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the next interpreter could start")
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), size,
           "1" if trace else "0", mode]
    before = [speed.probe() for _ in range(speed.SETUP_READINGS)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd + [repr(started)], capture_output=True, text=True,
                              timeout=timeout, env=env, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} exited with {proc.returncode}:\n{proc.stderr.strip()}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_probe_s"] = statistics.fmean(before + record["setup_probes"])
    return record


def scaled(v: dict) -> float:
    """A verdict's time at reference speed."""
    return speed.scale(v["s"], v["probe_s"])


def tail(times, per_pass: int):
    """(percentile, value).  The percentile is the highest whole one that
    leaves at least ten of one pass's verdicts above it (100, the maximum,
    when a pass has too few), so it does not move with the number of passes
    a run fits; the value is that percentile, by nearest rank, of all the
    times."""
    pct = 100
    if per_pass > MIN_TAIL_BEYOND:
        pct = 100 * (per_pass - MIN_TAIL_BEYOND) // per_pass
    xs = sorted(times)
    return pct, xs[max(1, -(-pct * len(xs) // 100)) - 1]


def gate(passes):
    """Counts over all verdicts of all passes, and the check-count mismatches."""
    verdicts = [v for p in passes for v in p["verdicts"]]
    wrong = [v for v in verdicts if v["status"] == "wrong"]
    errors = [v for v in verdicts if v["status"] == "error"]
    undecided = [v for v in verdicts if v["status"] != "error" and not v["decided"]]
    mismatched = [(sum(v["checks"] for v in p["verdicts"]), p["recorded_checks"])
                  for p in passes
                  if sum(v["checks"] for v in p["verdicts"]) != p["recorded_checks"]]
    return verdicts, wrong, errors, undecided, mismatched


def measure(workload, seed, seconds, size, deadline):
    start = time.monotonic()
    passes = []
    while not passes or time.monotonic() - start < seconds:
        passes.append(spawn(workload, seed, size, False, "pass", deadline))
    setup_runs = passes + [spawn(workload, seed, size, False, "setup", deadline)
                           for _ in range(SETUP_ONLY_RUNS)]
    setups = [speed.scale(r["setup_s"], r["setup_probe_s"]) for r in setup_runs]
    verdicts, wrong, errors, undecided, _ = gate(passes)
    n = len(verdicts)
    times = [scaled(v) for v in verdicts]
    raw = [v["s"] for v in verdicts]
    pct, tail_s = tail(times, len(passes[0]["verdicts"]))
    values = {
        "setup_s": statistics.median(setups),
        "checks_per_s": sum(v["checks"] for v in verdicts) / sum(times),
        "verdict_p50_ms": statistics.median(times) * 1000,
        "verdict_tail_ms": tail_s * 1000,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "ok_ratio": (n - len(wrong) - len(errors)) / n,
        "decided_ratio": (n - len(undecided)) / n,
    }
    notes = [f"{len(passes)} pass(es), {n} verdicts, {len(setups)} set-ups",
             f"verdict_tail_ms is p{pct:g} of {n} verdicts"
             + (" (too few for ten beyond it: the maximum)" if pct == 100 else ""),
             f"wrong_ratio {len(wrong) / n:g} error_ratio {len(errors) / n:g} "
             f"undecided_ratio {len(undecided) / n:g}",
             f"unscaled: setup_s {statistics.median(r['setup_s'] for r in setup_runs):.4f} "
             f"checks_per_s {sum(v['checks'] for v in verdicts) / sum(raw):.4f} "
             f"verdict_p50_ms {statistics.median(raw) * 1000:.4f} "
             f"verdict_tail_ms {tail(raw, len(passes[0]['verdicts']))[1] * 1000:.4f}; "
             f"median probe {statistics.median(v['probe_s'] for v in verdicts) * 1000:.4f} ms "
             f"against {speed.REF_PROBE_S * 1000:g} ms at reference speed"]
    return passes, values, notes


def silent_layers(snapshot, workload, homes):
    """Layers whose home is this workload that recorded no calls on it."""
    calls = layer_calls(snapshot)
    return [layer for layer, home in homes.items() if home == workload and calls[layer] == 0]


def trace(workload, seed, size, deadline, metric_units, homes):
    plain = spawn(workload, seed, size, False, "pass", deadline)
    traced = spawn(workload, seed, size, True, "pass", deadline)
    snap = traced["trace"]
    values = {}
    for name in metric_units:
        if name == "trace.overhead_s":
            values[name] = (sum(scaled(v) for v in traced["verdicts"])
                            - sum(scaled(v) for v in plain["verdicts"]))
        else:
            values[name] = layer_metric(snap, name)
    silent = silent_layers(snap, workload, homes)
    notes = [f"outermost calls per layer: {layer_calls(snap)}"]
    notes += [f"{k}: calls {r['calls']} span_s {r['span_s']:.6f} self_s {r['self_s']:.6f}"
              for k, r in snap["keys"].items()]
    if silent:
        notes.append(f"FAIL: no calls into {', '.join(silent)} on its home workload")
    return [plain, traced], values, notes, silent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "relwp").is_dir():
        print(f"no relwp sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as f:
        contract = json.load(f)
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in contract[group]}
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            with open(HERE / "layers.json") as f:
                homes = json.load(f)["homes"]
            passes, values, notes, silent = trace(args.workload, args.seed, args.size,
                                                  deadline, units, homes)
        else:
            passes, values, notes = measure(args.workload, args.seed, args.seconds,
                                            args.size, deadline)
            silent = []
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    verdicts, wrong, errors, _, mismatched = gate(passes)
    for line in notes:
        print(line)
    for v in (wrong + errors)[:10]:
        print(f"{v['status'].upper()}: {v['id']} {v['input']}: {v['note']}")
    for got, want in mismatched:
        print(f"CHECK COUNT: a pass decided {got} checks, {want} recorded")
    result = {
        "correct": not (wrong or errors or mismatched or silent),
        "attempted": len(verdicts),
        "failed": len(wrong) + len(errors),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
