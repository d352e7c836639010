"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from worker import run_pass  # noqa: E402
from relwp import observations as O  # noqa: E402
from relwp import programs as P  # noqa: E402
from relwp import specmonads as sm  # noqa: E402
from relwp import whilelang as W  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, seed=1, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def gate_of(workload, verdicts):
    return run.gate([{"verdicts": verdicts,
                      "recorded_checks": workloads.RECORDED_CHECKS[workload]["tiny"]}])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_workload_emits_every_end_to_end_metric(workload):
    res = result_of(bench(workload, 0))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric_and_reaches_home_layers(workload):
    proc = bench(workload, 1)
    res = result_of(proc)
    assert res["correct"], proc.stdout
    assert list(res["metrics"]) == [m["name"] for m in CONTRACT["per_layer"]]
    assert "no calls into" not in proc.stdout  # every home layer was reached


def test_a_silent_home_layer_fails_the_traced_run():
    homes = json.loads((BENCH / "layers.json").read_text())["homes"]
    quiet = {"keys": {"rules.apply_rule": {"calls": 3, "span_s": 0.1, "self_s": 0.1}}}
    assert run.silent_layers(quiet, "oracle", homes) == []
    assert run.silent_layers(quiet, "laws", homes) == \
        [layer for layer, home in homes.items() if home == "laws"]


def test_contract_names_the_harness_workloads():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    assert CONTRACT["command"] == ["python3", "perfbench/run.py"]


def test_per_layer_names_cover_every_layer_and_resolve():
    names = [m["name"] for m in CONTRACT["per_layer"]]
    assert {n.split(".", 1)[0] for n in names} == set(spans.LAYERS) | {"trace"}
    layers = json.loads((BENCH / "layers.json").read_text())
    homes = layers["homes"]
    assert set(homes) == set(spans.LAYERS) and set(homes.values()) <= set(workloads.WORKLOADS)
    assert list(layers["moves"]) == names
    empty = {"keys": {}, "spec_leq_unknown": 0, "evals_in_theta": 0}
    for n in names:
        if n != "trace.overhead_s":
            assert spans.layer_metric(empty, n) == 0


def _swapped_state_observation():
    """A deliberately wrong observation: final states swapped between sides."""
    def swapped(c1, c2):
        w = O.theta_st(c1, c2)
        sp = w.space
        table = []
        for pt in sp.points():
            out = []
            for o in w.demonic_at(pt):
                a1, s1, a2, s2 = sp.st_split(o)
                out.append(sp.st_outcome(a1, s2, a2, s1))
            table.append(frozenset(out))
        return sm.demonic_spec(sp, table)

    return O.EffectObservation("swapped-st", P.STATE, P.STATE, "WrelSt", swapped, O.STRICT)


def test_gate_flags_a_wrong_verdict(monkeypatch):
    monkeypatch.setattr(O, "observation_st", _swapped_state_observation)
    verdicts = run_pass(workloads.build("laws", 1, "tiny"))
    _, wrong, errors, _, mismatched = gate_of("laws", verdicts)
    assert wrong and not errors
    assert all(v["id"].startswith("laws/st/") and "violation" in v["note"] for v in wrong)
    assert mismatched  # the violation also ends the scan early


def test_gate_flags_a_changed_check_count(monkeypatch):
    original = O.battery_state
    monkeypatch.setattr(O, "battery_state",
                        lambda *a, **kw: original(*a, **{**kw, "table_limit": 1}))
    verdicts = run_pass(workloads.build("laws", 1, "tiny"))
    _, wrong, errors, _, mismatched = gate_of("laws", verdicts)
    assert not wrong and not errors
    assert mismatched and mismatched[0][1] == workloads.RECORDED_CHECKS["laws"]["tiny"]


def test_a_verdict_that_raises_is_counted_not_fatal(monkeypatch):
    def boom(*_a, **_kw):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(O, "check_morphism_laws", boom)
    verdicts = run_pass(workloads.build("laws", 1, "tiny"))
    _, wrong, errors, _, mismatched = gate_of("laws", verdicts)
    assert len(errors) == len(verdicts) and not wrong and mismatched
    assert errors[0]["note"].startswith("RecursionError")


def test_ni_brute_force_answers():
    sig = W.store_signature(("l", "h"), W.domain("V2", 2), {"l": W.LOW, "h": W.HIGH})
    assert not workloads.ni_holds(sig, W.parse_while("l := h"))
    assert not workloads.ni_holds(sig, W.parse_while("if h then l := 1 else l := 0"))
    assert workloads.ni_holds(sig, W.parse_while("if h then l := 1 else l := 1"))
    assert workloads.ni_holds(sig, W.parse_while("while h do h := h - 1"))


@pytest.mark.parametrize("workload", ["ni", "oracle"])
def test_inputs_come_from_the_seed(workload):
    def inputs(seed):
        return [q.input for q in workloads.build(workload, seed, "tiny")]

    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)


def test_tail_percentile_leaves_ten_samples_of_a_pass_above_it():
    assert run.tail([5.0, 1.0, 3.0], 3) == (100.0, 5.0)
    times = [float(i) for i in range(1, 41)]
    pct, value = run.tail(times, 20)
    assert pct == 50.0 and value == 20.0  # pooled over two passes of twenty
    assert sum(t > value for t in times) >= 2 * 10
    times = [float(i) for i in range(1, 2721)]
    assert run.tail(times, 2720) == (99, 2693.0)  # a whole percentile: 27 above it


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("laws", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
