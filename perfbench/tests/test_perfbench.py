"""Self-test of the benchmark's tracing, stage timing and output checks.

    python3 -m pytest perfbench/tests -q

Small configs stand in for the workloads, so the whole file runs in seconds.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from run import (  # noqa: E402
    END_TO_END,
    HERE,
    ROOT,
    STAGES_ONLY,
    check_document,
    child_env,
    layer_totals,
    per_layer_units,
    run_op,
    stage_times,
)
from stage_runner import LAYERS  # noqa: E402

SMALL = {
    "second": {
        "formalism": "second", "lattice": {"m": 2}, "params": {"V0": 4.0, "t0": 1.0},
        "particles": [[1, "up"], [2, "down"]], "plan": {"t": 0.5, "r": 3},
        "observables": [{"kind": "charge_density"}, {"kind": "pair_correlation", "sites": [1, 2]},
                        {"kind": "energy"}],
        "sampling": {"N": 500, "seed": 0}, "backend": "dense",
    },
    "first": {
        "formalism": "first", "lattice": {"m": 4}, "params": {"V0": 4.0, "t0": 1.0},
        "particles": [1, 4], "plan": {"t": 0.5, "r": 3},
        "observables": [{"kind": "charge_density"}, {"kind": "k_point_correlation", "sites": [1, 2]},
                        {"kind": "momentum_distribution", "particle": 1}, {"kind": "energy"}],
        "sampling": {"N": 500, "seed": 0}, "backend": "sparse",
    },
}


def _run(tmp_path, formalism, trace, seed=11):
    config = tmp_path / f"{formalism}.json"
    config.write_text(json.dumps(SMALL[formalism]))
    workdir = tmp_path / f"work-{formalism}-{trace}-{seed}"
    workdir.mkdir(exist_ok=True)
    op = run_op(config, seed, trace, workdir, time.monotonic() + 120)
    assert op["exit"] == 0, op["stderr"]
    return op


@pytest.fixture(scope="module")
def traced_pairs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    return {f: (_run(tmp, f, True), _run(tmp, f, True)) for f in SMALL}


def test_two_traced_runs_give_identical_calls_and_strings(traced_pairs):
    for first, second in traced_pairs.values():
        a = layer_totals(first["report"]["spans"])
        b = layer_totals(second["report"]["spans"])
        counts = [n for n in per_layer_units() if n.endswith((".calls", ".strings"))]
        assert {n: a[n] for n in counts} == {n: b[n] for n in counts}


def test_every_layer_function_is_traced(traced_pairs):
    # Catches a from-import binding that the wrapper failed to replace.
    called = set()
    for first, _ in traced_pairs.values():
        called |= {s[0] for s in first["report"]["spans"]}
    assert set(LAYERS) <= called


def test_spans_nest_and_self_times_are_nonnegative(traced_pairs):
    for first, _ in traced_pairs.values():
        spans = first["report"]["spans"]
        child_time = [0.0] * len(spans)
        for i, (_, start, end, parent, _, _) in enumerate(spans):
            assert start <= end
            if parent is not None:
                assert parent < i
                assert spans[parent][1] <= start and end <= spans[parent][2]
                child_time[parent] += end - start
        for (_, start, end, *_), inner in zip(spans, child_time):
            assert (end - start) - inner >= 0
        totals = layer_totals(spans)
        assert all(totals[n] >= 0 for n in totals if n.endswith(".self_s"))
        doubled = layer_totals(spans, scale=2.0)
        for name, value in totals.items():
            want = 2 * value if name.endswith(".self_s") else value
            assert doubled[name] == pytest.approx(want)


def _untimed(document):
    return {k: v for k, v in document.items() if k != "wall_time_s"}


def test_stage_runner_document_equals_the_cli_document(tmp_path):
    for formalism in SMALL:
        config = tmp_path / f"{formalism}.json"
        config.write_text(json.dumps(SMALL[formalism]))
        output = tmp_path / f"{formalism}-cli.json"
        subprocess.run([sys.executable, "-m", "fermisim.cli", "evolve", "--config", str(config),
                        "--output", str(output), "--seed", "11"], env=child_env(), check=True)
        cli_doc = json.loads(output.read_text())
        for trace in (False, True):
            runner_doc = _run(tmp_path, formalism, trace)["document"]
            assert _untimed(runner_doc) == _untimed(cli_doc)


def test_stage_times_are_positive(tmp_path):
    for formalism in SMALL:
        op = _run(tmp_path, formalism, False)
        times = stage_times(op["report"], SMALL[formalism]["plan"]["r"])
        assert set(times) == (set(END_TO_END) | set(STAGES_ONLY)) - {"run_s"}
        assert all(v > 0 for v in times.values())
        assert times["setup_s"] < op["run_s"]


def _document_from(reference, n_trials, seed):
    """A result document that agrees exactly with a reference."""
    def sampled(row):
        p = row["exact"]
        return dict(row, sampled=p, stderr=math.sqrt(p * (1 - p) / n_trials))

    observables = []
    for ref in reference["observables"]:
        if "values" in ref:
            observables.append(dict(ref, values=[sampled(r) for r in ref["values"]]))
        elif ref["kind"] == "energy":
            observables.append(dict(ref))
        else:
            observables.append(sampled(ref))
    return {"seed": seed, "op_counts": dict(reference["op_counts"]), "observables": observables}


@pytest.mark.parametrize("workload", ["sq_m8", "readout"])
def test_reference_check_flags_wrong_values(workload):
    reference = json.loads((HERE / "reference" / f"{workload}.json").read_text())
    n_trials = json.loads((HERE / "workloads" / f"{workload}.json").read_text())["sampling"]["N"]
    good = _document_from(reference, n_trials, 5)
    assert check_document(good, reference, 5, n_trials) == []

    shifted = json.loads(json.dumps(good))
    shifted["observables"][0]["values"][0]["exact"] += 1e-6
    assert check_document(shifted, reference, 5, n_trials)

    biased = json.loads(json.dumps(good))
    row = biased["observables"][0]["values"][0]
    row["sampled"] = row["exact"] + 10 * math.sqrt(row["exact"] * (1 - row["exact"]) / n_trials)
    row["stderr"] = math.sqrt(row["sampled"] * (1 - row["sampled"]) / n_trials)
    assert check_document(biased, reference, 5, n_trials)

    assert check_document(good, reference, 6, n_trials)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(END_TO_END.values())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
    workloads = sorted(p.stem for p in (HERE / "workloads").glob("*.json"))
    assert sorted(w["name"] for w in spec["workloads"]) == workloads
