"""fermisim benchmark: fixed `fermisim evolve` workloads, timed and checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client runs the workload's evolve config back to back, each
run in a fresh process (so every lru_cache is cold, as for a CLI user), until
the next run would end after S seconds.  Every result document is checked
against the reference values in perfbench/reference/.  The known-failure
probes in perfbench/probes/ then run once each, untimed.

With --trace 0 the last line of stdout carries the end-to-end metrics; with
--trace 1 runs alternate between traced and untraced, and it carries the
per-layer metrics of the traced runs.  The lines above it are the readable
report: machine facts, median and max of each timing with its sample count,
the probes, and for --trace 1 the largest self times and the modelled next to
the executed operation counts.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from stage_runner import EVOLVE, LAYERS, OBSERVABLES, PREPARE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# One BLAS thread: a single client on a 2-core machine, the other core left
# to the benchmark itself and the host.
THREADS = 1
# Every process this benchmark starts ends before this many seconds elapse.
DEADLINE_S = 170.0

# Output checks.  Exact values are deterministic functions of the config; a
# dropped Trotter term, or a flipped first-quantized hop sign (through the
# momentum readout), moves them by far more than this.
EXACT_TOL = 1e-9
# A sampled frequency must lie within SAMPLED_Z binomial standard errors of
# the exact probability, plus SAMPLED_SLACK counts for the rare-event bins
# where the binomial tail is wider than the normal one.
SAMPLED_Z = 5.0
SAMPLED_SLACK = 5

# Host-speed reference.  On a shared machine the speed drifts (up to 2x over
# minutes was measured on a 2-core VM), which no run length averages away.  So
# every reported time is in reference seconds: the measured seconds times
# CAL_REF_S over the mean of the calibration times taken just before and just
# after that run, i.e. seconds on a host where calibrate() takes CAL_REF_S.
# The raw medians are printed in the readable report.
CAL_REF_S = 0.05
CAL_LOOPS = 300_000

END_TO_END = {"run_s": "s", "setup_s": "s", "measure_s": "s", "peak_rss_mb": "MB"}
# Stage times reported alongside, but unbounded: one Trotter step of
# fq_prepare is a single sub-second interval per run, too noisy to bound.
STAGES_ONLY = {"step_s": "s"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for name in LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.strings"] = "count"
        units[f"{name}.self_s"] = "s"
    units["state.peak_support"] = "count"
    units["oracle.build_sq_hamiltonian.bytes"] = "B"
    units["oracle.build_fq_hamiltonian.bytes"] = "B"
    units["model.op_count"] = "count"
    units["probes.failed"] = "count"
    units["trace.overhead_s"] = "s"
    units["evolve.step_s"] = "s"
    return units


# ------------------------------------------------------------------ processes


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop of dict and integer work."""
    start = time.monotonic()
    table: dict[int, int] = {}
    for i in range(CAL_LOOPS):
        key = i & 1023
        table[key] = table.get(key, 0) + (i * i) % 7
    return time.monotonic() - start


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = str(SRC)
    env["FERMISIM_THREADS"] = str(THREADS)
    return env


def run_op(config: Path, seed: int, trace: bool, workdir: Path, deadline: float) -> dict:
    """One `fermisim evolve` in a fresh stage-runner process."""
    output = workdir / "result.json"
    report = workdir / "report.json"
    for stale in (output, output.with_suffix(".csv"), report):
        stale.unlink(missing_ok=True)
    spawned = time.monotonic()
    argv = [sys.executable, str(HERE / "stage_runner.py"), "--spawned-at", repr(spawned),
            "--report", str(report)] + (["--trace"] if trace else []) + [
            "--", "evolve", "--config", str(config), "--output", str(output),
            "--seed", str(seed)]
    try:
        proc = subprocess.run(argv, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
        code, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired:
        code, stderr = None, "timed out"
    op = {"seed": seed, "traced": trace, "run_s": time.monotonic() - spawned,
          "exit": code, "stderr": stderr.strip().splitlines()[-1:] if stderr else []}
    if code == 0 and output.is_file() and report.is_file():
        op["document"] = json.loads(output.read_text())
        op["report"] = json.loads(report.read_text())
    return op


def run_probes(configs, workdir: Path, deadline: float) -> list[dict]:
    """Plain CLI runs of the known-failure configs, side by side; untimed."""
    started = []
    for config in configs:
        argv = [sys.executable, "-m", "fermisim.cli", "evolve", "--config", str(config),
                "--output", str(workdir / f"probe-{config.stem}.json")]
        started.append((config.stem, subprocess.Popen(
            argv, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)))
    results = []
    for name, proc in started:
        try:
            _, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
            code, message = proc.returncode, stderr.strip().splitlines()[-1:]
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            code, message = None, ["timed out"]
        results.append({"probe": name, "exit": code, "message": message[0] if message else ""})
    return results


# --------------------------------------------------------------------- checks


def _close(value, want) -> bool:
    return isinstance(value, (int, float)) and abs(value - want) <= EXACT_TOL * max(1.0, abs(want))


def _check_row(row, ref, n_trials, where, problems) -> None:
    if not _close(row.get("exact"), ref["exact"]):
        problems.append(f"{where}: exact {row.get('exact')!r}, reference {ref['exact']!r}")
        return
    sampled, stderr, p = row.get("sampled"), row.get("stderr"), ref["exact"]
    if not isinstance(sampled, (int, float)) or not isinstance(stderr, (int, float)):
        problems.append(f"{where}: no sampled estimate")
        return
    allowed = (SAMPLED_Z * math.sqrt(max(p * (1.0 - p), 0.0) * n_trials) + SAMPLED_SLACK) / n_trials
    if abs(sampled - p) > allowed:
        problems.append(f"{where}: sampled {sampled!r} is {abs(sampled - p):.3g} from "
                        f"exact {p!r}, allowed {allowed:.3g}")
    want_err = math.sqrt(max(sampled * (1.0 - sampled), 0.0) / n_trials)
    if abs(stderr - want_err) > EXACT_TOL:
        problems.append(f"{where}: stderr {stderr!r}, binomial {want_err!r}")


def check_document(doc: dict, reference: dict, seed: int, n_trials: int) -> list[str]:
    """Differences between a result document and the workload's reference."""
    problems = []
    if doc.get("seed") != seed:
        problems.append(f"seed {doc.get('seed')!r}, expected {seed}")
    if doc.get("op_counts") != reference["op_counts"]:
        problems.append(f"op_counts {doc.get('op_counts')!r}, reference {reference['op_counts']!r}")
    observed = doc.get("observables", [])
    if len(observed) != len(reference["observables"]):
        return problems + [f"{len(observed)} observables, reference has "
                           f"{len(reference['observables'])}"]
    for i, (obs, ref) in enumerate(zip(observed, reference["observables"])):
        where = f"observables[{i}] {ref['kind']}"
        if any(obs.get(k) != ref[k] for k in ("kind", "sites", "particle") if k in ref):
            problems.append(f"{where}: identity {obs!r} differs from the reference")
        elif ref["kind"] == "energy":
            for part in ("potential", "kinetic", "total"):
                if not _close(obs.get(part), ref[part]):
                    problems.append(f"{where}.{part}: {obs.get(part)!r}, reference {ref[part]!r}")
        elif "values" in ref:
            rows = obs.get("values", [])
            if [r.get("index") for r in rows] != [r["index"] for r in ref["values"]]:
                problems.append(f"{where}: indices differ from the reference")
                continue
            for row, want in zip(rows, ref["values"]):
                _check_row(row, want, n_trials, f"{where}[{want['index']}]", problems)
        else:
            _check_row(obs, ref, n_trials, where, problems)
    return problems


# -------------------------------------------------------------------- metrics


def stage_times(report: dict, r: int) -> dict[str, float]:
    """Set-up, per-step and measurement seconds from a stage-runner report."""
    spans = report["spans"]
    roots = [s for s in spans if s[3] is None]
    setup_end = next(s[2] for s in roots if s[0] in PREPARE)
    evolve = next(s for s in roots if s[0] in EVOLVE)
    return {
        "setup_s": setup_end - report["spawned_at"],
        "step_s": (evolve[2] - evolve[1]) / r,
        "measure_s": sum(s[2] - s[1] for s in roots if s[0] in OBSERVABLES),
        "peak_rss_mb": report["maxrss_kb"] / 1024.0,
    }


def layer_totals(spans: list, scale: float = 1.0) -> dict[str, float]:
    """calls, strings and self seconds (times `scale`) per traced function,
    plus peak support and bytes."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals = {metric: 0 for metric in per_layer_units()}
    for i, (name, start, end, _, strings, nbytes) in enumerate(spans):
        if f"{name}.calls" not in totals:
            continue
        totals[f"{name}.calls"] += 1
        totals[f"{name}.strings"] += strings or 0
        totals[f"{name}.self_s"] += ((end - start) - child_time[i]) * scale
        totals["state.peak_support"] = max(totals["state.peak_support"], strings or 0)
        if f"{name}.bytes" in totals and nbytes:
            totals[f"{name}.bytes"] += nbytes
    return totals


def machine_facts(numpy_version: str | None) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "FERMISIM_THREADS": child_env()["FERMISIM_THREADS"],
    }


def _summary(values: list[float]) -> str:
    return f"p50 {statistics.median(values):.6g}  max {max(values):.6g}  n={len(values)}"


# ----------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    config = HERE / "workloads" / f"{args.workload}.json"
    if not config.is_file():
        print(f"error: no workload {args.workload!r} in {config.parent}", file=sys.stderr)
        return 2
    if not (SRC / "fermisim" / "cli.py").is_file():
        print(f"error: fermisim sources not found under {SRC}", file=sys.stderr)
        return 1
    reference = json.loads((HERE / "reference" / f"{args.workload}.json").read_text())
    plan = json.loads(config.read_text())
    r, n_trials = plan["plan"]["r"], plan["sampling"]["N"]

    started = time.monotonic()
    deadline = started + DEADLINE_S
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "fermisim")],
                   capture_output=True, timeout=60)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        rng = random.Random(args.seed)
        ops = []
        calibrations = [calibrate()]
        while True:
            trace = bool(args.trace) and len(ops) % 2 == 0
            op = run_op(config, rng.getrandbits(32), trace, workdir, deadline)
            calibrations.append(calibrate())
            op["scale"] = CAL_REF_S / ((calibrations[-2] + calibrations[-1]) / 2)
            problems = ([f"exit {op['exit']}: {' '.join(op['stderr'])}"] if "document" not in op
                        else check_document(op["document"], reference, op["seed"], n_trials))
            op["problems"] = problems
            ops.append(op)
            for problem in problems:
                print(f"FAIL seed {op['seed']}: {problem}")
            now = time.monotonic()
            enough = len(ops) >= (2 if args.trace else 1)
            if enough and now + op["run_s"] > started + args.seconds or now >= deadline:
                break
        probes = run_probes(sorted((HERE / "probes").glob("*.json")), workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    good = [op for op in ops if not op["problems"]]
    failed = len(ops) - len(good)
    probe_failures = sum(1 for p in probes if p["exit"] != 0)
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("# machine " + json.dumps(machine_facts(good[0]["report"]["numpy"] if good else None)))
    for p in probes:
        print(f"# probe {p['probe']}: exit {p['exit']}  {p['message']}")
    print(f"# failed_ops {failed + probe_failures}/{len(ops) + len(probes)} "
          f"({failed} of {len(ops)} runs, {probe_failures} of {len(probes)} probes)")
    print(f"# calibration {_summary(calibrations)} s, reference {CAL_REF_S} s; "
          f"times below are reference seconds, raw medians in brackets")

    metrics = {}
    plain = [op for op in good if not op["traced"]]
    traced = [op for op in good if op["traced"]]
    if not args.trace and plain:
        raw = {"run_s": [op["run_s"] for op in plain]}
        samples = {"run_s": [op["run_s"] * op["scale"] for op in plain]}
        for op in plain:
            for name, value in stage_times(op["report"], r).items():
                raw.setdefault(name, []).append(value)
                samples.setdefault(name, []).append(
                    value if name == "peak_rss_mb" else value * op["scale"])
        for name, unit in {**END_TO_END, **STAGES_ONLY}.items():
            print(f"{name:<12} {_summary(samples[name])} {unit}  "
                  f"[{statistics.median(raw[name]):.6g}]")
            if name in END_TO_END:
                metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
    elif args.trace and traced and plain:
        units = per_layer_units()
        rows = [layer_totals(op["report"]["spans"], op["scale"]) for op in traced]
        for name in units:
            metrics[name] = {"value": statistics.median(row[name] for row in rows),
                             "unit": units[name]}
        metrics["model.op_count"]["value"] = traced[0]["document"]["op_counts"]["total"]
        metrics["probes.failed"]["value"] = probe_failures
        overhead = (statistics.median(op["run_s"] * op["scale"] for op in traced)
                    - statistics.median(op["run_s"] * op["scale"] for op in plain))
        metrics["trace.overhead_s"]["value"] = overhead
        metrics["evolve.step_s"]["value"] = statistics.median(
            stage_times(op["report"], r)["step_s"] * op["scale"] for op in plain)
        print(f"# traced runs {len(traced)}, untraced {len(plain)}, overhead {overhead:.4g} s")
        top = sorted((n for n in units if n.endswith(".self_s")),
                     key=lambda n: -metrics[n]["value"])[:8]
        for name in top:
            base = name[: -len(".self_s")]
            print(f"{name:<44} {metrics[name]['value']:.4g} s  "
                  f"calls {metrics[base + '.calls']['value']}  "
                  f"strings {metrics[base + '.strings']['value']}")
        print("# modelled op_counts " + json.dumps(traced[0]["document"]["op_counts"]))
        executed = {n: metrics[f"state.{n}.calls"]["value"] for n in
                    ("apply_phase_if", "apply_sign_if", "apply_two_level_mix",
                     "apply_controlled_unitary", "apply_basis_permutation")}
        print("# executed primitive calls " + json.dumps(executed))

    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
