"""Batch front-end: JSON run configs in, machine-readable result documents out.

Three subcommands cover the package surface: `evolve` runs a configured
Trotter evolution and measures observables, `antisym` dumps the amplitude map
of one antisymmetrization next to its oracle fidelity, `validate` replays a
named self-check suite as a pass/fail table.

Exit codes are uniform: 0 success, 1 an internal invariant tripped, a run
failed after its config was accepted, or a validation suite failed, 2 anything
wrong with the user's input, an --output path that cannot be written among
it.  Result documents echo their fully normalized config, so a document alone
is enough to reproduce the run; reruns are byte-identical except for the
wall-time field.

Importing this module freezes the import-time heap (`gc.freeze`), since a CLI
process keeps it until exit; collection of everything made later is unchanged.
The package import before it runs with the collector off (`fermisim/__init__`),
so a process that only imports this module takes about 61 ms, 25 ms of it the
bare interpreter (FERMISIM_THREADS=1, 2-core Xeon, Python 3.11.7).
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import math
import os
import sys
import time
from pathlib import Path

from fermisim import __version__, valid_thread_count
from fermisim.antisym import (
    MAX_PARTICLES,
    RegisterBank,
    antisymmetrize,
    collapse_ancillas,
    prepare_ordered_input,
)
from fermisim.fq import FirstQuantizedLayout, op_count_fq, prepare_antisymmetric, trotter_evolve_fq
from fermisim.observables import (
    MAX_CORRELATION_POINTS,
    Estimate,
    SamplingPlan,
    charge_density,
    expected_energy,
    k_point_correlation,
    momentum_distribution,
)
from fermisim.sq import (
    DOWN,
    UP,
    HubbardParams,
    ModeLayout,
    TrotterPlan,
    encode_occupation,
    op_count,
    trotter_evolve,
)
from fermisim.state import (
    KEY_BITS, MAX_TRIALS, InvariantViolation, init_basis_state, replace, set_validation_mode,
    value_class,
)
from fermisim.validate import SUITES, run_suite, slater_overlap

# A CLI process keeps everything alive after these imports (numpy, fermisim's
# modules, classes and functions) until exit.  Freezing it into the permanent
# generation spares the final collection, and any full one, from walking it;
# objects made later are collected as before.  The package `__init__` only
# keeps the collector off while it imports and leaves nothing frozen, so code
# that imports only the library keeps its GC state.
gc.freeze()

THREAD_ENV_VAR = "FERMISIM_THREADS"
# Largest accepted lattice.m, a power of two so that first-quantized runs may
# use it.  One particle with r = 1 at the cap takes about 30 ms first-quantized
# (label 16385) and, second-quantized (site 8192 up), 57-90 s at a 73 MB peak
# for the step alone, whose 2m-bit keys are Python ints, and 100-120 s more at
# a 76 MB peak for a `charge_density` readout, one mask per site over the
# support; at m = 4096 (site 2048 up) the step takes 1.3-3.2 s and the readout
# 1.4-2.6 s (in process, FERMISIM_THREADS=1, shared 2-core Xeon, Python 3.11.7;
# the ranges span runs on different days).
MAX_SITES = 1 << 14
# Largest accepted plan.r, so every accepted document finishes: a step on one
# or two sites takes 7-40 microseconds (same machine), longer on bigger chains.
MAX_STEPS = 10**6
OBSERVABLE_KINDS = ("charge_density", "pair_correlation", "k_point_correlation",
                    "momentum_distribution", "energy")


class ConfigError(ValueError):
    """Schema violation, annotated with the offending config path."""


@value_class
class RunConfig:
    """One fully validated evolution run."""

    formalism: str
    m: int
    boundary: str
    v0: float
    t0: float
    particles: tuple
    plan_t: float
    plan_r: int
    observables: tuple
    sampling: SamplingPlan | None
    mode: str

    def to_dict(self) -> dict:
        return {
            "formalism": self.formalism,
            "lattice": {"m": self.m, "boundary": self.boundary},
            "params": {"V0": self.v0, "t0": self.t0},
            "particles": [list(p) if isinstance(p, tuple) else p for p in self.particles],
            "plan": {"t": self.plan_t, "r": self.plan_r},
            "observables": [dict(entry) for entry in self.observables],
            "sampling": {"N": self.sampling.n_trials, "seed": self.sampling.seed} if self.sampling else None,
            "mode": self.mode,
        }


# ------------------------------------------------------------- config schema


def _require(mapping, key, path):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{path}: expected an object")
    if key not in mapping:
        raise ConfigError(f"{path}.{key}: missing required field")
    return mapping[key]


def _reject_unknown(mapping, known, path):
    extras = set(mapping) - set(known)
    if extras:
        raise ConfigError(f"{path}: unknown fields {sorted(extras)}")


def _as_int(value, path, minimum=None, maximum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{path}: must be <= {maximum}, got {value}")
    return value


def _as_number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # a JSON integer past the float range
        raise ConfigError(f"{path}: integer exceeds the float range") from None
    if not math.isfinite(number):
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    return number


def _as_choice(value, choices, path):
    if value not in choices:
        raise ConfigError(f"{path}: expected one of {sorted(choices)}, got {value!r}")
    return value


def _parse_particles(raw, formalism, m, path):
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{path}: expected a non-empty list")
    if formalism == "second":
        seen = set()
        out = []
        for i, entry in enumerate(raw):
            spot = f"{path}[{i}]"
            if not isinstance(entry, list) or len(entry) != 2:
                raise ConfigError(f"{spot}: expected a [site, spin] pair")
            site = _as_int(entry[0], f"{spot}[0]")
            if not 1 <= site <= m:
                raise ConfigError(f"{spot}[0]: site must lie in 1..{m}, got {site}")
            spin = _as_choice(entry[1], ("up", "down"), f"{spot}[1]")
            if (site, spin) in seen:
                raise ConfigError(f"{spot}: mode ({site}, {spin}) listed twice")
            seen.add((site, spin))
            out.append((site, spin))
        return tuple(out)
    labels = [_as_int(v, f"{path}[{i}]") for i, v in enumerate(raw)]
    if len(labels) > 2 * m:
        raise ConfigError(f"{path}: {len(labels)} particles exceed the 2m = {2 * m} modes")
    if len(labels) > MAX_PARTICLES:
        raise ConfigError(f"{path}: {len(labels)} particles exceed the limit of {MAX_PARTICLES}")
    for i, v in enumerate(labels):
        if not 1 <= v <= 2 * m:
            raise ConfigError(f"{path}[{i}]: label must lie in 1..{2 * m}, got {v}")
    if any(a >= b for a, b in zip(labels, labels[1:])):
        raise ConfigError(f"{path}: labels must be strictly increasing, got {labels}")
    return tuple(labels)


def _parse_observables(raw, formalism, m, n_particles, path):
    if raw is None:
        return ()
    if not isinstance(raw, list):
        raise ConfigError(f"{path}: expected a list")
    out = []
    for i, item in enumerate(raw):
        spot = f"{path}[{i}]"
        if not isinstance(item, dict):
            raise ConfigError(f"{spot}: expected an object")
        kind = _as_choice(_require(item, "kind", spot), OBSERVABLE_KINDS, f"{spot}.kind")
        entry = {"kind": kind}
        if kind in ("pair_correlation", "k_point_correlation"):
            sites = _require(item, "sites", spot)
            if not isinstance(sites, list):
                raise ConfigError(f"{spot}.sites: expected a list of sites")
            sites = [_as_int(s, f"{spot}.sites[{j}]") for j, s in enumerate(sites)]
            want = (2, 2) if kind == "pair_correlation" else (1, MAX_CORRELATION_POINTS)
            if not want[0] <= len(sites) <= want[1]:
                raise ConfigError(f"{spot}.sites: expected {want[0]}..{want[1]} sites")
            if len(set(sites)) != len(sites):
                raise ConfigError(f"{spot}.sites: sites must be distinct")
            for j, s in enumerate(sites):
                if not 1 <= s <= m:
                    raise ConfigError(f"{spot}.sites[{j}]: site must lie in 1..{m}")
            entry["sites"] = sites
        elif kind == "momentum_distribution":
            if formalism != "first":
                raise ConfigError(
                    f"{spot}: momentum_distribution needs the first-quantized formalism"
                )
            particle = _as_int(_require(item, "particle", spot), f"{spot}.particle")
            if not 0 <= particle < n_particles:
                raise ConfigError(
                    f"{spot}.particle: must lie in 0..{n_particles - 1}, got {particle}"
                )
            entry["particle"] = particle
        _reject_unknown(item, entry, spot)
        out.append(entry)
    return tuple(out)


def parse_config(raw) -> RunConfig:
    """Validate a decoded JSON object into a RunConfig; raise ConfigError on any hole."""
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a JSON object at the top level")
    _reject_unknown(raw, ("formalism", "lattice", "params", "particles", "plan", "observables",
                          "sampling", "backend", "mode"), "config")

    formalism = _as_choice(_require(raw, "formalism", "config"), ("first", "second"), "formalism")
    lattice = _require(raw, "lattice", "config")
    m = _as_int(_require(lattice, "m", "lattice"), "lattice.m", minimum=1)
    if m > MAX_SITES:
        raise ConfigError(f"lattice.m: site count must be <= {MAX_SITES}, got {m}")
    boundary = _as_choice(lattice.get("boundary", "open"), ("open",), "lattice.boundary")
    _reject_unknown(lattice, ("m", "boundary"), "lattice")
    if formalism == "first" and (m < 2 or m & (m - 1)):
        raise ConfigError(f"lattice.m: first-quantized runs need a power of two >= 2, got {m}")

    params = _require(raw, "params", "config")
    v0 = _as_number(_require(params, "V0", "params"), "params.V0")
    t0 = _as_number(_require(params, "t0", "params"), "params.t0")
    _reject_unknown(params, ("V0", "t0"), "params")

    plan = _require(raw, "plan", "config")
    plan_t = _as_number(_require(plan, "t", "plan"), "plan.t")
    plan_r = _as_int(_require(plan, "r", "plan"), "plan.r", minimum=1, maximum=MAX_STEPS)
    _reject_unknown(plan, ("t", "r"), "plan")
    step = plan_t / plan_r
    for name, energy in (("V0", v0), ("t0", t0)):
        if not math.isfinite(energy * step):
            raise ConfigError(f"plan.t: the step angle {name}*t/r overflows at t = {plan_t!r}")

    # Older configs and documents carry "backend": checked, then dropped, as the store has one index.
    _as_choice(raw.get("backend", "dense"), ("dense", "sparse"), "backend")
    mode = _as_choice(raw.get("mode", "fermi"), ("fermi", "bose"), "mode")
    if mode == "bose" and formalism == "second":
        raise ConfigError("mode: the occupation-number encoding is fermionic; "
                          "bose runs need formalism = first")

    particles = _parse_particles(_require(raw, "particles", "config"), formalism, m, "particles")
    # |<H>| <= (|V0| + 4|t0|)*m*n in both encodings (at most m doubly occupied
    # sites, hops of at most 2|t0| per particle); past it the energy is inf or nan.
    energy_bound = (abs(v0) + 4 * abs(t0)) * m * len(particles)
    if not math.isfinite(energy_bound):
        field = "params.V0" if abs(v0) >= 4 * abs(t0) else "params.t0"
        raise ConfigError(f"{field}: the energy bound (|V0| + 4|t0|)*m*n overflows the float range")
    observables = _parse_observables(
        raw.get("observables"), formalism, m, len(particles), "observables"
    )

    sampling = None
    if raw.get("sampling") is not None:
        block = raw["sampling"]
        n_trials = _as_int(_require(block, "N", "sampling"), "sampling.N",
                           minimum=1, maximum=MAX_TRIALS)
        seed = _as_int(_require(block, "seed", "sampling"), "sampling.seed",
                       minimum=0, maximum=2**64 - 1)
        # Older configs and documents carry "epsilon": checked, then dropped, as no estimate reads it.
        epsilon = _as_number(block.get("epsilon", 0.1), "sampling.epsilon")
        if epsilon <= 0:
            raise ConfigError(f"sampling.epsilon: must be positive, got {epsilon}")
        _reject_unknown(block, ("N", "seed", "epsilon"), "sampling")
        sampling = SamplingPlan(seed=seed, n_trials=n_trials)

    return RunConfig(
        formalism=formalism, m=m, boundary=boundary, v0=v0, t0=t0,
        particles=particles, plan_t=plan_t, plan_r=plan_r,
        observables=observables, sampling=sampling, mode=mode,
    )


# ----------------------------------------------------------------- execution


def _row(value, **fields) -> dict:
    """Result row of an exact float or of a sampled Estimate."""
    if isinstance(value, Estimate):
        return {**fields, "exact": value.exact, "sampled": value.sampled, "stderr": value.stderr}
    return {**fields, "exact": float(value), "sampled": None, "stderr": None}


def _evaluate(entry, state, layout, params, plan):
    kind = entry["kind"]
    if kind == "charge_density":
        values = [_row(x, index=s + 1) for s, x in enumerate(charge_density(state, layout, plan))]
        return {"kind": kind, "values": values}
    if kind in ("pair_correlation", "k_point_correlation"):
        sites = entry["sites"]
        return _row(k_point_correlation(state, layout, sites, plan), kind=kind, sites=list(sites))
    if kind == "momentum_distribution":
        particle = entry["particle"]
        histogram = momentum_distribution(state, layout, particle, plan)
        exact = histogram.frequencies if plan is None else histogram.exact
        values = []
        for k in sorted(exact):
            value = exact[k]
            if plan is not None:
                f = histogram.frequencies[k]
                value = Estimate(value, f, math.sqrt(max(f * (1.0 - f), 0.0) / histogram.n_trials))
            values.append(_row(value, index=k))
        return {"kind": kind, "particle": particle, "values": values}
    if kind == "energy":
        report = expected_energy(state, layout, params)
        return {"kind": kind, "potential": report.potential, "kinetic": report.kinetic,
                "total": report.total}
    raise ConfigError(f"observables: unknown kind {kind!r}")


def execute_run(config: RunConfig) -> dict:
    """Prepare, evolve, measure; return the result document as a plain dict."""
    started = time.perf_counter()
    params = HubbardParams(config.v0, config.t0)
    plan = TrotterPlan(config.plan_t, config.plan_r)
    if config.formalism == "second":
        layout = ModeLayout(config.m)
        occupied = tuple(
            (site, UP if spin == "up" else DOWN) for site, spin in config.particles
        )
        bits = encode_occupation(layout, occupied)
        state = init_basis_state(layout.register_layout(), bits)
        trotter_evolve(state, layout, params, plan)
        counts = op_count(layout, plan)
    else:
        layout = FirstQuantizedLayout(n=len(config.particles), m=config.m)
        state = prepare_antisymmetric(layout, config.particles, mode=config.mode)
        trotter_evolve_fq(state, layout, params, plan, mode=config.mode)
        counts = op_count_fq(layout, plan)

    measured = [
        _evaluate(entry, state, layout, params, config.sampling) for entry in config.observables
    ]
    return {
        "config": config.to_dict(),
        "library_version": __version__,
        "seed": config.sampling.seed if config.sampling else None,
        "op_counts": {k: int(v) for k, v in counts.items()},
        "observables": measured,
        "wall_time_s": time.perf_counter() - started,
    }


def _csv_rows(document):
    for obs in document["observables"]:
        kind = obs["kind"]
        if kind == "energy":
            for part in ("potential", "kinetic", "total"):
                yield (kind, part, obs[part], None, None)
        elif kind in ("pair_correlation", "k_point_correlation"):
            index = "-".join(str(s) for s in obs["sites"])
            yield (kind, index, obs["exact"], obs["sampled"], obs["stderr"])
        elif kind == "momentum_distribution":
            for row in obs["values"]:
                index = f"p{obs['particle']}-k{row['index']}"
                yield (kind, index, row["exact"], row["sampled"], row["stderr"])
        else:
            for row in obs["values"]:
                yield (kind, row["index"], row["exact"], row["sampled"], row["stderr"])


def _write_or_report(texts: dict) -> int:
    """Write `texts`, {path: text}: 0 once all are in place, 2 with one line naming the path if not.

    Each text goes to a temporary beside its path, and the temporaries are
    renamed over their paths only once all are written, so a failed write
    leaves no new or partial file and every path as it was.
    """
    temps = []
    try:
        for failed, text in texts.items():
            if failed.is_dir():
                raise IsADirectoryError("Is a directory")
            temp = failed.with_name(f".{failed.name}.{os.getpid()}.tmp")
            with temp.open("w", newline="") as handle:  # once it is open, it is ours to remove
                temps.append((temp, failed))
                handle.write(text)
        for temp, failed in temps:
            os.replace(temp, failed)
    except OSError as exc:
        print(f"error: cannot write --output {failed}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    finally:
        for temp, _ in temps:
            temp.unlink(missing_ok=True)
    return 0


def _csv_text(document: dict) -> str:
    text = io.StringIO(newline="")
    csv.writer(text).writerows([("observable", "index", "exact", "sampled", "stderr")] + [
        (kind, index, *("" if value is None else repr(float(value)) for value in values))
        for kind, index, *values in _csv_rows(document)])
    return text.getvalue()


# --------------------------------------------------------------- subcommands


def cmd_evolve(config_path: str, output_path: str, seed_override: int | None = None) -> int:
    path = Path(config_path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: {path}:{exc.lineno}:{exc.colno}: {exc.msg}", file=sys.stderr)
        return 2
    except (ValueError, RecursionError) as exc:  # undecodable bytes, a too long integer, too deep nesting
        print(f"error: {path}: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(raw)
        if seed_override is not None:
            if config.sampling is None:
                raise ConfigError("--seed: config has no sampling block to reseed")
            try:
                config = replace(config, sampling=replace(config.sampling, seed=seed_override))
            except ValueError as exc:
                raise ConfigError(f"--seed: {exc}") from None
    except ConfigError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return 2
    try:
        document = execute_run(config)
    except InvariantViolation as exc:
        print(f"error: internal invariant violated: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # parse_config accepted the config, so this is a simulator defect
        print(f"error: internal error: {exc}", file=sys.stderr)
        return 1
    output = Path(output_path)
    return _write_or_report({output: json.dumps(document, indent=2, sort_keys=True) + "\n",
                             output.with_suffix(".csv"): _csv_text(document)})


def cmd_antisym(labels, mode: str, output_path: str) -> int:
    try:
        labels = tuple(int(v) for v in labels)
    except (TypeError, ValueError):
        print(f"error: labels must be integers, got {labels!r}", file=sys.stderr)
        return 2
    # A word holds label - 1.  The layout, the ordered input and the pipeline
    # reject every other bad input, and name a label past 2**KEY_BITS.
    try:
        width = max(1, (max(labels, default=1) - 1).bit_length())
        bank = RegisterBank(len(labels), min(width, KEY_BITS))
        state = prepare_ordered_input(bank, labels)
        antisymmetrize(state, bank, mode)
        out = collapse_ancillas(state, bank)
    except InvariantViolation as exc:
        print(f"error: internal invariant violated: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    keys, amps = out.gather()
    rows = list(zip(*((w + 1).tolist() for w in bank.get_words(keys, "A"))))
    amplitudes = [{"labels": list(row), "re": amp.real, "im": amp.imag}
                  for row, amp in zip(rows, amps.tolist())]
    amplitudes.sort(key=lambda entry: entry["labels"])
    document = {
        "n": len(labels),
        "labels": list(labels),
        "mode": mode,
        "amplitudes": amplitudes,
        "fidelity": abs(slater_overlap(labels, mode, rows, amps)) ** 2,
        "library_version": __version__,
    }
    return _write_or_report({Path(output_path): json.dumps(document, indent=2, sort_keys=True) + "\n"})


def cmd_validate(suite: str) -> int:
    if suite not in SUITES:
        known = ", ".join(sorted(SUITES))
        print(f"error: unknown suite {suite!r}; expected one of {known}", file=sys.stderr)
        return 2
    results = run_suite(suite)
    header = f"{'suite':<12} {'check':<26} {'measured':>14} {'bound':<22} result"
    print(header)
    print("-" * len(header))
    for r in results:
        verdict = "pass" if r.passed else "FAIL"
        print(f"{r.suite:<12} {r.name:<26} {r.measured:>14.6g} {r.bound:<22} {verdict}")
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------- entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermisim",
        description="Simulate Hubbard-chain evolutions in either fermionic encoding.",
    )
    parser.add_argument(
        "--validation-mode", action="store_true",
        help="enable exhaustive internal checks (slow, diagnostic runs only)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    evolve = sub.add_parser("evolve", help="run a configured Trotter evolution")
    evolve.add_argument("--config", required=True, help="path to a JSON run config")
    evolve.add_argument("--output", required=True,
                        help="result document path; a CSV lands next to it")
    evolve.add_argument("--seed", type=int, help="override the sampling seed")

    antisym = sub.add_parser("antisym", help="antisymmetrize one ordered configuration")
    antisym.add_argument("--labels", required=True,
                         help="comma-separated strictly increasing labels, e.g. 1,3,4")
    antisym.add_argument("--mode", choices=("fermi", "bose"), default="fermi")
    antisym.add_argument("--output", required=True, help="amplitude-map document path")

    validate = sub.add_parser("validate", help="run a named self-check suite")
    validate.add_argument("suite", help="one of: " + ", ".join(sorted(SUITES)))
    return parser


def main(argv=None) -> int:
    threads = os.environ.get(THREAD_ENV_VAR)
    if threads is not None and not valid_thread_count(threads):
        print(f"error: {THREAD_ENV_VAR} must be a positive integer, got {threads!r}",
              file=sys.stderr)
        return 2
    args = build_parser().parse_args(argv)
    if args.validation_mode:
        set_validation_mode(True)
    if args.command == "evolve":
        return cmd_evolve(args.config, args.output, seed_override=args.seed)
    if args.command == "antisym":
        return cmd_antisym(args.labels.split(","), args.mode, args.output)
    return cmd_validate(args.suite)


if __name__ == "__main__":
    sys.exit(main())
