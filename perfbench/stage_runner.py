"""Run one `fermisim evolve` in this process, with spans around fermisim's functions.

    python3 stage_runner.py --spawned-at T --report FILE [--trace] -- evolve --config ...

Everything after `--` goes to `fermisim.cli.main` unchanged, so the result
document is the CLI's own.  Before the CLI runs, the stage functions (prepare,
Trotter evolution, each observable) are replaced by wrappers that record a
span: name, start, end, parent span.  With `--trace`, every layer function in
LAYERS is wrapped as well, and each span also records the support size of the
state entering the call (the pair count for two-level mixes) and the bytes of
any matrix it returns.

Modules that bound a function with `from ... import` hold their own
reference to it; `install` rebinds every such reference in every loaded
fermisim module, otherwise those calls would go unrecorded.

At exit the spans, the exit code and the process's peak resident set are
written to the report file as JSON.  `--spawned-at` is the CLOCK_MONOTONIC
time at which the parent spawned this process, so set-up time can include
interpreter start and imports.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import sys
import time

# Functions whose spans give the stage timings; a fresh process per run keeps
# every lru_cache cold, as it is for a CLI user.
PREPARE = ("state.init_basis_state", "fq.prepare_antisymmetric")
EVOLVE = ("sq.trotter_evolve", "fq.trotter_evolve_fq")
OBSERVABLES = ("observables.charge_density", "observables.k_point_correlation",
               "observables.momentum_distribution", "observables.expected_energy")
STAGES = PREPARE + EVOLVE + OBSERVABLES

# Layer functions traced with `--trace`, as module.function; QuantumState
# methods are listed under `state`.
STATE_METHODS = ("apply_phase_if", "apply_sign_if", "apply_two_level_mix",
                 "apply_controlled_unitary", "apply_basis_permutation",
                 "sample", "qft_register", "copy")
LAYERS = (
    ("cli.parse_config",)
    + tuple(f"state.{name}" for name in STATE_METHODS)
    + ("sq.evolve_potential", "sq.evolve_hopping_pair",
       "fq.evolve_potential_fq", "fq.evolve_kinetic_particle", "fq.prepare_antisymmetric",
       "antisym.antisymmetrize", "antisym.superpose_ranks", "antisym.ranks_to_permutation",
       "antisym.assign_identity", "antisym.sort_with_record", "antisym.parity_phase",
       "antisym.collapse_ancillas")
    + OBSERVABLES
    + ("oracle.build_sq_hamiltonian", "oracle.build_fq_hamiltonian")
)


def support_size(state) -> int:
    """Number of basis strings with a nonzero amplitude."""
    vec = getattr(state, "_vec", None)
    if vec is not None:
        import numpy as np

        return int(np.count_nonzero(vec))
    amps = getattr(state, "_amps", None)
    if amps is not None:
        return len(amps)
    return len(state.support())


class Tracer:
    """Spans kept in memory as [name, start, end, parent, strings, bytes]."""

    def __init__(self, count: bool):
        from fermisim.state import QuantumState

        self.count = count
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._state_type = QuantumState

    def wrap(self, name: str, fn):
        pairs_arg = name == "state.apply_two_level_mix"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            strings = None
            if self.count:
                if pairs_arg:
                    pairs = list(args[1])  # may be a one-shot iterable
                    args = (args[0], pairs) + args[2:]
                    strings = len(pairs)
                else:
                    state = next((a for a in args if isinstance(a, self._state_type)), None)
                    strings = 0 if state is None else support_size(state)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.monotonic(), None, parent, strings, None]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                self._stack.pop()
            if self.count:
                span[5] = getattr(result, "nbytes", None)
            return result

        return traced


def install(tracer: Tracer, names) -> None:
    """Wrap each module.function in `names` and rebind every reference to it."""
    import fermisim.cli  # noqa: F401  (loads every fermisim module)
    from fermisim.state import QuantumState

    modules = [m for n, m in sys.modules.items() if n == "fermisim" or n.startswith("fermisim.")]
    for name in dict.fromkeys(names):
        module_name, function = name.split(".")
        module = sys.modules[f"fermisim.{module_name}"]
        if module_name == "state" and function in STATE_METHODS:
            original = QuantumState.__dict__[function]
            setattr(QuantumState, function, tracer.wrap(name, original))
            continue
        original = getattr(module, function)
        wrapped = tracer.wrap(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from fermisim import cli  # before numpy: fermisim applies FERMISIM_THREADS first
    import numpy

    tracer = Tracer(count=args.trace)
    install(tracer, STAGES + (LAYERS if args.trace else ()))
    code = cli.main(cli_args)
    report = {
        "exit": code,
        "spawned_at": args.spawned_at,
        "spans": tracer.spans,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": numpy.__version__,
    }
    with open(args.report, "w") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
