"""Classical simulator of fermionic quantum-simulation algorithms on Hubbard chains."""

import gc
import os


def valid_thread_count(value: str) -> bool:
    """Whether FERMISIM_THREADS=`value` is a thread count: ASCII digits, at least 1.

    A value past Python's integer-string digit limit is not one.
    """
    if not (value.isascii() and value.isdigit()):
        return False
    try:
        return int(value) >= 1
    except ValueError:  # more digits than `sys.get_int_max_str_digits()` allows
        return False


# Honor the thread cap before anything pulls in numpy: the BLAS pools read
# their environment once, at load time.  Results never depend on this, only
# wall time does.
_threads = os.environ.get("FERMISIM_THREADS")
if _threads is not None and valid_thread_count(_threads):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)
del _threads

# No collection while the package and numpy import: what they make lives as
# long as they do, so a collection would walk it for nothing.  freeze/unfreeze
# then moves it into the oldest generation without a walk, and the collector
# ends as the caller left it, with nothing frozen (`cli` freezes its own heap).
_collecting = gc.isenabled()
gc.disable()
try:
    from fermisim.state import (
        InvariantViolation,
        QuantumState,
        RegisterLayout,
        init_basis_state,
        inject_state,
        set_validation_mode,
        validation_mode,
    )

    __version__ = "0.1.0"

    from fermisim.antisym import (
        OrderedConfiguration,
        RegisterBank,
        antisymmetrize,
        antisymmetrize_inverse,
        collapse_ancillas,
        prepare_ordered_input,
        transposition_test,
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
    from fermisim.fq import (
        FirstQuantizedLayout,
        op_count_fq,
        prepare_antisymmetric,
        single_particle_plane_wave,
        trotter_evolve_fq,
    )
    from fermisim.observables import (
        EnergyReport,
        Estimate,
        Histogram,
        SamplingPlan,
        charge_density,
        expected_energy,
        k_point_correlation,
        momentum_distribution,
        pair_correlation,
        required_trials,
    )
    from fermisim.validate import CheckResult, SUITES, run_suite
finally:
    if not gc.get_freeze_count():  # a caller's frozen objects stay frozen
        gc.freeze()
        gc.unfreeze()
    if _collecting:
        gc.enable()
    del _collecting


__all__ = [
    "CheckResult",
    "DOWN",
    "EnergyReport",
    "Estimate",
    "FirstQuantizedLayout",
    "Histogram",
    "HubbardParams",
    "InvariantViolation",
    "ModeLayout",
    "OrderedConfiguration",
    "QuantumState",
    "RegisterBank",
    "RegisterLayout",
    "SUITES",
    "SamplingPlan",
    "TrotterPlan",
    "UP",
    "antisymmetrize",
    "antisymmetrize_inverse",
    "charge_density",
    "collapse_ancillas",
    "encode_occupation",
    "expected_energy",
    "init_basis_state",
    "inject_state",
    "k_point_correlation",
    "momentum_distribution",
    "op_count",
    "op_count_fq",
    "pair_correlation",
    "prepare_antisymmetric",
    "prepare_ordered_input",
    "required_trials",
    "run_suite",
    "set_validation_mode",
    "single_particle_plane_wave",
    "transposition_test",
    "trotter_evolve",
    "trotter_evolve_fq",
    "validation_mode",
    "__version__",
]
