"""End-to-end checks of the command-line front end.

Everything goes through cli.main or the subcommand functions with temp files,
asserting on exit codes, written documents, and the error channel.  The
contract under test: 0 success, 1 internal defect, 2 user error; reruns of
the same config and seed are byte-identical except for wall time.
"""

import copy
import csv
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fermisim import cli, observables
from fermisim.cli import MAX_SITES, MAX_STEPS, ConfigError, RunConfig, cmd_antisym, main, parse_config
from fermisim.observables import ENERGY_SPLIT_TOL, SamplingPlan
from fermisim.state import MAX_TRIALS, QuantumState, _sorted_uniforms, set_validation_mode

REPO_ROOT = Path(__file__).resolve().parents[1]
SHIPPED_CONFIGS = sorted(
    path for pattern in ("configs/*.json", "perfbench/workloads/*.json", "perfbench/probes/*.json")
    for path in REPO_ROOT.glob(pattern)
)


@pytest.fixture(autouse=True)
def _plain_validation():
    yield
    set_validation_mode(False)


def base_config(**overrides):
    raw = {
        "formalism": "second",
        "lattice": {"m": 2},
        "params": {"V0": 4.0, "t0": 1.0},
        "particles": [[1, "up"], [2, "up"]],
        "plan": {"t": 1.0, "r": 8},
        "observables": [{"kind": "charge_density"}],
        "sampling": {"N": 200, "seed": 3},
    }
    raw.update(overrides)
    return raw


def run_evolve(tmp_path, raw, *extra):
    config = tmp_path / "run.json"
    output = tmp_path / "out.json"
    config.write_text(json.dumps(raw))
    code = main(["evolve", "--config", str(config), "--output", str(output), *extra])
    return code, output


UNWRITABLE = {"missing directory": lambda tmp_path: tmp_path / "absent" / "out.json",
              "directory": lambda tmp_path: tmp_path}


def assert_output_refused(code, capsys, output):
    """Exit 2 with one error line naming --output and the path, and no traceback."""
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write --output ") and str(output) in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def subprocess_env(**extra):
    """This environment plus `extra`, with the source tree first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, (str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path, **extra}


def evolve_in_subprocess(tmp_path, hook_source):
    """Run `evolve` on base_config() in a fresh interpreter whose last atexit hook is `hook`.

    `hook_source` defines `hook()`; it is registered before fermisim.cli is
    imported, so it runs after every handler the CLI or numpy registers.  The
    hook sees `sys`, and the output path as the last argument.
    """
    config = tmp_path / "run.json"
    output = tmp_path / "out.json"
    config.write_text(json.dumps(base_config()))
    script = (
        "import atexit, sys\n"
        + hook_source
        + "atexit.register(hook)\n"
        "from fermisim.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, "evolve", "--config", str(config), "--output", str(output)],
        capture_output=True, text=True, env=subprocess_env(), timeout=120,
    )
    return done, output


class TestConfigParsing:
    def test_round_trip_is_field_wise_identity(self):
        config = parse_config(base_config())
        again = parse_config(config.to_dict())
        assert again == config
        assert isinstance(again, RunConfig)

    def test_defaults_are_normalized_into_the_echo(self):
        raw = base_config()
        del raw["observables"], raw["sampling"]
        config = parse_config(raw)
        assert config.mode == "fermi"
        assert config.boundary == "open"
        assert config.observables == ()
        assert config.sampling is None
        echoed = config.to_dict()
        assert "backend" not in echoed
        assert echoed["lattice"]["boundary"] == "open"
        assert echoed["sampling"] is None

    def test_sampling_epsilon_is_checked_then_dropped(self):
        # Older configs carry the accuracy their shot count was planned for; no estimate reads it.
        config = parse_config(base_config(sampling={"N": 200, "seed": 3, "epsilon": 0.05}))
        assert config == parse_config(base_config())
        assert config.to_dict()["sampling"] == {"N": 200, "seed": 3}

    @pytest.mark.parametrize(
        "mangle, needle",
        [
            (lambda r: r.pop("formalism"), "formalism"),
            (lambda r: r.update(formalism="third"), "formalism"),
            (lambda r: r.update(lattice={"m": 0}), "lattice.m"),
            (lambda r: r.update(lattice={"m": 2, "boundary": "ring"}), "boundary"),
            (lambda r: r.update(formalism="first", particles=[1, 2],
                                lattice={"m": 3}), "power of two"),
            (lambda r: r.update(mode="bose"), "bose"),
            (lambda r: r.update(particles=[]), "particles"),
            (lambda r: r.update(particles=[[1, "up"], [1, "up"]]), "twice"),
            (lambda r: r.update(particles=[[5, "up"]]), "site"),
            (lambda r: r.update(particles=[[1, "sideways"]]), "particles[0][1]"),
            (lambda r: r.update(formalism="first", particles=[3, 1]), "increasing"),
            (lambda r: r.update(formalism="first", particles=[1, 9]), "1..4"),
            (lambda r: r.update(plan={"t": 1.0, "r": 0}), "plan.r"),
            (lambda r: r.update(plan={"r": 4}), "plan.t"),
            (lambda r: r.update(params={"V0": 4.0}), "params.t0"),
            (lambda r: r.update(backend="tensor"), "backend"),
            (lambda r: r.update(surprise=1), "unknown fields"),
            (lambda r: r.update(sampling={"N": 0, "seed": 3}), "sampling.N"),
            (lambda r: r.update(sampling={"N": 10, "seed": -1}), "sampling.seed"),
            (lambda r: r.update(sampling={"N": 10, "seed": 3, "epsilon": 0.0}), "epsilon"),
            (lambda r: r.update(sampling={"N": 10, "seed": 3, "shots": 5}), "unknown fields"),
            (lambda r: r.update(observables=[{"kind": "entropy"}]), "kind"),
            (lambda r: r.update(observables=[{"kind": "pair_correlation",
                                              "sites": [1]}]), "sites"),
            (lambda r: r.update(observables=[{"kind": "pair_correlation",
                                              "sites": [1, 1]}]), "distinct"),
            (lambda r: r.update(observables=[{"kind": "k_point_correlation",
                                              "sites": [1, 2, 3, 4]}]), "sites"),
            (lambda r: r.update(observables=[{"kind": "k_point_correlation",
                                              "sites": [9]}]), "1..2"),
            (lambda r: r.update(observables=[{"kind": "momentum_distribution",
                                              "particle": 0}]), "first-quantized"),
            (lambda r: r.update(observables=[{"kind": "charge_density",
                                              "sites": [1]}]), "unknown fields"),
            (lambda r: r.update(plan={"t": 1e308, "r": 1}), "plan.t: the step angle"),
            (lambda r: r.update(sampling={"N": MAX_TRIALS + 1, "seed": 3}),
             f"sampling.N: must be <= {MAX_TRIALS}"),
            (lambda r: r.update(lattice={"m": MAX_SITES + 1}, backend="sparse"),
             f"lattice.m: site count must be <= {MAX_SITES}"),
            (lambda r: r.update(lattice={"m": 2, "bondary": "ring"}),
             "lattice: unknown fields ['bondary']"),
            (lambda r: r.update(params={"V0": 4.0, "t0": 1.0, "U": 2.0}),
             "params: unknown fields ['U']"),
            (lambda r: r.update(plan={"t": 1.0, "r": 8, "dt": 0.125}),
             "plan: unknown fields ['dt']"),
            (lambda r: r.update(plan={"t": 1.0, "r": MAX_STEPS + 1}), f"plan.r: must be <= {MAX_STEPS}"),
        ],
    )
    def test_schema_violations_name_their_path(self, mangle, needle):
        raw = base_config()
        mangle(raw)
        with pytest.raises(ConfigError, match=needle.replace("[", r"\[")):
            parse_config(raw)

    @pytest.mark.parametrize(
        "mangle, needle",
        [
            (lambda r: r.update(params={"V0": 10**400, "t0": 1.0}), "params.V0"),
            (lambda r: r.update(params={"V0": 4.0, "t0": -(10**400)}), "params.t0"),
            (lambda r: r.update(plan={"t": 10**400, "r": 8}), "plan.t"),
            (lambda r: r.update(plan={"t": 1.0, "r": 10**400}), "plan.r"),
            (lambda r: r.update(sampling={"N": 10, "seed": 3, "epsilon": 10**400}),
             "sampling.epsilon"),
            (lambda r: r.update(params={"V0": 1e308, "t0": 1.0}), "params.V0: the energy bound"),
            (lambda r: r.update(params={"V0": 4.0, "t0": -1e308}), "params.t0: the energy bound"),
            (lambda r: r.update(lattice={"m": 10**400}), "lattice.m: site count"),
        ],
    )
    def test_integers_past_float_range_name_their_path(self, mangle, needle):
        raw = base_config()
        mangle(raw)
        with pytest.raises(ConfigError, match=needle):
            parse_config(raw)

    def test_site_cap_is_a_first_quantized_size(self):
        for raw in (base_config(lattice={"m": MAX_SITES}, particles=[[1, "up"]], backend="sparse"),
                    base_config(formalism="first", lattice={"m": MAX_SITES}, particles=[1])):
            assert parse_config(raw).m == MAX_SITES

    def test_sampling_block_becomes_a_sampling_plan(self):
        config = parse_config(base_config())
        assert config.sampling == SamplingPlan(seed=3, n_trials=200)

    def test_seed_past_64_bits_rejected_at_parse_time(self):
        with pytest.raises(ConfigError, match="sampling.seed"):
            parse_config(base_config(sampling={"N": 10, "seed": 2**64}))

    def test_first_quantized_particle_limit(self):
        raw = base_config(formalism="first", lattice={"m": 8}, particles=list(range(1, 10)))
        with pytest.raises(ConfigError, match="particles"):
            parse_config(raw)
        raw["particles"] = list(range(1, 9))
        assert len(parse_config(raw).particles) == 8

    def test_momentum_particle_range_checked(self):
        raw = base_config(
            formalism="first",
            lattice={"m": 4},
            particles=[1, 2],
            observables=[{"kind": "momentum_distribution", "particle": 2}],
        )
        with pytest.raises(ConfigError, match="particle"):
            parse_config(raw)

    def test_booleans_are_not_integers(self):
        raw = base_config(lattice={"m": True})
        with pytest.raises(ConfigError, match="lattice.m"):
            parse_config(raw)

    @pytest.mark.parametrize(
        "path", SHIPPED_CONFIGS, ids=lambda p: str(p.relative_to(REPO_ROOT))
    )
    def test_every_shipped_config_parses(self, path):
        # The example configs and the benchmark's workloads and probes, read only.
        parse_config(json.loads(path.read_text()))


# ------------------------------------------------------------- config fuzz
# One valid config per formalism, then a few field-level edits: a field set to
# an arbitrary JSON value, or deleted.  The paths reach into every nested block.
VALID_CONFIGS = {
    "second": base_config(backend="dense", mode="fermi",
                          observables=[{"kind": "pair_correlation", "sites": [1, 2]}]),
    "first": base_config(formalism="first", lattice={"m": 4, "boundary": "open"}, particles=[1, 4],
                         observables=[{"kind": "momentum_distribution", "particle": 0}],
                         sampling={"N": 50, "seed": 1, "epsilon": 0.2}, backend="sparse", mode="bose"),
}
FIELD_PATHS = (
    ("formalism",), ("lattice",), ("lattice", "m"), ("lattice", "boundary"), ("params",),
    ("params", "V0"), ("params", "t0"), ("particles",), ("particles", 0), ("particles", 0, 1),
    ("plan",), ("plan", "t"), ("plan", "r"), ("observables",), ("observables", 0),
    ("observables", 0, "kind"), ("observables", 0, "sites"), ("observables", 0, "particle"),
    ("sampling",), ("sampling", "N"), ("sampling", "seed"), ("sampling", "epsilon"),
    ("backend",), ("mode",), ("extra",),
)
DELETE = object()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(("dense", "sparse", "first", "second", "up", "down", "open", "bose",
                       "charge_density", "energy", "momentum_distribution", "k_point_correlation")),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _edit(raw, path, value):
    """Set (or delete) the field at `path`; a path through a replaced block is skipped."""
    node = raw
    for key in path[:-1]:
        try:
            node = node[key]
        except (KeyError, IndexError, TypeError):
            return
    key = path[-1]
    if isinstance(node, dict) and isinstance(key, str):
        if value is DELETE:
            node.pop(key, None)
        else:
            node[key] = value
    elif isinstance(node, list) and isinstance(key, int) and key < len(node):
        if value is DELETE:
            del node[key]
        else:
            node[key] = value


@settings(max_examples=200)
@given(formalism=st.sampled_from(sorted(VALID_CONFIGS)),
       edits=st.lists(st.tuples(st.sampled_from(FIELD_PATHS), JSON_VALUES | st.just(DELETE)),
                      min_size=1, max_size=4))
def test_field_edits_parse_or_raise_config_error(formalism, edits):
    """parse_config returns a RunConfig or raises ConfigError, whatever the fields hold."""
    raw = copy.deepcopy(VALID_CONFIGS[formalism])
    for path, value in edits:
        _edit(raw, path, value)
    try:
        config = parse_config(raw)
    except ConfigError:
        return
    assert isinstance(config, RunConfig)


# Field-level edits of the shipped example configs, run end to end.  The values
# come from a small pool, so an accepted edit stays a run of milliseconds.
EXAMPLE_CONFIGS = {path.stem: json.loads(path.read_text())
                   for path in sorted((REPO_ROOT / "configs").glob("*.json"))}
SMALL_JSON_VALUES = st.recursive(
    st.sampled_from((None, True, False, -1, 0, 1, 2, 3, 4, 8, 64, 0.0, 0.5, -2.5, 1e308,
                     float("nan"), float("inf"), "", "up", "down", "first", "second", "open",
                     "fermi", "bose", "dense", "charge_density", "pair_correlation",
                     "k_point_correlation", "momentum_distribution", "energy")),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(("kind", "sites", "particle", "m", "N", "seed", "t", "r")),
                      inner, max_size=3),
    max_leaves=5,
)


# Values most numeric fields accept, drawn as often as the pool, so that
# many edited documents run rather than exit 2.
PLAUSIBLE_VALUES = st.sampled_from((1, 2, 4, 8, 0.5, [1, 2], [2, "down"]))


@settings(max_examples=100)
@given(name=st.sampled_from(sorted(EXAMPLE_CONFIGS)),
       edits=st.lists(st.tuples(st.sampled_from(FIELD_PATHS),
                                PLAUSIBLE_VALUES | SMALL_JSON_VALUES | st.just(DELETE)),
                      min_size=1, max_size=3))
def test_field_edits_of_the_examples_evolve_or_exit_with_a_code(name, edits):
    """`fermisim evolve` exits 0, 1 or 2 on any edited document, and raises nothing."""
    raw = copy.deepcopy(EXAMPLE_CONFIGS[name])
    for path, value in edits:
        _edit(raw, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        config, output = Path(tmp) / "run.json", Path(tmp) / "out.json"
        config.write_text(json.dumps(raw))
        code = main(["evolve", "--config", str(config), "--output", str(output)])
        assert code in (0, 1, 2)
        assert output.exists() == (code == 0)


class TestEvolve:
    def test_success_writes_document_and_csv(self, tmp_path):
        code, output = run_evolve(tmp_path, base_config())
        assert code == 0
        document = json.loads(output.read_text())
        assert document["library_version"]
        assert document["seed"] == 3
        assert document["op_counts"]["total"] > 0
        assert document["wall_time_s"] > 0
        assert output.with_suffix(".csv").exists()

    def test_rerun_identical_except_wall_time(self, tmp_path):
        _, first = run_evolve(tmp_path, base_config())
        text_a = first.read_text()
        first.unlink()
        _, second = run_evolve(tmp_path, base_config())
        text_b = second.read_text()
        keep = lambda text: [l for l in text.splitlines() if "wall_time_s" not in l]
        assert keep(text_a) == keep(text_b)
        doc_a, doc_b = json.loads(text_a), json.loads(text_b)
        doc_a.pop("wall_time_s"), doc_b.pop("wall_time_s")
        assert doc_a == doc_b

    def test_zero_time_run_reproduces_initial_occupancy(self, tmp_path):
        raw = base_config(plan={"t": 0.0, "r": 1}, sampling=None)
        code, output = run_evolve(tmp_path, raw)
        assert code == 0
        (density,) = json.loads(output.read_text())["observables"]
        values = {row["index"]: row["exact"] for row in density["values"]}
        assert values == {1: 1.0, 2: 1.0}

    def test_density_table_sums_to_particle_count(self, tmp_path):
        # Same-spin electrons can never doubly occupy a site, so the 0/1
        # occupation indicators add up to exactly n at any evolution time.
        raw = base_config(plan={"t": 0.7, "r": 16}, sampling=None)
        code, output = run_evolve(tmp_path, raw)
        assert code == 0
        (density,) = json.loads(output.read_text())["observables"]
        total = sum(row["exact"] for row in density["values"])
        assert abs(total - 2.0) < 1e-10

    def test_first_quantized_round_trip(self, tmp_path):
        raw = base_config(
            formalism="first",
            lattice={"m": 4},
            particles=[1, 4],
            observables=[
                {"kind": "charge_density"},
                {"kind": "momentum_distribution", "particle": 1},
                {"kind": "energy"},
            ],
        )
        code, output = run_evolve(tmp_path, raw)
        assert code == 0
        document = json.loads(output.read_text())
        kinds = [obs["kind"] for obs in document["observables"]]
        assert kinds == ["charge_density", "momentum_distribution", "energy"]
        momentum = document["observables"][1]
        assert [row["index"] for row in momentum["values"]] == [0, 1, 2, 3]
        assert abs(sum(row["exact"] for row in momentum["values"]) - 1.0) < 1e-9
        energy = document["observables"][2]
        assert abs(energy["potential"] + energy["kinetic"] - energy["total"]) < 1e-8

    def test_backend_field_is_accepted_without_effect(self, tmp_path, capsys):
        """Older configs say "backend": either value gives the same document.  The flag is gone."""
        documents = []
        for backend in ("dense", "sparse"):
            code, out = run_evolve(tmp_path, base_config(backend=backend))
            assert code == 0
            documents.append(json.loads(out.read_text()))
            documents[-1].pop("wall_time_s")
        assert documents[0] == documents[1]
        assert "backend" not in documents[0]["config"]
        with pytest.raises(SystemExit) as exit_info:
            run_evolve(tmp_path, base_config(), "--backend", "sparse")
        assert exit_info.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_seed_override_changes_echo_and_estimates(self, tmp_path):
        code, output = run_evolve(tmp_path, base_config(), "--seed", "99")
        assert code == 0
        document = json.loads(output.read_text())
        assert document["seed"] == 99
        assert document["config"]["sampling"]["seed"] == 99

    def test_sampled_run_never_imports_numpy_random(self, tmp_path):
        """The shots come from fermisim's own generator; numpy.random stays unloaded."""
        done, output = evolve_in_subprocess(
            tmp_path, "def hook():\n    print('numpy.random' in sys.modules)\n")
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False"]
        assert any(row["sampled"] is not None for row in json.loads(output.read_text())["observables"][0]["values"])

    def test_frozen_heap_leaves_collection_and_outputs_whole(self, tmp_path):
        """After a full run, the import-time heap is frozen, GC still runs, and both outputs are complete."""
        hook = (
            "def hook():\n"
            "    import csv, gc, json, pathlib, weakref\n"
            "    class Node:\n"
            "        pass\n"
            "    node = Node()\n"
            "    node.self = node\n"
            "    alive = weakref.ref(node)\n"
            "    del node\n"
            "    gc.collect()\n"
            "    output = pathlib.Path(sys.argv[-1])\n"
            "    with output.with_suffix('.csv').open(newline='') as handle:\n"
            "        rows = list(csv.reader(handle))\n"
            "    print(json.dumps({'frozen': gc.get_freeze_count(), 'enabled': gc.isenabled(),\n"
            "                      'cycle_collected': alive() is None,\n"
            "                      'document': json.loads(output.read_text()), 'rows': rows}))\n"
        )
        done, output = evolve_in_subprocess(tmp_path, hook)
        assert done.returncode == 0, done.stderr
        seen = json.loads(done.stdout)
        assert seen["frozen"] > 0
        assert seen["enabled"]
        assert seen["cycle_collected"]
        document = json.loads(output.read_text())
        assert seen["document"] == document
        values = document["observables"][0]["values"]
        assert seen["rows"][0] == ["observable", "index", "exact", "sampled", "stderr"]
        assert [(row[0], row[1], float(row[2])) for row in seen["rows"][1:]] == [
            ("charge_density", str(v["index"]), v["exact"]) for v in values]

    def test_run_never_imports_dataclasses(self, tmp_path):
        """The value classes compile no code at start-up, so `dataclasses` stays unloaded."""
        done, output = evolve_in_subprocess(
            tmp_path, "def hook():\n    print('dataclasses' in sys.modules)\n")
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False"]
        assert output.exists()

    def test_seed_override_without_sampling_block_is_a_user_error(self, tmp_path, capsys):
        code, _ = run_evolve(tmp_path, base_config(sampling=None), "--seed", "99")
        assert code == 2
        assert "sampling" in capsys.readouterr().err

    def test_seed_override_past_64_bits_is_a_user_error(self, tmp_path, capsys):
        code, output = run_evolve(tmp_path, base_config(), "--seed", str(2**64))
        assert code == 2
        assert "--seed" in capsys.readouterr().err
        assert not output.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["evolve", "--config", str(tmp_path / "absent.json"),
                     "--output", str(tmp_path / "out.json")])
        assert code == 2
        assert "cannot read config" in capsys.readouterr().err

    @pytest.mark.parametrize("where", sorted(UNWRITABLE))
    def test_unwritable_output_exits_two_without_traceback(self, tmp_path, capsys, where):
        output = UNWRITABLE[where](tmp_path)
        config = tmp_path / "run.json"
        config.write_text(json.dumps(base_config()))
        code = main(["evolve", "--config", str(config), "--output", str(output)])
        assert_output_refused(code, capsys, output)

    @pytest.mark.parametrize("before", [None, "an earlier result\n"], ids=["no json", "earlier json"])
    def test_unwritable_csv_leaves_the_json_path_as_it_was(self, tmp_path, capsys, before):
        (tmp_path / "out.csv").mkdir()
        output = tmp_path / "out.json"
        if before is not None:
            output.write_text(before)
        code, _ = run_evolve(tmp_path, base_config())
        assert_output_refused(code, capsys, tmp_path / "out.csv")
        assert (output.read_text() if output.exists() else None) == before
        left = {"out.csv", "run.json"} | ({output.name} if before else set())
        assert {path.name for path in tmp_path.iterdir()} == left  # and no temporary

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        config = tmp_path / "broken.json"
        config.write_text('{"formalism": "second",,}')
        code = main(["evolve", "--config", str(config),
                     "--output", str(tmp_path / "out.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "broken.json:1:" in err

    def test_schema_violation_exits_two_with_path(self, tmp_path, capsys):
        code, _ = run_evolve(tmp_path, base_config(particles=[[5, "up"]]))
        assert code == 2
        assert "particles[0][0]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "raw, extra, needle",
        [
            (base_config(plan={"t": 1e308, "r": 1}), (), ": plan.t:"),
            (base_config(plan={"t": 1.0, "r": 2**64}), (), ": plan.r:"),
        ],
    )
    def test_capability_limits_rejected_before_the_run(self, tmp_path, capsys, raw, extra, needle):
        code, output = run_evolve(tmp_path, raw, *extra)
        err = capsys.readouterr().err
        assert code == 2
        assert needle in err and "Traceback" not in err
        assert not output.exists()

    def test_state_wider_than_the_old_dense_cap_runs(self, tmp_path):
        # m = 14 is 28 qubits; a default config used to ask for a 2**28-slot
        # index here and exit 2 naming `backend`.
        code, output = run_evolve(tmp_path, base_config(lattice={"m": 14}, particles=[[1, "up"]]))
        assert code == 0
        assert json.loads(output.read_text())["config"]["lattice"]["m"] == 14

    def test_overflowing_energy_exits_two_without_traceback(self, tmp_path, capsys):
        # V0 = 1e308 on four particles made the energy readout write
        # "potential": Infinity, "total": NaN and exit 0.
        raw = base_config(
            params={"V0": 1e308, "t0": 1.0},
            particles=[[1, "up"], [1, "down"], [2, "up"], [2, "down"]],
            plan={"t": 1e-300, "r": 1},
            observables=[{"kind": "energy"}],
            backend="sparse",
        )
        del raw["sampling"]
        code, output = run_evolve(tmp_path, raw)
        err = capsys.readouterr().err
        assert code == 2
        assert ": params.V0: the energy bound" in err
        assert "Traceback" not in err
        assert not output.exists()

    def test_lattice_past_the_site_cap_exits_two_without_traceback(self, tmp_path, capsys):
        # m = 10**30 passed parse_config and then built an m - 1 neighbour tuple.
        raw = base_config(lattice={"m": 10**30}, particles=[[1, "up"]], backend="sparse")
        code, output = run_evolve(tmp_path, raw)
        err = capsys.readouterr().err
        assert code == 2
        assert ": lattice.m: site count" in err
        assert "Traceback" not in err
        assert not output.exists()

    @pytest.mark.parametrize(
        "data",
        [
            # json.loads refuses an integer of more than 4300 digits with a plain ValueError.
            json.dumps(base_config(lattice={"m": 0})).replace('"m": 0', '"m": ' + "1" * 5000).encode(),
            b'{"formalism": "\xff"}',
            # Nesting past the recursion limit makes json.loads raise RecursionError.
            b"[" * 200000 + b"]" * 200000,
        ],
        ids=["5000-digit-lattice-m", "not-utf8", "200000-deep-nesting"],
    )
    def test_undecodable_config_exits_two_without_traceback(self, tmp_path, capsys, data):
        config = tmp_path / "run.json"
        config.write_bytes(data)
        output = tmp_path / "out.json"
        code = main(["evolve", "--config", str(config), "--output", str(output)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {config}: ") and len(err.splitlines()) == 1
        assert not output.exists()

    def test_value_error_after_the_config_is_accepted_is_an_internal_error(
        self, tmp_path, monkeypatch, capsys
    ):
        def broken_stage(*args, **kwargs):
            raise ValueError("stage broke")

        monkeypatch.setattr(cli, "trotter_evolve", broken_stage)
        code, output = run_evolve(tmp_path, base_config())
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: internal error: stage broke\n"
        assert not output.exists()

    def test_csv_columns_and_rows(self, tmp_path):
        raw = base_config(observables=[
            {"kind": "charge_density"},
            {"kind": "pair_correlation", "sites": [1, 2]},
            {"kind": "energy"},
        ])
        code, output = run_evolve(tmp_path, raw)
        assert code == 0
        with output.with_suffix(".csv").open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["observable", "index", "exact", "sampled", "stderr"]
        labels = [(r[0], r[1]) for r in rows[1:]]
        assert labels == [
            ("charge_density", "1"),
            ("charge_density", "2"),
            ("pair_correlation", "1-2"),
            ("energy", "potential"),
            ("energy", "kinetic"),
            ("energy", "total"),
        ]
        for row in rows[1:3]:
            assert row[3] != "" and row[4] != ""  # sampled columns filled
        for row in rows[4:]:
            assert row[3] == "" and row[4] == ""  # energy is exact-only
        exact = {(r[0], r[1]): float(r[2]) for r in rows[1:]}
        document = json.loads(output.read_text())
        energy = document["observables"][2]
        assert exact[("energy", "total")] == pytest.approx(energy["total"], abs=0)

    @pytest.mark.parametrize(
        "raw",
        [
            base_config(lattice={"m": 8}, plan={"t": 1.0, "r": 1},
                        particles=[[s, "up" if s % 2 else "down"] for s in range(1, 9)],
                        observables=[{"kind": "energy"}], backend="dense"),
            base_config(formalism="first", lattice={"m": 16}, particles=[1, 4, 7],
                        plan={"t": 1.0, "r": 1}, observables=[{"kind": "energy"}],
                        backend="sparse"),
            # The site cap: a dense 2m x 2m hop matrix here would need 16 GiB.
            base_config(formalism="first", lattice={"m": 16384}, particles=[1, 4],
                        plan={"t": 1.0, "r": 1}, observables=[{"kind": "energy"}],
                        sampling=None, backend="sparse"),
        ],
        ids=["sq-m8-dense", "fq-n3-m16-sparse", "fq-n2-m16384-sparse"],
    )
    def test_energy_runs_past_the_dense_oracle_caps(self, tmp_path, raw, capsys):
        code, output = run_evolve(tmp_path, raw)
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err
        (energy,) = json.loads(output.read_text())["observables"]
        assert abs(energy["potential"] + energy["kinetic"] - energy["total"]) <= ENERGY_SPLIT_TOL

    def test_validation_mode_flag_still_succeeds(self, tmp_path):
        raw = base_config(formalism="first", lattice={"m": 2},
                          particles=[1, 2], plan={"t": 0.3, "r": 4},
                          observables=[], sampling=None)
        code, _ = run_evolve(tmp_path, raw)
        assert code == 0
        config = tmp_path / "run.json"
        out2 = tmp_path / "out2.json"
        code = main(["--validation-mode", "evolve", "--config", str(config),
                     "--output", str(out2)])
        assert code == 0

    @pytest.mark.parametrize(
        "path", SHIPPED_CONFIGS, ids=lambda p: str(p.relative_to(REPO_ROOT))
    )
    def test_validation_mode_writes_the_production_outputs(self, tmp_path, path):
        """Every shipped config, read only: the checks behind each write change no output but the wall time."""
        outputs = []
        for flags in ([], ["--validation-mode"]):  # validation mode stays on once set
            output = tmp_path / f"out{len(outputs)}.json"
            assert main([*flags, "evolve", "--config", str(path), "--output", str(output)]) == 0
            lines = [l for l in output.read_text().splitlines() if "wall_time_s" not in l]
            outputs.append((lines, output.with_suffix(".csv").read_text()))
        assert outputs[0] == outputs[1]


# The benchmark's `readout` workload, copied: three momentum readouts and four
# sampled site readouts of one state, under one (seed, N).
READOUT = {
    "formalism": "first",
    "lattice": {"m": 8, "boundary": "open"},
    "params": {"V0": 4.0, "t0": 1.0},
    "particles": [1, 4, 7],
    "plan": {"t": 1.0, "r": 8},
    "observables": [
        {"kind": "charge_density"},
        {"kind": "momentum_distribution", "particle": 0},
        {"kind": "momentum_distribution", "particle": 1},
        {"kind": "momentum_distribution", "particle": 2},
        {"kind": "pair_correlation", "sites": [1, 2]},
        {"kind": "k_point_correlation", "sites": [2, 4, 6]},
        {"kind": "k_point_correlation", "sites": [3, 5, 7]},
        {"kind": "energy"},
    ],
    "sampling": {"N": 200000, "seed": 0},
    "backend": "dense",
    "mode": "fermi",
}
STAGE_FUNCTIONS = ("charge_density", "k_point_correlation", "momentum_distribution", "expected_energy")


class TestReadoutWork:
    """Work counts of one readout run, by counting calls; no timings."""

    def test_one_transform_per_momentum_entry_one_batch_one_stage_call_per_entry(self, monkeypatch):
        depth, roots, qfts = [0], Counter(), []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                if depth[0] == 0:
                    roots[name] += 1
                depth[0] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[0] -= 1
            return wrapper

        # Every reference, as the benchmark rebinds them: nested calls are not roots.
        for name in STAGE_FUNCTIONS:
            wrapped = counted(name, getattr(observables, name))
            monkeypatch.setattr(observables, name, wrapped)
            monkeypatch.setattr(cli, name, wrapped)
        qft = QuantumState.qft_register

        def qft_counted(self, name):
            qfts.append(name)
            qft(self, name)

        monkeypatch.setattr(QuantumState, "qft_register", qft_counted)
        entries = []
        evaluate = cli._evaluate

        def evaluate_once(entry, *args):
            before = sum(roots.values())
            result = evaluate(entry, *args)
            entries.append((entry["kind"], sum(roots.values()) - before))
            return result

        monkeypatch.setattr(cli, "_evaluate", evaluate_once)
        _sorted_uniforms.cache_clear()
        cli.execute_run(parse_config(READOUT))

        assert qfts == ["pos0", "pos1", "pos2"]
        assert _sorted_uniforms.cache_info().misses == 1
        assert entries == [(entry["kind"], 1) for entry in READOUT["observables"]]
        assert roots == {"charge_density": 1, "momentum_distribution": 3,
                         "k_point_correlation": 3, "expected_energy": 1}


class TestAntisym:
    def run(self, tmp_path, labels, mode="fermi"):
        output = tmp_path / "map.json"
        code = main(["antisym", "--labels", labels, "--mode", mode,
                     "--output", str(output)])
        return code, output

    def test_three_particle_map(self, tmp_path):
        code, output = self.run(tmp_path, "1,3,4")
        assert code == 0
        document = json.loads(output.read_text())
        assert document["n"] == 3
        assert document["fidelity"] >= 1.0 - 1e-10
        assert len(document["amplitudes"]) == 6
        magnitude = 1.0 / np.sqrt(6.0)
        for entry in document["amplitudes"]:
            assert sorted(entry["labels"]) == [1, 3, 4]
            assert abs(abs(entry["re"]) - magnitude) < 1e-12
            assert abs(entry["im"]) < 1e-12

    def test_single_label_is_identity(self, tmp_path):
        code, output = self.run(tmp_path, "2")
        assert code == 0
        document = json.loads(output.read_text())
        assert document["amplitudes"] == [{"labels": [2], "re": 1.0, "im": 0.0}]
        assert document["fidelity"] == pytest.approx(1.0, abs=1e-12)

    def test_bose_mode_has_uniform_signs(self, tmp_path):
        code, output = self.run(tmp_path, "1,2", mode="bose")
        assert code == 0
        document = json.loads(output.read_text())
        assert document["fidelity"] >= 1.0 - 1e-10
        assert all(entry["re"] > 0 for entry in document["amplitudes"])

    @pytest.mark.parametrize("labels", ["3,1", "1,1", "0,2", "x,y", ""])
    def test_bad_labels_exit_two(self, tmp_path, labels, capsys):
        code, _ = self.run(tmp_path, labels)
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("labels,branches", [("1,2,3,4,5,9", 720), ("1,2,3,4,5,6,300", 5040)])
    def test_labels_past_the_old_table_cap(self, tmp_path, labels, branches):
        code, output = self.run(tmp_path, labels)
        assert code == 0
        document = json.loads(output.read_text())
        assert len(document["amplitudes"]) == branches
        assert abs(document["fidelity"] - 1.0) < 1e-10

    @pytest.mark.parametrize("labels,branches", [(f"{2**62}", 1), (f"1,{2**62}", 2), (f"3,7,{2**40}", 6)])
    def test_a_word_holds_labels_up_to_two_to_the_62(self, tmp_path, labels, branches):
        # A word stores label - 1, so 62 bits reach label 2**62.
        code, output = self.run(tmp_path, labels)
        assert code == 0
        document = json.loads(output.read_text())
        assert len(document["amplitudes"]) == branches
        assert all(sorted(entry["labels"]) == document["labels"] for entry in document["amplitudes"])
        assert abs(document["fidelity"] - 1.0) < 1e-10

    def test_label_past_two_to_the_62_is_named(self, tmp_path, capsys):
        code, output = self.run(tmp_path, f"1,{2**62 + 1}")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(2**62 + 1) in err
        assert not output.exists()

    @pytest.mark.parametrize("labels", ["1,2,3,4,5,6,7,8,9", f"1,{2**70}"])
    def test_unsupported_labels_exit_two_without_traceback(self, tmp_path, labels, capsys):
        code, output = self.run(tmp_path, labels)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert not output.exists()

    @pytest.mark.parametrize("where", sorted(UNWRITABLE))
    def test_unwritable_output_exits_two_without_traceback(self, tmp_path, capsys, where):
        output = UNWRITABLE[where](tmp_path)
        code = main(["antisym", "--labels", "1,3", "--output", str(output)])
        assert_output_refused(code, capsys, output)

    def test_mode_validated_when_called_directly(self, tmp_path, capsys):
        code = cmd_antisym(("1", "2"), "anyonic", str(tmp_path / "map.json"))
        assert code == 2
        assert "anyonic" in capsys.readouterr().err


class TestValidateCommand:
    def test_unknown_suite_exits_two(self, capsys):
        assert main(["validate", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown suite" in err
        assert "antisym" in err  # the message lists what exists

    def test_known_suite_prints_table_and_passes(self, capsys):
        assert main(["validate", "scaling"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["suite", "check", "measured", "bound", "result"]
        assert all(line.endswith("pass") for line in lines[2:])


# The collector as the importer left it (the line run before `import
# fermisim`), and what the import must leave: the collector on or off as
# before, and exactly the objects frozen before still frozen.
IMPORT_GC_CASES = {"enabled": "", "disabled": "gc.disable()", "caller froze": "gc.freeze()"}


@pytest.mark.parametrize("before", IMPORT_GC_CASES.values(), ids=IMPORT_GC_CASES.keys())
def test_package_import_leaves_the_collector_as_it_was(before):
    script = (
        "import gc, json, sys\n"
        + before + "\n"
        "state = [gc.isenabled(), gc.get_freeze_count()]\n"
        "import fermisim\n"
        "print(json.dumps({'before': state, 'after': [gc.isenabled(), gc.get_freeze_count()],\n"
        "                  'cli': 'fermisim.cli' in sys.modules}))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=subprocess_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert seen["after"] == seen["before"]
    assert seen["before"][0] == (before != "gc.disable()")
    assert (seen["before"][1] > 0) == (before == "gc.freeze()")
    assert not seen["cli"]


def test_public_names_are_package_attributes_listed_once():
    import fermisim

    assert [name for name in fermisim.__all__ if not hasattr(fermisim, name)] == []
    assert len(set(fermisim.__all__)) == len(fermisim.__all__)
    # Deleted from the package: no stale export may name them.
    assert not {"QuWordLayout", "inner_product"} & set(fermisim.__all__)


# FERMISIM_THREADS values and whether each is a thread count.  The package
# import passes the accepted ones to the BLAS pools and ignores the rest;
# cli.main exits 2 on the rest.  "²" passes str.isdigit but not int(); "٣"
# (Arabic-Indic three) passes both, but the BLAS pools would not read it.
# The last two have more digits than int() parses by default (4300).
THREAD_COUNTS = (("1", True), ("2", True), ("01", True), ("0", False), (" 1", False),
                 ("many", False), ("²", False), ("٣", False), ("1" * 5000, False),
                 ("0" * 4999 + "1", False))
BLAS_POOL_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class TestThreadEnvVar:
    def test_garbage_thread_count_exits_two(self, monkeypatch, capsys):
        for value in (value for value, accepted in THREAD_COUNTS if not accepted):
            monkeypatch.setenv("FERMISIM_THREADS", value)
            assert main(["validate", "scaling"]) == 2
            assert "FERMISIM_THREADS" in capsys.readouterr().err

    def test_package_import_ignores_a_non_ascii_digit(self):
        # One interpreter imports the package under "²", then re-runs its
        # import for every value and reports what reached the pool variables.
        script = (
            "import importlib, json, os, sys\n"
            "import fermisim\n"
            "seen = {}\n"
            "for value in json.loads(sys.argv[1]):\n"
            f"    for var in {BLAS_POOL_VARS!r}:\n"
            "        os.environ.pop(var, None)\n"
            "    os.environ['FERMISIM_THREADS'] = value\n"
            "    importlib.reload(fermisim)\n"
            f"    seen[value] = [os.environ.get(var) for var in {BLAS_POOL_VARS!r}]\n"
            "print(json.dumps(seen))\n"
        )
        values = [value for value, _ in THREAD_COUNTS]
        done = subprocess.run([sys.executable, "-c", script, json.dumps(values)], capture_output=True,
                              text=True, env=subprocess_env(FERMISIM_THREADS="²"), timeout=120)
        assert done.returncode == 0, done.stderr
        seen = json.loads(done.stdout)
        for value, accepted in THREAD_COUNTS:
            assert seen[value] == [value if accepted else None] * len(BLAS_POOL_VARS), value

    def test_valid_thread_count_is_accepted(self, monkeypatch):
        for value in (value for value, accepted in THREAD_COUNTS if accepted):
            monkeypatch.setenv("FERMISIM_THREADS", value)
            assert main(["validate", "scaling"]) == 0
