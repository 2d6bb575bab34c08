"""End-to-end checks of the command-line front end.

Everything goes through cli.main or the subcommand functions with temp files,
asserting on exit codes, written documents, and the error channel.  The
contract under test: 0 success, 1 internal invariant, 2 user error; reruns of
the same config and seed are byte-identical except for wall time.
"""

import csv
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from fermisim import cli, observables
from fermisim.cli import MAX_SITES, ConfigError, RunConfig, cmd_antisym, main, parse_config
from fermisim.observables import ENERGY_SPLIT_TOL, SamplingPlan
from fermisim.state import MAX_TRIALS, QuantumState, _sorted_uniforms, set_validation_mode


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
        assert config.backend == "dense"
        assert config.mode == "fermi"
        assert config.boundary == "open"
        assert config.observables == ()
        assert config.sampling is None
        echoed = config.to_dict()
        assert echoed["lattice"]["boundary"] == "open"
        assert echoed["sampling"] is None

    def test_sampling_epsilon_defaults(self):
        config = parse_config(base_config())
        assert config.sampling.epsilon == 0.1

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
        assert config.sampling == SamplingPlan(seed=3, n_trials=200, epsilon=0.1)

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

    def test_backend_override_is_echoed_and_equivalent(self, tmp_path):
        code_dense, out = run_evolve(tmp_path, base_config())
        doc_dense = json.loads(out.read_text())
        out.unlink()
        code_sparse, out = run_evolve(tmp_path, base_config(), "--backend", "sparse")
        doc_sparse = json.loads(out.read_text())
        assert code_dense == code_sparse == 0
        assert doc_sparse["config"]["backend"] == "sparse"
        doc_sparse["config"]["backend"] = "dense"
        doc_dense.pop("wall_time_s"), doc_sparse.pop("wall_time_s")
        assert doc_dense == doc_sparse

    def test_seed_override_changes_echo_and_estimates(self, tmp_path):
        code, output = run_evolve(tmp_path, base_config(), "--seed", "99")
        assert code == 0
        document = json.loads(output.read_text())
        assert document["seed"] == 99
        assert document["config"]["sampling"]["seed"] == 99

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
            (base_config(lattice={"m": 14}), (), ": backend:"),
            (base_config(formalism="first", lattice={"m": 8}, particles=list(range(1, 8))),
             (), ": backend:"),
            (base_config(lattice={"m": 14}, backend="sparse"), ("--backend", "dense"),
             ": --backend:"),
        ],
    )
    def test_capability_limits_rejected_before_the_run(self, tmp_path, capsys, raw, extra, needle):
        code, output = run_evolve(tmp_path, raw, *extra)
        assert code == 2
        assert needle in capsys.readouterr().err
        assert not output.exists()

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
        ],
        ids=["sq-m8-dense", "fq-n3-m16-sparse"],
    )
    def test_energy_runs_past_the_dense_oracle_caps(self, tmp_path, raw):
        code, output = run_evolve(tmp_path, raw)
        assert code == 0
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

    @pytest.mark.parametrize("labels", ["1,2,3,4,5,6,7,8,9", f"1,{2**70}"])
    def test_unsupported_labels_exit_two_without_traceback(self, tmp_path, labels, capsys):
        code, output = self.run(tmp_path, labels)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert not output.exists()

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


class TestThreadEnvVar:
    def test_garbage_thread_count_exits_two(self, monkeypatch, capsys):
        monkeypatch.setenv("FERMISIM_THREADS", "many")
        assert main(["validate", "scaling"]) == 2
        assert "FERMISIM_THREADS" in capsys.readouterr().err

    def test_valid_thread_count_is_accepted(self, monkeypatch):
        monkeypatch.setenv("FERMISIM_THREADS", "2")
        assert main(["validate", "scaling"]) == 0
