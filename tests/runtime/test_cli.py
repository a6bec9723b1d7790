"""Tests for the ``repro-campaign`` console entry point."""

import argparse
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments.campaign import (
    DEFAULT_BATCH_SIZE,
    clear_caches,
    run_campaign,
)
from repro.runtime.cli import build_parser, main
from repro.sim.sweeps import SAMPLERS

COMMANDS = ("table2", "run", "sweep", "search", "train", "resume", "scenarios")

#: Environment for ``python -m repro.runtime.cli`` subprocesses: the package
#: importable from the same source tree as this pytest process.
_SUBPROCESS_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        [str(Path(repro.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    ),
}

#: The chunk flag's default: the library's own.
_ENGINE = dict(batch_size=DEFAULT_BATCH_SIZE)

#: Minimal argv per subcommand and the defaults it must parse to.
_DEFAULTS = {
    "table2": (
        [],
        dict(predictor="neural", fusion=None, runs=10, seed=2020, jobs=0,
             store=None, **_ENGINE),
    ),
    "run": (
        ["--scenario", "DS-1"],
        dict(attacker="robotack", vector=None, predictor="neural", fusion=None,
             runs=10, seed=2020, jobs=0, store=None, **_ENGINE),
    ),
    "sweep": (
        ["--scenario", "DS-1", "--store", "/unused"],
        dict(attacker="none", vector=None, predictor="neural", fusion=None,
             runs=3, seed=2020, jobs=0, sampler="lhs", param=None, **_ENGINE),
    ),
    "search": (
        ["--scenario", "DS-3", "--store", "/unused"],
        dict(attacker="robotack", vector=None, predictor="neural", fusion=None,
             runs=3, seed=2020, jobs=0, sampler="ce", param=None, **_ENGINE),
    ),
    "train": (
        ["--scenario", "DS-2", "--vector", "disappear", "--store", "/unused"],
        dict(seed=7, repeats=2, epochs=200, learning_rate=1e-3, jobs=0, force=False),
    ),
    "resume": (
        ["--store", "/unused"],
        dict(fusion=None, jobs=0, **_ENGINE),
    ),
    "scenarios": ([], {}),
}


def _subparsers(parser: argparse.ArgumentParser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


class TestParserStructure:
    def test_subcommands(self):
        assert tuple(_subparsers(build_parser())) == COMMANDS

    def test_top_level_parser_declares_only_help(self):
        options = [a.option_strings for a in build_parser()._actions if a.option_strings]
        assert options == [["-h", "--help"]]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_lists_every_option_once(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        listed = []
        for line in capsys.readouterr().out.splitlines():
            if line.startswith("  -"):
                invocation = re.split(r"\s{2,}", line.strip())[0]
                listed += re.findall(r"(?<![\w-])--?[a-z][\w-]*", invocation)
        declared = [
            option
            for action in _subparsers(build_parser())[command]._actions
            for option in action.option_strings
        ]
        assert len(listed) == len(set(listed))
        assert sorted(listed) == sorted(declared)

    def test_sweep_sampler_choices_are_the_sweep_samplers(self):
        (sampler,) = [
            action for action in _subparsers(build_parser())["sweep"]._actions
            if "--sampler" in action.option_strings
        ]
        assert sampler.choices == tuple(SAMPLERS) == ("grid", "random", "lhs")

    def test_defaults_hold_for_every_subcommand(self):
        # One parser, every subcommand: a default shared through one argparse
        # Action would show up here as the last-built subcommand's value.
        parser = build_parser()
        for command in COMMANDS + COMMANDS[::-1]:
            argv, defaults = _DEFAULTS[command]
            args = parser.parse_args([command, *argv])
            assert args.command == command
            for name, value in defaults.items():
                assert getattr(args, name) == value, (command, name)

    def test_run_help_shows_the_library_engine_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        signature = inspect.signature(run_campaign).parameters
        assert signature["batch_size"].default == DEFAULT_BATCH_SIZE
        assert f"default: {DEFAULT_BATCH_SIZE})" in help_text
        assert "--engine" not in help_text
        assert "split into at least --jobs chunks" in help_text

    def test_bare_invocation_prints_usage_and_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([])
        assert exit_info.value.code == 2
        assert "usage: repro-campaign" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--runs", "5", "sweep", "--scenario", "DS-1", "--store", "/unused"],
            ["--seed", "5", "train", "--scenario", "DS-2", "--vector", "disappear",
             "--store", "/unused"],
        ],
    )
    def test_flags_before_the_subcommand_are_rejected(self, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code != 0


class TestCli:
    def test_list_scenarios(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for scenario_id in ("DS-1", "DS-5", "DS-6", "DS-7"):
            assert scenario_id in out

    def test_single_campaign_without_attacker(self, capsys):
        code = main(
            ["run", "--scenario", "DS-1", "--attacker", "none", "--runs", "2", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "DS-1" in out

    def test_unknown_scenario_exits_with_error(self):
        with pytest.raises(SystemExit):
            main(["run", "--scenario", "DS-99", "--runs", "1"])

    def test_unknown_attacker_exits_with_error(self):
        with pytest.raises(SystemExit):
            main(["run", "--scenario", "DS-1", "--attacker", "quantum", "--runs", "1"])

    def test_unknown_vector_exits_with_error(self):
        with pytest.raises(SystemExit):
            main(["run", "--scenario", "DS-1", "--vector", "teleport", "--runs", "1"])

    def test_single_campaign_with_batch_engine(self, tmp_path, capsys):
        """--batch-size composes with --store and records every run."""
        code = main(
            [
                "run", "--scenario", "DS-3", "--attacker", "none", "--runs", "3",
                "--seed", "3", "--batch-size", "2",
                "--store", str(tmp_path / "runs"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "DS-3" in out
        from repro.experiments.store import ExperimentStore

        store = ExperimentStore(tmp_path / "runs")
        assert store.incomplete_campaigns() == []

    def test_invalid_engine_exits_with_error(self):
        """There is one engine, so ``--engine`` is an unknown flag."""
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--scenario", "DS-1", "--runs", "1", "--engine", "batch"])
        assert exit_info.value.code == 2

    def test_non_positive_batch_size_exits_with_error(self):
        with pytest.raises(SystemExit):
            main(
                ["run", "--scenario", "DS-1", "--attacker", "none", "--runs", "1",
                 "--batch-size", "0"]
            )

    def test_parser_defaults(self):
        args = build_parser().parse_args(["run", "--scenario", "DS-1"])
        assert args.runs == 10
        assert not hasattr(args, "engine")
        assert args.batch_size == DEFAULT_BATCH_SIZE
        assert args.jobs == 0
        assert args.scenario == "DS-1"
        assert args.store is None
        assert args.command == "run"

    def test_store_flag_records_runs_durably(self, tmp_path, capsys):
        code = main(
            [
                "run", "--scenario", "DS-1", "--attacker", "none",
                "--runs", "2", "--store", str(tmp_path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        from repro.experiments.campaign import AttackerKind, CampaignConfig
        from repro.experiments.store import ExperimentStore, config_hash

        store = ExperimentStore(tmp_path)
        ((stored_hash, config),) = store.manifests().items()
        # The CLI's campaign ids (and so existing stores' hashes) are stable.
        assert stored_hash == config_hash(
            CampaignConfig(campaign_id="DS-1-None-cli", scenario_id="DS-1",
                           attacker=AttackerKind.NONE, n_runs=2, seed=2020)
        )
        assert sum(1 for _ in store.iter_records(scenario_id="DS-1")) == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--scenario", "DS-1", "--attacker", "none", "--seed", "-5"],
             "seed must be non-negative, got -5"),
            (["search", "--scenario", "DS-1", "--attacker", "none", "--search-seed", "-1"],
             "search seed must be non-negative, got -1"),
        ],
        ids=["run", "search"],
    )
    def test_negative_seed_exits_before_the_store(self, tmp_path, argv, message):
        # SeedSequence rejects negative entropy: a manifest written first
        # would poison the store for every later resume.
        store = tmp_path / "store"
        completed = subprocess.run(
            [sys.executable, "-m", "repro.runtime.cli", *argv, "--store", str(store)],
            capture_output=True, text=True, env=_SUBPROCESS_ENV,
        )
        assert completed.returncode == 1
        assert completed.stderr.splitlines() == [message]
        assert not store.exists()


class TestTable2Cli:
    def test_predictor_flag_reaches_every_robotack_campaign(self, monkeypatch):
        from repro.experiments import campaign

        captured = []

        class _Captured(Exception):
            pass

        def fake_run_campaigns(configs, **kwargs):
            captured.extend(configs)
            raise _Captured

        monkeypatch.setattr(campaign, "run_campaigns", fake_run_campaigns)
        with pytest.raises(_Captured):
            main(["table2", "--predictor", "kinematic", "--runs", "1"])
        robotack = [c for c in captured if c.attacker is campaign.AttackerKind.ROBOTACK]
        assert len(robotack) == 6
        assert all(c.predictor is campaign.PredictorKind.KINEMATIC for c in robotack)

    @pytest.mark.parametrize("flag", ["--scenario", "--attacker", "--vector"])
    def test_flags_table2_ignores_are_not_accepted(self, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(["table2", flag, "DS-1"])
        assert exit_info.value.code == 2

    def test_unknown_predictor_exits_with_error(self):
        with pytest.raises(SystemExit, match="unknown predictor"):
            main(["table2", "--predictor", "oracle"])


class TestSweepCli:
    def test_dry_run_expands_fifty_points(self, capsys):
        code = main(
            ["sweep", "--scenario", "DS-1", "--store", "/unused", "--dry-run", "--n", "50"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Sweep of 50 points" in out
        assert out.count("-p00") == 50

    def test_sweep_executes_and_records_every_point(self, tmp_path, capsys):
        code = main(
            [
                "sweep", "--scenario", "DS-1", "--store", str(tmp_path),
                "--sampler", "random", "--n", "3", "--runs", "1",
                "--param", "variation.lead_gap_offset_m=-8:8",
                "--param", "simulation.max_duration_s=1.0",
            ]
        )
        assert code == 0
        capsys.readouterr()
        from repro.experiments.store import ExperimentStore

        store = ExperimentStore(tmp_path)
        assert len(store.manifests()) == 3
        assert sum(1 for _ in store.iter_records()) == 3
        assert store.incomplete_campaigns() == []

    def test_grid_sampler_uses_axis_grid_points(self, capsys):
        code = main(
            [
                "sweep", "--scenario", "DS-2", "--store", "/unused", "--dry-run",
                "--sampler", "grid",
                "--param", "variation.pedestrian_delay_s=0:1.5:3",
                "--param", "simulation.halt_gap_m=3.0,4.0",
            ]
        )
        assert code == 0
        assert "Sweep of 6 points" in capsys.readouterr().out

    def test_bad_axis_exits_with_error(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "sweep", "--scenario", "DS-1", "--store", "/unused",
                    "--param", "variation.bogus=0:1",
                ]
            )

    def test_non_numeric_axis_value_exits_with_error(self):
        # A string swept into a float field must be a one-line error, not a
        # TypeError traceback from deep inside SimulationConfig.
        with pytest.raises(SystemExit, match="expects a number"):
            main(
                [
                    "sweep", "--scenario", "DS-1", "--store", "/unused", "--dry-run",
                    "--param", "simulation.halt_gap_m=abc",
                ]
            )

    def test_unknown_scenario_exits_with_error(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--scenario", "DS-99", "--store", "/unused", "--dry-run"])

    def test_non_15hz_camera_rate_exits_before_the_store(self, tmp_path):
        # Perception differences over 15 Hz frames; another camera rate would
        # mis-scale every camera velocity, so sweep expansion rejects it.
        store = tmp_path / "store"
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro.runtime.cli", "sweep",
                "--scenario", "DS-1", "--store", str(store), "--sampler", "grid",
                "--runs", "1", "--param", "simulation.camera_rate_hz=10",
            ],
            capture_output=True, text=True, env=_SUBPROCESS_ENV,
        )
        assert completed.returncode == 1
        assert completed.stderr.splitlines() == [
            "simulation.camera_rate_hz=10 is not supported: "
            "perception assumes 15 Hz camera frames"
        ]
        assert not store.exists()

    @pytest.mark.parametrize("axis", ["simulation.max_duration_s=nan",
                                      "variation.lead_gap_offset_m=0:inf"])
    def test_non_finite_axis_exits_before_the_store(self, tmp_path, axis):
        # A NaN or infinite axis would be written into every point's manifest
        # and then crash (or silently corrupt) every run, here and on resume.
        store = tmp_path / "store"
        with pytest.raises(SystemExit, match="finite"):
            main(
                [
                    "sweep", "--scenario", "DS-1", "--store", str(store),
                    "--n", "1", "--runs", "1", "--param", axis,
                ]
            )
        assert not store.exists()

    def test_subcommand_flags_reach_the_sweep(self, capsys):
        code = main(
            [
                "sweep", "--scenario", "DS-1", "--store", "/unused",
                "--dry-run", "--n", "7", "--runs", "4", "--seed", "123",
            ]
        )
        assert code == 0
        assert "Sweep of 7 points" in capsys.readouterr().out


    def test_non_positive_max_accel_axis_exits_before_the_store(self, tmp_path):
        # An ego that cannot accelerate once recorded hazard-free campaigns.
        store = tmp_path / "store"
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro.runtime.cli", "sweep",
                "--scenario", "DS-1", "--attacker", "none", "--runs", "2",
                "--sampler", "grid", "--param", "simulation.max_accel_mps2=-2:0:2",
                "--store", str(store),
            ],
            capture_output=True, text=True, env=_SUBPROCESS_ENV,
        )
        assert completed.returncode == 1
        assert completed.stderr.splitlines() == ["max_accel_mps2 must be positive"]
        assert not store.exists()

    def test_unbuildable_variation_axis_exits_before_the_store(self, tmp_path):
        # A negative ego speed scale once wrote the sweep's manifests, then
        # crashed building the first run's ego.
        store = tmp_path / "store"
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro.runtime.cli", "sweep",
                "--scenario", "DS-1", "--attacker", "none", "--runs", "1",
                "--sampler", "grid", "--param", "variation.ego_speed_scale=-1:0:2",
                "--store", str(store),
            ],
            capture_output=True, text=True, env=_SUBPROCESS_ENV,
        )
        assert completed.returncode == 1
        assert completed.stderr.splitlines() == [
            "ego_speed_scale must be non-negative, got -1.0"
        ]
        assert not store.exists()


class TestSearchCli:
    @pytest.mark.parametrize("axis, message", [
        ("simulation.max_duration_s=-2:0",
         "search axis simulation.max_duration_s at -2.0: max_duration_s must be positive"),
        ("simulation.max_accel_mps2=-2:0",
         "search axis simulation.max_accel_mps2 at -2.0: max_accel_mps2 must be positive"),
        ("fusion.camera_weight=0.5,1.5",
         "search axis fusion.camera_weight at 1.5: camera_weight must be in [0, 1], got 1.5"),
        ("variation.npc_seed=-1:3",
         "search axis variation.npc_seed at -1.0: npc_seed must be non-negative, got -1"),
        ("variation.pedestrian_speed_scale=-0.5,1.0",
         "search axis variation.pedestrian_speed_scale at -0.5: "
         "pedestrian_speed_scale must be non-negative, got -0.5"),
    ])
    def test_invalid_axis_bound_exits_before_the_store(self, tmp_path, axis, message):
        # A search checkpoints its manifest and state before its first
        # iteration, so every axis bound and choice is checked first.
        store = tmp_path / "store"
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro.runtime.cli", "search",
                "--scenario", "DS-1", "--attacker", "none", "--runs", "1",
                "--budget", "2", "--batch-points", "2", "--param", axis,
                "--store", str(store),
            ],
            capture_output=True, text=True, env=_SUBPROCESS_ENV,
        )
        assert completed.returncode == 1
        assert completed.stderr.splitlines() == [message]
        assert not store.exists()

    @pytest.mark.parametrize("flag, message", [
        ("--sampler",
         "unknown search sampler 'nope'; choose from ['ce', 'random', 'thompson', 'ucb']"),
        ("--objective", "unknown objective 'nope'; choose from "
                        "['attack_success', 'min_delta_margin', 'time_to_violation']"),
    ])
    def test_unknown_sampler_or_objective_exits_before_the_store(self, tmp_path, flag,
                                                                 message):
        # SearchSpec checks both names; the CLI prints its error as one line.
        store = tmp_path / "store"
        with pytest.raises(SystemExit) as error:
            main(
                [
                    "search", "--scenario", "DS-1", "--attacker", "none",
                    "--store", str(store), flag, "nope",
                ]
            )
        assert error.value.code == message
        assert not store.exists()

    @pytest.mark.parametrize("max_iterations", ["0", "-3"])
    def test_non_positive_max_iterations_exits_before_the_store(self, tmp_path,
                                                                max_iterations):
        # A search with no iteration to run once wrote its manifest and
        # reported "Best score nan ... after 0 runs".
        store = tmp_path / "store"
        with pytest.raises(SystemExit, match="^--max-iterations must be a positive number"):
            main(
                [
                    "search", "--scenario", "DS-1", "--attacker", "none",
                    "--store", str(store), "--budget", "2", "--batch-points", "1",
                    "--runs", "1", "--max-iterations", max_iterations,
                ]
            )
        assert not store.exists()

    @pytest.mark.parametrize("axis", ["simulation.max_duration_s=nan",
                                      "variation.lead_gap_offset_m=0:inf"])
    def test_non_finite_axis_exits_before_the_store(self, tmp_path, axis):
        # As for sweeps: a search would also checkpoint its state first.
        store = tmp_path / "store"
        with pytest.raises(SystemExit, match="finite"):
            main(
                [
                    "search", "--scenario", "DS-1", "--attacker", "none",
                    "--store", str(store), "--budget", "2", "--batch-points", "1",
                    "--runs", "1", "--param", axis,
                ]
            )
        assert not store.exists()


class TestFusionCli:
    def test_run_with_fusion_records_policy_in_manifest(self, tmp_path, capsys):
        code = main(
            [
                "run", "--scenario", "DS-1", "--attacker", "none", "--runs", "1",
                "--seed", "3", "--fusion", "lidar_only", "--store", str(tmp_path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        from repro.experiments.store import ExperimentStore

        ((_, config),) = ExperimentStore(tmp_path).manifests().items()
        assert config.fusion_policy == "lidar_only"

    def test_fusion_composes_with_batch_engine(self, capsys):
        code = main(
            [
                "run", "--scenario", "DS-1", "--attacker", "none", "--runs", "2",
                "--seed", "3", "--fusion", "consistency_gated", "--batch-size", "1",
            ]
        )
        assert code == 0
        assert "DS-1" in capsys.readouterr().out

    def test_unknown_fusion_policy_exits_with_error(self):
        with pytest.raises(SystemExit, match="unknown fusion policy"):
            main(
                ["run", "--scenario", "DS-1", "--attacker", "none", "--runs", "1",
                 "--fusion", "ekf"]
            )

    def test_sweep_over_fusion_axes_dry_run(self, capsys):
        code = main(
            [
                "sweep", "--scenario", "DS-1", "--store", "/unused", "--dry-run",
                "--sampler", "grid",
                "--param", "fusion.policy=late,lidar_only,consistency_gated",
                "--param", "fusion.camera_weight=0.4:0.8:3",
            ]
        )
        assert code == 0
        assert "Sweep of 9 points" in capsys.readouterr().out

    def test_sweep_fusion_flag_sets_base_policy(self, tmp_path, capsys):
        code = main(
            [
                "sweep", "--scenario", "DS-1", "--store", str(tmp_path),
                "--sampler", "random", "--n", "2", "--runs", "1",
                "--fusion", "camera_only",
                "--param", "simulation.max_duration_s=1.0",
            ]
        )
        assert code == 0
        capsys.readouterr()
        from repro.experiments.store import ExperimentStore

        manifests = ExperimentStore(tmp_path).manifests()
        assert len(manifests) == 2
        assert all(c.fusion_policy == "camera_only" for c in manifests.values())

    def test_sweep_unknown_fusion_exits_with_error(self):
        with pytest.raises(SystemExit, match="unknown fusion policy"):
            main(
                ["sweep", "--scenario", "DS-1", "--store", "/unused",
                 "--dry-run", "--fusion", "ekf"]
            )

    def test_resume_fusion_filter(self, tmp_path, capsys):
        from repro.experiments.campaign import (
            AttackerKind,
            CampaignConfig,
            run_campaign,
        )
        from repro.experiments.store import ExperimentStore
        from repro.perception.fusion import FusionConfig
        from repro.runtime import FaultInjectingExecutor, InjectedFault
        from repro.sim.config import SimulationConfig

        config = CampaignConfig(
            campaign_id="cli-resume-fusion",
            scenario_id="DS-1",
            attacker=AttackerKind.NONE,
            n_runs=2,
            seed=21,
            simulation=SimulationConfig(max_duration_s=1.0),
            fusion=FusionConfig(policy="lidar_only"),
        )
        store = ExperimentStore(tmp_path)
        with pytest.raises(InjectedFault):
            # One run per work item, so the fault leaves a gap to resume.
            run_campaign(
                config, store=store, executor=FaultInjectingExecutor(1), batch_size=1
            )

        # A filter on a different policy matches nothing and resumes nothing.
        code = main(["resume", "--store", str(tmp_path), "--fusion", "camera_only"])
        assert code == 0
        assert "runs the 'camera_only' fusion policy" in capsys.readouterr().out
        assert store.incomplete_campaigns() != []

        code = main(["resume", "--store", str(tmp_path), "--fusion", "lidar_only"])
        assert code == 0
        assert "Resuming cli-resume-fusion" in capsys.readouterr().out
        assert store.incomplete_campaigns() == []

    def test_resume_unknown_fusion_exits_with_error(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown fusion policy"):
            main(["resume", "--store", str(tmp_path), "--fusion", "ekf"])


class TestTrainCli:
    _ARGS = [
        "train", "--scenario", "DS-2", "--vector", "disappear",
        "--epochs", "3", "--repeats", "1",
    ]

    def test_train_collects_trains_and_registers(self, tmp_path, capsys):
        code = main(self._ARGS + ["--store", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Collecting 24 scripted-attack grid points" in out
        assert "train loss" in out
        assert "Registered model" in out
        from repro.experiments.store import ExperimentStore

        store = ExperimentStore(tmp_path)
        assert len(store.model_hashes()) == 1
        assert list(tmp_path.glob("datasets/*.jsonl"))

    def test_second_train_reports_registered_model(self, tmp_path, capsys):
        assert main(self._ARGS + ["--store", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(self._ARGS + ["--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Already trained" in out
        # The loss curves are reported from the registry metadata.
        assert "train loss" in out

    def test_force_retrains_over_registered_model(self, tmp_path, capsys):
        assert main(self._ARGS + ["--store", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(self._ARGS + ["--store", str(tmp_path), "--force"]) == 0
        out = capsys.readouterr().out
        assert "Registered model" in out

    def test_unknown_scenario_exits_with_error(self):
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["train", "--scenario", "DS-99", "--vector", "disappear",
                  "--store", "/unused"])

    def test_zero_epochs_exits_before_collecting(self, tmp_path):
        store = tmp_path / "store"
        completed = subprocess.run(
            [sys.executable, "-m", "repro.runtime.cli", "train", "--scenario", "DS-2",
             "--vector", "disappear", "--epochs", "0", "--store", str(store)],
            capture_output=True, text=True, env=_SUBPROCESS_ENV,
        )
        assert completed.returncode == 1
        assert completed.stderr.splitlines() == ["epochs must be at least 1, got 0"]
        assert not list(store.glob("datasets/*.jsonl"))

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--repeats", "0"], "repeats must be at least 1"),
            (["--learning-rate", "0"], "learning_rate must be positive"),
            (["--seed", "-1"], "seed must be non-negative"),
            (["--learning-rate", "inf"], "learning_rate must be positive and finite"),
        ],
        ids=["repeats", "learning-rate", "seed", "learning-rate-inf"],
    )
    def test_untrainable_spec_exits_with_error(self, tmp_path, flags, message):
        with pytest.raises(SystemExit, match=message):
            main(self._ARGS + flags + ["--store", str(tmp_path)])
        assert not list(tmp_path.iterdir())

    def test_unknown_vector_exits_with_error(self):
        with pytest.raises(SystemExit):
            main(["train", "--scenario", "DS-2", "--vector", "teleport",
                  "--store", "/unused"])

    def test_note_when_campaigns_will_not_load_the_model(
        self, tmp_path, capsys, monkeypatch
    ):
        # Campaigns resolve the oracle by (seed 7, repeats 2, 200 epochs, lr
        # 1e-3); any other spec must say it will not be auto-loaded.
        from repro.core import training

        class _Stop(Exception):
            pass

        def stop(*args, **kwargs):
            raise _Stop

        monkeypatch.setattr(training, "train_and_register_predictor", stop)
        argv = ["train", "--scenario", "DS-2", "--vector", "disappear",
                "--store", str(tmp_path)]
        with pytest.raises(_Stop):
            main(argv + ["--epochs", "3"])
        assert "will not be auto-loaded" in capsys.readouterr().out
        with pytest.raises(_Stop):
            main(argv)
        assert "will not be auto-loaded" not in capsys.readouterr().out


class TestResumeCli:
    def test_resume_completes_interrupted_campaigns(self, tmp_path, capsys):
        from repro.experiments.campaign import (
            AttackerKind,
            CampaignConfig,
            run_campaign,
        )
        from repro.experiments.store import ExperimentStore, config_hash
        from repro.runtime import FaultInjectingExecutor, InjectedFault
        from repro.sim.config import SimulationConfig

        config = CampaignConfig(
            campaign_id="cli-resume",
            scenario_id="DS-1",
            attacker=AttackerKind.NONE,
            n_runs=3,
            seed=21,
            simulation=SimulationConfig(max_duration_s=1.0),
        )
        store = ExperimentStore(tmp_path)
        with pytest.raises(InjectedFault):
            # One run per work item, so the fault leaves one run stored.
            run_campaign(
                config, store=store, executor=FaultInjectingExecutor(1), batch_size=1
            )
        assert store.run_indices(config_hash(config)) == {0}

        code = main(["resume", "--store", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Resuming cli-resume: 2 of 3 runs missing" in out
        assert store.incomplete_campaigns() == []

    def test_resume_of_complete_store_is_a_no_op(self, tmp_path, capsys):
        code = main(["resume", "--store", str(tmp_path)])
        assert code == 0
        assert "Nothing to resume" in capsys.readouterr().out

    def test_resume_of_newer_schema_store_is_an_error(self, tmp_path):
        import json

        from repro.experiments.campaign import AttackerKind, CampaignConfig
        from repro.experiments.store import SCHEMA_VERSION, ExperimentStore

        store = ExperimentStore(tmp_path)
        config = CampaignConfig(
            campaign_id="future", scenario_id="DS-1", attacker=AttackerKind.NONE, n_runs=1
        )
        path = tmp_path / "manifests" / f"{store.write_manifest(config)}.json"
        payload = json.loads(path.read_text())
        payload["schema"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload))
        with pytest.raises(SystemExit, match="cannot resume .*newer schema"):
            main(["resume", "--store", str(tmp_path)])

    def test_resume_of_missing_store_path_is_an_error(self, tmp_path):
        # A typo'd path must not report "every campaign is complete".
        with pytest.raises(SystemExit, match="no experiment store"):
            main(["resume", "--store", str(tmp_path / "typo")])
