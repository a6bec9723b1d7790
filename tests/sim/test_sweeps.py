"""Tests for the parametric scenario-sweep engine."""

import dataclasses

import numpy as np
import pytest

from repro.experiments.campaign import AttackerKind, CampaignConfig
from repro.experiments.store import config_hash
from repro.perception.detection import DetectorConfig, DetectorDegradation
from repro.sim.config import SimulationConfig
from repro.sim.scenarios import ScenarioVariation
from repro.sim.sweeps import (
    Choice,
    ParameterSpace,
    Uniform,
    default_variation_space,
    expand_campaigns,
    parse_axis,
    parse_spec,
    sweep_campaigns,
)


def _base(**overrides) -> CampaignConfig:
    defaults = dict(
        campaign_id="sweep-base",
        scenario_id="DS-1",
        attacker=AttackerKind.NONE,
        n_runs=2,
        seed=9,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


class TestSpecs:
    def test_uniform_maps_unit_interval(self):
        spec = Uniform(10.0, 20.0)
        assert spec.value_at(0.0) == 10.0
        assert spec.value_at(0.5) == 15.0
        assert spec.grid_values() == [10.0, 12.5, 15.0, 17.5, 20.0]

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            Uniform(1.0, 1.0)
        with pytest.raises(ValueError):
            Uniform(0.0, 1.0, grid_points=1)

    def test_choice_covers_all_values(self):
        spec = Choice((1, 2, 3))
        picked = {spec.value_at(u) for u in np.linspace(0.0, 0.999, 50)}
        assert picked == {1, 2, 3}
        assert spec.grid_values() == [1, 2, 3]

    def test_parse_spec_forms(self):
        assert parse_spec("0.9:1.1") == Uniform(0.9, 1.1)
        assert parse_spec("-8:8:9") == Uniform(-8.0, 8.0, grid_points=9)
        assert parse_spec("3.0,4.0,5.0") == Choice((3.0, 4.0, 5.0))
        assert parse_spec("1,two,true") == Choice((1, "two", True))
        assert parse_spec("42") == Choice((42,))
        with pytest.raises(ValueError):
            parse_spec("")
        with pytest.raises(ValueError):
            parse_spec("1:2:3:4")

    def test_parse_axis_validates_namespaces(self):
        path, spec = parse_axis("variation.lead_gap_offset_m=-8:8")
        assert path == "variation.lead_gap_offset_m"
        assert spec == Uniform(-8.0, 8.0)
        with pytest.raises(ValueError, match="namespaced"):
            parse_axis("lead_gap_offset_m=-8:8")
        with pytest.raises(ValueError, match="unknown field"):
            parse_axis("variation.bogus=-8:8")
        with pytest.raises(ValueError, match="name=spec"):
            parse_axis("variation.lead_gap_offset_m")


class TestSamplers:
    def _space(self) -> ParameterSpace:
        return ParameterSpace(
            {
                "variation.ego_speed_scale": Uniform(0.9, 1.1, grid_points=3),
                "simulation.halt_gap_m": Choice((3.0, 4.0)),
            }
        )

    def test_grid_is_the_cartesian_product(self):
        points = self._space().grid()
        assert len(points) == 6
        assert {p["simulation.halt_gap_m"] for p in points} == {3.0, 4.0}
        assert {p["variation.ego_speed_scale"] for p in points} == {0.9, 1.0, 1.1}

    def test_random_is_seeded_and_in_bounds(self):
        space = self._space()
        first = space.random(20, seed=3)
        second = space.random(20, seed=3)
        assert first == second
        assert first != space.random(20, seed=4)
        for point in first:
            assert 0.9 <= point["variation.ego_speed_scale"] <= 1.1
            assert point["simulation.halt_gap_m"] in (3.0, 4.0)

    def test_latin_hypercube_stratifies_every_axis(self):
        n = 16
        space = ParameterSpace({"variation.ego_speed_scale": Uniform(0.0, 1.0)})
        points = space.latin_hypercube(n, seed=5)
        strata = sorted(int(p["variation.ego_speed_scale"] * n) for p in points)
        assert strata == list(range(n))

    def test_latin_hypercube_is_seeded(self):
        space = self._space()
        assert space.latin_hypercube(8, seed=1) == space.latin_hypercube(8, seed=1)

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            ParameterSpace({})
        with pytest.raises(ValueError, match="unknown field"):
            ParameterSpace({"simulation.bogus": Uniform(0, 1)})


class TestExpansion:
    def test_expand_pins_variation_only_when_swept(self):
        configs = expand_campaigns(
            _base(), [{"simulation.halt_gap_m": 5.0}, {"variation.lead_gap_offset_m": 2.0}]
        )
        assert configs[0].variation is None
        assert configs[0].simulation.halt_gap_m == 5.0
        assert configs[1].variation == ScenarioVariation(lead_gap_offset_m=2.0)
        assert configs[1].simulation == SimulationConfig()

    def test_expand_builds_detector_degradation(self):
        (config,) = expand_campaigns(_base(), [{"detector.sigma_scale": 2.0}])
        assert config.detector_degradation == DetectorDegradation(sigma_scale=2.0)
        degraded = config.detector_degradation.apply(DetectorConfig())
        base = DetectorConfig()
        assert degraded.vehicle_noise.center_noise_sigma_x == pytest.approx(
            base.vehicle_noise.center_noise_sigma_x * 2.0
        )
        assert degraded.min_bbox_height_px == base.min_bbox_height_px

    def test_expanded_ids_and_hashes_are_distinct(self):
        configs = sweep_campaigns(_base(), sampler="lhs", n=50, seed=0)
        assert len(configs) == 50
        assert len({c.campaign_id for c in configs}) == 50
        assert len({config_hash(c) for c in configs}) == 50
        assert len({c.variation for c in configs}) == 50

    def test_default_space_covers_the_monte_carlo_ranges(self):
        from repro.sim.scenarios import VARIATION_SAMPLING_RANGES

        space = default_variation_space()
        assert set(space.axes) == {
            f"variation.{name}" for name in VARIATION_SAMPLING_RANGES
        }
        for name, (low, high) in VARIATION_SAMPLING_RANGES.items():
            assert space.axes[f"variation.{name}"] == Uniform(low, high)

    def test_int_fields_are_coerced_when_swept_as_ranges(self):
        # npc_seed is int-typed; a Uniform axis samples floats, which must be
        # rounded before they reach ScenarioVariation (and default_rng).
        space = ParameterSpace({"variation.npc_seed": Uniform(0.0, 1000.0)})
        configs = expand_campaigns(_base(scenario_id="DS-5"), space.random(5, seed=2))
        for config in configs:
            assert isinstance(config.variation.npc_seed, int)
        from repro.sim.scenarios import build_scenario

        build_scenario("DS-5", configs[0].variation)  # must not raise

    def test_unknown_sampler_rejected(self):
        with pytest.raises(ValueError, match="unknown sampler"):
            sweep_campaigns(_base(), sampler="sobol")

    def test_grid_sampler_warns_on_mismatching_n(self):
        space = ParameterSpace(
            {"variation.ego_speed_scale": Uniform(0.9, 1.1, grid_points=3)}
        )
        with pytest.warns(UserWarning, match="grid sampler ignores n=100"):
            configs = sweep_campaigns(_base(), space, sampler="grid", n=100)
        # The warning does not change the structural grid size.
        assert len(configs) == 3

    def test_grid_sampler_warns_on_explicit_seed(self):
        space = ParameterSpace(
            {"variation.ego_speed_scale": Uniform(0.9, 1.1, grid_points=3)}
        )
        with pytest.warns(UserWarning, match="ignores the sampler seed"):
            sweep_campaigns(_base(), space, sampler="grid", seed=5)

    def test_grid_sampler_is_silent_when_n_matches_or_is_unset(self):
        import warnings

        space = ParameterSpace(
            {"variation.ego_speed_scale": Uniform(0.9, 1.1, grid_points=3)}
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(sweep_campaigns(_base(), space, sampler="grid")) == 3
            assert len(sweep_campaigns(_base(), space, sampler="grid", n=3)) == 3

    def test_base_fields_survive_expansion(self):
        base = _base(seed=1234, n_runs=7)
        (config,) = expand_campaigns(base, [{"variation.ego_speed_scale": 1.01}])
        assert config.seed == 1234
        assert config.n_runs == 7
        assert config.scenario_id == base.scenario_id
        assert dataclasses.asdict(config.simulation) == dataclasses.asdict(base.simulation)


class TestFusionNamespace:
    def test_parse_axis_accepts_fusion_fields(self):
        path, spec = parse_axis("fusion.policy=late,lidar_only")
        assert path == "fusion.policy"
        assert spec == Choice(("late", "lidar_only"))
        path, spec = parse_axis("fusion.camera_weight=0.4:0.8:3")
        assert spec == Uniform(0.4, 0.8, grid_points=3)
        with pytest.raises(ValueError, match="unknown field"):
            parse_axis("fusion.bogus=0:1")

    def test_expand_builds_fusion_config(self):
        from repro.perception.fusion import FusionConfig

        configs = expand_campaigns(
            _base(),
            [
                {"fusion.policy": "consistency_gated", "fusion.camera_weight": 0.5},
                {"variation.ego_speed_scale": 1.0},
            ],
        )
        assert configs[0].fusion == FusionConfig(policy="consistency_gated", camera_weight=0.5)
        # Un-swept points keep fusion=None — and thus the pre-refactor hash.
        assert configs[1].fusion is None

    def test_expand_starts_from_base_fusion_when_set(self):
        from repro.perception.fusion import FusionConfig

        base = _base(fusion=FusionConfig(policy="consistency_gated", consistency_gate_m=0.9))
        (config,) = expand_campaigns(base, [{"fusion.camera_weight": 0.3}])
        assert config.fusion.policy == "consistency_gated"
        assert config.fusion.consistency_gate_m == 0.9
        assert config.fusion.camera_weight == 0.3

    def test_invalid_fusion_values_rejected_at_expansion(self):
        with pytest.raises(ValueError, match="unknown fusion policy"):
            expand_campaigns(_base(), [{"fusion.policy": "ekf"}])
        with pytest.raises(ValueError, match="must be in"):
            expand_campaigns(_base(), [{"fusion.camera_weight": 1.5}])

    def test_grid_sweep_over_policy_and_numeric_axes(self):
        space = ParameterSpace(
            {
                "fusion.policy": Choice(("late", "lidar_only", "consistency_gated")),
                "fusion.camera_weight": Uniform(0.4, 0.8, grid_points=3),
                "fusion.consistency_camera_penalty": Uniform(0.1, 0.5, grid_points=2),
            }
        )
        configs = sweep_campaigns(_base(), space, sampler="grid")
        assert len(configs) == 18
        assert {c.fusion.policy for c in configs} == {
            "late",
            "lidar_only",
            "consistency_gated",
        }
        assert len({config_hash(c) for c in configs}) == 18


class TestUnitCubeBridge:
    """The public sample_from / paths / spec surface the search engine uses."""

    SPACE = ParameterSpace(
        {
            "variation.lead_gap_offset_m": Uniform(-8.0, 8.0),
            "fusion.policy": Choice(("late", "camera_only")),
        }
    )

    def test_sample_from_maps_rows_through_declared_axes(self):
        units = np.array([[0.0, 0.0], [1.0, 0.9], [0.5, 0.4]])
        assignments = self.SPACE.sample_from(units)
        assert assignments == [
            {"variation.lead_gap_offset_m": -8.0, "fusion.policy": "late"},
            {"variation.lead_gap_offset_m": 8.0, "fusion.policy": "camera_only"},
            {"variation.lead_gap_offset_m": 0.0, "fusion.policy": "late"},
        ]

    def test_sample_from_matches_random_sampler(self):
        rng = np.random.default_rng(4)
        units = rng.uniform(size=(7, 2))
        assert self.SPACE.sample_from(units) == self.SPACE.random(
            7, seed=np.random.default_rng(4)
        )

    def test_sample_from_validates_shape_and_range(self):
        with pytest.raises(ValueError, match="shaped"):
            self.SPACE.sample_from(np.zeros((3,)))
        with pytest.raises(ValueError, match="shaped"):
            self.SPACE.sample_from(np.zeros((3, 5)))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            self.SPACE.sample_from(np.array([[0.5, 1.2]]))

    def test_sample_from_rejects_nan_units(self):
        # NaN failed both units.min() < 0 and units.max() > 1, so it mapped
        # to a NaN axis value.
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            self.SPACE.sample_from(np.array([[0.5, 0.5], [float("nan"), 0.5]]))

    def test_paths_and_spec_accessors(self):
        assert self.SPACE.paths() == list(self.SPACE) == [
            "variation.lead_gap_offset_m",
            "fusion.policy",
        ]
        assert len(self.SPACE) == 2
        assert self.SPACE.spec("fusion.policy") == Choice(("late", "camera_only"))
        with pytest.raises(KeyError, match="declared axes"):
            self.SPACE.spec("variation.pedestrian_delay_s")


class TestGeneratorSeeds:
    """random / latin_hypercube accept a Generator directly (stream reuse)."""

    SPACE = ParameterSpace({"variation.lead_gap_offset_m": Uniform(-8.0, 8.0)})

    def test_generator_seed_matches_int_seed(self):
        assert self.SPACE.random(5, seed=np.random.default_rng(3)) == self.SPACE.random(
            5, seed=3
        )
        assert self.SPACE.latin_hypercube(
            5, seed=np.random.default_rng(3)
        ) == self.SPACE.latin_hypercube(5, seed=3)

    def test_generator_stream_advances_across_calls(self):
        rng = np.random.default_rng(3)
        first = self.SPACE.random(4, seed=rng)
        second = self.SPACE.random(4, seed=rng)
        assert first != second
        # One shared stream == one longer draw split in two.
        both = self.SPACE.random(8, seed=3)
        assert first + second == both
