"""Tests for the scenario catalog and its DS-6 / DS-7 extensions."""

import numpy as np
import pytest

from repro.experiments.campaign import AttackerKind, CampaignConfig, run_campaign
from repro.sim import scenarios as scenarios_module
from repro.sim.actors import ActorKind
from repro.sim.scenarios import (
    ScenarioVariation,
    build_scenario,
    list_scenario_ids,
    register_scenario,
    scenario_catalog,
)
from repro.sim.simulator import Simulator


def _unregister(scenario_id: str) -> None:
    """Remove a test scenario from the process-wide catalog."""
    del scenarios_module._SCENARIOS[scenario_id]
    del scenarios_module._DESCRIPTIONS[scenario_id]


class TestScenarioRegistryExtension:
    def test_catalog_reports_at_least_seven_scenarios(self):
        assert len(list_scenario_ids()) >= 7

    def test_catalog_descriptions_populated(self):
        catalog = scenario_catalog()
        for scenario_id in ("DS-6", "DS-7"):
            assert scenario_id in catalog
            assert catalog[scenario_id]

    def test_register_scenario_decorator_round_trip(self):
        @register_scenario("TEST-DS", description="temporary test scenario")
        def _build_test(variation: ScenarioVariation):
            scenario = build_scenario("DS-1", variation)
            scenario.scenario_id = "TEST-DS"
            return scenario

        try:
            assert "TEST-DS" in list_scenario_ids()
            assert scenario_catalog()["TEST-DS"] == "temporary test scenario"
            built = build_scenario("TEST-DS")
            assert built.scenario_id == "TEST-DS"
        finally:
            _unregister("TEST-DS")
        assert "TEST-DS" not in list_scenario_ids()

    def test_description_defaults_to_the_docstring_first_line(self):
        @register_scenario("TEST-DOC")
        def _build_test(variation: ScenarioVariation):
            """Builds the documented test scenario.

            Later lines stay out of the catalog.
            """
            raise AssertionError("never built")

        @register_scenario("TEST-NODOC")
        def _build_bare(variation: ScenarioVariation):
            raise AssertionError("never built")

        try:
            catalog = scenario_catalog()
            assert catalog["TEST-DOC"] == "Builds the documented test scenario."
            assert catalog["TEST-NODOC"] == ""
        finally:
            _unregister("TEST-DOC")
            _unregister("TEST-NODOC")

    def test_listings_are_sorted(self):
        ids = list_scenario_ids()
        assert ids == sorted(ids)
        assert list(scenario_catalog()) == ids

    def test_duplicate_registration_rejected(self):
        with pytest.raises(KeyError, match="'DS-1' is already registered"):

            @register_scenario("DS-1")
            def _clash(variation: ScenarioVariation):
                raise AssertionError("never built")
        assert scenario_catalog()["DS-1"] == "EV follows a target vehicle in its lane"


class TestDs6PlatoonCutIn:
    def test_structure(self):
        scenario = build_scenario("DS-6", ScenarioVariation.nominal())
        names = {actor.name for actor in scenario.world.actors}
        assert {"platoon-tail", "platoon-lead", "cut-in-vehicle"} <= names
        assert scenario.target_kind is ActorKind.VEHICLE
        cutter = next(a for a in scenario.world.actors if a.name == "cut-in-vehicle")
        assert scenario.target_actor_id == cutter.actor_id

    def test_cutter_starts_outside_and_ends_in_ego_lane(self):
        scenario = build_scenario("DS-6", ScenarioVariation.nominal())
        cutter = next(a for a in scenario.world.actors if a.name == "cut-in-vehicle")
        assert not scenario.road.in_ego_lane(cutter.route.position.y)
        assert scenario.road.in_ego_lane(cutter.route.waypoints[-1].position.y)

    def test_golden_run_executes(self, ads_factory):
        scenario = build_scenario("DS-6", ScenarioVariation.nominal())
        simulator = Simulator(
            scenario, ads_factory(scenario), rng=np.random.default_rng(3)
        )
        result = simulator.run()
        assert result.steps_executed > 0


class TestDs7FogCrossing:
    def test_detector_is_degraded(self):
        scenario = build_scenario("DS-7", ScenarioVariation.nominal())
        assert scenario.detector_config is not None
        from repro.perception.detection import DetectorNoiseModel

        clear = DetectorNoiseModel.pedestrian_default()
        foggy = scenario.detector_config.pedestrian_noise
        assert foggy.misdetection_start_probability > clear.misdetection_start_probability
        assert foggy.center_noise_sigma_x > clear.center_noise_sigma_x
        assert scenario.detector_config.min_bbox_height_px > 8.0

    def test_ev_slows_down_in_fog(self):
        fog = build_scenario("DS-7", ScenarioVariation.nominal())
        clear = build_scenario("DS-2", ScenarioVariation.nominal())
        assert fog.cruise_speed_mps < clear.cruise_speed_mps

    def test_campaign_threads_detector_config_into_the_ads(self):
        from repro.experiments.campaign import build_ads_agent

        scenario = build_scenario("DS-7", ScenarioVariation.nominal())
        ads = build_ads_agent(scenario, np.random.default_rng(1))
        assert (
            ads.perception.config.detector.min_bbox_height_px
            == scenario.detector_config.min_bbox_height_px
        )

    @pytest.mark.parametrize("scenario_id, pedestrian, vehicle",
                             [("DS-7", 39, 74), ("DS-2", 31, 59)])
    def test_robotack_kmax_follows_the_scenario_detector(self, scenario_id, pedestrian, vehicle):
        """Kmax is the p99 misdetection burst of the run's detector: the fog
        detector's bursts are 1.25x the default's 31/59 frames."""
        from repro.core.attack_vectors import AttackVector
        from repro.experiments.campaign import PredictorKind, _build_run_setup

        config = CampaignConfig(
            campaign_id=f"kmax-{scenario_id}", scenario_id=scenario_id,
            attacker=AttackerKind.ROBOTACK, vector=AttackVector.DISAPPEAR,
            predictor=PredictorKind.KINEMATIC, n_runs=1,
        )
        attacker = _build_run_setup(config, 0).attacker
        assert attacker.safety_hijacker.config.k_max_frames == {
            ActorKind.PEDESTRIAN: pedestrian, ActorKind.VEHICLE: vehicle,
        }


class TestAllScenariosRunEndToEnd:
    @pytest.mark.parametrize("scenario_id", list_scenario_ids())
    def test_run_campaign_smoke(self, scenario_id):
        config = CampaignConfig(
            campaign_id=f"smoke-{scenario_id}",
            scenario_id=scenario_id,
            attacker=AttackerKind.NONE,
            n_runs=1,
            seed=31,
        )
        campaign = run_campaign(config, use_cache=False)
        assert campaign.n_runs == 1
        assert campaign.runs[0].scenario_id == scenario_id
