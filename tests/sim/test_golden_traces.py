"""Golden-trace determinism tests for the scenario catalog.

Fixed-seed runs through :meth:`Simulator.run`, each pinned to a compact
digest: steps executed, the recorded event kinds and step indices, the
rounded minimum ground-truth safety potential, the rounded final ego speed,
and a SHA-256 of the run's three traces (ground-truth δ, perceived δ, ego
speed) with every value rounded to 1e-6.  Three sets are pinned:

* one *nominal* (benign, unattacked) run per scenario under the default
  ``late`` fusion policy;
* the same benign runs under each non-default fusion policy;
* attacked runs built through the campaign layer's seeding chain: RoboTack
  with the kinematic oracle on the six Table II pairs plus DS-6/DS-7
  Disappear, and the DS-5 random baseline.

Any refactor that perturbs simulation semantics — sensor seeding and noise,
camera rendering, actor and ego kinematics, the ground-truth safety
potential, the collision check, perception, fusion, the planner, the
attacker, the step loop's event bookkeeping — fails these loudly instead of
silently shifting every campaign statistic.  There is one step loop, and a
run alone and a batch lane share every stage of it, so these digests (with
the batch golden lanes of ``test_batch_equivalence``) are what define "same
behaviour"; ``GoldenDigest`` is the fingerprint both files pin.  The digests
were computed by the scalar step loop the repository had before
``Simulator.run`` became a one-lane batch, and still hold.

If a change *intentionally* alters simulation semantics, regenerate the
digests with ``GoldenDigest.of`` on the runs below and say so in the commit
message; do not loosen the comparisons.
"""

import hashlib
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import pytest

from repro.core.attack_vectors import AttackVector
from repro.core.safety_hijacker import KinematicSafetyPredictor
from repro.experiments.campaign import (
    AttackerKind,
    CampaignConfig,
    PredictorKind,
    _build_run_setup,
    baseline_random_campaign,
    build_ads_agent,
    standard_campaigns,
)
from repro.perception.fusion import FUSION_POLICIES, FusionConfig
from repro.sim.scenarios import ScenarioVariation, build_scenario, list_scenario_ids
from repro.sim.simulator import SimulationResult, Simulator

#: Seeds of the two RNG streams a benign golden run consumes.
_ADS_SEED = 1
_SIM_SEED = 2
#: Campaign seed of the attacked golden runs (run index 0 of each campaign).
_ATTACK_SEED = 1


def _traces_sha256(result: SimulationResult) -> str:
    """SHA-256 of the three traces, each value rounded to 1e-6."""
    digest = hashlib.sha256()
    for trace in (result.true_delta_trace, result.perceived_delta_trace,
                  result.ego_speed_trace):
        digest.update(",".join(f"{value:.6f}" for value in trace).encode())
        digest.update(b";")
    return digest.hexdigest()


@dataclass(frozen=True)
class GoldenDigest:
    """The compact, exactly-reproducible fingerprint of one golden run."""

    steps: int
    #: (event kind value, step index) pairs, in recording order.
    events: Tuple[Tuple[str, int], ...]
    #: min of the ground-truth δ trace, rounded to mm (inf = no in-path target).
    min_delta_m: float
    #: Ego speed on the last recorded step, rounded to mm/s.
    final_speed_mps: float
    #: SHA-256 of the ground-truth δ, perceived δ and ego-speed traces, every
    #: value rounded to 1e-6 (see :func:`_traces_sha256`).
    traces_sha256: str

    @staticmethod
    def of(result: SimulationResult) -> "GoldenDigest":
        """The digest of a finished run (use this to refresh the tables)."""
        return GoldenDigest(
            steps=result.steps_executed,
            events=tuple(
                (event.kind.value, event.step_index) for event in result.events
            ),
            min_delta_m=round(min(result.true_delta_trace), 3),
            final_speed_mps=round(result.ego_speed_trace[-1], 3),
            traces_sha256=_traces_sha256(result),
        )

    @staticmethod
    def regenerate(scenario_id: str, policy: Optional[str] = None) -> "GoldenDigest":
        """The digest of a benign golden run (``policy=None``: the default)."""
        return GoldenDigest.of(_golden_run(scenario_id, policy))


def _golden_run(scenario_id: str, policy: Optional[str] = None) -> SimulationResult:
    scenario = build_scenario(scenario_id, ScenarioVariation.nominal())
    fusion = FusionConfig(policy=policy) if policy is not None else None
    ads = build_ads_agent(scenario, np.random.default_rng(_ADS_SEED), fusion=fusion)
    simulator = Simulator(scenario, ads, rng=np.random.default_rng(_SIM_SEED))
    return simulator.run()


def _attacked_configs():
    configs = list(
        standard_campaigns(n_runs=1, seed=_ATTACK_SEED, predictor=PredictorKind.KINEMATIC)
    )
    for scenario_id in ("DS-6", "DS-7"):
        configs.append(
            CampaignConfig(
                campaign_id=f"{scenario_id}-Disappear-R",
                scenario_id=scenario_id,
                attacker=AttackerKind.ROBOTACK,
                vector=AttackVector.DISAPPEAR,
                n_runs=1,
                seed=_ATTACK_SEED,
                predictor=PredictorKind.KINEMATIC,
            )
        )
    configs.append(baseline_random_campaign(n_runs=1, seed=_ATTACK_SEED))
    return {config.campaign_id: config for config in configs}


_ATTACKED_CONFIGS = _attacked_configs()


def _attacked_run(campaign_id: str) -> SimulationResult:
    """Run index 0 of an attacked campaign, through ``_build_run_setup``."""
    config = _ATTACKED_CONFIGS[campaign_id]
    predictor = None
    if config.attacker is AttackerKind.ROBOTACK:
        predictor = KinematicSafetyPredictor(config.vector)
    setup = _build_run_setup(config, 0, predictor=predictor)
    simulator = Simulator(
        setup.scenario,
        setup.ads,
        config=config.simulation,
        attacker=setup.attacker,
        rng=setup.sim_rng,
    )
    return simulator.run()


#: Digest per scenario, generated by ``GoldenDigest.regenerate``.  Benign
#: nominal runs end without collisions or emergency braking in every
#: scenario, so the event tuples are empty — which is itself part of the
#: contract (a scenario whose *benign* run crashes cannot attribute hazards
#: to the attack).
GOLDEN = {
    "DS-1": GoldenDigest(
        steps=525, min_delta_m=9.821, final_speed_mps=6.95,
        events=(),
        traces_sha256="98cca44a4ef235054d6f45a07453c0bc17b9c9fa2fce654c6bd3b2ad69dadd19",
    ),
    "DS-2": GoldenDigest(
        steps=375, min_delta_m=12.536, final_speed_mps=12.579,
        events=(),
        traces_sha256="c11e245b9300bf9d18de010caaad62a1eff34dc028f7e024c4e781733c3b8884",
    ),
    "DS-3": GoldenDigest(
        steps=300, min_delta_m=float("inf"), final_speed_mps=12.51,
        events=(),
        traces_sha256="4e365ad3222510a933c506e0962d58bd107352e25250c89723c93469c74c8512",
    ),
    "DS-4": GoldenDigest(
        steps=300, min_delta_m=float("inf"), final_speed_mps=12.518,
        events=(),
        traces_sha256="2b8dffb552c1c47e56686a2c78026ac36c529933eb1221cf706b592e0bed50d1",
    ),
    "DS-5": GoldenDigest(
        steps=525, min_delta_m=9.824, final_speed_mps=6.963,
        events=(),
        traces_sha256="dd538b75418e1c9c022ca2c8d9f1c2a50b8dbea66bd19c56a390ce32fe267502",
    ),
    "DS-6": GoldenDigest(
        steps=525, min_delta_m=5.544, final_speed_mps=6.812,
        events=(),
        traces_sha256="e1d4f3eff91f575bf3090e78e3f1406ca34400707aa8cfa34cf7a074d8352ca1",
    ),
    "DS-7": GoldenDigest(
        steps=375, min_delta_m=5.93, final_speed_mps=9.78,
        events=(),
        traces_sha256="a7c62cde943160514add4b05615948f652d9dc74562ca67f10c8469e3e9a5af4",
    ),
}

#: Benign digests per (non-default fusion policy, scenario), generated by
#: ``GoldenDigest.regenerate(scenario_id, policy)``.
GOLDEN_POLICIES = {
    ("camera_only", "DS-1"): GoldenDigest(
        steps=525, min_delta_m=11.676, final_speed_mps=6.951,
        events=(),
        traces_sha256="e4b94b9e4bfde76aab8364ffbeafb6ab8e5f384a78006ef0f75052e714494c8f",
    ),
    ("camera_only", "DS-2"): GoldenDigest(
        steps=375, min_delta_m=12.151, final_speed_mps=12.577,
        events=(),
        traces_sha256="fa12b0f89752c3e20b380c0ea1f71e820d267968bac8132ec89f65205431bd5e",
    ),
    ("camera_only", "DS-3"): GoldenDigest(
        steps=300, min_delta_m=float("inf"), final_speed_mps=12.525,
        events=(),
        traces_sha256="66f669f97d728cb33bdb3b41f0bc7900296fdb83104e6c1254a149dcafef202e",
    ),
    ("camera_only", "DS-4"): GoldenDigest(
        steps=300, min_delta_m=float("inf"), final_speed_mps=12.529,
        events=(),
        traces_sha256="c965f26d0fe6869004d0075d314bce2d46f70887ab2d4999c03598f822cab702",
    ),
    ("camera_only", "DS-5"): GoldenDigest(
        steps=525, min_delta_m=11.733, final_speed_mps=7.02,
        events=(('emergency_brake', 57),),
        traces_sha256="14d0cd928d672b3d8c71e0a9a8b969b734d8dbd7884f296a551b30c15104e9c6",
    ),
    ("camera_only", "DS-6"): GoldenDigest(
        steps=525, min_delta_m=6.918, final_speed_mps=6.927,
        events=(),
        traces_sha256="78491a8d3fd4ac8ae1dd38bc5e7c6bc9bcfdecd9d481ae6752a58b9abb2da632",
    ),
    ("camera_only", "DS-7"): GoldenDigest(
        steps=375, min_delta_m=4.019, final_speed_mps=9.768,
        events=(),
        traces_sha256="d7f1ab1c175c1b396d5e2b455a5e05234ec799e1f7f3665ce5fbdb76be5b7149",
    ),
    ("consistency_gated", "DS-1"): GoldenDigest(
        steps=525, min_delta_m=9.821, final_speed_mps=6.95,
        events=(),
        traces_sha256="98cca44a4ef235054d6f45a07453c0bc17b9c9fa2fce654c6bd3b2ad69dadd19",
    ),
    ("consistency_gated", "DS-2"): GoldenDigest(
        steps=375, min_delta_m=12.536, final_speed_mps=12.579,
        events=(),
        traces_sha256="c11e245b9300bf9d18de010caaad62a1eff34dc028f7e024c4e781733c3b8884",
    ),
    ("consistency_gated", "DS-3"): GoldenDigest(
        steps=300, min_delta_m=float("inf"), final_speed_mps=12.51,
        events=(),
        traces_sha256="4e365ad3222510a933c506e0962d58bd107352e25250c89723c93469c74c8512",
    ),
    ("consistency_gated", "DS-4"): GoldenDigest(
        steps=300, min_delta_m=float("inf"), final_speed_mps=12.518,
        events=(),
        traces_sha256="2b8dffb552c1c47e56686a2c78026ac36c529933eb1221cf706b592e0bed50d1",
    ),
    ("consistency_gated", "DS-5"): GoldenDigest(
        steps=525, min_delta_m=9.824, final_speed_mps=6.963,
        events=(),
        traces_sha256="dd538b75418e1c9c022ca2c8d9f1c2a50b8dbea66bd19c56a390ce32fe267502",
    ),
    ("consistency_gated", "DS-6"): GoldenDigest(
        steps=525, min_delta_m=5.544, final_speed_mps=6.812,
        events=(),
        traces_sha256="e1d4f3eff91f575bf3090e78e3f1406ca34400707aa8cfa34cf7a074d8352ca1",
    ),
    ("consistency_gated", "DS-7"): GoldenDigest(
        steps=375, min_delta_m=5.93, final_speed_mps=9.78,
        events=(),
        traces_sha256="a7c62cde943160514add4b05615948f652d9dc74562ca67f10c8469e3e9a5af4",
    ),
    ("lidar_only", "DS-1"): GoldenDigest(
        steps=525, min_delta_m=9.257, final_speed_mps=6.952,
        events=(),
        traces_sha256="5d4173d851c777bd1e132e540c11315942e6c2eb8e8be4dfd152299262e9e3bc",
    ),
    ("lidar_only", "DS-2"): GoldenDigest(
        steps=375, min_delta_m=1.389, final_speed_mps=12.554,
        events=(('emergency_brake', 66),),
        traces_sha256="6ce0b95649192f2c3ec68d232b30c016231c438d894802aaf3623224f8fed2ba",
    ),
    ("lidar_only", "DS-3"): GoldenDigest(
        steps=300, min_delta_m=float("inf"), final_speed_mps=12.51,
        events=(),
        traces_sha256="4e365ad3222510a933c506e0962d58bd107352e25250c89723c93469c74c8512",
    ),
    ("lidar_only", "DS-4"): GoldenDigest(
        steps=300, min_delta_m=float("inf"), final_speed_mps=12.533,
        events=(),
        traces_sha256="6db455b19365297fe8e5e0e7ae69f1500f7154a6fdc687576e7f7308e62b71fe",
    ),
    ("lidar_only", "DS-5"): GoldenDigest(
        steps=525, min_delta_m=9.261, final_speed_mps=6.957,
        events=(),
        traces_sha256="06c3b2a8368c99320df41d82c4513642506d5da126151ca4de8d227b4d09dfdc",
    ),
    ("lidar_only", "DS-6"): GoldenDigest(
        steps=525, min_delta_m=9.367, final_speed_mps=6.954,
        events=(),
        traces_sha256="2bbf6b801bf5ebb1fc2f9ba0ea25da4ad4e03be843d59aa7a5532db045c522f5",
    ),
    ("lidar_only", "DS-7"): GoldenDigest(
        steps=375, min_delta_m=8.915, final_speed_mps=9.766,
        events=(),
        traces_sha256="dbda081d5d5e3a6e38b05033242e8448de76b41b1485a2ab22847ca3e84e50d5",
    ),
}

#: Attacked digests per campaign id (run index 0), generated by
#: ``GoldenDigest.of(_attacked_run(campaign_id))``.
GOLDEN_ATTACKED = {
    "DS-1-Disappear-R": GoldenDigest(
        steps=525, min_delta_m=9.635, final_speed_mps=6.823,
        events=(('attack_started', 4), ('attack_ended', 21)),
        traces_sha256="446880d38f0798f668a61987a8e9583e1d5475cef4a9d978b50ece9e1b6e1822",
    ),
    "DS-2-Disappear-R": GoldenDigest(
        steps=375, min_delta_m=3.538, final_speed_mps=12.849,
        events=(('attack_started', 15), ('attack_ended', 38), ('emergency_brake', 59)),
        traces_sha256="20b288bc5fdb6c1cbd9aa4de113be5affebfa529c069d05c9052866ca81952c4",
    ),
    "DS-1-Move_Out-R": GoldenDigest(
        steps=525, min_delta_m=9.672, final_speed_mps=6.82,
        events=(('attack_started', 4), ('attack_ended', 21)),
        traces_sha256="6521586ccc6d198d2575305d4fd95351fa29a87678439852fc3ad89f64c65015",
    ),
    "DS-2-Move_Out-R": GoldenDigest(
        steps=375, min_delta_m=3.538, final_speed_mps=12.851,
        events=(('attack_started', 15), ('attack_ended', 38), ('emergency_brake', 59)),
        traces_sha256="f13a70393beda0fb0328cc2d5063f980bc09a89d63380cf2dfc7b3604424e4ef",
    ),
    "DS-3-Move_In-R": GoldenDigest(
        steps=300, min_delta_m=float("inf"), final_speed_mps=12.884,
        events=(('attack_started', 26), ('attack_ended', 49)),
        traces_sha256="05a56b606b5e867fb7a19b1adf2820a87139634f5b0cd6761365ee31dc558ffc",
    ),
    "DS-4-Move_In-R": GoldenDigest(
        steps=300, min_delta_m=float("inf"), final_speed_mps=12.852,
        events=(('attack_started', 29), ('attack_ended', 52)),
        traces_sha256="9e242bacf63d92a81ca1fe9860dde68961dea3254f1ddbd43ead568341f51a25",
    ),
    "DS-6-Disappear-R": GoldenDigest(
        steps=525, min_delta_m=13.175, final_speed_mps=6.557,
        events=(('attack_started', 33), ('attack_ended', 53)),
        traces_sha256="7be43ff4d66133186e1778fa31e23e920406585bea9937997d758c8c471d972d",
    ),
    "DS-7-Disappear-R": GoldenDigest(
        steps=375, min_delta_m=6.583, final_speed_mps=10.002,
        events=(('attack_started', 20), ('attack_ended', 52)),
        traces_sha256="b1a8ab5606729669b1feb858a193a66b1476af9d81e41f1579f2d64d68e7e94e",
    ),
    "DS-5-Baseline-Random": GoldenDigest(
        steps=525, min_delta_m=7.12, final_speed_mps=6.69,
        events=(('attack_started', 358), ('attack_ended', 400)),
        traces_sha256="a9c2be512bb0aec3daeb2d606d14625edfaff60b6cfda2cb632cdcfa241f77c5",
    ),
}


def _drift_message(label, expected, got):
    return (
        f"{label}: golden digest drifted — simulation semantics changed.\n"
        f"  expected: {expected}\n"
        f"  got:      {got}\n"
        "If the change is intentional, regenerate the digest via GoldenDigest.of."
    )


def test_every_builtin_scenario_has_a_golden_digest():
    builtin = [sid for sid in list_scenario_ids() if sid in GOLDEN]
    assert sorted(GOLDEN) == sorted(builtin)
    assert len(GOLDEN) == 7


def test_every_non_default_policy_has_golden_digests():
    policies = [policy for policy in sorted(FUSION_POLICIES) if policy != "late"]
    assert sorted(GOLDEN_POLICIES) == sorted(
        (policy, scenario_id) for policy in policies for scenario_id in GOLDEN
    )


def test_attacked_goldens_cover_table2_and_launch():
    assert sorted(GOLDEN_ATTACKED) == sorted(_ATTACKED_CONFIGS)
    for digest in GOLDEN_ATTACKED.values():
        assert ("attack_started", digest.events[0][1]) == digest.events[0]


@pytest.mark.parametrize("scenario_id", sorted(GOLDEN))
def test_golden_trace_digest(scenario_id):
    digest = GoldenDigest.regenerate(scenario_id)
    expected = GOLDEN[scenario_id]
    assert digest == expected, _drift_message(scenario_id, expected, digest)


@pytest.mark.parametrize("policy, scenario_id", sorted(GOLDEN_POLICIES))
def test_fusion_policy_golden_digest(policy, scenario_id):
    digest = GoldenDigest.regenerate(scenario_id, policy)
    expected = GOLDEN_POLICIES[(policy, scenario_id)]
    assert digest == expected, _drift_message(f"{scenario_id}/{policy}", expected, digest)


@pytest.mark.parametrize("campaign_id", sorted(GOLDEN_ATTACKED))
def test_attacked_golden_digest(campaign_id):
    digest = GoldenDigest.of(_attacked_run(campaign_id))
    expected = GOLDEN_ATTACKED[campaign_id]
    assert digest == expected, _drift_message(campaign_id, expected, digest)


@pytest.mark.parametrize("scenario_id", ["DS-1", "DS-7"])
def test_golden_run_is_bitwise_repeatable(scenario_id):
    first = _golden_run(scenario_id)
    second = _golden_run(scenario_id)
    assert first.true_delta_trace == second.true_delta_trace
    assert first.ego_speed_trace == second.ego_speed_trace
