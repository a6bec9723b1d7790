"""Batch golden lanes: the lockstep loop's results, pinned lane by lane.

The repository once had two simulation engines, a scalar step loop and the
vectorized :class:`~repro.sim.batch.BatchSimulator`, and these cases held
them bit-identical: same traces, same events, same halt behaviour, for every
scenario and with or without an attacker in the loop.  The scalar loop is
gone (:meth:`Simulator.run <repro.sim.simulator.Simulator.run>` now steps a
one-lane batch), and each case's reference is the :class:`GoldenDigest` (see
``test_golden_traces``) the scalar loop computed.  For attacked lanes a
SHA-256 also pins everything else the comparison read: the attack record's
signature, every target-track lookup of the trajectory hijacker and, for the
scripted collection lanes, every scenario-matcher verdict and the collected
sample.

Benign lanes with the nominal variation and seeds 1/2 are the golden runs
themselves, so they read ``GOLDEN`` and ``GOLDEN_POLICIES``.

:class:`TestWidthIndependence` is the exact contract: the same specs at
group widths 1, 3, 4 and 64, and one at a time through ``Simulator.run``,
give bitwise-equal traces, events and attack records.

Nothing pinned here may carry an actor id: actors draw fresh ids from a
module-global counter, so ids depend on what ran before in the process.  The
attack record is pinned with its target id blanked, and events by kind and
step.

A batch wider than ``LOCKSTEP_LANES`` runs as consecutive lockstep groups; the
multi-lane cases run at the default width and again with groups of 4 lanes.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from test_golden_traces import GOLDEN, GOLDEN_POLICIES, GoldenDigest

from repro.core.attack_vectors import AttackVector
from repro.core.safety_hijacker import KinematicSafetyPredictor
from repro.core.training import _build_grid_point, _expand_jobs, _point_samples
from repro.experiments.campaign import (
    AttackerKind,
    CampaignConfig,
    PredictorKind,
    _build_attacker,
    _build_run_setup,
    build_ads_agent,
    standard_campaigns,
)
from repro.geometry import Vec2
from repro.perception.detection import DetectorDegradation
from repro.perception.fusion import FusionConfig, SensorFusion, list_fusion_policies
from repro.sensors.camera import CameraSensor
from repro.sim import batch as batch_module
from repro.sim.batch import BatchRunSpec, BatchSimulator
from repro.sim.config import SimulationConfig
from repro.sim.events import EventKind
from repro.sim.scenarios import build_scenario, list_scenario_ids
from repro.sim.simulator import Simulator
from repro.sim.waypoints import Waypoint, WaypointRoute

_ADS_SEED = 1
_SIM_SEED = 2
_ATTACK_SEED = 7


def _benign_setup(scenario_id, fusion=None):
    scenario = build_scenario(scenario_id)
    ads = build_ads_agent(scenario, np.random.default_rng(_ADS_SEED), fusion=fusion)
    return scenario, ads, None, np.random.default_rng(_SIM_SEED)


def _attacked_setup(scenario_id, fusion=None):
    """The campaign layer's exact seeding chain, with the random attacker."""
    config = CampaignConfig(
        campaign_id=f"eq-{scenario_id}",
        scenario_id=scenario_id,
        attacker=AttackerKind.RANDOM,
        vector=AttackVector.MOVE_IN,
        n_runs=1,
        seed=_ATTACK_SEED,
    )
    rng = np.random.default_rng(_ATTACK_SEED)
    scenario = build_scenario(scenario_id)
    ads = build_ads_agent(
        scenario, np.random.default_rng(int(rng.integers(0, 2**31 - 1))), fusion=fusion
    )
    attacker = _build_attacker(
        config, scenario, np.random.default_rng(int(rng.integers(0, 2**31 - 1)))
    )
    return scenario, ads, attacker, np.random.default_rng(int(rng.integers(0, 2**31 - 1)))


_SETUPS = {"benign": _benign_setup, "attacked": _attacked_setup}


class _DropLidarFusion(SensorFusion):
    """A fusion policy with its own ``fuse``: late fusion that never sees
    the LiDAR scan."""

    def fuse(self, estimates, lidar, ego_speed_mps, frame_dt_s):
        return super().fuse(estimates, None, ego_speed_mps, frame_dt_s)


class _CameraDistrustingFusion(SensorFusion):
    """A built-in subclass that only overrides the blend weights."""

    def _blend_weights(self, track):
        return (0.2, 0.05)


def _record_group_widths(monkeypatch):
    """Record the width of every lockstep group the batches step."""
    widths = []
    run_lockstep = batch_module.run_lockstep

    def recorded(lanes, pool):
        widths.append(len(lanes))
        return run_lockstep(lanes, pool)

    monkeypatch.setattr(batch_module, "run_lockstep", recorded)
    return widths


@pytest.fixture(params=[None, 4], ids=["default_width", "width_4"])
def lockstep_groups(request, monkeypatch):
    """Run a test at the default ``LOCKSTEP_LANES`` and at 4 lanes per group;
    returns the width of every lockstep group the batches then step."""
    if request.param is not None:
        monkeypatch.setattr(batch_module, "LOCKSTEP_LANES", request.param)
    return _record_group_widths(monkeypatch)


def _assert_grouped(widths, n_batched):
    """The batched lanes ran as consecutive groups of at most LOCKSTEP_LANES."""
    width = batch_module.LOCKSTEP_LANES
    assert widths == [min(width, n_batched - start) for start in range(0, n_batched, width)]


def _assert_pool_free(simulator):
    """Every Kalman row is back in the batch's shared pool."""
    _assert_free(simulator._pool)


def _assert_free(pool):
    assert sorted(pool._free) == list(range(pool.states.shape[0]))


def _assert_golden(result, expected, label):
    digest = GoldenDigest.of(result)
    assert digest == expected, f"{label}: expected {expected}, got {digest}"


def _run_batch(scenario, ads, attacker, rng, config=None):
    return BatchSimulator(
        [BatchRunSpec(scenario=scenario, ads=ads, attacker=attacker, rng=rng)], config=config
    ).run()[0]


# --------------------------------------------------------------------------- #
# Pinned references (computed by the scalar loop before it was removed)
# --------------------------------------------------------------------------- #

#: Single random-attacker lanes (``_attacked_setup``, late fusion) per scenario.
GOLDEN_RANDOM = {
    "DS-1": GoldenDigest(
        steps=525, min_delta_m=9.793, final_speed_mps=6.919,
        events=(("attack_started", 381), ("attack_ended", 423)),
        traces_sha256="bda5b2a4000cb83fa5d8907ce986af6611bb22ac8c5fba8c8fcc1c33b80faa7a",
    ),
    "DS-2": GoldenDigest(
        steps=375, min_delta_m=12.78, final_speed_mps=12.562,
        events=(),
        traces_sha256="132258018457033ee38bd44dbbcde5c0889a01aeca5344f952ff039f73eeaae5",
    ),
    "DS-3": GoldenDigest(
        steps=300, min_delta_m=float("inf"), final_speed_mps=12.505,
        events=(),
        traces_sha256="778da825d0a5d12c225d51dd4ef6d9ec10c42b1253ebe2e973986e944bba1473",
    ),
    "DS-4": GoldenDigest(
        steps=300, min_delta_m=float("inf"), final_speed_mps=12.508,
        events=(),
        traces_sha256="5bd560282c2d69d976991bc405c3e4408492d43ad01174c54fc49141cf5b7554",
    ),
    "DS-5": GoldenDigest(
        steps=525, min_delta_m=9.687, final_speed_mps=6.936,
        events=(),
        traces_sha256="cbecfe849bb4bf79a0ecd2fea2b397eab1e452a633a87c11f5197b17c417ebe9",
    ),
    "DS-6": GoldenDigest(
        steps=525, min_delta_m=6.771, final_speed_mps=6.647,
        events=(("attack_started", 381), ("attack_ended", 423)),
        traces_sha256="e1685ed6bbdea847b338e496c9067cc255ce872b159da883fbe556ca03077ae8",
    ),
    "DS-7": GoldenDigest(
        steps=375, min_delta_m=12.443, final_speed_mps=9.768,
        events=(),
        traces_sha256="5795742adb762a3b5fe02c6a79fb058bbf7b2fb1a3c32ae0422a018b117d48b3",
    ),
}

#: Random-attacker DS-2 lanes per non-default fusion policy.
GOLDEN_RANDOM_POLICIES = {
    "camera_only": GoldenDigest(
        steps=375, min_delta_m=12.276, final_speed_mps=12.563,
        events=(),
        traces_sha256="ecad1d5e5c5437bd0b5d625be7f957cc564bed30739faee7dd4ed8488080b3a9",
    ),
    "consistency_gated": GoldenDigest(
        steps=375, min_delta_m=12.78, final_speed_mps=12.562,
        events=(),
        traces_sha256="132258018457033ee38bd44dbbcde5c0889a01aeca5344f952ff039f73eeaae5",
    ),
    "lidar_only": GoldenDigest(
        steps=375, min_delta_m=1.383, final_speed_mps=12.541,
        events=(("emergency_brake", 66), ("emergency_brake", 71)),
        traces_sha256="69a594c3157a4a60097fecfaea4b60954002bb7a0ceca5a606100dcfa294db2b",
    ),
}

#: DS-1 lanes whose victim runs a custom fusion policy, per (policy, mode).
GOLDEN_CUSTOM_FUSION = {
    ("drop_lidar", "benign"): GoldenDigest(
        steps=525, min_delta_m=11.678, final_speed_mps=6.951,
        events=(),
        traces_sha256="221dadb2b3e956dfa6613f665fc5fd0649f5550063a5f6d3cf70c1065a370fc4",
    ),
    ("drop_lidar", "attacked"): GoldenDigest(
        steps=525, min_delta_m=11.469, final_speed_mps=6.888,
        events=(("attack_started", 381), ("attack_ended", 423)),
        traces_sha256="4d4b795b8ea3b4fe2ac0fa1dc77a31a265c23a87634393a8b0dc5a202f5b5ee2",
    ),
    ("camera_distrusting", "attacked"): GoldenDigest(
        steps=525, min_delta_m=9.345, final_speed_mps=6.928,
        events=(("attack_started", 381), ("attack_ended", 423)),
        traces_sha256="5c6becc4a600fb96cb8e7c8c64bba4e3777563d661d9f421155194d8c5b98b7b",
    ),
    ("camera_distrusting", "benign"): GoldenDigest(
        steps=525, min_delta_m=9.368, final_speed_mps=6.951,
        events=(),
        traces_sha256="6edf44b02e739bfb8a4c8168f467e64cc629d96afd1a98c176dc6bbe76928ad4",
    ),
}

#: Benign DS-1 with an agent that ran a 3 s warm-up and was then reset.
GOLDEN_RESET_AGENT = GoldenDigest(
    steps=525, min_delta_m=9.84, final_speed_mps=6.952,
    events=(),
    traces_sha256="7789e79be88ca29856334818da75882e0f871e8a231f519f034985ba6a61f260",
)

#: Campaign lanes, per (lane label, run index): the digest and the SHA-256 of
#: the attack record's signature and target lookups (``None`` unattacked).
GOLDEN_LANES = {
    ("DS-1/robotack/DISAPPEAR", 0): (
        GoldenDigest(
            steps=525, min_delta_m=9.547, final_speed_mps=6.393,
            events=(("attack_started", 12), ("attack_ended", 32)),
            traces_sha256="2b645d603df2a896c2b728bcb3697a94bd37e83e53b534d600727feee7d6c92e",
        ),
        "3e752e3d0502283f8b6b6915073a1a2deb221516ca8e8148dc2b6218358f0ffe",
    ),
    ("DS-1/robotack/DISAPPEAR", 1): (
        GoldenDigest(
            steps=525, min_delta_m=5.801, final_speed_mps=6.231,
            events=(("attack_started", 4), ("attack_ended", 51)),
            traces_sha256="ee7d2efb8136eae44dd592032c296523d8dfb8171f1d6c757b8c539cddc00b38",
        ),
        "5925cc24ac8f11bf382ae5fd0a90b9b074833584981d5025bdeb12eb4f70cb25",
    ),
    ("DS-1/robotack/DISAPPEAR", 2): (
        GoldenDigest(
            steps=525, min_delta_m=9.304, final_speed_mps=6.16,
            events=(("attack_started", 4), ("attack_ended", 39)),
            traces_sha256="fa1d23cddca642e9b1a97cad61352d095de97f4b4c5694b711774fd3873b7595",
        ),
        "2d816dec372b1a064dd03b2251a381ba6d07807f6e23e540907c448c932dd146",
    ),
    ("DS-2/robotack/DISAPPEAR", 0): (
        GoldenDigest(
            steps=375, min_delta_m=3.281, final_speed_mps=12.595,
            events=(("attack_started", 21), ("attack_ended", 41), ("emergency_brake", 62)),
            traces_sha256="1c75391c1ead24545f2c163e478546a7a2e98c618e28b0a7edadb82d2de0ea2e",
        ),
        "bf306b101396f6e5a12a54219aa1611f513660cb3cfefabdd82d6c93ff89b939",
    ),
    ("DS-2/robotack/DISAPPEAR", 1): (
        GoldenDigest(
            steps=375, min_delta_m=3.273, final_speed_mps=12.653,
            events=(("attack_started", 19), ("attack_ended", 42), ("emergency_brake", 62)),
            traces_sha256="dbd5b067b5619eb903746219039e49c97dd7321ca1b4a880ea54918bddb03e6e",
        ),
        "7d1db2daab464ae80d67fe2b1752e8bc0603f4d3018df5fbbc39e094f3608e30",
    ),
    ("DS-2/robotack/DISAPPEAR", 2): (
        GoldenDigest(
            steps=375, min_delta_m=1.464, final_speed_mps=12.88,
            events=(("attack_started", 21), ("attack_ended", 50), ("emergency_brake", 62)),
            traces_sha256="787a652d3513daa2cc3093324347e3385584297cd429166571c461cb33b89d39",
        ),
        "6e6c517d210577eb9f82dfd8631f1b460dc6da27f701ad65e58a7916bf2dc6bb",
    ),
    ("DS-1/robotack/MOVE_OUT", 0): (
        GoldenDigest(
            steps=525, min_delta_m=9.546, final_speed_mps=6.397,
            events=(("attack_started", 12), ("attack_ended", 32)),
            traces_sha256="5f8b64abd37583ca431c7ea89d103bd1acddd919357ce75b87843b85bcc96bde",
        ),
        "54b4c74468fa0afbf5ffbd6a7a6a63027fff5be7054a2673ce2e421ae376ed0a",
    ),
    ("DS-1/robotack/MOVE_OUT", 1): (
        GoldenDigest(
            steps=525, min_delta_m=1.859, final_speed_mps=6.22,
            events=(("attack_started", 4), ("attack_ended", 51), ("emergency_brake", 89)),
            traces_sha256="51cb7bae0f1e6d9049e8391e478bc1c60cf70bbe53c4df8df59de89af5b6fac7",
        ),
        "465f094299fae2d8fcf353394d0d15a5e0c2673d1cde0de04c738cfe3d9c35f8",
    ),
    ("DS-1/robotack/MOVE_OUT", 2): (
        GoldenDigest(
            steps=525, min_delta_m=9.351, final_speed_mps=6.238,
            events=(("attack_started", 4), ("attack_ended", 39)),
            traces_sha256="8105fa90fd7d6da7623738378e1617d44b38ec58219913166574a5c6ec3e1548",
        ),
        "e0a7a02abf2d66eb35eac0cebc14e294362597463575426307d4c24c6227d074",
    ),
    ("DS-2/robotack/MOVE_OUT", 0): (
        GoldenDigest(
            steps=375, min_delta_m=3.281, final_speed_mps=12.596,
            events=(("attack_started", 21), ("attack_ended", 41), ("emergency_brake", 62)),
            traces_sha256="d2c25ce5b5b4e64dbcd82d209b1f56c1c0b46201eb1c2a8ffa2824b2d5c0d643",
        ),
        "fb21c11f89a0254ca26ee224f9ac59279d6cfbb3201a3a352e980e81790fa001",
    ),
    ("DS-2/robotack/MOVE_OUT", 1): (
        GoldenDigest(
            steps=375, min_delta_m=-3.153, final_speed_mps=12.646,
            events=(("attack_started", 19), ("attack_ended", 42), ("emergency_brake", 73)),
            traces_sha256="1813d8c64dc12b979513e285212e97976746d7241664100b950b85c6f5372252",
        ),
        "28a5620af4405d7541b8987628e78839ce86ec8136e4e90a81dcc504ecb2267e",
    ),
    ("DS-2/robotack/MOVE_OUT", 2): (
        GoldenDigest(
            steps=375, min_delta_m=1.464, final_speed_mps=12.883,
            events=(("attack_started", 21), ("attack_ended", 50), ("emergency_brake", 62)),
            traces_sha256="8259caf54fa1ea92d9ef9dbe9e2e6d4eb3176eae1618426e9dc15bd77276c993",
        ),
        "903604d860f41cfa1648ff1ef9f3546e612bc6475019832c6064eee838e57b2e",
    ),
    ("DS-3/robotack/MOVE_IN", 0): (
        GoldenDigest(
            steps=300, min_delta_m=float("inf"), final_speed_mps=12.616,
            events=(("attack_started", 37), ("attack_ended", 81)),
            traces_sha256="1509a2f3ef74c90aea4f5b9d5a892d3f5e24fe34ad317542f0ea2cf9171ef2dd",
        ),
        "8964351d4609c6ac8a4cf19477cd2228ff005ae14cf7488ddef94ebed5169a9d",
    ),
    ("DS-3/robotack/MOVE_IN", 1): (
        GoldenDigest(
            steps=300, min_delta_m=float("inf"), final_speed_mps=12.716,
            events=(("attack_started", 28), ("attack_ended", 57)),
            traces_sha256="486df4bcf42f40f3f43f8cf4c7c43dc0fb092f2047bfa8fdda445382cd5e5ddc",
        ),
        "120b654e7578a10368fde63d877b73d674f1e0c3b563ec5d26b6b9f785cc5eda",
    ),
    ("DS-3/robotack/MOVE_IN", 2): (
        GoldenDigest(
            steps=300, min_delta_m=float("inf"), final_speed_mps=12.866,
            events=(("attack_started", 51), ("attack_ended", 98)),
            traces_sha256="4d64eaa1e6903441b4d2432fd9d80de67eccc5c14d0a5fbe204d88c35e7edb39",
        ),
        "8075470869a2fd239544a4681efc0fac439b159832277cf86868e30811624fe6",
    ),
    ("DS-4/robotack/MOVE_IN", 0): (
        GoldenDigest(
            steps=300, min_delta_m=float("inf"), final_speed_mps=12.582,
            events=(("attack_started", 49), ("attack_ended", 72)),
            traces_sha256="8d94cb293bf70f5001aca6b061fae1e8f1fb43a8a0f6530b33240af5c7a4c648",
        ),
        "6af3082ea2a907d5a9f2d09c1e92df8b7fed29238fb89c821faed181035110a8",
    ),
    ("DS-4/robotack/MOVE_IN", 1): (
        GoldenDigest(
            steps=300, min_delta_m=float("inf"), final_speed_mps=12.659,
            events=(("attack_started", 56), ("attack_ended", 79)),
            traces_sha256="941a7fa11192a94a3e8ecb564b4df8d23f870c5f6ad72ae8198032874fe93da2",
        ),
        "aa9609af7bf782a2a89dc6f100c2e0db21487bc6f2ae60a45c3974f75ac3666c",
    ),
    ("DS-4/robotack/MOVE_IN", 2): (
        GoldenDigest(
            steps=300, min_delta_m=float("inf"), final_speed_mps=12.864,
            events=(("attack_started", 53), ("attack_ended", 82)),
            traces_sha256="49d599b6ffa31c4a0834c98605c574d978a0e23f260541c7b320bfbe1126cac4",
        ),
        "e214036440642988dd39975ca97f4a11a2fcb477631d4bb85710faade48235de",
    ),
    ("DS-1/robotack_no_sh/DISAPPEAR", 0): (
        GoldenDigest(
            steps=525, min_delta_m=5.789, final_speed_mps=6.395,
            events=(("attack_started", 235), ("attack_ended", 283)),
            traces_sha256="b7b434b1e963eed679f135cdf7b14419a5f89684c1bf5aaacc937321199ee1b8",
        ),
        "2d0145da76defcd1062976573b9be895b7448cb9eb8952d1838747aba6f37b68",
    ),
    ("DS-2/robotack_no_sh/MOVE_OUT", 0): (
        GoldenDigest(
            steps=375, min_delta_m=6.564, final_speed_mps=12.605,
            events=(),
            traces_sha256="57f12a3b33afcd4f70bcd8aec321c4d4b8c10deeeebcd0f41f10d8bafc33a600",
        ),
        "4182f8f6153fc57bf248fdaa3a75775ac0d216457a3cb466c15e977f83b03ebe",
    ),
    ("DS-3/robotack_no_sh/MOVE_IN", 0): (
        GoldenDigest(
            steps=300, min_delta_m=float("inf"), final_speed_mps=12.545,
            events=(),
            traces_sha256="e0c8d10f7f63350acd227551fc1dd65a1fd3312a431a41437bf84a21fa7fa558",
        ),
        "4182f8f6153fc57bf248fdaa3a75775ac0d216457a3cb466c15e977f83b03ebe",
    ),
    ("DS-3/robotack/MOVE_IN/degraded", 0): (
        GoldenDigest(
            steps=300, min_delta_m=float("inf"), final_speed_mps=12.625,
            events=(),
            traces_sha256="3dc098db474ee267cb99d2ec368ff435af835961123b539f0a61e84c1f165456",
        ),
        "4182f8f6153fc57bf248fdaa3a75775ac0d216457a3cb466c15e977f83b03ebe",
    ),
    ("DS-3/robotack/MOVE_IN/degraded", 1): (
        GoldenDigest(
            steps=300, min_delta_m=float("inf"), final_speed_mps=12.74,
            events=(("emergency_brake", 115),),
            traces_sha256="c4cad9f1f4e1a464dad81f4e54c5f6a7cf6f5ebcf956d6052a92d388c2ad6f57",
        ),
        "4182f8f6153fc57bf248fdaa3a75775ac0d216457a3cb466c15e977f83b03ebe",
    ),
    ("DS-3/robotack/MOVE_IN/degraded", 2): (
        GoldenDigest(
            steps=300, min_delta_m=float("inf"), final_speed_mps=12.832,
            events=(("emergency_brake", 125), ("attack_started", 128), ("attack_ended", 139)),
            traces_sha256="bf305dd17c434f93c64a3ba6963b63a30eb2f9757e3947153906d20132c1b850",
        ),
        "4d19e3894db9d871feaf5141b40a0370bacafa1b5681611210581402fecca412",
    ),
    ("DS-5/random/-", 1): (
        GoldenDigest(
            steps=525, min_delta_m=5.929, final_speed_mps=6.989,
            events=(),
            traces_sha256="7014650df1788b2f65926ebf77814d028f61030c43e01c70ffaef2a2bfeecd71",
        ),
        "4182f8f6153fc57bf248fdaa3a75775ac0d216457a3cb466c15e977f83b03ebe",
    ),
    ("DS-2/robotack_no_sh/DISAPPEAR", 1): (
        GoldenDigest(
            steps=375, min_delta_m=4.458, final_speed_mps=12.673,
            events=(),
            traces_sha256="a58e5d3811b140567f6f5a30abe85f2c8c001fec09528b335788dedca27b63a9",
        ),
        "4182f8f6153fc57bf248fdaa3a75775ac0d216457a3cb466c15e977f83b03ebe",
    ),
    ("DS-1/none/-", 0): (
        GoldenDigest(
            steps=525, min_delta_m=9.579, final_speed_mps=6.397,
            events=(),
            traces_sha256="e38ce278b8f39f557ce2de708bef037bc5d7492ee61026bea5bc10267bba183f",
        ),
        None,
    ),
    ("DS-2/none/-", 0): (
        GoldenDigest(
            steps=375, min_delta_m=6.564, final_speed_mps=12.605,
            events=(),
            traces_sha256="57f12a3b33afcd4f70bcd8aec321c4d4b8c10deeeebcd0f41f10d8bafc33a600",
        ),
        None,
    ),
    ("DS-3/none/-", 0): (
        GoldenDigest(
            steps=300, min_delta_m=float("inf"), final_speed_mps=12.545,
            events=(),
            traces_sha256="e0c8d10f7f63350acd227551fc1dd65a1fd3312a431a41437bf84a21fa7fa558",
        ),
        None,
    ),
    ("DS-4/none/-", 0): (
        GoldenDigest(
            steps=300, min_delta_m=float("inf"), final_speed_mps=12.557,
            events=(),
            traces_sha256="ce0d8bb57fe792330a717b72d514b12d0c515858291899ee2fbb53b528503642",
        ),
        None,
    ),
    ("DS-5/none/-", 0): (
        GoldenDigest(
            steps=525, min_delta_m=9.571, final_speed_mps=6.386,
            events=(),
            traces_sha256="24b6b95eef0ed28d45139379db80b2ad68f0d4abcf83df004f281877756776b0",
        ),
        None,
    ),
    ("DS-6/none/-", 0): (
        GoldenDigest(
            steps=525, min_delta_m=6.667, final_speed_mps=6.233,
            events=(),
            traces_sha256="ee00fd5a9e5f994b34cb50b5fa3f70cd0a29c9db4c7888395e17fc7ecd54e5fe",
        ),
        None,
    ),
    ("DS-7/none/-", 0): (
        GoldenDigest(
            steps=375, min_delta_m=4.496, final_speed_mps=9.823,
            events=(),
            traces_sha256="6a4c34fffb11663a4fee1e06b579edb23b3c890d4dc9a78d52ae6348ec233aaf",
        ),
        None,
    ),
    ("DS-2/robotack/DISAPPEAR/used_attacker", 0): (
        GoldenDigest(
            steps=375, min_delta_m=5.394, final_speed_mps=12.598,
            events=(("attack_started", 17), ("attack_ended", 37)),
            traces_sha256="7e88a0eae67b915d7361561816697c56a3d92c0bfd9322bd8c361dd2518cbad7",
        ),
        "f5c5b8fe84444be7c08c40d10933d9c60e0f3e54308b7bc4b4df58d4b57fdd0f",
    ),
    ("DS-2/robotack/DISAPPEAR/used_attacker", 1): (
        GoldenDigest(
            steps=375, min_delta_m=2.721, final_speed_mps=12.667,
            events=(
                ("attack_started", 15),
                ("attack_ended", 44),
                ("emergency_brake", 60),
                ("emergency_brake", 62),
            ),
            traces_sha256="47080a6b97b1b4704bf6f1cab1319dd59cb0a707a58492e13f80cd8413009b49",
        ),
        "a5414fb5b7d3b109409d21055561968150ed94c5194ac1ff8a58d163cd155471",
    ),
}

#: Scripted collection lanes per case: the digest and the SHA-256 of the
#: attack record's signature, target lookups, matcher verdicts and sample.
GOLDEN_SCRIPTED = {
    "DS-2-Disappear": (
        GoldenDigest(
            steps=375, min_delta_m=7.788, final_speed_mps=12.992,
            events=(("attack_started", 7), ("attack_ended", 16)),
            traces_sha256="806c472ed7fc6fb1df520ad472381026373789f2bd5c7fb0d7fb18e23745650c",
        ),
        "639d0ae43856c5ed0f7d493e4f815ab8923d13f17569a908f97e0c2476b57538",
    ),
    "DS-1-Move_Out": (
        GoldenDigest(
            steps=525, min_delta_m=9.622, final_speed_mps=7.024,
            events=(("attack_started", 1), ("attack_ended", 30)),
            traces_sha256="7de10d8fa6203d95cfa3132d35770f2bd6a8fe9cd4aecca56cd299b528be0043",
        ),
        "75d13f20adfd08743f0771e56c590478625e9feb1c6068e7a6fb64997aab760b",
    ),
    "DS-3-Move_In": (
        GoldenDigest(
            steps=300, min_delta_m=float("inf"), final_speed_mps=12.89,
            events=(("attack_started", 80), ("emergency_brake", 84), ("attack_ended", 91)),
            traces_sha256="b1765706c5f30dd6e6c39ed15fb4137988d9d04565fdf450cab3aed249c1ff81",
        ),
        "4fe310a257a5a9a2caf7863b386b6d5bfa24278c129d3be0aa19593808da1096",
    ),
    "DS-7-Disappear-degraded": (
        GoldenDigest(
            steps=375, min_delta_m=7.709, final_speed_mps=10.115,
            events=(("attack_started", 10), ("attack_ended", 19)),
            traces_sha256="3df024903fbf251c779f7cb2983ead2cb1d1e76af4d69a60979bf65291589854",
        ),
        "06ef6b218deae13ac13a2028fc47b63eb57373e5af31b64b9e3406283bac907b",
    ),
    "DS-3-Move_In-trigger_200m": (
        GoldenDigest(
            steps=300, min_delta_m=float("inf"), final_speed_mps=12.966,
            events=(("attack_started", 25), ("attack_ended", 36)),
            traces_sha256="cd75c9d2b8fb3ff6095c99a90d20e60d498797dd7a438d6360853517e02d91a2",
        ),
        "1c2b7052dced05a347b39b1bafadc27c91872e4278d99682b1e522d369835553",
    ),
    "DS-2-Disappear-trigger_-100m": (
        GoldenDigest(
            steps=375, min_delta_m=7.716, final_speed_mps=12.99,
            events=(),
            traces_sha256="99be3f65dd6ce9426b70f1dcdb8248dbdef47908e40b648a6f8e414e1274d6d9",
        ),
        "5e74f6b6c2cd0037889ad4c948fe79e72b4b29c93eb761d603cf1157b668b32a",
    ),
}


class TestScalarBatchEquivalence:
    @pytest.mark.parametrize("scenario_id", list_scenario_ids())
    @pytest.mark.parametrize("mode", sorted(_SETUPS))
    def test_single_lane_matches_scalar(self, scenario_id, mode):
        expected = (GOLDEN if mode == "benign" else GOLDEN_RANDOM)[scenario_id]
        _assert_golden(_run_batch(*_SETUPS[mode](scenario_id)), expected, scenario_id)

    def test_multi_lane_lockstep_is_independent(self, lockstep_groups):
        """All scenarios in one batch, with a custom-``fuse`` lane among
        them: lanes finish at different steps, no lane's presence perturbs
        any other lane's result, and results come back in spec order."""
        lanes = [(scenario_id, None) for scenario_id in list_scenario_ids()]
        lanes.insert(2, ("DS-1", _DropLidarFusion))
        expected = [GOLDEN[scenario_id] if fusion_type is None
                    else GOLDEN_CUSTOM_FUSION[("drop_lidar", "benign")]
                    for scenario_id, fusion_type in lanes]

        def setups():
            for scenario_id, fusion_type in lanes:
                scenario, ads, attacker, rng = _benign_setup(scenario_id)
                if fusion_type is not None:
                    ads.perception.fusion = fusion_type(ads.perception.config.fusion)
                yield scenario, ads, attacker, rng

        simulator = BatchSimulator([
            BatchRunSpec(scenario=scenario, ads=ads, attacker=attacker, rng=rng)
            for scenario, ads, attacker, rng in setups()
        ])
        batches = simulator.run()
        assert len(batches) == len(expected)
        # Mixed durations force lanes to drop out of the lockstep loop early.
        assert len({result.steps_executed for result in batches}) > 1
        for index, (result, digest) in enumerate(zip(batches, expected)):
            _assert_golden(result, digest, f"lane {index}")
        _assert_pool_free(simulator)
        _assert_grouped(lockstep_groups, len(lanes))

    def test_empty_batch_is_rejected(self):
        with pytest.raises(ValueError, match="at least one run spec"):
            BatchSimulator([])

    @pytest.mark.parametrize("scenario_id", list_scenario_ids())
    @pytest.mark.parametrize("policy", [p for p in list_fusion_policies() if p != "late"])
    def test_non_default_policies_match_scalar(self, scenario_id, policy):
        """Every non-default fusion policy matches its golden run (the
        default ``late`` policy is covered by every other test here)."""
        fusion = FusionConfig(policy=policy)
        _assert_golden(_run_batch(*_benign_setup(scenario_id, fusion=fusion)),
                       GOLDEN_POLICIES[(policy, scenario_id)], f"{scenario_id}/{policy}")

    @pytest.mark.parametrize("policy", [p for p in list_fusion_policies() if p != "late"])
    def test_non_default_policies_match_scalar_under_attack(self, policy):
        """Same gate with the random attacker in the loop (DS-2 hosts the
        pedestrian variant of the perception stack)."""
        fusion = FusionConfig(policy=policy)
        _assert_golden(_run_batch(*_attacked_setup("DS-2", fusion=fusion)),
                       GOLDEN_RANDOM_POLICIES[policy], policy)

    def test_custom_fuse_fusion_policy_runs_in_its_lane(self):
        """A batch of late-fusion lanes around one victim with its own
        ``fuse`` (attacked DS-1, a SensorFusion subclass that drops the LiDAR
        scan) matches the pins, and that victim's run differs from a
        late-fusion one, so its own policy really ran."""
        lanes = [("DS-1", "benign", None), ("DS-1", "attacked", _DropLidarFusion),
                 ("DS-2", "attacked", None)]
        expected = [GOLDEN["DS-1"], GOLDEN_CUSTOM_FUSION[("drop_lidar", "attacked")],
                    GOLDEN_RANDOM["DS-2"]]

        def setups():
            for scenario_id, mode, fusion_type in lanes:
                scenario, ads, attacker, rng = _SETUPS[mode](scenario_id)
                if fusion_type is not None:
                    ads.perception.fusion = fusion_type()
                yield scenario, ads, attacker, rng

        batch = BatchSimulator([
            BatchRunSpec(scenario=scenario, ads=ads, attacker=attacker, rng=rng)
            for scenario, ads, attacker, rng in setups()
        ]).run()
        assert len(batch) == len(expected)
        for index, (result, digest) in enumerate(zip(batch, expected)):
            _assert_golden(result, digest, f"lane {index}")
        assert expected[1] != GOLDEN_RANDOM["DS-1"]

    @pytest.mark.parametrize("mode", sorted(_SETUPS))
    def test_blend_weight_subclass_matches_scalar(self, mode):
        """A built-in subclass that only overrides the blend weights runs
        through the same core, and differs from ``late``."""
        expected = GOLDEN_CUSTOM_FUSION[("camera_distrusting", mode)]
        scenario, ads, attacker, rng = _SETUPS[mode]("DS-1")
        ads.perception.fusion = _CameraDistrustingFusion(ads.perception.config.fusion)
        _assert_golden(_run_batch(scenario, ads, attacker, rng), expected, mode)
        assert expected != (GOLDEN if mode == "benign" else GOLDEN_RANDOM)["DS-1"]

    def test_spawn_overlap_halts_batch_lane_at_step_zero(self):
        """The step-0 collision check is mirrored in the batch engine."""
        scenario = build_scenario("DS-1")
        target = next(
            actor
            for actor in scenario.world.actors
            if actor.actor_id == scenario.target_actor_id
        )
        ego = scenario.world.ego
        target.route = WaypointRoute([Waypoint(Vec2(ego.position.x, ego.position.y), 0.0)])
        ads = build_ads_agent(scenario, np.random.default_rng(_ADS_SEED))
        result = BatchSimulator(
            [BatchRunSpec(scenario=scenario, ads=ads, rng=np.random.default_rng(_SIM_SEED))]
        ).run()[0]
        assert result.halted_on_collision
        assert result.steps_executed == 0
        assert len(result.events.true_delta_trace) == 1
        kinds = [(e.kind, e.step_index) for e in result.events.events]
        assert (EventKind.COLLISION, 0) in kinds
        assert (EventKind.SIMULATION_HALTED, 0) in kinds


class TestFreshVictimAgent:
    """A lane moves its victim's tracker onto the shared Kalman pool, so a
    victim agent that already ran must be reset before it joins a batch."""

    @staticmethod
    def _warmed_setup(reset):
        """The benign DS-1 setup after a 3 s run with the same agent."""
        scenario, ads, _, rng = _benign_setup("DS-1")
        warm_up = SimulationConfig(max_duration_s=3.0)
        Simulator(build_scenario("DS-1"), ads, config=warm_up,
                  rng=np.random.default_rng(_SIM_SEED)).run()
        if reset:
            ads.reset()
        return scenario, ads, rng

    def test_warmed_agent_is_rejected(self):
        scenario, ads, rng = self._warmed_setup(reset=False)
        with pytest.raises(ValueError, match="fresh victim agent"):
            BatchSimulator([BatchRunSpec(scenario=scenario, ads=ads, rng=rng)])

    @pytest.mark.parametrize("stage", ["detector", "tracker", "transform"])
    def test_each_stateful_camera_stage_is_checked(self, stage):
        scenario, ads, _, rng = _benign_setup("DS-1")
        perception = ads.perception
        if stage == "detector":
            perception.detector._burst_remaining[1] = 3
        elif stage == "tracker":
            perception.tracker.tracks[1] = object()
        else:
            perception.transform._history[1] = object()
        with pytest.raises(ValueError, match="fresh victim agent"):
            BatchSimulator([BatchRunSpec(scenario=scenario, ads=ads, rng=rng)])

    def test_reset_agent_matches_scalar(self):
        scenario, ads, rng = self._warmed_setup(reset=True)
        _assert_golden(_run_batch(scenario, ads, None, rng), GOLDEN_RESET_AGENT, "reset")

    def test_warmed_agent_is_rejected_by_a_lone_run(self):
        scenario, ads, rng = self._warmed_setup(reset=False)
        with pytest.raises(ValueError, match="Simulator needs a fresh victim agent"):
            Simulator(scenario, ads, rng=rng).run()

    def test_rejected_batch_retries_after_reset(self):
        """A batch rejected for a warmed agent has taken no draw from any
        spec's generator: once that agent is reset, the same specs give every
        lane its pinned result, the fresh lane before it included."""
        scenario, ads, _, rng = _benign_setup("DS-1")
        warm_scenario, warm_ads, warm_rng = self._warmed_setup(reset=False)
        specs = [BatchRunSpec(scenario=scenario, ads=ads, rng=rng),
                 BatchRunSpec(scenario=warm_scenario, ads=warm_ads, rng=warm_rng)]
        with pytest.raises(ValueError, match="fresh victim agent") as rejected:
            BatchSimulator(specs)
        warm_ads.reset()
        batch = BatchSimulator(specs).run()
        _assert_golden(batch[0], GOLDEN["DS-1"], "fresh lane")
        _assert_golden(batch[1], GOLDEN_RESET_AGENT, "reset lane")
        assert "spec 1's camera perception" in str(rejected.value)


class TestOneAgentAndAttackerPerLane:
    """Two lanes that shared one agent, attacker or scenario would drive one
    tracker, planner, attack record or world, so such a batch is rejected."""

    def test_shared_victim_agent_is_rejected(self):
        setups = [_benign_setup(scenario_id) for scenario_id in ("DS-1", "DS-2", "DS-1")]
        shared_ads = setups[0][1]
        with pytest.raises(ValueError, match="specs 0 and 2 share one victim agent"):
            BatchSimulator([
                BatchRunSpec(scenario=scenario, ads=shared_ads if index == 2 else ads, rng=rng)
                for index, (scenario, ads, _, rng) in enumerate(setups)
            ])

    def test_shared_scenario_is_rejected(self):
        """Each lane drives its scenario's own world."""
        setups = [_benign_setup("DS-1") for _ in range(2)]
        shared_scenario = setups[0][0]
        with pytest.raises(ValueError, match="specs 0 and 1 share one scenario"):
            BatchSimulator([
                BatchRunSpec(scenario=shared_scenario, ads=ads, rng=rng)
                for _, ads, _, rng in setups
            ])

    def test_shared_attacker_is_rejected(self):
        setups = [_attacked_setup(scenario_id) for scenario_id in ("DS-1", "DS-2")]
        shared_attacker = setups[0][2]
        with pytest.raises(ValueError, match="specs 0 and 1 share one attacker"):
            BatchSimulator([
                BatchRunSpec(scenario=scenario, ads=ads, attacker=shared_attacker, rng=rng)
                for scenario, ads, _, rng in setups
            ])


# --------------------------------------------------------------------------- #
# Attacked lanes: RoboTack, its ablations, and a protocol-only black box
# --------------------------------------------------------------------------- #

#: The six (scenario, vector) pairs of paper Table II.
_TABLE2_PAIRS = [(config.scenario_id, config.vector) for config in standard_campaigns()]
#: Runs per attacked campaign.
_ATTACKED_RUNS = 3


def _campaign(scenario_id, attacker, vector=None, degradation=None):
    return CampaignConfig(
        campaign_id=f"eq-{scenario_id}-{attacker.value}",
        scenario_id=scenario_id,
        attacker=attacker,
        vector=vector,
        n_runs=_ATTACKED_RUNS,
        seed=_ATTACK_SEED,
        predictor=PredictorKind.KINEMATIC,
        detector_degradation=degradation,
    )


def _label(config):
    """A campaign lane's key in ``GOLDEN_LANES``."""
    vector = config.vector.name if config.vector is not None else "-"
    degraded = "/degraded" if config.detector_degradation is not None else ""
    return f"{config.scenario_id}/{config.attacker.value}/{vector}{degraded}"


def _log_target_lookups(attacker):
    """Log (frame index, target box, misses) for every frame the trajectory
    hijacker perturbs: the replica's view of the target at that moment."""
    log = []
    hijacker = attacker.trajectory_hijacker
    perturb = hijacker.perturb_frame

    def logged(frame, attacker_track):
        seen = None
        if attacker_track is not None:
            seen = (attacker_track.bbox, attacker_track.consecutive_misses)
        log.append((frame.frame_index, seen))
        return perturb(frame, attacker_track)

    hijacker.perturb_frame = logged
    return log


def _lane(config, run_index, wrap=None):
    """One run of ``config`` through the campaign layer's seeding chain."""
    predictor = None
    if config.attacker is AttackerKind.ROBOTACK:
        predictor = KinematicSafetyPredictor(config.vector)
    setup = _build_run_setup(config, run_index, predictor=predictor)
    lookups = [] if setup.attacker is None else _log_target_lookups(setup.attacker)
    attacker = setup.attacker if wrap is None else wrap(setup.attacker)
    return setup, attacker, lookups


def _run_lanes(lanes, wrap=None):
    """Every (config, run index) as the lanes of one batch; returns (result,
    attacker, lookups) per lane."""
    built = [_lane(config, index, wrap) for config, index in lanes]
    simulator = BatchSimulator([
        BatchRunSpec(scenario=setup.scenario, ads=setup.ads, attacker=attacker,
                     rng=setup.sim_rng)
        for setup, attacker, _ in built
    ])
    results = simulator.run()
    _assert_pool_free(simulator)
    return [(result, attacker, lookups)
            for result, (_, attacker, lookups) in zip(results, built)]


def _record_signature(attacker):
    # Actor ids come from a module-global counter (see the module docstring),
    # so the target is compared by kind, not id.
    record = getattr(attacker, "inner", attacker).record
    return repr(dataclasses.replace(record, target_actor_id=None))


def _attack_sha256(attacker, lookups, *extra):
    """SHA-256 of the attack record's signature, the target lookups and any
    ``extra`` values, each by ``repr``; ``None`` for an unattacked lane."""
    if attacker is None:
        return None
    digest = hashlib.sha256(_record_signature(attacker).encode())
    for part in (lookups, *extra):
        digest.update(b";" + repr(part).encode())
    return digest.hexdigest()


def _assert_lanes_golden(runs, keys):
    """Every (result, attacker, lookups) in ``runs`` matches its pin in
    ``GOLDEN_LANES`` under its key."""
    assert len(runs) == len(keys)
    for key, (result, attacker, lookups) in zip(keys, runs):
        digest, attack = GOLDEN_LANES[key]
        _assert_golden(result, digest, str(key))
        assert _attack_sha256(attacker, lookups) == attack, key


def _assert_batch_golden(lanes, wrap=None, keys=None):
    """Run ``lanes`` as one batch; each lane matches its pin."""
    keys = keys or [(_label(config), index) for config, index in lanes]
    batch = _run_lanes(lanes, wrap)
    _assert_lanes_golden(batch, keys)
    return batch


def _launched(lanes):
    return [attacker for _, attacker, _ in lanes
            if attacker is not None and attacker.record.launched]


class _ProtocolOnlyAttacker:
    """Implements only the ``CameraAttacker`` protocol: a black box that
    passes every frame through to an inner attacker and reports its state."""

    def __init__(self, inner):
        self.inner = inner
        self.frames_seen = 0

    def process_frame(self, frame, ego_speed_mps, dt):
        self.frames_seen += 1
        return self.inner.process_frame(frame, ego_speed_mps=ego_speed_mps, dt=dt)

    @property
    def attack_active(self):
        return self.inner.attack_active

    @property
    def target_actor_id(self):
        return self.inner.target_actor_id

    @property
    def record(self):
        return self.inner.record


#: The oracle's training-collection lanes (scripted attacks), as
#: (scenario, vector, delta_inject, k).  Each is the first point of its
#: golden collection grid in ``tests/core/test_training_pipeline.py``.  A
#: 200 m trigger is above any reachable delta, so the attack launches on the
#: first matched target; a -100 m trigger is never reached.
_SCRIPTED_CASES = {
    "DS-2-Disappear": ("DS-2", AttackVector.DISAPPEAR, 55.0, 10),
    "DS-1-Move_Out": ("DS-1", AttackVector.MOVE_OUT, 28.0, 30),
    "DS-3-Move_In": ("DS-3", AttackVector.MOVE_IN, 20.0, 12),
    "DS-7-Disappear-degraded": ("DS-7", AttackVector.DISAPPEAR, 45.0, 10),
    "DS-3-Move_In-trigger_200m": ("DS-3", AttackVector.MOVE_IN, 200.0, 12),
    "DS-2-Disappear-trigger_-100m": ("DS-2", AttackVector.DISAPPEAR, -100.0, 10),
}
_COLLECTION_SEED = 17


def _scripted_lane(case):
    """One collection grid point, built by the training module's own per-job
    setup (same constructors, same seeds); logs the target lookups and every
    scenario-matcher verdict with the frame it was made on."""
    scenario_id, vector, delta_inject, k_frames = _SCRIPTED_CASES[case]
    (job,) = _expand_jobs((delta_inject,), (k_frames,), _COLLECTION_SEED, repeats=1)
    scenario, ads, attacker, rng = _build_grid_point(scenario_id, vector, job)
    lookups = _log_target_lookups(attacker)
    matches = []
    match = attacker.scenario_matcher.match

    def logged(estimate):
        verdict = match(estimate)
        matches.append((attacker._frame_count, verdict))
        return verdict

    attacker.scenario_matcher.match = logged
    return job, scenario, ads, attacker, rng, lookups, matches


def _scripted_sha256(case, job, result, attacker, lookups, matches):
    """The attack SHA-256 of a scripted lane: record, lookups, matcher
    verdicts and the collected sample."""
    samples = _point_samples(_SCRIPTED_CASES[case][1], job, result, attacker)
    return _attack_sha256(attacker, lookups, matches, samples)


@pytest.fixture(scope="module")
def scripted_batch():
    """Every scripted-attack case as the lanes of one batch, by case name."""
    lanes = [_scripted_lane(case) for case in _SCRIPTED_CASES]
    simulator = BatchSimulator([
        BatchRunSpec(scenario=scenario, ads=ads, attacker=attacker, rng=rng)
        for _, scenario, ads, attacker, rng, _, _ in lanes
    ])
    results = simulator.run()
    _assert_pool_free(simulator)
    return dict(zip(_SCRIPTED_CASES, zip(results, lanes)))


class TestAttackedScalarBatchEquivalence:
    """RoboTack and its baselines on the batch engine: traces, events, the
    attack record and every target-track lookup of the trajectory hijacker
    match the pins."""

    @pytest.mark.parametrize("scenario_id, vector", _TABLE2_PAIRS)
    def test_robotack_table2_pairs(self, scenario_id, vector):
        config = _campaign(scenario_id, AttackerKind.ROBOTACK, vector)
        batch = _assert_batch_golden([(config, index) for index in range(_ATTACKED_RUNS)])
        assert _launched(batch)

    def test_robotack_without_safety_hijacker(self):
        lanes = [(_campaign("DS-1", AttackerKind.ROBOTACK_NO_SH, AttackVector.DISAPPEAR), 0),
                 (_campaign("DS-2", AttackerKind.ROBOTACK_NO_SH, AttackVector.MOVE_OUT), 0),
                 (_campaign("DS-3", AttackerKind.ROBOTACK_NO_SH, AttackVector.MOVE_IN), 0)]
        batch = _assert_batch_golden(lanes)
        assert _launched(batch)

    def test_degraded_detector_move_in(self):
        degradation = DetectorDegradation(sigma_scale=6, misdetection_scale=4)
        config = _campaign("DS-3", AttackerKind.ROBOTACK, AttackVector.MOVE_IN, degradation)
        batch = _assert_batch_golden([(config, index) for index in range(_ATTACKED_RUNS)])
        assert _launched(batch)

    def test_mixed_attacked_and_benign_lanes(self, lockstep_groups):
        """Attacked and benign lanes in one batch, halting at different steps;
        with groups of 4 lanes, the groups split RoboTack, random, no-SH and
        benign lanes.

        Covers both moments the perturbation reads the replica's target
        track: on the launch frame it sees this frame's updated tracks, on
        every later attack frame the track as the previous frame left it.
        """
        lanes = [(_campaign(scenario_id, AttackerKind.ROBOTACK, vector), 0)
                 for scenario_id, vector in _TABLE2_PAIRS]
        lanes += [(_campaign("DS-5", AttackerKind.RANDOM), 1),
                  (_campaign("DS-2", AttackerKind.ROBOTACK_NO_SH, AttackVector.DISAPPEAR), 1)]
        lanes += [(_campaign(scenario_id, AttackerKind.NONE), 0)
                  for scenario_id in list_scenario_ids()]
        batch = _assert_batch_golden(lanes)
        _assert_grouped(lockstep_groups, len(lanes))
        assert len({result.steps_executed for result, _, _ in batch}) > 1
        launch_reads = later_reads = 0
        for _, attacker, lookups in batch:
            if attacker is None or not attacker.record.launched:
                continue
            launch_frame = attacker.record.start_frame - 1
            for frame_index, seen in lookups:
                if seen is not None:
                    launch_reads += frame_index == launch_frame
                    later_reads += frame_index > launch_frame
        assert launch_reads and later_reads

    def test_protocol_only_attacker_runs_as_a_black_box(self):
        """A black box gives the batched replica's results."""
        config = _campaign("DS-2", AttackerKind.ROBOTACK, AttackVector.DISAPPEAR)
        batch = _assert_batch_golden([(config, index) for index in range(2)],
                                    wrap=_ProtocolOnlyAttacker)
        assert _launched(batch)
        for result, attacker, _ in batch:
            assert attacker.frames_seen == result.steps_executed

    def test_stock_replica_runs_in_the_batch_port(self):
        """A RoboTack lane never calls its black-box frame hook, and every
        Kalman row is back in the pool at the end."""
        lanes = [_lane(_campaign("DS-3", AttackerKind.ROBOTACK, AttackVector.MOVE_IN), index)
                 for index in range(_ATTACKED_RUNS)]
        for _, attacker, _ in lanes:
            attacker.process_frame = None  # any call would raise
        simulator = BatchSimulator([
            BatchRunSpec(scenario=setup.scenario, ads=setup.ads, attacker=attacker,
                         rng=setup.sim_rng)
            for setup, attacker, _ in lanes
        ])
        simulator.run()
        assert any(attacker.record.launched for _, attacker, _ in lanes)
        _assert_pool_free(simulator)

    @pytest.mark.parametrize("variant", ["overridden_hook", "used_attacker"])
    def test_non_stock_attackers_fall_back_to_black_box(self, variant):
        """A subclass that overrides the frame hook, or an attacker whose
        replica already holds state, runs as a black box on every frame; an
        overridden hook that defers to the stock one gives the stock
        results."""
        config = _campaign("DS-2", AttackerKind.ROBOTACK, AttackVector.DISAPPEAR)

        def wrap(attacker):
            if variant == "overridden_hook":
                class Hooked(type(attacker)):
                    def process_frame(self, frame, ego_speed_mps, dt):
                        self.frames_seen = getattr(self, "frames_seen", 0) + 1
                        return super().process_frame(frame, ego_speed_mps, dt)
                attacker.__class__ = Hooked
            else:
                scenario = build_scenario("DS-2")
                frame = CameraSensor().capture(scenario.world.snapshot())
                for _ in range(5):
                    attacker.process_frame(frame, ego_speed_mps=10.0, dt=1.0 / 15.0)
            return attacker

        label = _label(config) + ("/used_attacker" if variant == "used_attacker" else "")
        batch = _assert_batch_golden([(config, index) for index in range(2)], wrap=wrap,
                                    keys=[(label, index) for index in range(2)])
        if variant == "overridden_hook":
            for result, attacker, _ in batch:
                assert attacker.frames_seen == result.steps_executed

    @pytest.mark.parametrize("case", list(_SCRIPTED_CASES))
    def test_scripted_attack_lane_matches_scalar(self, scripted_batch, case):
        """A training-collection lane, in the batch of all cases, matches its
        pin: traces, events, attack record, target lookups, matcher verdicts
        and the collected sample."""
        vector = _SCRIPTED_CASES[case][1]
        digest, attack = GOLDEN_SCRIPTED[case]
        b_result, (job, scenario, _, b_attacker, _, b_lookups, b_matches) = scripted_batch[case]
        if case.startswith("DS-7"):  # the fog detector reaches the attacker
            assert scenario.detector_config is not None
            assert b_attacker.config.perception.detector == scenario.detector_config
        _assert_golden(b_result, digest, case)
        assert _scripted_sha256(case, job, b_result, b_attacker, b_lookups, b_matches) == attack

        samples = _point_samples(vector, job, b_result, b_attacker)
        record = b_attacker.record
        matched = [frame for frame, verdict in b_matches if verdict is vector]
        assert matched, "the target must reach the scenario matcher"
        if case.endswith("_-100m"):
            assert not record.launched and samples[1:] == ([], [])
        else:
            assert record.launched and record.frames_perturbed and samples[2]
        if case.endswith("_200m"):
            assert record.start_frame == matched[0]


# --------------------------------------------------------------------------- #
# Width independence: the exact contract
# --------------------------------------------------------------------------- #


def _width_specs():
    """One fresh spec per lane kind: benign (DS-1 and the shorter DS-3),
    RoboTack, random, no-SH, scripted, a black-box attacker and a
    custom-``fuse`` victim."""
    specs = []
    for config, index, wrap in (
        (_campaign("DS-1", AttackerKind.NONE), 0, None),
        (_campaign("DS-2", AttackerKind.ROBOTACK, AttackVector.DISAPPEAR), 0, None),
        (_campaign("DS-5", AttackerKind.RANDOM), 1, None),
        (_campaign("DS-2", AttackerKind.ROBOTACK_NO_SH, AttackVector.DISAPPEAR), 1, None),
        (_campaign("DS-2", AttackerKind.ROBOTACK, AttackVector.DISAPPEAR), 1,
         _ProtocolOnlyAttacker),
        (_campaign("DS-3", AttackerKind.NONE), 0, None),
    ):
        setup, attacker, _ = _lane(config, index, wrap)
        specs.append(BatchRunSpec(scenario=setup.scenario, ads=setup.ads,
                                  attacker=attacker, rng=setup.sim_rng))
    _, scenario, ads, attacker, rng, _, _ = _scripted_lane("DS-3-Move_In")
    specs.append(BatchRunSpec(scenario=scenario, ads=ads, attacker=attacker, rng=rng))
    scenario, ads, attacker, rng = _attacked_setup("DS-1")
    ads.perception.fusion = _DropLidarFusion()
    specs.append(BatchRunSpec(scenario=scenario, ads=ads, attacker=attacker, rng=rng))
    return specs


def _exact(spec, result):
    """Everything a lane produced, exactly, with actor ids replaced by the
    actor's index in its world (ids differ between separately built
    scenarios)."""
    index = {actor.actor_id: n for n, actor in enumerate(spec.scenario.world.actors)}
    events = result.events
    attacker = getattr(spec.attacker, "inner", spec.attacker)
    record = None
    if attacker is not None:
        record = dataclasses.replace(
            attacker.record, target_actor_id=index.get(attacker.record.target_actor_id)
        )
    return (
        list(events.true_delta_trace), list(events.perceived_delta_trace),
        list(events.ego_speed_trace),
        [(e.kind, e.step_index, e.time_s,
          {key: index[int(value)] if key == "actor_id" else value
           for key, value in e.details.items()})
         for e in events.events],
        result.steps_executed, result.duration_s, result.halted_on_collision,
        result.final_snapshot.ego.position, result.final_snapshot.ego.velocity,
        repr(record),
    )


class TestWidthIndependence:
    """The same specs give bitwise-equal results whatever the group width,
    and one at a time through ``Simulator.run``."""

    @pytest.fixture(scope="class")
    def alone(self):
        """Each spec through ``Simulator.run``; every Kalman row is free."""
        runs = []
        for spec in _width_specs():
            simulator = Simulator(spec.scenario, spec.ads, attacker=spec.attacker,
                                  rng=spec.rng)
            runs.append(_exact(spec, simulator.run()))
            _assert_free(simulator.tracker.pool)
        return runs

    @pytest.mark.parametrize("width", [1, 3, 4, 64])
    def test_group_width_does_not_change_any_lane(self, alone, width, monkeypatch):
        monkeypatch.setattr(batch_module, "LOCKSTEP_LANES", width)
        widths = _record_group_widths(monkeypatch)
        specs = _width_specs()
        simulator = BatchSimulator(specs)
        results = simulator.run()
        _assert_grouped(widths, len(specs))
        _assert_pool_free(simulator)
        assert [_exact(spec, result) for spec, result in zip(specs, results)] == alone
        assert len({result.steps_executed for result in results}) > 1
        assert sum(getattr(spec.attacker, "record", None) is not None
                   and spec.attacker.record.launched for spec in specs) >= 3
