"""Tests for the safety hijacker (when to attack) and its predictors."""

import numpy as np
import pytest

from repro.core.attack_vectors import AttackVector
from repro.core.safety_hijacker import (
    AttackFeatures,
    KinematicSafetyPredictor,
    NeuralSafetyPredictor,
    SafetyHijacker,
    SafetyHijackerConfig,
)
from repro.sim.actors import ActorKind


def features(delta=20.0, v_rel=-5.0, a_rel=0.0):
    return AttackFeatures(
        delta_m=delta, relative_velocity_mps=v_rel, relative_acceleration_mps2=a_rel
    )


class TestAttackFeatures:
    def test_as_array_layout(self):
        array = features(10.0, -3.0, 0.5).as_array(k=25)
        np.testing.assert_allclose(array, [10.0, -3.0, 0.5, 25.0])


class TestKinematicPredictor:
    def test_delta_decreases_with_longer_attack_when_closing(self):
        predictor = KinematicSafetyPredictor(AttackVector.DISAPPEAR)
        short = predictor.predict_delta(features(delta=20, v_rel=-5), k=10)
        long = predictor.predict_delta(features(delta=20, v_rel=-5), k=50)
        assert long < short < 20

    def test_move_in_ignores_free_acceleration_term(self):
        move_in = KinematicSafetyPredictor(AttackVector.MOVE_IN)
        disappear = KinematicSafetyPredictor(AttackVector.DISAPPEAR)
        f = features(delta=20, v_rel=-5)
        assert move_in.predict_delta(f, 30) > disappear.predict_delta(f, 30)

    def test_zero_k_returns_current_delta(self):
        predictor = KinematicSafetyPredictor(AttackVector.MOVE_OUT)
        assert predictor.predict_delta(features(delta=17.0), k=0) == pytest.approx(17.0)


class TestNeuralPredictor:
    def test_untrained_predictor_has_paper_architecture(self, rng):
        predictor = NeuralSafetyPredictor.untrained(rng=rng)
        sizes = [weights.shape for weights in predictor.network.weights]
        assert sizes == [(4, 100), (100, 100), (100, 50), (50, 1)]

    def test_normalization_round_trip(self, rng):
        predictor = NeuralSafetyPredictor(
            NeuralSafetyPredictor.untrained(rng=rng).network,
            feature_means=np.array([10.0, -5.0, 0.0, 30.0]),
            feature_stds=np.array([5.0, 2.0, 1.0, 15.0]),
        )
        normalized = predictor.normalize(np.array([10.0, -5.0, 0.0, 30.0]))
        np.testing.assert_allclose(normalized, np.zeros((1, 4)))

    def test_target_denormalization_applied(self, rng):
        base = NeuralSafetyPredictor.untrained(rng=rng)
        shifted = NeuralSafetyPredictor(
            base.network,
            base.feature_means,
            base.feature_stds,
            target_mean=100.0,
            target_std=1.0,
        )
        raw = base.predict_delta(features(), 10)
        assert shifted.predict_delta(features(), 10) == pytest.approx(raw + 100.0)

    def test_invalid_normalization_shape_rejected(self, rng):
        with pytest.raises(ValueError):
            NeuralSafetyPredictor(
                NeuralSafetyPredictor.untrained(rng=rng).network,
                feature_means=np.zeros(3),
                feature_stds=np.ones(3),
            )

    def test_predict_batch_matches_scalar_prediction(self, rng):
        predictor = NeuralSafetyPredictor.untrained(rng=rng)
        f = features(15.0, -4.0, 0.2)
        batch = predictor.predict_batch(f.as_array(20).reshape(1, -1))
        assert batch[0] == pytest.approx(predictor.predict_delta(f, 20))


class _StepPredictor:
    """Deterministic test oracle: delta drops below the threshold at k >= k_effective."""

    def __init__(self, k_effective: int, low: float = 2.0, high: float = 30.0):
        self.k_effective = k_effective
        self.low = low
        self.high = high

    def predict_delta(self, features, k):
        return self.low if k >= self.k_effective else self.high


class TestSafetyHijackerDecision:
    def test_no_attack_when_even_kmax_is_safe(self):
        hijacker = SafetyHijacker(_StepPredictor(k_effective=10_000))
        decision = hijacker.decide(features(), AttackVector.MOVE_OUT, ActorKind.VEHICLE)
        assert not decision.attack
        assert decision.k_frames == 0

    def test_attack_uses_minimal_sufficient_window(self):
        hijacker = SafetyHijacker(_StepPredictor(k_effective=30))
        decision = hijacker.decide(features(), AttackVector.MOVE_OUT, ActorKind.VEHICLE)
        assert decision.attack
        assert 30 <= decision.k_frames <= 33

    def test_binary_search_matches_scan_for_monotone_oracle(self):
        scan = SafetyHijacker(_StepPredictor(k_effective=24), SafetyHijackerConfig(search_method="scan"))
        binary = SafetyHijacker(
            _StepPredictor(k_effective=24), SafetyHijackerConfig(search_method="binary")
        )
        k_scan = scan.decide(features(), AttackVector.DISAPPEAR, ActorKind.VEHICLE).k_frames
        k_binary = binary.decide(features(), AttackVector.DISAPPEAR, ActorKind.VEHICLE).k_frames
        assert abs(k_scan - k_binary) <= SafetyHijackerConfig().scan_step_frames

    def test_k_never_exceeds_stealth_bound(self):
        config = SafetyHijackerConfig()
        hijacker = SafetyHijacker(_StepPredictor(k_effective=1), config)
        for kind in ActorKind:
            decision = hijacker.decide(features(), AttackVector.DISAPPEAR, kind)
            assert decision.k_frames <= config.k_max_for(kind)

    def test_pedestrian_stealth_bound_smaller_than_vehicle(self):
        config = SafetyHijackerConfig()
        assert config.k_max_for(ActorKind.PEDESTRIAN) < config.k_max_for(ActorKind.VEHICLE)
        # The defaults follow the characterized 99th percentiles of Fig. 5.
        assert config.k_max_for(ActorKind.PEDESTRIAN) == 31
        assert config.k_max_for(ActorKind.VEHICLE) == 59

    def test_launch_thresholds_per_vector(self):
        config = SafetyHijackerConfig()
        assert config.threshold_for(AttackVector.MOVE_OUT) == config.threshold_for(
            AttackVector.DISAPPEAR
        )
        assert config.threshold_for(AttackVector.MOVE_IN) != config.threshold_for(
            AttackVector.MOVE_OUT
        )

    def test_kinematic_predictor_end_to_end_decision(self):
        hijacker = SafetyHijacker(KinematicSafetyPredictor(AttackVector.DISAPPEAR))
        far = hijacker.decide(features(delta=60.0, v_rel=-1.0), AttackVector.DISAPPEAR, ActorKind.VEHICLE)
        near = hijacker.decide(features(delta=8.0, v_rel=-5.0), AttackVector.DISAPPEAR, ActorKind.VEHICLE)
        assert not far.attack
        assert near.attack

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SafetyHijackerConfig(search_method="magic")
        with pytest.raises(ValueError):
            SafetyHijackerConfig(k_min_frames=0)
