"""Round-trip tests for network and predictor serialization.

The contract: a saved network (architecture JSON + weights NPZ) reloads to
bit-identical predictions, and a saved :class:`NeuralSafetyPredictor` carries
its input/target standardization with it.
"""

import json
import shutil

import numpy as np
import pytest

from repro.core.safety_hijacker import AttackFeatures, NeuralSafetyPredictor
from repro.nn import FeedForwardNetwork
from repro.nn.network import NETWORK_FORMAT


def _edit_architecture(directory, edit):
    """Rewrite a saved network's architecture.json through ``edit(spec)``."""
    path = directory / "architecture.json"
    spec = json.loads(path.read_text())
    edit(spec)
    path.write_text(json.dumps(spec))


class TestNetworkSpec:
    def test_spec_describes_every_layer(self, tmp_path):
        network = FeedForwardNetwork.safety_hijacker_architecture(
            4, rng=np.random.default_rng(0)
        )
        network.save(tmp_path / "net")
        spec = json.loads((tmp_path / "net" / "architecture.json").read_text())
        kinds = [entry["kind"] for entry in spec["layers"]]
        assert kinds == [
            "dense", "relu", "dropout",
            "dense", "relu", "dropout",
            "dense", "relu", "dropout",
            "dense",
        ]
        assert spec["layers"][0] == {"kind": "dense", "in_features": 4, "out_features": 100}
        assert spec["layers"][2] == {"kind": "dropout", "rate": 0.1}

    def test_spec_rebuilds_matching_architecture(self, tmp_path):
        network = FeedForwardNetwork.mlp(
            3, (8, 5), 2, dropout_rate=0.2, rng=np.random.default_rng(1)
        )
        network.save(tmp_path / "net")
        rebuilt = FeedForwardNetwork.load(tmp_path / "net")
        assert [w.shape for w in rebuilt.weights] == [w.shape for w in network.weights]
        assert rebuilt.dropout_rate == network.dropout_rate
        assert rebuilt.num_parameters() == network.num_parameters()

    def test_unknown_layer_kind_rejected(self, tmp_path):
        FeedForwardNetwork.mlp(2, (3,), 1, rng=np.random.default_rng(0)).save(tmp_path / "net")
        _edit_architecture(
            tmp_path / "net", lambda spec: spec["layers"].insert(1, {"kind": "conv"})
        )
        with pytest.raises(ValueError, match="unsupported network"):
            FeedForwardNetwork.load(tmp_path / "net")

    def test_foreign_format_rejected(self, tmp_path):
        FeedForwardNetwork.mlp(2, (3,), 1, rng=np.random.default_rng(0)).save(tmp_path / "net")
        _edit_architecture(tmp_path / "net", lambda spec: spec.update(format="something-else"))
        with pytest.raises(ValueError, match="not a serialized network"):
            FeedForwardNetwork.load(tmp_path / "net")

    def test_newer_version_rejected(self, tmp_path):
        FeedForwardNetwork.mlp(2, (3,), 1, rng=np.random.default_rng(0)).save(tmp_path / "net")
        _edit_architecture(tmp_path / "net", lambda spec: spec.update(version=999))
        with pytest.raises(ValueError, match="newer serialization version"):
            FeedForwardNetwork.load(tmp_path / "net")

    def test_weights_not_matching_architecture_rejected(self, tmp_path):
        FeedForwardNetwork.mlp(3, (5,), 1, rng=np.random.default_rng(0)).save(tmp_path / "a")
        FeedForwardNetwork.mlp(3, (6,), 1, rng=np.random.default_rng(0)).save(tmp_path / "b")
        shutil.copy(tmp_path / "b" / "weights.npz", tmp_path / "a" / "weights.npz")
        with pytest.raises(ValueError, match="unsupported network"):
            FeedForwardNetwork.load(tmp_path / "a")


class TestNetworkRoundTrip:
    def test_save_load_predictions_bit_identical(self, tmp_path):
        rng = np.random.default_rng(7)
        network = FeedForwardNetwork.safety_hijacker_architecture(4, rng=rng)
        inputs = rng.normal(size=(32, 4))
        expected = network.predict(inputs)

        network.save(tmp_path / "model")
        loaded = FeedForwardNetwork.load(tmp_path / "model")
        np.testing.assert_array_equal(loaded.predict(inputs), expected)

    def test_architecture_file_is_readable_json(self, tmp_path):
        network = FeedForwardNetwork.mlp(2, (3,), 1, rng=np.random.default_rng(0))
        network.save(tmp_path / "net")
        with (tmp_path / "net" / "architecture.json").open() as handle:
            spec = json.load(handle)
        assert spec["format"] == NETWORK_FORMAT

    def test_save_is_idempotent_overwrite(self, tmp_path):
        rng = np.random.default_rng(3)
        network = FeedForwardNetwork.mlp(2, (4,), 1, rng=rng)
        network.save(tmp_path / "net")
        # Mutate, re-save over the same path: the reload sees the new weights.
        network.weights[0] += 1.0
        network.save(tmp_path / "net")
        loaded = FeedForwardNetwork.load(tmp_path / "net")
        np.testing.assert_array_equal(loaded.weights[0], network.weights[0])


class TestPredictorRoundTrip:
    def _trained_like_predictor(self) -> NeuralSafetyPredictor:
        rng = np.random.default_rng(11)
        network = FeedForwardNetwork.safety_hijacker_architecture(4, rng=rng)
        means = np.array([20.0, -3.0, 0.5, 30.0])
        stds = np.array([6.0, 1.5, 0.7, 12.0])
        return NeuralSafetyPredictor(
            network, means, stds, target_mean=14.2, target_std=9.7
        )

    def test_save_load_predict_bit_identical(self, tmp_path):
        predictor = self._trained_like_predictor()
        features = AttackFeatures(
            delta_m=18.0, relative_velocity_mps=-2.5, relative_acceleration_mps2=0.3
        )
        expected = [predictor.predict_delta(features, k) for k in (10, 25, 50)]

        predictor.save(tmp_path / "oracle")
        loaded = NeuralSafetyPredictor.load(tmp_path / "oracle")
        assert [loaded.predict_delta(features, k) for k in (10, 25, 50)] == expected

        raw = np.random.default_rng(2).normal(size=(16, 4)) * 10.0
        np.testing.assert_array_equal(loaded.predict_batch(raw), predictor.predict_batch(raw))

    def test_normalization_survives_round_trip(self, tmp_path):
        predictor = self._trained_like_predictor()
        predictor.save(tmp_path / "oracle")
        loaded = NeuralSafetyPredictor.load(tmp_path / "oracle")
        np.testing.assert_array_equal(loaded.feature_means, predictor.feature_means)
        np.testing.assert_array_equal(loaded.feature_stds, predictor.feature_stds)
        assert loaded.target_mean == predictor.target_mean
        assert loaded.target_std == predictor.target_std

    def test_foreign_document_rejected(self, tmp_path):
        directory = tmp_path / "oracle"
        directory.mkdir()
        (directory / "predictor.json").write_text(json.dumps({"format": "nope"}))
        with pytest.raises(ValueError, match="not a serialized predictor"):
            NeuralSafetyPredictor.load(directory)

    def test_newer_version_rejected(self, tmp_path):
        predictor = self._trained_like_predictor()
        predictor.save(tmp_path / "oracle")
        path = tmp_path / "oracle" / "predictor.json"
        payload = json.loads(path.read_text())
        payload["version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="newer serialization version"):
            NeuralSafetyPredictor.load(tmp_path / "oracle")
