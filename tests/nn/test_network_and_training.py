"""Tests for the feed-forward network, the loss, and the Adam training loop."""

import numpy as np
import pytest

from repro.nn import (
    FeedForwardNetwork,
    TrainingHistory,
    mean_squared_error,
    train_network,
    train_validation_split,
)


def bias_only_network(bias: float) -> FeedForwardNetwork:
    """One zero-weight dense layer: on zero inputs its output is ``bias``."""
    return FeedForwardNetwork([np.zeros((1, 1))], [np.array([bias])])


class TestMeanSquaredError:
    def test_zero_for_perfect_prediction(self):
        y = np.array([[1.0], [2.0]])
        assert mean_squared_error(y, y) == 0.0

    def test_known_value(self):
        assert mean_squared_error(np.array([[2.0]]), np.array([[0.0]])) == pytest.approx(4.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mean_squared_error(np.ones((2, 1)), np.ones((3, 1)))

    def test_gradient_sign(self):
        # The loss gradient train_network applies points from target to
        # prediction: one step lowers an output above its target and raises
        # one below it.
        zeros = np.zeros((4, 1))
        for bias, direction in ((2.0, -1.0), (-2.0, 1.0)):
            network = bias_only_network(bias)
            train_network(network, zeros, zeros, epochs=1, learning_rate=0.1,
                          rng=np.random.default_rng(0))
            assert np.sign(network.biases[0][0] - bias) == direction


class TestFeedForwardNetwork:
    def test_paper_architecture_layer_sizes(self, rng):
        network = FeedForwardNetwork.safety_hijacker_architecture(4, rng=rng)
        sizes = [weights.shape for weights in network.weights]
        assert sizes == [(4, 100), (100, 100), (100, 50), (50, 1)]
        assert network.dropout_rate == 0.1

    def test_parameter_count_positive(self, rng):
        network = FeedForwardNetwork.mlp(4, (8, 8), 1, rng=rng)
        assert network.num_parameters() == 4 * 8 + 8 + 8 * 8 + 8 + 8 * 1 + 1

    def test_predict_shape(self, rng):
        network = FeedForwardNetwork.mlp(3, (5,), 2, rng=rng)
        assert network.predict(np.ones((7, 3))).shape == (7, 2)

    def test_empty_layers_rejected(self):
        with pytest.raises(ValueError):
            FeedForwardNetwork([], [])

    def test_weights_and_biases_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one bias per layer"):
            FeedForwardNetwork([np.ones((3, 4)), np.ones((4, 1))], [np.zeros(4)])

    @pytest.mark.parametrize(
        "weights, biases",
        [([np.ones((3, 4)), np.ones((5, 1))], [np.zeros(4), np.zeros(1)]),
         ([np.ones((3, 4)), np.ones((4, 1))], [np.zeros(4), np.zeros(2)])],
        ids=["weights", "bias"],
    )
    def test_layers_that_do_not_chain_rejected(self, weights, biases):
        with pytest.raises(ValueError, match="do not chain"):
            FeedForwardNetwork(weights, biases)

    def test_dropout_only_active_in_training(self, rng):
        network = FeedForwardNetwork.mlp(4, (32, 32), 1, dropout_rate=0.5, rng=rng)
        x = np.ones((4, 4))
        inference_a = network.predict(x)
        inference_b = network.predict(x)
        np.testing.assert_allclose(inference_a, inference_b)


class TestTrainValidationSplit:
    def test_split_sizes(self, rng):
        x = np.arange(40, dtype=float).reshape(20, 2)
        y = np.arange(20, dtype=float).reshape(20, 1)
        xt, yt, xv, yv = train_validation_split(x, y, train_fraction=0.6, rng=rng)
        assert xt.shape[0] == 12 and xv.shape[0] == 8
        assert yt.shape[0] == 12 and yv.shape[0] == 8

    def test_rows_stay_paired(self, rng):
        x = np.arange(20, dtype=float).reshape(10, 2)
        y = x.sum(axis=1, keepdims=True)
        xt, yt, _, _ = train_validation_split(x, y, rng=rng)
        np.testing.assert_allclose(xt.sum(axis=1, keepdims=True), yt)

    def test_invalid_fraction_rejected(self, rng):
        with pytest.raises(ValueError):
            train_validation_split(np.ones((4, 1)), np.ones((4, 1)), train_fraction=1.5, rng=rng)

    def test_mismatched_rows_rejected(self, rng):
        with pytest.raises(ValueError):
            train_validation_split(np.ones((4, 1)), np.ones((5, 1)), rng=rng)


class TestTrainingHistory:
    def test_final_losses_are_the_last_epoch(self):
        history = TrainingHistory(train_loss=[3.0, 2.0], validation_loss=[4.0, 2.5])
        assert history.final_train_loss == 2.0
        assert history.final_validation_loss == 2.5

    def test_final_loss_of_empty_history_rejected(self):
        with pytest.raises(ValueError, match="no training epochs"):
            TrainingHistory().final_train_loss
        with pytest.raises(ValueError, match="no validation epochs"):
            TrainingHistory().final_validation_loss


class TestTrainNetwork:
    def test_learns_linear_function(self, rng):
        network = FeedForwardNetwork.mlp(2, (16, 16), 1, rng=rng)
        x = rng.uniform(-1, 1, size=(200, 2))
        y = (3.0 * x[:, :1] - 2.0 * x[:, 1:2])
        result = train_network(network, x, y, epochs=120, batch_size=16, rng=rng)
        predictions = network.predict(x)
        mae = np.abs(predictions - y).mean()
        assert mae < 0.25

    def test_history_lengths_match_epochs(self, rng):
        network = FeedForwardNetwork.mlp(1, (4,), 1, rng=rng)
        x = np.ones((10, 1))
        y = np.ones((10, 1))
        result = train_network(network, x, y, epochs=5, rng=rng)
        assert len(result.history.train_loss) == 5
        assert len(result.history.validation_loss) == 5

    def test_split_counts_reported(self, rng):
        network = FeedForwardNetwork.mlp(1, (4,), 1, rng=rng)
        x = np.ones((10, 1))
        y = np.ones((10, 1))
        result = train_network(network, x, y, epochs=2, train_fraction=0.6, rng=rng)
        assert result.n_train_samples + result.n_validation_samples == 10

    def test_invalid_epochs_rejected(self, rng):
        network = FeedForwardNetwork.mlp(1, (4,), 1, rng=rng)
        with pytest.raises(ValueError):
            train_network(network, np.ones((4, 1)), np.ones((4, 1)), epochs=0, rng=rng)

    def test_invalid_batch_size_rejected(self, rng):
        network = FeedForwardNetwork.mlp(1, (4,), 1, rng=rng)
        with pytest.raises(ValueError):
            train_network(network, np.ones((4, 1)), np.ones((4, 1)), batch_size=0, rng=rng)

    def test_invalid_learning_rate_rejected(self, rng):
        network = FeedForwardNetwork.mlp(1, (4,), 1, rng=rng)
        with pytest.raises(ValueError):
            train_network(network, np.ones((4, 1)), np.ones((4, 1)), learning_rate=0.0, rng=rng)

    @pytest.mark.parametrize("learning_rate", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_learning_rate_rejected(self, learning_rate):
        # Either would train every weight to NaN without a word.
        network = FeedForwardNetwork.mlp(2, (4,), 1, rng=np.random.default_rng(0))
        before = [w.copy() for w in network.weights]
        with pytest.raises(ValueError, match="positive and finite"):
            train_network(network, np.ones((10, 2)), np.ones((10, 1)), epochs=2,
                          learning_rate=learning_rate, rng=np.random.default_rng(1))
        for after, initial in zip(network.weights, before):
            np.testing.assert_array_equal(after, initial)

    def test_single_row_validates_on_training_loss(self):
        # One row leaves no validation rows: each epoch's validation loss is
        # its training loss.
        network = FeedForwardNetwork.mlp(1, (4,), 1, rng=np.random.default_rng(0))
        result = train_network(network, np.ones((1, 1)), np.ones((1, 1)), epochs=3,
                               rng=np.random.default_rng(1))
        assert (result.n_train_samples, result.n_validation_samples) == (1, 0)
        assert result.history.validation_loss == result.history.train_loss

    def test_each_call_starts_adam_afresh(self):
        # Zero moments and step 1 at each call: after 50 steps of a first
        # call, the second call's first update is exactly lr * g / (|g| + eps)
        # on the bias (about lr); moments or a step count carried over from
        # the first call give a visibly different one (0.0091 for the
        # 51st step of a single call).
        zeros = np.zeros((10, 1))
        network = bias_only_network(2.0)
        train_network(network, zeros, zeros, epochs=50, learning_rate=0.01,
                      rng=np.random.default_rng(0))
        before = network.biases[0][0]
        train_network(network, zeros, zeros, epochs=1, learning_rate=0.01,
                      rng=np.random.default_rng(1))
        assert before - network.biases[0][0] == pytest.approx(0.01, rel=1e-6)

    def test_second_network_trains_to_the_weights_it_gets_alone(self, rng):
        # Adam's moments and step count belong to one call: training net A
        # first must leave nothing behind that changes what net B learns.
        x = rng.uniform(-1, 1, size=(40, 1))
        y = 2.0 * x
        alone = FeedForwardNetwork.mlp(1, (8,), 1, rng=np.random.default_rng(3))
        train_network(alone, x, y, epochs=5, learning_rate=0.01, rng=np.random.default_rng(4))

        net_a = FeedForwardNetwork.mlp(1, (8,), 1, rng=np.random.default_rng(1))
        train_network(net_a, x, y, epochs=5, learning_rate=0.01, rng=np.random.default_rng(2))
        net_b = FeedForwardNetwork.mlp(1, (8,), 1, rng=np.random.default_rng(3))
        train_network(net_b, x, y, epochs=5, learning_rate=0.01, rng=np.random.default_rng(4))
        for after_a, by_itself in zip(net_b.weights + net_b.biases, alone.weights + alone.biases):
            np.testing.assert_array_equal(after_a, by_itself)

    def test_epoch_loss_weights_ragged_final_batch(self, rng):
        # 10 samples -> 6 train; batch_size 4 leaves a ragged batch of 2.  With
        # a (practically) frozen network the reported epoch loss must equal the
        # loss over the whole training split — i.e. the per-batch losses
        # averaged weighted by batch size, not the unweighted batch mean.
        inputs = rng.uniform(-1, 1, size=(10, 1))
        targets = rng.uniform(-1, 1, size=(10, 1))
        network = FeedForwardNetwork.mlp(1, (4,), 1, rng=np.random.default_rng(0))
        result = train_network(
            network, inputs, targets, epochs=1, batch_size=4,
            learning_rate=1e-15, rng=np.random.default_rng(5),
        )
        # Replay the split and shuffle with the identical rng stream.
        replay_rng = np.random.default_rng(5)
        x_train, y_train, _, _ = train_validation_split(
            inputs, targets, train_fraction=0.6, rng=replay_rng
        )
        order = replay_rng.permutation(len(x_train))
        batch_losses = []
        batch_sizes = []
        for start in range(0, len(x_train), 4):
            batch_idx = order[start : start + 4]
            batch_losses.append(
                mean_squared_error(network.predict(x_train[batch_idx]), y_train[batch_idx])
            )
            batch_sizes.append(len(batch_idx))
        weighted = sum(l * n for l, n in zip(batch_losses, batch_sizes)) / sum(batch_sizes)
        unweighted = float(np.mean(batch_losses))
        assert abs(weighted - unweighted) > 1e-6  # the bug would be visible here
        assert result.history.train_loss[0] == pytest.approx(weighted, rel=1e-9)
