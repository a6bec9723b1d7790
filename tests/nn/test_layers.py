"""Tests for the network's layer maths: dense layers, ReLU and dropout."""

import numpy as np
import pytest

from repro.nn import FeedForwardNetwork


def identity_network(width: int, dropout_rate: float = 0.0, rng=None) -> FeedForwardNetwork:
    """Two identity dense layers: the output is the hidden layer's ReLU and
    dropout applied to the input."""
    return FeedForwardNetwork(
        [np.eye(width), np.eye(width)], [np.zeros(width), np.zeros(width)],
        dropout_rate=dropout_rate, rng=rng,
    )


class TestDense:
    def test_output_shape(self, rng):
        network = FeedForwardNetwork.mlp(4, (), 3, rng=rng)
        out = network.forward(np.ones((5, 4)))
        assert out.shape == (5, 3)

    def test_wrong_input_dimension_rejected(self, rng):
        network = FeedForwardNetwork.mlp(4, (), 3, rng=rng)
        with pytest.raises(ValueError):
            network.forward(np.ones((5, 2)))

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            FeedForwardNetwork.mlp(0, (), 3)

    def test_backward_before_forward_rejected(self, rng):
        network = FeedForwardNetwork.mlp(2, (), 2, rng=rng)
        with pytest.raises(RuntimeError):
            network.backward(np.ones((1, 2)))

    def test_forward_is_affine(self, rng):
        network = FeedForwardNetwork.mlp(3, (), 2, rng=rng)
        x = np.array([[1.0, 2.0, 3.0]])
        expected = x @ network.weights[0] + network.biases[0]
        np.testing.assert_allclose(network.forward(x), expected)

    def test_gradient_matches_finite_differences(self, rng):
        network = FeedForwardNetwork.mlp(3, (4,), 2, rng=rng)
        x = rng.normal(size=(4, 3))
        out = network.forward(x)
        network.backward(np.ones_like(out))

        eps = 1e-6
        for params, grads in ((network.weights, network.grad_weights),
                              (network.biases, network.grad_biases)):
            for param, analytic in zip(params, grads):
                numeric = np.zeros_like(param)
                for index in np.ndindex(param.shape):
                    param[index] += eps
                    plus = network.predict(x).sum()
                    param[index] -= 2 * eps
                    minus = network.predict(x).sum()
                    param[index] += eps
                    numeric[index] = (plus - minus) / (2 * eps)
                np.testing.assert_allclose(analytic, numeric, atol=1e-4)

    def test_gradients_have_parameter_shapes(self, rng):
        network = FeedForwardNetwork.mlp(3, (5,), 2, rng=rng)
        network.forward(np.ones((1, 3)))
        network.backward(np.ones((1, 2)))
        assert [g.shape for g in network.grad_weights] == [w.shape for w in network.weights]
        assert [g.shape for g in network.grad_biases] == [b.shape for b in network.biases]


class TestReLU:
    def test_clips_negative_values(self):
        out = identity_network(3).predict(np.array([[-1.0, 0.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])

    def test_backward_masks_gradient(self):
        network = identity_network(2)
        network.forward(np.array([[-1.0, 3.0]]))
        network.backward(np.array([[5.0, 5.0]]))
        np.testing.assert_array_equal(network.grad_biases[0], [0.0, 5.0])

    def test_backward_before_forward_rejected(self):
        # predict keeps no ReLU mask, so only forward makes backward valid.
        network = identity_network(2)
        network.predict(np.array([[-1.0, 3.0]]))
        with pytest.raises(RuntimeError):
            network.backward(np.ones((1, 2)))


class TestDropout:
    def test_inference_mode_is_identity(self, rng):
        network = identity_network(4, dropout_rate=0.5, rng=rng)
        x = np.abs(rng.normal(size=(3, 4)))
        np.testing.assert_array_equal(network.predict(x), x)

    def test_training_mode_zeroes_some_activations(self, rng):
        network = identity_network(100, dropout_rate=0.5, rng=rng)
        out = network.forward(np.ones((10, 100)))
        assert (out == 0.0).sum() > 0

    def test_training_mode_preserves_expectation(self, rng):
        network = identity_network(200, dropout_rate=0.3, rng=rng)
        out = network.forward(np.ones((200, 200)))
        assert out.mean() == pytest.approx(1.0, abs=0.05)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            FeedForwardNetwork.mlp(2, (2,), 1, dropout_rate=1.0)

    def test_zero_rate_is_identity_even_in_training(self, rng):
        network = identity_network(3, dropout_rate=0.0, rng=rng)
        x = np.abs(rng.normal(size=(3, 3)))
        np.testing.assert_array_equal(network.forward(x), x)

    def test_backward_uses_same_mask(self, rng):
        # One row of ones: the output is the dropout mask itself, and the
        # first layer's bias gradient is the unit gradient through that mask.
        network = identity_network(50, dropout_rate=0.5, rng=rng)
        out = network.forward(np.ones((1, 50)))
        network.backward(np.ones_like(out))
        np.testing.assert_array_equal(network.grad_biases[0], out[0])
