"""Tests for the neural-network substrate."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import TrainConfig
from repro.errors import DataError, ShapeError
from repro.nn import (
    DenseLayer,
    Network,
    SgdTrainer,
    accuracy,
    confusion_matrix,
    load_network,
    misclassified_indices,
    network_from_dict,
    network_to_dict,
    quantize_network,
    save_network,
)
from repro.nn.activations import ReLU, Identity, activation_by_name
from repro.nn.train import cross_entropy, one_hot, softmax


def tiny_network(seed=0):
    rng = np.random.default_rng(seed)
    return Network(
        [
            DenseLayer.from_init(rng, 3, 4, activation="relu"),
            DenseLayer.from_init(rng, 4, 2, activation="linear"),
        ]
    )


class TestActivations:
    def test_relu_float_and_exact_agree(self):
        relu = ReLU()
        values = np.array([-2.0, 0.0, 3.5])
        exact = relu.forward_exact([Fraction(-2), Fraction(0), Fraction(7, 2)])
        assert list(relu.forward(values)) == [float(v) for v in exact]

    def test_relu_derivative_at_zero(self):
        # Matches the exact path convention: relu'(0) = 0.
        assert ReLU().derivative(np.array([0.0]))[0] == 0.0

    def test_identity(self):
        values = np.array([-1.0, 2.0])
        assert (Identity().forward(values) == values).all()

    def test_unknown_activation(self):
        with pytest.raises(KeyError):
            activation_by_name("softplus")


class TestLayers:
    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            DenseLayer(np.zeros((2, 3)), np.zeros(5), ReLU())
        with pytest.raises(ShapeError):
            DenseLayer(np.zeros(3), np.zeros(3), ReLU())

    def test_forward_batch_vs_single(self):
        layer = DenseLayer.from_init(np.random.default_rng(1), 3, 2)
        batch = np.random.default_rng(2).normal(size=(5, 3))
        batched = layer.forward(batch)
        for row, expected in zip(batch, batched):
            assert np.allclose(layer.forward(row), expected)

    def test_exact_matches_float(self):
        layer = DenseLayer.from_init(np.random.default_rng(3), 3, 2)
        x = [1, -2, 3]
        exact = layer.forward_exact([Fraction(v) for v in x])
        floats = layer.forward(np.array(x, dtype=float))
        assert np.allclose([float(v) for v in exact], floats, atol=1e-9)


class TestNetwork:
    def test_layer_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ShapeError):
            Network(
                [
                    DenseLayer.from_init(rng, 3, 4),
                    DenseLayer.from_init(rng, 5, 2),
                ]
            )

    def test_predict_tiebreak_low_index(self):
        layer = DenseLayer(np.zeros((2, 2)), np.zeros(2), Identity())
        network = Network([layer])
        assert network.predict(np.array([1.0, 1.0])) == 0

    def test_exact_predict_matches_float(self):
        network = tiny_network()
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = rng.integers(-10, 10, size=3)
            assert network.predict(x.astype(float)) == network.predict_exact(list(x))


class TestTraining:
    def test_one_hot_and_softmax(self):
        encoded = one_hot(np.array([0, 1, 1]), 2)
        assert encoded.tolist() == [[1, 0], [0, 1], [0, 1]]
        probabilities = softmax(np.array([[0.0, 0.0]]))
        assert np.allclose(probabilities, 0.5)
        with pytest.raises(DataError):
            one_hot(np.array([2]), 2)

    def test_cross_entropy_decreases_under_training(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 3))
        y = (x[:, 0] + x[:, 1] > 0).astype(int)
        network = tiny_network(seed=1)
        trainer = SgdTrainer(schedule=[(30, 0.3)], seed=1)
        result = trainer.fit(network, x, y)
        assert result.loss_history[-1] < result.loss_history[0]
        assert result.train_accuracy > 0.8

    def test_two_phase_schedule_runs_all_epochs(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(20, 3))
        y = (x[:, 0] > 0).astype(int)
        result = SgdTrainer(schedule=[(5, 0.5), (7, 0.2)]).fit(tiny_network(), x, y)
        assert result.epochs_run == 12

    def test_invalid_schedule(self):
        with pytest.raises(DataError):
            SgdTrainer(schedule=[])
        with pytest.raises(DataError):
            SgdTrainer(schedule=[(5, -0.1)])

    def test_empty_dataset_rejected(self):
        trainer = SgdTrainer(schedule=[(1, 0.1)])
        with pytest.raises(DataError):
            trainer.fit(tiny_network(), np.zeros((0, 3)), np.zeros(0, dtype=int))

    def test_paper_recipe_defaults(self):
        config = TrainConfig()
        assert (config.epochs_phase1, config.lr_phase1) == (40, 0.5)
        assert (config.epochs_phase2, config.lr_phase2) == (40, 0.2)


class TestQuantization:
    def test_quantized_predictions_match_on_grid(self):
        network = tiny_network(seed=2)
        quantized = quantize_network(network, weight_scale=10000)
        rng = np.random.default_rng(11)
        for _ in range(30):
            x = rng.integers(0, 20, size=3)
            assert quantized.predict(list(x)) == network.predict(x.astype(float))

    def test_weights_snapped_to_scale(self):
        quantized = quantize_network(tiny_network(), weight_scale=100)
        for layer in quantized.layers:
            for row in layer.weights:
                for weight in row:
                    assert weight.denominator <= 100

    def test_noisy_prediction_channel(self):
        quantized = quantize_network(tiny_network(seed=4))
        x = [10, 12, 5]
        label = quantized.predict(x)
        assert quantized.predict_noisy(x, [0, 0, 0]) == label

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            quantize_network(tiny_network(), weight_scale=0)


class TestMetrics:
    def test_accuracy(self):
        assert accuracy(np.array([1, 0, 1]), np.array([1, 1, 1])) == pytest.approx(2 / 3)
        with pytest.raises(ShapeError):
            accuracy(np.array([1]), np.array([1, 2]))

    def test_confusion_matrix(self):
        matrix = confusion_matrix(np.array([0, 1, 1]), np.array([0, 0, 1]), 2)
        assert matrix.tolist() == [[1, 1], [0, 1]]

    def test_misclassified_indices(self):
        assert misclassified_indices(np.array([0, 1, 0]), np.array([0, 0, 0])) == [1]


class TestSerialization:
    def test_round_trip(self, tmp_path):
        network = tiny_network(seed=7)
        path = tmp_path / "net.json"
        save_network(network, path)
        loaded = load_network(path)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.normal(size=3)
            assert np.allclose(network.logits(x), loaded.logits(x))

    def test_bad_payloads(self, tmp_path):
        with pytest.raises(DataError):
            network_from_dict({"layers": [], "format_version": 99})
        with pytest.raises(DataError):
            network_from_dict({"nope": 1})
        path = tmp_path / "garbage.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(DataError):
            load_network(path)

    def test_dict_round_trip(self):
        network = tiny_network(seed=8)
        clone = network_from_dict(network_to_dict(network))
        assert clone.num_inputs == network.num_inputs


class TestGradientCheck:
    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_backprop_matches_numerical_gradient(self, seed):
        """Finite-difference check of the trainer's gradients."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(4, 3))
        y = one_hot(rng.integers(0, 2, size=4), 2)
        network = tiny_network(seed=seed)

        def loss_at(params_flat):
            offset = 0
            for layer in network.layers:
                size = layer.weights.size
                layer.weights = params_flat[offset : offset + size].reshape(
                    layer.weights.shape
                )
                offset += size
                size = layer.bias.size
                layer.bias = params_flat[offset : offset + size]
                offset += size
            return cross_entropy(softmax(network.logits(x)), y)

        flat = np.concatenate(
            [
                np.concatenate([layer.weights.ravel(), layer.bias])
                for layer in network.layers
            ]
        )
        # Analytic step with lr so small the update approximates the gradient.
        trainer = SgdTrainer(schedule=[(1, 1e-6)])
        before = [
            (layer.weights.copy(), layer.bias.copy()) for layer in network.layers
        ]
        trainer._step(network, x, y, 1e-6, [
            (np.zeros_like(layer.weights), np.zeros_like(layer.bias))
            for layer in network.layers
        ])
        analytic = []
        for (w0, b0), layer in zip(before, network.layers):
            analytic.append(((w0 - layer.weights) / 1e-6, (b0 - layer.bias) / 1e-6))
            layer.weights, layer.bias = w0, b0  # restore

        epsilon = 1e-5
        for index in rng.choice(flat.size, size=5, replace=False):
            bumped = flat.copy()
            bumped[index] += epsilon
            up = loss_at(bumped)
            bumped[index] -= 2 * epsilon
            down = loss_at(bumped)
            loss_at(flat)  # restore
            numeric = (up - down) / (2 * epsilon)
            flat_analytic = np.concatenate(
                [np.concatenate([gw.ravel(), gb]) for gw, gb in analytic]
            )
            assert flat_analytic[index] == pytest.approx(numeric, abs=1e-4)
