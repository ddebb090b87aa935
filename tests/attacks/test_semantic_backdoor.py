"""Unit tests for the CIFAR semantic backdoor task."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.semantic_backdoor import SemanticBackdoor
from repro.data.synthetic_cifar import (
    CIFAR_BACKDOOR_SOURCE_CLASS,
    CIFAR_BACKDOOR_TARGET_CLASS,
)


class TestSemanticBackdoor:
    def test_default_target_is_bird(self, cifar_task):
        assert SemanticBackdoor(cifar_task).target_label == CIFAR_BACKDOOR_TARGET_CLASS

    def test_poisoned_data_carries_target_label(self, cifar_task, rng):
        backdoor = SemanticBackdoor(cifar_task)
        poison = backdoor.poisoned_training_data(20, rng)
        assert np.all(poison.y == backdoor.target_label)

    def test_test_instances_carry_true_label(self, cifar_task, rng):
        backdoor = SemanticBackdoor(cifar_task)
        instances = backdoor.backdoor_test_instances(20, rng)
        assert np.all(instances.y == CIFAR_BACKDOOR_SOURCE_CLASS)

    def test_poison_and_test_instances_same_feature(self, cifar_task, rng):
        """Poison and evaluation instances come from the same distribution."""
        backdoor = SemanticBackdoor(cifar_task)
        poison = backdoor.poisoned_training_data(400, rng)
        test = backdoor.backdoor_test_instances(400, rng)
        np.testing.assert_allclose(
            poison.x.mean(axis=0), test.x.mean(axis=0), atol=0.12
        )

    def test_invalid_target_rejected(self, cifar_task):
        with pytest.raises(ValueError):
            SemanticBackdoor(cifar_task, target_label=99)

    def test_backdoor_accuracy_of_clean_model_low(self, cifar_task, rng):
        """An honestly trained model does not exhibit the backdoor."""
        from repro.nn.models import make_mlp

        train = cifar_task.sample(1500, rng)
        model = make_mlp(cifar_task.flat_dim, 10, rng, hidden=(32,))
        # brief minibatch training
        from repro.fl.client import LocalTrainingConfig, local_train

        local_train(model, train, LocalTrainingConfig(epochs=6, lr=0.1), rng)
        backdoor = SemanticBackdoor(cifar_task)
        assert backdoor.backdoor_accuracy(model, 200, rng) < 0.3
