"""Tests of fine-tuning strategies and the local training variant."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import BellamyConfig
from repro.core.finetuning import (
    FinetuneStrategy,
    finetune,
    train_local,
    unfreeze_epoch_for,
)
from repro.core.model import BellamyModel
from repro.core.pretraining import pretrain


@pytest.fixture(scope="module")
def pretrained(request):
    """A small pre-trained SGD model shared across this module's tests."""
    dataset = request.getfixturevalue("c3o_dataset")
    return pretrain(dataset, "sgd", epochs=40, seed=0).model


@pytest.fixture()
def context_samples(c3o_dataset):
    context_data = c3o_dataset.for_algorithm("sgd").by_context()
    cid, data = next(iter(context_data.items()))
    context = data.contexts()[0]
    machines = np.array([2.0, 6.0, 12.0])
    runtimes = np.array(
        [data.filter(lambda e: e.machines == m).runtimes_array().mean() for m in machines]
    )
    return context, machines, runtimes


class TestStrategyEnum:
    def test_reset_semantics(self):
        assert FinetuneStrategy.PARTIAL_RESET.resets_z()
        assert FinetuneStrategy.FULL_RESET.resets_z()
        assert FinetuneStrategy.FULL_RESET.resets_f()
        assert not FinetuneStrategy.PARTIAL_UNFREEZE.resets_z()

    def test_delay_semantics(self):
        assert FinetuneStrategy.PARTIAL_UNFREEZE.delays_f()
        assert FinetuneStrategy.PARTIAL_RESET.delays_f()
        assert not FinetuneStrategy.FULL_UNFREEZE.delays_f()
        assert not FinetuneStrategy.FULL_RESET.delays_f()

    def test_values_match_paper_labels(self):
        assert FinetuneStrategy.PARTIAL_UNFREEZE.value == "partial-unfreeze"
        assert FinetuneStrategy.FULL_RESET.value == "full-reset"


class TestUnfreezeEpoch:
    def test_more_samples_unlock_earlier(self):
        assert unfreeze_epoch_for(1) > unfreeze_epoch_for(5)

    def test_floor(self):
        assert unfreeze_epoch_for(100) == 100

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            unfreeze_epoch_for(-1)

    def test_scales_with_budget(self):
        # At the paper's 2500-epoch budget the rule is max(100, 600 - 100n);
        # shorter budgets shrink the threshold proportionally.
        assert unfreeze_epoch_for(1, max_epochs=2500) == 500
        assert unfreeze_epoch_for(1, max_epochs=500) == 100
        assert unfreeze_epoch_for(3, max_epochs=250) == 30

    def test_minimum_threshold(self):
        assert unfreeze_epoch_for(6, max_epochs=50) == 10

    def test_budget_never_raises_threshold(self):
        # A budget above 2500 must not delay the unfreeze beyond the base rule.
        assert unfreeze_epoch_for(2, max_epochs=10_000) == 400

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            unfreeze_epoch_for(2, max_epochs=0)


class TestFinetune:
    def test_base_model_untouched_with_copy(self, pretrained, context_samples):
        context, machines, runtimes = context_samples
        before = {k: v.copy() for k, v in pretrained.state_dict().items()}
        finetune(pretrained, context, machines, runtimes, max_epochs=30)
        after = pretrained.state_dict()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])

    def test_autoencoder_never_updated(self, pretrained, context_samples):
        context, machines, runtimes = context_samples
        result = finetune(pretrained, context, machines, runtimes, max_epochs=30)
        for (name, before) in pretrained.autoencoder.named_parameters():
            after = dict(result.model.autoencoder.named_parameters())[name]
            np.testing.assert_array_equal(before.data, after.data)

    def test_z_adapts(self, pretrained, context_samples):
        context, machines, runtimes = context_samples
        result = finetune(pretrained, context, machines, runtimes, max_epochs=30)
        changed = any(
            not np.array_equal(before.data, dict(result.model.z.named_parameters())[name].data)
            for name, before in pretrained.z.named_parameters()
        )
        assert changed

    def test_partial_keeps_f_frozen_initially(self, pretrained, context_samples):
        context, machines, runtimes = context_samples
        result = finetune(
            pretrained,
            context,
            machines,
            runtimes,
            strategy=FinetuneStrategy.PARTIAL_UNFREEZE,
            max_epochs=8,  # below the minimum unfreeze threshold of 10
        )
        for name, before in pretrained.f.named_parameters():
            after = dict(result.model.f.named_parameters())[name]
            np.testing.assert_array_equal(before.data, after.data)

    def test_full_unfreeze_updates_f(self, pretrained, context_samples):
        context, machines, runtimes = context_samples
        result = finetune(
            pretrained,
            context,
            machines,
            runtimes,
            strategy=FinetuneStrategy.FULL_UNFREEZE,
            max_epochs=30,
        )
        changed = any(
            not np.array_equal(
                before.data, dict(result.model.f.named_parameters())[name].data
            )
            for name, before in pretrained.f.named_parameters()
        )
        assert changed

    def test_reset_variants_reinitialize(self, pretrained, context_samples):
        context, machines, runtimes = context_samples
        result = finetune(
            pretrained,
            context,
            machines,
            runtimes,
            strategy=FinetuneStrategy.FULL_RESET,
            max_epochs=1,
        )
        # After reset + 1 epoch, f must differ from the pre-trained f.
        diffs = [
            np.abs(before.data - dict(result.model.f.named_parameters())[name].data).max()
            for name, before in pretrained.f.named_parameters()
        ]
        assert max(diffs) > 1e-3

    def test_requires_samples(self, pretrained, context_samples):
        context, _, _ = context_samples
        with pytest.raises(ValueError):
            finetune(pretrained, context, [], [])

    def test_mismatched_lengths(self, pretrained, context_samples):
        context, machines, _ = context_samples
        with pytest.raises(ValueError):
            finetune(pretrained, context, machines, [1.0])

    def test_stops_at_mae_target(self, pretrained, context_samples):
        context, machines, runtimes = context_samples
        result = finetune(pretrained, context, machines, runtimes, max_epochs=400)
        if result.stop_reason == "target":
            assert result.final_mae <= pretrained.config.finetune_target_mae

    def test_result_diagnostics(self, pretrained, context_samples):
        context, machines, runtimes = context_samples
        result = finetune(pretrained, context, machines, runtimes, max_epochs=20)
        assert result.epochs_trained <= 20
        assert result.wall_seconds > 0
        assert result.strategy == "partial-unfreeze"


class TestTrainLocal:
    def test_local_model_predicts(self, context_samples):
        context, machines, runtimes = context_samples
        result = train_local(context, machines, runtimes, max_epochs=200, seed=0)
        predictions = result.model.predict(context, [4, 8])
        assert predictions.shape == (2,)
        assert (predictions > 0).any()

    def test_local_fits_training_points(self, context_samples):
        context, machines, runtimes = context_samples
        result = train_local(context, machines, runtimes, max_epochs=400, seed=0)
        predictions = result.model.predict(context, machines)
        mae = np.abs(predictions - runtimes).mean()
        assert mae < 0.2 * runtimes.mean()  # fits 3 points reasonably

    def test_local_autoencoder_frozen(self, context_samples):
        context, machines, runtimes = context_samples
        result = train_local(context, machines, runtimes, max_epochs=10, seed=0)
        assert result.model.autoencoder.is_frozen()

    def test_local_requires_samples(self, sgd_context):
        with pytest.raises(ValueError):
            train_local(sgd_context, [], [])

    def test_local_mismatched_lengths(self, sgd_context):
        with pytest.raises(ValueError, match="equal length"):
            train_local(sgd_context, [2.0, 4.0], [100.0])

    def test_local_strategy_label(self, context_samples):
        context, machines, runtimes = context_samples
        result = train_local(context, machines, runtimes, max_epochs=5, seed=0)
        assert result.strategy == "local"

    def test_single_point_works(self, context_samples):
        context, machines, runtimes = context_samples
        result = train_local(context, machines[:1], runtimes[:1], max_epochs=100, seed=0)
        assert np.isfinite(result.model.predict(context, [8])).all()
