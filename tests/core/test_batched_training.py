"""Batched multi-group training vs the serial per-group loop — bit-identical.

The batched substrate's correctness contract (the existing engine's
bit-identity discipline, extended to the group axis): stacking N contexts
into one fused tape pass must reproduce each context's serial
``finetune``/``pretrain`` run **bitwise** — identical seeds, identical
dropout-mask replay per group slot, identical shuffled batch orders,
identical stop epochs — for uniform and ragged sample counts, with and
without compiled tapes.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import finetuning, pretraining
from repro.core.config import BellamyConfig
from repro.core.graph_model import GraphBellamyModel, pretrain_gnn
from repro.core.finetuning import (
    FinetuneFailure,
    FinetuneStrategy,
    finetune,
    finetune_batch,
    unfreeze_epoch_for,
)
from repro.core.pretraining import pretrain, pretrain_batch
from repro.data.schema import JobContext


@pytest.fixture(scope="module")
def base_model(request):
    """A small pre-trained SGD model shared across this module's tests."""
    dataset = request.getfixturevalue("c3o_dataset")
    return pretrain(dataset, "sgd", epochs=30, seed=0).model


#: A config whose models cannot share a bank with the default architecture.
WIDE = BellamyConfig(seed=0).with_overrides(hidden_dim=12)


@pytest.fixture(scope="module")
def wide_base_model(request):
    """A pre-trained SGD model of a different architecture (wider z)."""
    dataset = request.getfixturevalue("c3o_dataset")
    return pretrain(dataset, "sgd", config=WIDE, epochs=5, seed=0).model


@pytest.fixture(scope="module")
def template_context(request) -> JobContext:
    dataset = request.getfixturevalue("c3o_dataset")
    return next(c for c in dataset.contexts() if c.algorithm == "sgd")


def _make_items(base_model, template, n_groups, sample_counts=None):
    """N same-architecture fine-tune items with deterministic samples."""
    items = []
    for g in range(n_groups):
        n = 8 if sample_counts is None else sample_counts[g]
        machines = np.arange(2.0, 2.0 + n)
        runtimes = 700.0 / machines * (1.0 + 0.3 * np.sin(g + machines)) + 90.0
        context = replace(template, dataset_mb=9_000 + 137 * g, context_id="")
        items.append((base_model, context, machines, runtimes))
    return items


def _assert_results_identical(serial, batched):
    assert not isinstance(batched, FinetuneFailure), batched
    assert serial.epochs_trained == batched.epochs_trained
    assert serial.stop_reason == batched.stop_reason
    assert serial.final_mae == batched.final_mae
    assert serial.train_result.best_epoch == batched.train_result.best_epoch
    assert serial.train_result.history == batched.train_result.history
    serial_state = serial.model.state_dict()
    batched_state = batched.model.state_dict()
    assert set(serial_state) == set(batched_state)
    for name in serial_state:
        assert np.array_equal(serial_state[name], batched_state[name]), name


@pytest.mark.parametrize("n_groups", [1, 2, 50])
def test_finetune_batch_bit_identical_across_group_counts(
    base_model, template_context, n_groups
):
    items = _make_items(base_model, template_context, n_groups)
    max_epochs = 8 if n_groups == 50 else 25
    serial = [finetune(*item, max_epochs=max_epochs) for item in items]
    batched = finetune_batch(items, max_epochs=max_epochs)
    assert len(batched) == n_groups
    for s, b in zip(serial, batched):
        _assert_results_identical(s, b)


@pytest.mark.parametrize("strategy", list(FinetuneStrategy), ids=lambda s: s.value)
def test_finetune_batch_bit_identical_for_ragged_sample_counts(
    base_model, template_context, strategy
):
    """Groups with different sample counts pad + mask, yet match serially.

    Every strategy: the partial ones unlock ``f`` at epoch 10 of 25 (the
    f-unfreeze hook and the f/z commit masks), the reset ones re-initialize
    before training.
    """
    items = _make_items(base_model, template_context, 3, sample_counts=[3, 5, 4])
    serial = [finetune(*item, strategy=strategy, max_epochs=25) for item in items]
    batched = finetune_batch(items, strategy=strategy, max_epochs=25)
    for s, b in zip(serial, batched):
        _assert_results_identical(s, b)


def test_finetune_batch_bit_identical_when_f_unlocks_at_different_epochs(
    base_model, template_context
):
    """At a 250-epoch budget, 3/5/4 samples unlock ``f`` at epochs 30/10/20:
    the stacked f trains for some groups while the others' f commits stay
    masked out."""
    items = _make_items(base_model, template_context, 3, sample_counts=[3, 5, 4])
    assert [unfreeze_epoch_for(n, 250) for n in (3, 5, 4)] == [30, 10, 20]
    serial = [finetune(*item, max_epochs=250) for item in items]
    batched = finetune_batch(items, max_epochs=250)
    for s, b in zip(serial, batched):
        assert s.epochs_trained > 30
        _assert_results_identical(s, b)


def _spy_banks(monkeypatch, module):
    """Record the models of every bank ``module`` stacks for lockstep training."""
    banks = []
    original = module.BatchedModelBank

    def spy(models):
        banks.append(list(models))
        return original(models)

    monkeypatch.setattr(module, "BatchedModelBank", spy)
    return banks


def _assert_one_bank_of(banks, first, second):
    assert len(banks) == 1 and len(banks[0]) == 2
    assert banks[0][0] is first.model and banks[0][1] is second.model


def test_finetune_batch_lone_group_trains_serially_in_place(
    base_model, wide_base_model, template_context, monkeypatch
):
    """A lone architecture between a batched pair takes the serial loop;
    every result stays at its item's position, bit-identical to serial."""
    items = _make_items(base_model, template_context, 3, sample_counts=[4, 6, 5])
    _, context, machines, runtimes = items[1]
    items[1] = (wide_base_model, context, machines, runtimes)
    serial = [finetune(*item, max_epochs=20) for item in items]
    banks = _spy_banks(monkeypatch, finetuning)
    batched = finetune_batch(items, max_epochs=20)
    assert len(batched) == 3
    _assert_one_bank_of(banks, batched[0], batched[2])
    for s, b in zip(serial, batched):
        _assert_results_identical(s, b)


def test_finetune_batch_isolates_a_bad_group(base_model, template_context):
    """One group's bad data fails only that group; the rest train normally."""
    items = _make_items(base_model, template_context, 3)
    good_serial = [finetune(*items[0], max_epochs=12), finetune(*items[2], max_epochs=12)]
    base, context, machines, _ = items[1]
    items[1] = (base, context, machines, np.array([]))  # length mismatch
    batched = finetune_batch(items, max_epochs=12)
    assert isinstance(batched[1], FinetuneFailure)
    assert batched[1].error.startswith("ValueError")
    _assert_results_identical(good_serial[0], batched[0])
    _assert_results_identical(good_serial[1], batched[2])


def test_finetune_batch_parity_without_tapes(
    base_model, template_context, monkeypatch
):
    """REPRO_NO_TAPE=1 (eager fallback) keeps batched == serial bitwise."""
    monkeypatch.setenv("REPRO_NO_TAPE", "1")
    items = _make_items(base_model, template_context, 2, sample_counts=[4, 6])
    serial = [finetune(*item, max_epochs=15) for item in items]
    batched = finetune_batch(items, max_epochs=15)
    for s, b in zip(serial, batched):
        _assert_results_identical(s, b)


def test_pretrain_batch_bit_identical_to_serial_sweep(c3o_dataset):
    """A two-algorithm warm sweep equals the per-algorithm serial runs."""
    serial = [
        pretrain(c3o_dataset, algorithm, epochs=6, seed=0)
        for algorithm in ("grep", "kmeans")
    ]
    batched = pretrain_batch(c3o_dataset, ["grep", "kmeans"], epochs=6, seed=0)
    assert len(batched) == 2
    for s, b in zip(serial, batched):
        assert s.algorithm == b.algorithm
        assert s.n_samples == b.n_samples
        assert s.validation_mae == b.validation_mae
        assert s.train_result.history == b.train_result.history
        serial_state = s.model.state_dict()
        batched_state = b.model.state_dict()
        for name in serial_state:
            assert np.array_equal(serial_state[name], batched_state[name]), name


def test_pretrain_batch_lone_group_trains_serially_in_place(c3o_dataset, monkeypatch):
    """A lone architecture between a batched pair takes the serial loop;
    every result stays at its item's position, bit-identical to serial."""
    items = ["grep", ("sgd", WIDE), "kmeans"]
    serial = [
        pretrain(c3o_dataset, "grep", epochs=5, seed=0),
        pretrain(c3o_dataset, "sgd", config=WIDE, epochs=5, seed=0),
        pretrain(c3o_dataset, "kmeans", epochs=5, seed=0),
    ]
    banks = _spy_banks(monkeypatch, pretraining)
    batched = pretrain_batch(c3o_dataset, items, epochs=5, seed=0)
    _assert_one_bank_of(banks, batched[0], batched[2])
    assert [b.algorithm for b in batched] == ["grep", "sgd", "kmeans"]
    for s, b in zip(serial, batched):
        assert s.validation_mae == b.validation_mae
        assert s.train_result.history == b.train_result.history
        batched_state = b.model.state_dict()
        for name, value in s.model.state_dict().items():
            assert np.array_equal(value, batched_state[name]), name


def test_finetune_batch_never_stacks_graph_aware_models(
    c3o_dataset, template_context, monkeypatch
):
    """Graph-aware models read their context in forward, which the bank
    cannot mirror: two of one architecture still fine-tune serially."""
    gnn = pretrain_gnn(c3o_dataset, "sgd", epochs=3, seed=0).model
    items = _make_items(gnn, template_context, 2)
    serial = [finetune(*item, max_epochs=12) for item in items]
    banks = _spy_banks(monkeypatch, finetuning)
    batched = finetune_batch(items, max_epochs=12)
    assert banks == []
    for s, b in zip(serial, batched):
        _assert_results_identical(s, b)


def test_pretrain_batch_with_a_model_factory_trains_serially(c3o_dataset, monkeypatch):
    """A custom factory may build models the bank cannot mirror: every group
    takes the serial loop, identical to its own ``pretrain`` call."""
    serial = [
        pretrain(c3o_dataset, algorithm, epochs=4, seed=0, model_factory=GraphBellamyModel)
        for algorithm in ("grep", "sgd")
    ]
    banks = _spy_banks(monkeypatch, pretraining)
    batched = pretrain_batch(
        c3o_dataset, ["grep", "sgd"], epochs=4, seed=0, model_factory=GraphBellamyModel
    )
    assert banks == []
    for s, b in zip(serial, batched):
        assert type(b.model) is GraphBellamyModel
        assert s.train_result.history == b.train_result.history
        batched_state = b.model.state_dict()
        for name, value in s.model.state_dict().items():
            assert np.array_equal(value, batched_state[name]), name


def test_one_group_bank_matches_the_serial_finetune_loop(base_model, template_context):
    """The lockstep loop at N=1 is the serial loop, bit for bit (a lone
    group trains serially only because the bank is slower)."""
    strategy = FinetuneStrategy.PARTIAL_UNFREEZE
    _, context, machines, runtimes = _make_items(base_model, template_context, 1)[0]
    groups = [
        finetuning._prepare_group(0, base_model, context, machines, runtimes, strategy, 40, True)
        for _ in range(2)
    ]
    unfreeze_epoch = finetuning._unfreeze_epoch(strategy, groups[0])
    serial = finetuning._fit_serial(groups[0], context, unfreeze_epoch)
    (banked,) = finetuning._fit_lockstep([groups[1]], strategy)
    assert serial.history == banked.history
    assert serial.stop_reason == banked.stop_reason
    banked_state = groups[1].model.state_dict()
    for name, value in groups[0].model.state_dict().items():
        assert np.array_equal(value, banked_state[name]), name


def test_one_group_bank_matches_the_serial_pretrain_loop(c3o_dataset):
    config = BellamyConfig(seed=0).with_overrides(pretrain_epochs=4)
    groups = [pretraining._prepare(c3o_dataset, "grep", config)[0] for _ in range(2)]
    serial = pretraining._fit_serial(groups[0])
    (banked,) = pretraining._fit_lockstep([groups[1]])
    assert serial.history == banked.history
    banked_state = groups[1].model.state_dict()
    for name, value in groups[0].model.state_dict().items():
        assert np.array_equal(value, banked_state[name]), name


def test_pretrain_batch_accepts_per_item_configs(c3o_dataset):
    """(algorithm, config) pairs batch different hyperparameters together."""
    configs = [
        BellamyConfig(seed=0).with_overrides(dropout=0.05),
        BellamyConfig(seed=0).with_overrides(dropout=0.2),
    ]
    batched = pretrain_batch(
        c3o_dataset,
        [("grep", configs[0]), ("grep", configs[1])],
        epochs=4,
        seed=0,
    )
    serial = [
        pretrain(c3o_dataset, "grep", config=config.with_overrides(pretrain_epochs=4, seed=0))
        for config in configs
    ]
    for s, b in zip(serial, batched):
        assert s.validation_mae == b.validation_mae
        for name, value in s.model.state_dict().items():
            assert np.array_equal(value, b.model.state_dict()[name]), name
