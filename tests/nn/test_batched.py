"""Batched multi-group kernels vs their serial per-group equivalents.

Every comparison is **bitwise** (``np.array_equal``), not approximate: the
batched substrate's contract is that stacking N groups into one fused pass
changes nothing about any group's numbers — same kernels, same reduction
orders, same RNG streams per group slot.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import BellamyConfig
from repro.core.model import BellamyModel
from repro.nn import functional as F
from repro.nn.batched import (
    BatchedAdam,
    BatchedAdamW,
    GroupProgress,
    LockstepGroup,
    alpha_dropout_batched,
    bucket_groups,
    fit_lockstep,
    group_mean,
    group_sum,
    huber_loss_batched,
    linear_act_batched,
    mse_loss_batched,
)
from repro.nn.module import Parameter
from repro.nn.optim import Adam, AdamW
from repro.nn.tensor import Tensor
from repro.nn.trainer import TrainerConfig


def _rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


# --------------------------------------------------------------------- #
# Group reductions
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("counts", [None, [3, 5, 4]])
def test_group_sum_matches_per_group_serial(counts):
    data = _rng(1).normal(size=(3, 5, 2))
    if counts is not None:
        for g, n in enumerate(counts):
            data[g, n:] = 0.0
    x = Tensor(data.copy(), requires_grad=True)
    out = group_sum(x, counts=None if counts is None else np.asarray(counts, float))
    for g in range(3):
        block = data[g] if counts is None else data[g, : counts[g]]
        serial = Tensor(block.copy(), requires_grad=True).sum()
        assert out.data[g] == serial.data

    out.backward(np.array([1.0, 2.0, 3.0]))
    for g, w in enumerate([1.0, 2.0, 3.0]):
        valid = slice(None) if counts is None else slice(0, counts[g])
        assert np.array_equal(x.grad[g, valid], np.full_like(data[g, valid], w))
        if counts is not None:
            assert np.all(x.grad[g, counts[g]:] == 0.0)


@pytest.mark.parametrize("counts", [None, [4, 2, 6]])
def test_group_mean_matches_serial_mean_decomposition(counts):
    data = _rng(2).normal(size=(3, 6))
    if counts is not None:
        for g, n in enumerate(counts):
            data[g, n:] = 0.0
    x = Tensor(data.copy(), requires_grad=True)
    out = group_mean(x, counts=None if counts is None else np.asarray(counts, float))
    for g in range(3):
        block = data[g] if counts is None else data[g, : counts[g]]
        serial = Tensor(block.copy(), requires_grad=True).mean()
        assert out.data[g] == serial.data  # bitwise: sum * (1/n), not /n


def test_mse_loss_batched_matches_serial_mse():
    rng = _rng(3)
    counts = [2, 4, 3]
    pred = rng.normal(size=(3, 4))
    target = rng.normal(size=(3, 4))
    for g, n in enumerate(counts):
        pred[g, n:] = 0.0
        target[g, n:] = 0.0
    p = Tensor(pred.copy(), requires_grad=True)
    out = mse_loss_batched(p, Tensor(target.copy()), counts=np.asarray(counts, float))
    for g, n in enumerate(counts):
        ps = Tensor(pred[g, :n].copy(), requires_grad=True)
        serial = F.mse_loss(ps, Tensor(target[g, :n].copy()))
        serial.backward()
        assert out.data[g] == serial.data
    out.backward(np.ones(3))
    for g, n in enumerate(counts):
        ps = Tensor(pred[g, :n].copy(), requires_grad=True)
        F.mse_loss(ps, Tensor(target[g, :n].copy())).backward()
        assert np.array_equal(p.grad[g, :n], ps.grad)
        assert np.all(p.grad[g, n:] == 0.0)


# --------------------------------------------------------------------- #
# Fused linear + activation, Huber
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("counts", [None, [2, 5, 3]])
def test_linear_act_batched_matches_serial_linear_act(counts):
    rng = _rng(4)
    n_groups, width, n_in, n_out = 3, 5, 7, 4
    x_data = rng.normal(size=(n_groups, width, n_in))
    w_data = rng.normal(size=(n_groups, n_out, n_in))
    b_data = rng.normal(size=(n_groups, n_out))
    if counts is not None:
        for g, n in enumerate(counts):
            x_data[g, n:] = 0.0
    x = Tensor(x_data.copy(), requires_grad=True)
    w = Tensor(w_data.copy(), requires_grad=True)
    b = Tensor(b_data.copy(), requires_grad=True)
    out = linear_act_batched(
        x, w, b, activation="selu",
        counts=None if counts is None else np.asarray(counts, float),
    )
    out.backward(np.ones_like(out.data))
    for g in range(n_groups):
        n = width if counts is None else counts[g]
        xs = Tensor(x_data[g, :n].copy(), requires_grad=True)
        ws = Tensor(w_data[g].copy(), requires_grad=True)
        bs = Tensor(b_data[g].copy(), requires_grad=True)
        serial = F.linear_act(xs, ws, bs, activation="selu")
        serial.backward(np.ones_like(serial.data))
        assert np.array_equal(out.data[g, :n], serial.data)
        assert np.array_equal(x.grad[g, :n], xs.grad)
        assert np.array_equal(w.grad[g], ws.grad)
        assert np.array_equal(b.grad[g], bs.grad)
        if counts is not None:
            assert np.all(out.data[g, n:] == 0.0)
            assert np.all(x.grad[g, n:] == 0.0)


@pytest.mark.parametrize("counts", [None, [3, 6, 2]])
def test_huber_loss_batched_matches_serial_per_group(counts):
    rng = _rng(5)
    deltas = np.array([0.5, 1.0, 2.0])
    pred = rng.normal(size=(3, 6)) * 2.0
    target = rng.normal(size=(3, 6)) * 2.0
    if counts is not None:
        for g, n in enumerate(counts):
            pred[g, n:] = 0.0
            target[g, n:] = 0.0
    p = Tensor(pred.copy(), requires_grad=True)
    out = huber_loss_batched(
        p, Tensor(target.copy()), delta=deltas,
        counts=None if counts is None else np.asarray(counts, float),
    )
    out.backward(np.ones(3))
    for g in range(3):
        n = 6 if counts is None else counts[g]
        ps = Tensor(pred[g, :n].copy(), requires_grad=True)
        serial = F.huber_loss(ps, Tensor(target[g, :n].copy()), delta=float(deltas[g]))
        serial.backward()
        assert out.data[g] == serial.data
        assert np.array_equal(p.grad[g, :n], ps.grad)
        if counts is not None:
            assert np.all(p.grad[g, n:] == 0.0)


# --------------------------------------------------------------------- #
# Per-group dropout RNG streams
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("counts", [None, [2, 4, 3]])
def test_alpha_dropout_replays_each_groups_serial_mask_stream(counts):
    """Group g's mask draws must equal a serial layer advancing rngs[g]."""
    rng = _rng(6)
    ps = [0.1, 0.0, 0.3]
    shape = (3, 4, 5)
    steps = 3
    batched_rngs = [np.random.default_rng(100 + g) for g in range(3)]
    serial_rngs = [np.random.default_rng(100 + g) for g in range(3)]
    for _ in range(steps):
        x_data = rng.normal(size=shape)
        if counts is not None:
            for g, n in enumerate(counts):
                x_data[g, n:] = 0.0
        out = alpha_dropout_batched(
            Tensor(x_data.copy()), ps, batched_rngs, training=True,
            counts=None if counts is None else np.asarray(counts, float),
        )
        for g in range(3):
            n = shape[1] if counts is None else counts[g]
            serial = F.alpha_dropout(
                Tensor(x_data[g, :n].copy()), ps[g], serial_rngs[g], training=True
            )
            assert np.array_equal(out.data[g, :n], serial.data)
    # The streams stayed in lockstep across all steps.
    for g in range(3):
        assert batched_rngs[g].random() == serial_rngs[g].random()


def test_alpha_dropout_eval_mode_is_identity_and_draws_nothing():
    rngs = [np.random.default_rng(7) for _ in range(2)]
    x = Tensor(_rng(8).normal(size=(2, 3, 4)))
    out = alpha_dropout_batched(x, [0.5, 0.5], rngs, training=False)
    assert np.array_equal(out.data, x.data)
    assert rngs[0].random() == np.random.default_rng(7).random()


# --------------------------------------------------------------------- #
# Batched optimizers
# --------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "batched_cls,serial_cls", [(BatchedAdam, Adam), (BatchedAdamW, AdamW)]
)
def test_batched_adam_matches_serial_per_group(batched_cls, serial_cls):
    """Mixed per-group lr/decay steps == N serial optimizers, bitwise."""
    rng = _rng(9)
    n_groups, shape = 3, (4, 2)
    lrs = np.array([1e-3, 5e-3, 1e-2])
    decays = np.array([0.0, 1e-4, 1e-3])
    data = rng.normal(size=(n_groups,) + shape)
    stacked = Parameter(data.copy())
    serial_params = [Parameter(data[g].copy()) for g in range(n_groups)]
    batched = batched_cls(
        [stacked], n_groups, lr=lrs.copy(), weight_decay=decays.copy()
    )
    serial = [
        serial_cls([serial_params[g]], lr=float(lrs[g]), weight_decay=float(decays[g]))
        for g in range(n_groups)
    ]
    mask = np.array([True, True, True])
    for step in range(5):
        grad = rng.normal(size=(n_groups,) + shape)
        if step == 3:
            mask = np.array([True, False, True])  # group 1 sits this one out
        stacked.grad = grad.copy()
        batched.step([mask])
        for g in range(n_groups):
            if not mask[g]:
                continue
            serial_params[g].grad = grad[g].copy()
            serial[g].step()
            serial_params[g].grad = None
        stacked.grad = None
        for g in range(n_groups):
            assert np.array_equal(stacked.data[g], serial_params[g].data)


# --------------------------------------------------------------------- #
# Per-group early stopping
# --------------------------------------------------------------------- #


def test_group_progress_per_group_monitors_and_stop_reasons():
    progress = GroupProgress(
        2,
        monitor=["val_mae", "mae"],
        targets=[None, 1.0],
        patiences=[1, None],
        max_epochs=[10, 10],
    )
    progress.record(0, 0, {"val_mae": 5.0, "mae": 9.0})
    progress.check_stop(0, 0, {"val_mae": 5.0, "mae": 9.0})
    progress.record(0, 1, {"val_mae": 6.0, "mae": 1.0})  # no improvement
    progress.check_stop(0, 1, {"val_mae": 6.0, "mae": 1.0})
    assert not progress.active[0] and progress.stop_reason[0] == "patience"
    assert progress.best_metric[0] == 5.0  # monitored val_mae, not mae

    progress.record(1, 0, {"mae": 0.5})
    progress.check_stop(1, 0, {"mae": 0.5})
    assert not progress.active[1] and progress.stop_reason[1] == "target"
    assert not progress.any_active


# --------------------------------------------------------------------- #
# Lockstep grouping
# --------------------------------------------------------------------- #


def _lockstep_group(index, config, n_props=6, trainer=None):
    return LockstepGroup(
        index,
        BellamyModel(config),
        np.zeros((3, 3)),
        np.zeros((3, n_props, config.property_vector_size)),
        np.zeros(3),
        trainer or TrainerConfig(),
    )


def test_bucket_groups_pairs_equal_architectures_and_returns_the_lone_rest():
    narrow = BellamyConfig(seed=0)
    wide = narrow.with_overrides(hidden_dim=12)
    groups = [
        _lockstep_group(0, narrow),
        _lockstep_group(1, wide),
        _lockstep_group(2, narrow.with_overrides(seed=5)),  # weights differ, shapes match
        _lockstep_group(3, narrow, n_props=5),  # property-matrix shape differs
    ]
    buckets, lone = bucket_groups(groups)
    assert [[group.index for group in bucket] for bucket in buckets] == [[0, 2]]
    assert [group.index for group in lone] == [1, 3]


def test_fit_lockstep_rejects_groups_with_different_min_delta():
    config = BellamyConfig(seed=0)
    groups = [
        _lockstep_group(0, config, trainer=TrainerConfig(min_delta=0.0)),
        _lockstep_group(1, config, trainer=TrainerConfig(min_delta=0.5)),
    ]
    with pytest.raises(ValueError, match="min_delta"):
        fit_lockstep(None, groups, None, None, None)
