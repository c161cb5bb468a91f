"""Fine-tuning of (pre-trained) Bellamy models on a concrete context.

Implements the paper's optimization step (§III-A, §IV-A) and the four model
reuse strategies of the cross-environment study (§IV-C2), plus the ``local``
variant that trains from scratch on the context's few samples:

* ``partial-unfreeze`` — adapt ``z`` from the start, unlock ``f`` after a
  number of epochs that depends on the number of samples (the default
  fine-tuning mode used in the cross-context experiments),
* ``full-unfreeze``    — adapt ``f`` and ``z`` from the start,
* ``partial-reset``    — re-initialize ``z``, then fine-tune,
* ``full-reset``       — re-initialize ``f`` and ``z``, adapt both,
* ``local``            — fresh model, no pre-training; the auto-encoder is
  left untrained ("it bears no advantage" without a corpus).

The auto-encoder parameters are never updated during fine-tuning. Training
uses the Huber loss only, cyclical learning-rate annealing in
``(1e-3, 1e-2)``, weight decay ``1e-3``, and stops once the training MAE
reaches 5 seconds or no improvement was seen for 1000 epochs (2500 max).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import BellamyConfig
from repro.core.model import BellamyModel
from repro.data.schema import JobContext
from repro.nn.batched import (
    BatchedAdam,
    BatchedModelBank,
    LockstepGroup,
    bucket_groups,
    fit_lockstep,
    huber_loss_batched,
)
from repro.nn.losses import HuberLoss
from repro.nn.optim import Adam
from repro.nn.schedulers import CyclicLR
from repro.nn.tape import GraphCompiler
from repro.nn.tensor import Tensor
from repro.nn.trainer import TrainResult, Trainer, TrainerConfig, unfreeze_after
from repro.utils.rng import derive_seed


class FinetuneStrategy(str, Enum):
    """Model-reuse strategies (paper §IV-C2)."""

    PARTIAL_UNFREEZE = "partial-unfreeze"
    FULL_UNFREEZE = "full-unfreeze"
    PARTIAL_RESET = "partial-reset"
    FULL_RESET = "full-reset"

    def resets_z(self) -> bool:
        """Whether the predictor z is re-initialized."""
        return self in (FinetuneStrategy.PARTIAL_RESET, FinetuneStrategy.FULL_RESET)

    def resets_f(self) -> bool:
        """Whether the scale-out network f is re-initialized."""
        return self is FinetuneStrategy.FULL_RESET

    def delays_f(self) -> bool:
        """Whether f stays frozen for an initial phase."""
        return self in (FinetuneStrategy.PARTIAL_UNFREEZE, FinetuneStrategy.PARTIAL_RESET)


@dataclass
class FinetuneResult:
    """A context-adapted model plus fine-tuning diagnostics."""

    model: BellamyModel
    strategy: str
    epochs_trained: int
    wall_seconds: float
    final_mae: float
    stop_reason: str
    train_result: TrainResult


@dataclass
class FinetuneFailure:
    """Per-group failure marker returned by :func:`finetune_batch`.

    One group's bad data (empty samples, shape mismatch, a featurizer error)
    must not sink the other groups of a batched refresh; the failing slot
    gets this marker while the rest train normally.
    """

    context: Optional[JobContext]
    strategy: str
    error: str


def unfreeze_epoch_for(n_samples: int, max_epochs: int = 2500) -> int:
    """Epoch at which ``f`` is unlocked during partial fine-tuning.

    The paper makes this "dependent on the amount of data samples" without
    giving the rule; we let more data unlock ``f`` earlier (more evidence
    justifies touching the general scale-out understanding sooner):
    ``max(100, 600 - 100 * n)`` at the paper's 2500-epoch budget. When the
    budget is shorter (the quick experiment scale), the threshold scales
    proportionally — otherwise ``f`` would never unlock at all within the
    shrunken budget.
    """
    if n_samples < 0:
        raise ValueError(f"n_samples must be >= 0, got {n_samples}")
    if max_epochs <= 0:
        raise ValueError(f"max_epochs must be > 0, got {max_epochs}")
    base = max(100, 600 - 100 * n_samples)
    return max(10, round(base * min(1.0, max_epochs / 2500.0)))


def _clone_model(model: BellamyModel) -> BellamyModel:
    """Deep-copy a model via its full state dict.

    Uses the concrete class so model subclasses (e.g. the graph-aware model
    in :mod:`repro.core.graph_model`) survive fine-tuning cloning.
    """
    clone = type(model)(model.config)
    clone.load_full_state_dict(model.full_state_dict())
    return clone


def _check_samples(machines, runtimes) -> Tuple[np.ndarray, np.ndarray]:
    """The fine-tuning samples as flat float arrays (>= 1 point, equal length)."""
    machines = np.asarray(machines, dtype=np.float64).reshape(-1)
    runtimes = np.asarray(runtimes, dtype=np.float64).reshape(-1)
    if machines.size == 0:
        raise ValueError("training on a context requires at least one sample; "
                         "use the pre-trained model directly for zero-shot prediction")
    if machines.shape != runtimes.shape:
        raise ValueError("machines and runtimes must have equal length")
    return machines, runtimes


def _group(
    index: int,
    model: BellamyModel,
    context: JobContext,
    machines: np.ndarray,
    runtimes: np.ndarray,
    max_epochs: Optional[int],
    seed_path: Tuple,
) -> LockstepGroup:
    """The context's scaled samples plus the Huber-only loop settings."""
    config = model.config
    scaleout_raw, properties = model.featurizer.build_context_arrays(context, machines)
    return LockstepGroup(
        index=index,
        model=model,
        features=model.scaler.transform(scaleout_raw),
        properties=properties,
        targets=model.normalize_runtimes(runtimes),
        trainer=TrainerConfig(
            max_epochs=max_epochs or config.finetune_max_epochs,
            batch_size=config.batch_size,
            monitor="mae",
            target=config.finetune_target_mae,
            patience=config.finetune_patience,
            restore_best=True,
            seed=derive_seed(config.seed, "finetune-loop", *seed_path),
        ),
    )


def _prepare_group(
    index: int,
    base_model: BellamyModel,
    context: JobContext,
    machines: np.ndarray,
    runtimes: np.ndarray,
    strategy: FinetuneStrategy,
    max_epochs: Optional[int],
    copy: bool,
) -> LockstepGroup:
    """Clone/reset/freeze a model for fine-tuning (shared serial/batched prep)."""
    model = _clone_model(base_model) if copy else base_model
    config = model.config

    # Dropout is disabled during fine-tuning (Table I: Dropout 0 %).
    model.autoencoder.encoder.set_dropout(0.0)
    model.autoencoder.decoder.set_dropout(0.0)

    reset_seed = derive_seed(config.seed, "finetune-reset", context.context_id)
    if strategy.resets_z():
        model.z.reset_parameters(reset_seed)
    if strategy.resets_f():
        model.f.reset_parameters(derive_seed(reset_seed, "f"))

    # The auto-encoder is never adapted; z always is; f depends on strategy.
    # A graph encoder (GnnBellamyModel) is a structural prior and is frozen
    # like the auto-encoder.
    model.autoencoder.freeze()
    if hasattr(model, "graph_encoder"):
        model.graph_encoder.freeze()
    model.z.unfreeze()
    if strategy.delays_f():
        model.f.freeze()
    else:
        model.f.unfreeze()
    seed_path = (context.context_id, strategy.value)
    return _group(index, model, context, machines, runtimes, max_epochs, seed_path)


def _unfreeze_epoch(strategy: Optional[FinetuneStrategy], group: LockstepGroup) -> Optional[int]:
    """Epoch at which ``f`` unlocks (``None``: adapted from the start)."""
    if strategy is None or not strategy.delays_f():
        return None
    return unfreeze_epoch_for(len(group.targets), group.trainer.max_epochs)


def _cyclic_lr(optimizer, config: BellamyConfig) -> CyclicLR:
    return CyclicLR(
        optimizer,
        min_lr=config.finetune_lr_min,
        max_lr=config.finetune_lr_max,
        cycle_length=config.finetune_lr_cycle,
    )


def _fit_serial(
    group: LockstepGroup, context: JobContext, unfreeze_epoch: Optional[int]
) -> TrainResult:
    """Shared Huber-only optimization loop used by all strategies."""
    model = group.model
    config = model.config
    # Graph-aware models route the (single) fine-tuning context to their
    # forward pass through ``pending_contexts`` (see core.graph_model).
    if hasattr(model, "pending_contexts"):
        model.pending_contexts = [context]
    features, properties, targets = group.features, group.properties, group.targets
    huber = HuberLoss(delta=config.huber_delta)

    # The per-batch graph is structurally identical across epochs, so it is
    # recorded once and replayed (see repro.nn.tape); unfreeze callbacks
    # change the parameter signature and transparently trigger re-recording.
    def build(features_t: Tensor, properties_t: Tensor, targets_t: Tensor):
        prediction, _, _ = model.forward(features_t, properties_t)
        return huber(prediction, targets_t), prediction

    compiler = GraphCompiler(build, params=model.parameters)

    def batch_loss(batch: np.ndarray):
        _, prediction = compiler.run(features[batch], properties[batch], targets[batch])
        residual = model.denormalize_runtimes(prediction.data - targets[batch])
        return compiler.loss_handle, {"mae": float(np.abs(residual).mean())}

    optimizer = Adam(
        model.parameters(),
        lr=config.finetune_lr_max,
        weight_decay=config.finetune_weight_decay,
    )
    callbacks = [] if unfreeze_epoch is None else [unfreeze_after(model.f, unfreeze_epoch)]
    trainer = Trainer(
        model,
        optimizer,
        group.trainer,
        scheduler=_cyclic_lr(optimizer, config),
        callbacks=callbacks,
    )
    model.train()
    result = trainer.fit(len(targets), batch_loss)
    model.eval()
    return result


def _fit_lockstep(groups: List[LockstepGroup], strategy: FinetuneStrategy) -> List[TrainResult]:
    """The fine-tune objective on :func:`repro.nn.batched.fit_lockstep`.

    Huber on one stacked bank; ``f`` commits only for groups whose
    f-unfreeze epoch has passed, ``z`` for every group with a batch; the
    epoch hooks are each group's cyclic learning rate and f-unfreeze.
    """
    configs = [group.model.config for group in groups]
    bank = BatchedModelBank([group.model for group in groups])
    delta = np.array([c.huber_delta for c in configs], dtype=np.float64)

    def build(features_t: Tensor, properties_t: Tensor, targets_t: Tensor, counts_t: Tensor):
        prediction, _, _ = bank.forward(features_t, properties_t, counts=counts_t)
        loss = huber_loss_batched(prediction, targets_t, delta=delta, counts=counts_t)
        return loss, prediction

    f_params, z_params = bank.f.params(), bank.z.params()
    optimizer = BatchedAdam(
        f_params + z_params,
        len(groups),
        lr=np.array([c.finetune_lr_max for c in configs], dtype=np.float64),
        weight_decay=np.array([c.finetune_weight_decay for c in configs], dtype=np.float64),
    )
    schedulers = [_cyclic_lr(SimpleNamespace(lr=c.finetune_lr_max), c) for c in configs]
    unfreeze = [_unfreeze_epoch(strategy, group) for group in groups]
    f_open = np.array([epoch is None for epoch in unfreeze])

    def commit_masks(had_batch: np.ndarray) -> List[np.ndarray]:
        return [had_batch & f_open] * len(f_params) + [had_batch] * len(z_params)

    def step_lr(epoch: int, running: List[int]) -> None:
        for g in running:
            optimizer.lr[g] = schedulers[g].step()

    def unfreeze_f(g: int, epoch: int) -> None:
        if unfreeze[g] is not None and epoch + 1 == unfreeze[g]:
            f_open[g] = True
            groups[g].model.f.unfreeze()
            # The stacked f becomes trainable with its first group; the
            # compiler re-records on the next run.
            bank.f.set_trainable(True)

    results = fit_lockstep(
        bank,
        groups,
        build,
        optimizer,
        commit_masks,
        on_epoch_start=step_lr,
        on_epoch_end=unfreeze_f,
    )
    for group in groups:
        group.model.eval()
    return results


def _result(
    group: LockstepGroup, strategy: str, train_result: TrainResult, wall: float
) -> FinetuneResult:
    return FinetuneResult(
        model=group.model,
        strategy=strategy,
        epochs_trained=train_result.epochs_trained,
        wall_seconds=wall,
        final_mae=train_result.best_metric,
        stop_reason=train_result.stop_reason,
        train_result=train_result,
    )


def finetune(
    base_model: BellamyModel,
    context: JobContext,
    machines: Sequence[float],
    runtimes: Sequence[float],
    strategy: FinetuneStrategy = FinetuneStrategy.PARTIAL_UNFREEZE,
    max_epochs: Optional[int] = None,
    copy: bool = True,
) -> FinetuneResult:
    """Optimize a pre-trained model for a concrete context.

    Parameters
    ----------
    base_model:
        The pre-trained model (left untouched when ``copy=True``).
    context:
        The new execution context.
    machines, runtimes:
        The available samples from the new context (>= 1 point).
    strategy:
        Which parameters are adapted / re-initialized.
    max_epochs:
        Optional override of the 2500-epoch cap (quick experiment scale).
    copy:
        Clone the base model first so it can be reused across splits.
    """
    machines, runtimes = _check_samples(machines, runtimes)
    started = time.perf_counter()
    group = _prepare_group(0, base_model, context, machines, runtimes, strategy, max_epochs, copy)
    result = _fit_serial(group, context, _unfreeze_epoch(strategy, group))
    return _result(group, strategy.value, result, time.perf_counter() - started)


def finetune_batch(
    items: Sequence[Tuple[BellamyModel, JobContext, Sequence[float], Sequence[float]]],
    strategy: FinetuneStrategy = FinetuneStrategy.PARTIAL_UNFREEZE,
    max_epochs: Optional[int] = None,
    copy: bool = True,
) -> List[Union[FinetuneResult, FinetuneFailure]]:
    """Fine-tune N groups in one fused batched pass.

    Each item is ``(base_model, context, machines, runtimes)`` — the exact
    arguments of :func:`finetune`. Groups with identical architectures (and
    property-matrix shapes) are stacked into a
    :class:`~repro.nn.batched.BatchedModelBank` and trained together on one
    compiled tape; the result per group is bit-identical to running
    :func:`finetune` on it alone (same seeds, same shuffled batch orders,
    same stop epochs). Groups that cannot batch — graph-aware models or a
    lone leftover of an architecture — train in the serial loop.

    Returns one entry per item, position-aligned: a
    :class:`FinetuneResult` on success or a :class:`FinetuneFailure` when
    that group's inputs were unusable (other groups are unaffected).
    """
    results: List[Optional[Union[FinetuneResult, FinetuneFailure]]] = [None] * len(items)
    batchable: List[LockstepGroup] = []
    serial: List[LockstepGroup] = []
    started = time.perf_counter()

    def fail(i: int, exc: Exception) -> None:
        item = items[i]
        context = item[1] if isinstance(item, (tuple, list)) and len(item) > 1 else None
        results[i] = FinetuneFailure(
            context=context, strategy=strategy.value, error=f"{type(exc).__name__}: {exc}"
        )

    for i, item in enumerate(items):
        try:
            base_model, context, machines, runtimes = item
            machines, runtimes = _check_samples(machines, runtimes)
            group = _prepare_group(
                i, base_model, context, machines, runtimes, strategy, max_epochs, copy
            )
            # Graph-aware models read their context in forward: serial only.
            (serial if hasattr(base_model, "pending_contexts") else batchable).append(group)
        except Exception as exc:  # noqa: BLE001 — isolation is the contract
            fail(i, exc)

    buckets, lone = bucket_groups(batchable)
    for bucket in buckets:
        train_results = _fit_lockstep(bucket, strategy)
        wall = time.perf_counter() - started
        for group, train_result in zip(bucket, train_results):
            results[group.index] = _result(group, strategy.value, train_result, wall)

    for group in serial + lone:
        try:
            fit_started = time.perf_counter()
            context = items[group.index][1]
            train_result = _fit_serial(group, context, _unfreeze_epoch(strategy, group))
            wall = time.perf_counter() - fit_started
            results[group.index] = _result(group, strategy.value, train_result, wall)
        except Exception as exc:  # noqa: BLE001 — isolation is the contract
            fail(group.index, exc)

    return results


def train_local(
    context: JobContext,
    machines: Sequence[float],
    runtimes: Sequence[float],
    config: Optional[BellamyConfig] = None,
    max_epochs: Optional[int] = None,
    seed: Optional[int] = None,
) -> FinetuneResult:
    """The ``local`` variant: train a fresh model on the context's samples.

    No pre-training data exists, so the auto-encoder is not trained (its
    random codes still give each context a stable signature); the scale-out
    boundaries and the runtime scale are derived from the local samples.
    """
    machines, runtimes = _check_samples(machines, runtimes)

    config = config or BellamyConfig()
    if seed is not None:
        config = config.with_overrides(seed=seed)
    # No corpus -> no dropout regularization target; keep fine-tune semantics.
    config = config.with_overrides(dropout=0.0)

    started = time.perf_counter()
    model = BellamyModel(config)
    model.fit_scaler(model.featurizer.scaleout_features(machines))
    model.set_runtime_scale(runtimes, percentile=100.0)

    model.autoencoder.freeze()
    model.f.unfreeze()
    model.z.unfreeze()

    seed_path = (context.context_id, "local")
    group = _group(0, model, context, machines, runtimes, max_epochs, seed_path)
    result = _fit_serial(group, context, None)
    return _result(group, "local", result, time.perf_counter() - started)
