"""Pre-training of Bellamy models on cross-context corpora (paper §III-A, IV-A).

A *general* model is trained on all available executions of one processing
algorithm — across contexts — by jointly minimizing the runtime prediction
error (Huber) and the auto-encoder reconstruction error (MSE). The three
corpus policies of the evaluation are provided:

* ``full``      — every historical execution of the algorithm,
* ``filtered``  — only executions from contexts *substantially different*
  from the target context (different node type, dataset characteristics, and
  job parameters; dataset size at least 20 % larger or smaller),
* ``local``     — no corpus at all (no pre-training; the model is trained
  from scratch on the target context's few samples, auto-encoder untouched).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import (
    PRETRAIN_SEARCH_SAMPLES,
    PRETRAIN_SEARCH_SPACE,
    BellamyConfig,
)
from repro.core.model import BellamyModel
from repro.data.dataset import ExecutionDataset
from repro.data.schema import JobContext
from repro.nn.batched import (
    BatchedAdam,
    BatchedModelBank,
    LockstepGroup,
    bucket_groups,
    fit_lockstep,
    huber_loss_batched,
    mse_loss_batched,
)
from repro.nn.losses import HuberLoss, MSELoss
from repro.nn.optim import Adam
from repro.nn.tape import GraphCompiler
from repro.nn.tensor import Tensor, no_grad
from repro.nn.trainer import TrainResult, Trainer, TrainerConfig
from repro.utils.rng import derive_seed, new_rng


@dataclass
class PretrainResult:
    """A pre-trained model plus training diagnostics."""

    model: BellamyModel
    algorithm: str
    variant: str
    n_samples: int
    n_contexts: int
    wall_seconds: float
    train_result: Optional[TrainResult] = None
    validation_mae: Optional[float] = None
    hyperparameters: Dict[str, float] = field(default_factory=dict)


def filter_distinct_contexts(
    dataset: ExecutionDataset,
    target: JobContext,
    size_margin: float = 0.20,
) -> ExecutionDataset:
    """The ``filtered`` corpus: contexts as different as possible from ``target``.

    Keeps executions whose context differs from the target in node type,
    dataset characteristics, *and* job parameters, and whose dataset size is
    at least ``size_margin`` larger or smaller (paper §IV-C1).
    """

    def is_distinct(execution) -> bool:
        context = execution.context
        if context.context_id == target.context_id:
            return False
        if context.node_type == target.node_type:
            return False
        if context.dataset_characteristics == target.dataset_characteristics:
            return False
        if context.params_text == target.params_text:
            return False
        relative = abs(context.dataset_mb - target.dataset_mb) / target.dataset_mb
        return relative >= size_margin

    return dataset.filter(is_distinct)


def _mae_seconds(model: BellamyModel, predicted: np.ndarray, target_scaled: np.ndarray) -> float:
    residual = model.denormalize_runtimes(predicted - target_scaled)
    return float(np.abs(residual).mean())


def _prepare(
    dataset: ExecutionDataset,
    algorithm: Optional[str],
    config: BellamyConfig,
    model_factory: Optional[Callable[[BellamyConfig], BellamyModel]] = None,
    index: int = 0,
) -> Tuple[LockstepGroup, ExecutionDataset]:
    """Build the model and its corpus rows (shared serial/batched prep).

    Fits the scale-out scaler and the runtime scale on the whole corpus,
    then splits it into training rows and validation rows.
    """
    corpus = dataset.for_algorithm(algorithm) if algorithm is not None else dataset
    if len(corpus) == 0:
        raise ValueError(f"no executions of algorithm {algorithm!r} in the corpus")
    model = (model_factory or BellamyModel)(config)
    scaleout_raw, properties, runtimes = model.featurizer.build_arrays(corpus)
    model.fit_scaler(scaleout_raw)
    model.set_runtime_scale(runtimes)
    features = model.scaler.transform(scaleout_raw)
    targets = model.normalize_runtimes(runtimes)

    # Train/validation split for model selection / monitoring.
    rng = new_rng(derive_seed(config.seed, "pretrain-split", str(algorithm)))
    n = len(corpus)
    permutation = rng.permutation(n)
    n_val = int(round(config.validation_fraction * n))
    val_idx = permutation[:n_val]
    train_idx = permutation[n_val:]
    if train_idx.size == 0:
        raise ValueError("validation fraction leaves no training data")
    group = LockstepGroup(
        index=index,
        model=model,
        features=features[train_idx],
        properties=properties[train_idx],
        targets=targets[train_idx],
        trainer=TrainerConfig(
            max_epochs=config.pretrain_epochs,
            batch_size=config.batch_size,
            monitor="val_mae" if val_idx.size else "mae",
            restore_best=True,
            seed=derive_seed(config.seed, "pretrain-loop", str(algorithm)),
        ),
        validation=(features[val_idx], properties[val_idx], targets[val_idx]),
    )
    return group, corpus


def _fit_serial(group: LockstepGroup) -> TrainResult:
    """The joint-objective loop of one model (:class:`~repro.nn.trainer.Trainer`)."""
    model = group.model
    config = model.config
    features, properties, targets = group.features, group.properties, group.targets
    huber = HuberLoss(delta=config.huber_delta)
    mse = MSELoss()
    reconstruction_weight = config.reconstruction_weight

    # The joint objective as a compiled graph (see repro.nn.tape): the term
    # tensors are returned so per-term metrics stay fresh on tape replays.
    def build(features_t: Tensor, properties_t: Tensor, targets_t: Tensor):
        prediction, reconstruction, flat = model.forward(features_t, properties_t)
        runtime_term = huber(prediction, targets_t)
        reconstruction_term = mse(reconstruction, flat.detach())
        total = runtime_term * 1.0 + reconstruction_term * reconstruction_weight
        return total, prediction, runtime_term, reconstruction_term

    compiler = GraphCompiler(build, params=model.parameters)

    def batch_loss(batch: np.ndarray):
        _, prediction, runtime_term, reconstruction_term = compiler.run(
            features[batch], properties[batch], targets[batch]
        )
        metrics = {
            "mae": _mae_seconds(model, prediction.data, targets[batch]),
            "huber": runtime_term.item(),
            "reconstruction_mse": reconstruction_term.item(),
        }
        return compiler.loss_handle, metrics

    evaluate = None
    val_features, val_properties, val_targets = group.validation
    if val_targets.size:
        # The validation forward replays a (gradient-free) compiled graph of
        # its own; it is recorded in eval mode, so dropout stays disabled.
        def build_eval(features_t: Tensor, properties_t: Tensor):
            prediction, _, _ = model.forward(features_t, properties_t)
            return (prediction,)

        eval_compiler = GraphCompiler(build_eval, params=model.parameters)

        def evaluate() -> Dict[str, float]:
            was_training = model.training
            model.eval()
            try:
                with no_grad():
                    (prediction,) = eval_compiler.run(val_features, val_properties)
            finally:
                model.train(was_training)
            return {"val_mae": _mae_seconds(model, prediction.data, val_targets)}

    optimizer = Adam(
        model.parameters(), lr=config.learning_rate, weight_decay=config.weight_decay
    )
    trainer = Trainer(model, optimizer, group.trainer)
    return trainer.fit(len(targets), batch_loss, evaluate=evaluate)


def _validation_hook(bank: BatchedModelBank, groups: List[LockstepGroup]):
    """One shared full-batch validation replay per epoch, or ``None``."""
    sizes = [group.validation[2].size for group in groups]
    if not any(sizes):
        return None
    first = groups[0].validation
    bufs = [
        np.zeros((len(groups), max(sizes)) + rows.shape[1:], dtype=np.float64)
        for rows in first[:2]
    ]
    for g, group in enumerate(groups):
        for buf, rows in zip(bufs, group.validation[:2]):
            buf[g, : sizes[g]] = rows
    counts = np.array(sizes, dtype=np.float64)

    def build_eval(features_t: Tensor, properties_t: Tensor, counts_t: Tensor):
        prediction, _, _ = bank.forward(features_t, properties_t, counts=counts_t)
        return (prediction,)

    compiler = GraphCompiler(build_eval, params=bank.parameters)

    def evaluate() -> Dict[int, Dict[str, float]]:
        bank.eval()
        try:
            with no_grad():
                (prediction,) = compiler.run(*bufs, counts)
        finally:
            bank.train()
        out = {}
        for g, group in enumerate(groups):
            if sizes[g]:
                predicted = prediction.data[g, : sizes[g]]
                out[g] = {"val_mae": _mae_seconds(group.model, predicted, group.validation[2])}
        return out

    return evaluate


def _fit_lockstep(groups: List[LockstepGroup]) -> List[TrainResult]:
    """The joint objective on :func:`repro.nn.batched.fit_lockstep`.

    Huber + reconstruction MSE per group slot on one stacked bank, every
    parameter committing for each group with a batch, and the validation
    replay as the epoch hook.
    """
    configs = [group.model.config for group in groups]
    bank = BatchedModelBank([group.model for group in groups])
    deltas = np.array([c.huber_delta for c in configs], dtype=np.float64)
    recon_w = np.array([c.reconstruction_weight for c in configs], dtype=np.float64)
    n_props = groups[0].properties.shape[1]

    def build(features_t: Tensor, properties_t: Tensor, targets_t: Tensor, counts_t: Tensor):
        prediction, reconstruction, flat = bank.forward(
            features_t, properties_t, counts=counts_t
        )
        counts_flat = counts_t * float(n_props)
        runtime_term = huber_loss_batched(
            prediction, targets_t, delta=deltas, counts=counts_t
        )
        reconstruction_term = mse_loss_batched(
            reconstruction, flat.detach(), counts=counts_flat
        )
        total = runtime_term * 1.0 + reconstruction_term * recon_w
        return total, prediction, runtime_term, reconstruction_term

    optimizer = BatchedAdam(
        bank.parameters(),
        len(groups),
        lr=np.array([c.learning_rate for c in configs], dtype=np.float64),
        weight_decay=np.array([c.weight_decay for c in configs], dtype=np.float64),
    )
    return fit_lockstep(
        bank,
        groups,
        build,
        optimizer,
        lambda had_batch: [had_batch] * len(optimizer.params),
        terms=("huber", "reconstruction_mse"),
        evaluate=_validation_hook(bank, groups),
    )


def _result(
    group: LockstepGroup,
    corpus: ExecutionDataset,
    algorithm: Optional[str],
    variant: str,
    train_result: TrainResult,
    wall: float,
) -> PretrainResult:
    config = group.model.config
    return PretrainResult(
        model=group.model,
        algorithm=algorithm or "*",
        variant=variant,
        n_samples=len(corpus),
        n_contexts=len(corpus.contexts()),
        wall_seconds=wall,
        train_result=train_result,
        validation_mae=train_result.best_metric if group.validation[2].size else None,
        hyperparameters={
            "dropout": config.dropout,
            "learning_rate": config.learning_rate,
            "weight_decay": config.weight_decay,
        },
    )


def _configure(
    config: Optional[BellamyConfig], epochs: Optional[int], seed: Optional[int]
) -> BellamyConfig:
    config = config or BellamyConfig()
    if seed is not None:
        config = config.with_overrides(seed=seed)
    if epochs is not None:
        config = config.with_overrides(pretrain_epochs=epochs)
    return config


def pretrain(
    dataset: ExecutionDataset,
    algorithm: Optional[str],
    config: Optional[BellamyConfig] = None,
    variant: str = "full",
    epochs: Optional[int] = None,
    seed: Optional[int] = None,
    model_factory: Optional[Callable[[BellamyConfig], BellamyModel]] = None,
) -> PretrainResult:
    """Pre-train a Bellamy model on all executions of ``algorithm`` in ``dataset``.

    Parameters
    ----------
    dataset:
        The historical-execution corpus (already corpus-filtered if desired).
    algorithm:
        Algorithm whose executions form the corpus. ``None`` trains on the
        whole dataset regardless of algorithm — the *cross-algorithm* mode of
        :mod:`repro.core.cross_algorithm` (paper §V, future work), enabled by
        the job-name property that lets the model tell algorithms apart.
    config:
        Model/training configuration (defaults to Table I).
    variant:
        Label recorded in the result ("full", "filtered", ...).
    epochs:
        Optional override of ``config.pretrain_epochs`` (the experiment
        harness uses this for its quick scale).
    seed:
        Optional override of ``config.seed``.
    model_factory:
        Builds the model from the configuration (default:
        :class:`~repro.core.model.BellamyModel`). Extension models — e.g.
        the graph-aware variants in :mod:`repro.core.graph_model` — pass
        their own constructor here and reuse the whole training pipeline.
    """
    config = _configure(config, epochs, seed)
    started = time.perf_counter()
    group, corpus = _prepare(dataset, algorithm, config, model_factory)
    train_result = _fit_serial(group)
    wall = time.perf_counter() - started
    return _result(group, corpus, algorithm, variant, train_result, wall)


def pretrain_batch(
    dataset: ExecutionDataset,
    items: Sequence[Union[Optional[str], Tuple[Optional[str], Optional[BellamyConfig]]]],
    variant: str = "full",
    epochs: Optional[int] = None,
    seed: Optional[int] = None,
    model_factory: Optional[Callable[[BellamyConfig], BellamyModel]] = None,
) -> List[PretrainResult]:
    """Pre-train N general models in one fused batched pass.

    Each item is either an algorithm name (trained with the default
    configuration) or an ``(algorithm, config)`` pair — e.g. one algorithm
    per group for a warm sweep over an experiment's corpora, or the same
    algorithm with N trial configurations for a population-style
    hyperparameter search. Groups whose models share an architecture (and
    property-matrix shape) are stacked into a
    :class:`~repro.nn.batched.BatchedModelBank` and trained together on one
    compiled tape; each group's result is bit-identical to its own
    :func:`pretrain` call (same splits, shuffles, dropout draws, and
    best-epoch selection). Lone groups — and every group built by a custom
    ``model_factory`` — train in the serial loop.

    Unlike :func:`repro.core.finetuning.finetune_batch` (whose per-group
    failure isolation serves the online refresh path), invalid inputs here
    raise immediately: a sweep over a corpus with no executions of an
    algorithm is a caller error, not a data-quality event.
    """
    normalized: List[Tuple[Optional[str], BellamyConfig]] = []
    for item in items:
        if isinstance(item, (tuple, list)):
            algorithm, config = item
        else:
            algorithm, config = item, None
        normalized.append((algorithm, _configure(config, epochs, seed)))

    started = time.perf_counter()
    prepared = [
        _prepare(dataset, algorithm, config, model_factory, index=i)
        for i, (algorithm, config) in enumerate(normalized)
    ]
    groups = [group for group, _ in prepared]
    # A custom factory may build models the stacked bank cannot mirror.
    buckets, lone = bucket_groups(groups) if model_factory is None else ([], groups)
    results: List[Optional[PretrainResult]] = [None] * len(normalized)

    def finish(group: LockstepGroup, train_result: TrainResult, wall: float) -> None:
        corpus = prepared[group.index][1]
        algorithm = normalized[group.index][0]
        results[group.index] = _result(group, corpus, algorithm, variant, train_result, wall)

    for bucket in buckets:
        train_results = _fit_lockstep(bucket)
        wall = time.perf_counter() - started
        for group, train_result in zip(bucket, train_results):
            finish(group, train_result, wall)
    for group in lone:
        fit_started = time.perf_counter()
        train_result = _fit_serial(group)
        finish(group, train_result, time.perf_counter() - fit_started)

    return results


def pretrain_population_objective(
    dataset: ExecutionDataset,
    algorithm: str,
    base_config: Optional[BellamyConfig] = None,
    variant: str = "search",
    epochs: Optional[int] = None,
    seed: int = 0,
) -> Callable[[Sequence[Dict[str, float]]], List[float]]:
    """Build a population objective scoring pre-training hyperparameters.

    The returned callable maps a whole population of configuration dicts
    (keys are :class:`~repro.core.config.BellamyConfig` field overrides,
    e.g. ``dropout``/``learning_rate``/``weight_decay``) to their
    validation-MAE scores in **one** :func:`pretrain_batch` pass — the
    fused counterpart of calling :func:`pretrain` per trial, for
    :func:`repro.tune.runner.run_population`. Trial seeds follow the same
    ``pretrain-trial`` derivation as :func:`pretrain_with_search`, so
    scores are bit-identical to the serial search.
    """
    base_config = base_config or BellamyConfig()

    def population(configurations: Sequence[Dict[str, float]]) -> List[float]:
        configs = [
            base_config.with_overrides(
                **{key: float(value) for key, value in params.items()},
                seed=derive_seed(seed, "pretrain-trial", algorithm, trial_index),
            )
            for trial_index, params in enumerate(configurations)
        ]
        trial_results = pretrain_batch(
            dataset,
            [(algorithm, config) for config in configs],
            variant=variant,
            epochs=epochs,
        )
        return [_score_of(result) for result in trial_results]

    return population


def pretrain_with_search(
    dataset: ExecutionDataset,
    algorithm: str,
    base_config: Optional[BellamyConfig] = None,
    n_samples: int = PRETRAIN_SEARCH_SAMPLES,
    variant: str = "full",
    epochs: Optional[int] = None,
    seed: int = 0,
) -> PretrainResult:
    """Hyperparameter search over the Table I grid (paper: 12 samples).

    Uses random search from :mod:`repro.tune` over dropout, learning rate,
    and weight decay, selecting the configuration with the lowest validation
    MAE — the offline analogue of the paper's Tune/Optuna search. The
    trials form a same-architecture population, so they are evaluated as
    **one** :func:`pretrain_batch` pass (per-group dropout rates, learning
    rates, and weight decays on one tape); the winner — first trial with
    the strictly lowest score — is identical to running the trials
    serially.
    """
    from repro.tune.search import RandomSearch
    from repro.tune.space import Categorical, SearchSpace

    base_config = base_config or BellamyConfig()
    space = SearchSpace(
        {name: Categorical(values) for name, values in PRETRAIN_SEARCH_SPACE.items()}
    )
    search = RandomSearch(space, seed=derive_seed(seed, "pretrain-search", algorithm))

    configs = [
        base_config.with_overrides(
            dropout=float(params["dropout"]),
            learning_rate=float(params["learning_rate"]),
            weight_decay=float(params["weight_decay"]),
            seed=derive_seed(seed, "pretrain-trial", algorithm, trial_index),
        )
        for trial_index, params in enumerate(search.suggest(n_samples))
    ]
    trial_results = pretrain_batch(
        dataset,
        [(algorithm, config) for config in configs],
        variant=variant,
        epochs=epochs,
    )

    best: Optional[PretrainResult] = None
    for result in trial_results:
        score = result.validation_mae
        if score is None:
            score = result.train_result.best_metric if result.train_result else float("inf")
        if best is None or score < _score_of(best):
            best = result
    assert best is not None  # n_samples >= 1 guarantees at least one trial
    return best


def _score_of(result: PretrainResult) -> float:
    if result.validation_mae is not None:
        return result.validation_mae
    if result.train_result is not None:
        return result.train_result.best_metric
    return float("inf")
