"""The fixed program configuration every workload runs against.

The server and the benchmark's oracle build their models from these same
values, so the oracle can recompute any served answer bit for bit. Training
budgets are fixed: pre-training runs ``PRETRAIN_EPOCHS`` epochs, and with
no early-stopping target every fine-tune (serving or refresh) runs exactly
``FINETUNE_MAX_EPOCHS`` epochs, so what a request costs does not depend on
which contexts the workload seed happened to draw.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Dataset and model seeds: the *workload* seed only shapes the traffic.
DATASET_SEED = 0
MODEL_SEED = 0
ALGORITHMS = ("grep", "sort", "pagerank", "sgd", "kmeans")
PRETRAIN_EPOCHS = 20
FINETUNE_MAX_EPOCHS = 100
#: ``repro-bellamy serve`` defaults.
BATCH_MAX = 64
BATCH_WAIT_MS = 2.0
CACHE_SIZE = 16
#: Online lifecycle: serve defaults, with refresh fine-tunes capped like
#: every other fine-tune.
REFRESH_EPOCHS = FINETUNE_MAX_EPOCHS


def require_source() -> None:
    """Make ``repro`` importable from the checkout; exit 2 when it is absent."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def bellamy_config():
    """The :class:`~repro.core.config.BellamyConfig` of server and oracle."""
    from repro.core.config import BellamyConfig

    return BellamyConfig(seed=MODEL_SEED).with_overrides(
        pretrain_epochs=PRETRAIN_EPOCHS, finetune_max_epochs=FINETUNE_MAX_EPOCHS,
        finetune_target_mae=0.0,
    )


def refresh_policy():
    """The :class:`~repro.online.RefreshPolicy` of the online server."""
    from repro.online import RefreshPolicy

    return RefreshPolicy(max_epochs=REFRESH_EPOCHS)
