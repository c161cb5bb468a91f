"""Reference answers the served responses are checked against.

The oracle is a separate :class:`repro.api.Session` in the benchmark's own
process, built from the same configuration and seeds as the server, that
answers every request with serial ``Session.predict``. Serving runs in
exact mode, so a correct server matches it bit for bit.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from perfbench import config
from perfbench.httpgen import Outcome


class Oracle:
    """Serial ``Session.predict`` over the benchmark's fixed configuration."""

    def __init__(self, dataset: Any) -> None:
        from repro.api import Session

        self.session = Session(dataset, config=config.bellamy_config(),
                               seed=config.MODEL_SEED)
        self._memo: Dict[str, List[float]] = {}

    def warm(self) -> None:
        """Pre-train the per-algorithm base models the server also trains."""
        for algorithm in config.ALGORITHMS:
            self.session.base_model(algorithm)

    def predict(self, payload: Dict, model: Any = None, model_key: str = "") -> List[float]:
        """The serial answer to a ``/predict`` body (memoized per body)."""
        from repro.data.schema import context_from_dict

        key = model_key + json.dumps(payload, sort_keys=True)
        if key not in self._memo:
            samples = payload.get("samples")
            if samples is not None:
                samples = (samples["machines"], samples["runtimes"])
            prediction = self.session.predict(
                context_from_dict(payload["context"]),
                [float(m) for m in payload["machines"]],
                model=model, samples=samples,
            )
            self._memo[key] = [float(p) for p in prediction]
        return self._memo[key]

    def check_predict(self, outcome: Outcome,
                      allowed: Optional[Sequence[List[float]]] = None) -> Optional[str]:
        """``None`` when a 200 ``/predict`` body is a correct answer.

        ``allowed`` overrides the expected answers (a drifting group may be
        served by its stale base or any refreshed model).
        """
        body, payload = outcome.body, outcome.request.payload
        expected = allowed if allowed is not None else [self.predict(payload)]
        if not isinstance(body, dict):
            return "response body is not an object"
        if body.get("predictions_s") not in expected:
            return f"predictions {body.get('predictions_s')} != oracle {expected[0]}"
        if body.get("zero_shot") != ("samples" not in payload):
            return "zero_shot flag does not match the request"
        return None
