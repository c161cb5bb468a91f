"""Seeded request plans of the serve workloads.

Every plan is a pure function of the dataset and the workload seed: the
same seed gives the same requests at the same due times. Arrival times are
a Poisson process conditioned on its count (sorted uniform draws), so a
run's sample sizes are fixed while its gaps stay random.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence, Tuple

import numpy as np

from perfbench.httpgen import Request

#: Zipf exponent of the context popularity in ``serve-mix``.
ZIPF_S = 1.1
#: Share of ``serve-mix`` requests that carry few-shot samples.
FEWSHOT_SHARE = 0.25
#: Samples per few-shot request: the paper's n_train range.
SAMPLE_RANGE = (1, 6)
#: Scale-outs a request asks predictions for.
PREDICT_SCALEOUTS = tuple(range(2, 13))
#: Step drift of a drifting ``online-drift`` group, and the observation
#: index from which it applies.
DRIFT = 0.9
DRIFT_STEP = 2


def context_payload(context) -> Dict:
    """A context in the wire form the server parses."""
    from repro.data.schema import context_to_dict

    return context_to_dict(context)


def arrival_times(rng: np.random.Generator, n: int, duration_s: float) -> np.ndarray:
    """``n`` Poisson arrivals in ``[0, duration_s)``, ascending."""
    return np.sort(rng.uniform(0.0, duration_s, size=n))


def serve_mix_requests(dataset, seed: int, n: int, duration_s: float,
                       rid_base: int = 0) -> List[Request]:
    """The ``serve-mix`` traffic: Zipf contexts, a quarter few-shot.

    Exactly ``round(n * FEWSHOT_SHARE)`` requests are few-shot; of those,
    every second one after the first repeats the full body of an earlier
    fresh few-shot request, so half the few-shot bodies share a fine-tuning
    fingerprint with an earlier one.
    """
    rng = np.random.default_rng([seed, rid_base])
    contexts = dataset.contexts()
    order = rng.permutation(len(contexts))
    weights = 1.0 / np.arange(1, len(contexts) + 1) ** ZIPF_S
    weights /= weights.sum()
    picks = order[rng.choice(len(contexts), size=n, p=weights)]
    fewshot = np.zeros(n, dtype=bool)
    fewshot[rng.choice(n, size=int(round(n * FEWSHOT_SHARE)), replace=False)] = True
    times = arrival_times(rng, n, duration_s)
    fresh: List[Dict] = []
    fewshot_seen = 0
    requests = []
    for index in range(n):
        context = contexts[int(picks[index])]
        machines = sorted(int(m) for m in rng.choice(PREDICT_SCALEOUTS, 2, replace=False))
        payload: Dict = {"context": context_payload(context), "machines": machines}
        kind, repeat = "zeroshot", False
        if fewshot[index]:
            kind = "fewshot"
            # Alternate fresh and repeated bodies: a repeat whenever the
            # fresh bodies so far outnumber the repeats so far.
            repeat = len(fresh) > fewshot_seen - len(fresh)
            fewshot_seen += 1
            if repeat:
                payload = fresh[int(rng.integers(len(fresh)))]
            else:
                history = dataset.for_context(context.context_id)
                size = int(rng.integers(SAMPLE_RANGE[0], SAMPLE_RANGE[1] + 1))
                rows = rng.choice(len(history), size=min(size, len(history)), replace=False)
                machines_all, runtimes_all = history.machines_array(), history.runtimes_array()
                payload["samples"] = {
                    "machines": [float(machines_all[r]) for r in rows],
                    "runtimes": [float(runtimes_all[r]) for r in rows],
                }
                fresh.append(payload)
        requests.append(Request(
            due_s=float(times[index]), method="POST",
            path=f"/predict?rid={rid_base + index}", payload=payload, kind=kind,
            meta={"rid": rid_base + index, "repeat": repeat},
        ))
    return requests


def online_drift_requests(dataset, seed: int, groups: Sequence[Tuple[object, bool]],
                          observes: int, probes: int, duration_s: float,
                          rid_base: int = 0) -> List[Request]:
    """The ``online-drift`` stream: observes and zero-shot probes per group.

    ``groups`` pairs each context with whether it drifts. Each group gets
    ``observes`` completions resampled from its own history (scaled by
    ``1 + DRIFT`` from its ``DRIFT_STEP``-th completion on when it drifts)
    and ``probes`` zero-shot predicts, interleaved at random.
    """
    rng = np.random.default_rng([seed, rid_base, 7])
    tokens = [(g, "observe") for g in range(len(groups)) for _ in range(observes)]
    tokens += [(g, "probe") for g in range(len(groups)) for _ in range(probes)]
    tokens = [tokens[i] for i in rng.permutation(len(tokens))]
    times = arrival_times(rng, len(tokens), duration_s)
    seen = [0] * len(groups)
    requests = []
    for index, (group, kind) in enumerate(tokens):
        context, drifted = groups[group]
        history = dataset.for_context(context.context_id)
        rid = rid_base + index
        meta = {"rid": rid, "group": context.context_id}
        if kind == "observe":
            row = int(rng.integers(len(history)))
            runtime = float(history.runtimes_array()[row])
            if drifted and seen[group] >= DRIFT_STEP:
                runtime *= 1.0 + DRIFT
            seen[group] += 1
            payload = {"context": context_payload(context),
                       "machines": float(history.machines_array()[row]),
                       "runtime_s": runtime}
            path = f"/observe?rid={rid}"
        else:
            machines = sorted(int(m) for m in rng.choice(PREDICT_SCALEOUTS, 2, replace=False))
            payload = {"context": context_payload(context), "machines": machines}
            path = f"/predict?rid={rid}"
        requests.append(Request(due_s=float(times[index]), method="POST", path=path,
                                payload=payload, kind=kind, meta=meta))
    return requests


def describe(requests: Sequence[Request]) -> Dict[str, float]:
    """The input shares a workload's behaviour depends on."""
    n = len(requests)
    fewshot = [r for r in requests if r.kind == "fewshot"]
    return {
        "requests": n,
        "fewshot_share": len(fewshot) / n if n else 0.0,
        "repeated_fingerprint_share": (
            sum(r.meta.get("repeat", False) for r in fewshot) / len(fewshot)
            if fewshot else 0.0
        ),
        "contexts_touched": len({json.dumps(r.payload["context"], sort_keys=True)
                                 for r in requests}),
    }
