import pytest

from perfbench import traffic


@pytest.fixture(scope="module")
def dataset():
    from repro.data import generate_c3o_dataset

    return generate_c3o_dataset(seed=0)


def _fingerprint(requests):
    return [(r.due_s, r.path, r.kind, r.payload) for r in requests]


def test_serve_mix_schedule_repeats_per_seed(dataset):
    first = traffic.serve_mix_requests(dataset, 3, 120, 10.0)
    again = traffic.serve_mix_requests(dataset, 3, 120, 10.0)
    other = traffic.serve_mix_requests(dataset, 4, 120, 10.0)
    assert _fingerprint(first) == _fingerprint(again)
    assert _fingerprint(first) != _fingerprint(other)


def test_serve_mix_shares_are_exact(dataset):
    requests = traffic.serve_mix_requests(dataset, 5, 200, 10.0)
    shares = traffic.describe(requests)
    assert shares["fewshot_share"] == 0.25
    assert shares["repeated_fingerprint_share"] == 0.5
    algorithms = {r.payload["context"]["algorithm"] for r in requests}
    assert len(algorithms) == 5
    dues = [r.due_s for r in requests]
    assert dues == sorted(dues) and 0.0 <= dues[0] and dues[-1] < 10.0
    for request in requests:
        samples = request.payload.get("samples")
        if samples is not None:
            assert 1 <= len(samples["machines"]) <= 6


def test_online_drift_stream_repeats_per_seed_and_drifts(dataset):
    contexts = dataset.contexts()[:4]
    groups = [(contexts[0], True), (contexts[1], False), (contexts[2], True),
              (contexts[3], False)]
    first = traffic.online_drift_requests(dataset, 1, groups, 6, 3, 5.0)
    assert _fingerprint(first) == _fingerprint(
        traffic.online_drift_requests(dataset, 1, groups, 6, 3, 5.0))
    assert _fingerprint(first) != _fingerprint(
        traffic.online_drift_requests(dataset, 2, groups, 6, 3, 5.0))
    history = {c.context_id: set(dataset.for_context(c.context_id).runtimes_array())
               for c in contexts}
    for context, drifted in groups:
        observed = [r.payload["runtime_s"] for r in first
                    if r.kind == "observe" and r.meta["group"] == context.context_id]
        assert len(observed) == 6
        for step, runtime in enumerate(observed):
            scaled = drifted and step >= traffic.DRIFT_STEP
            base = runtime / (1 + traffic.DRIFT) if scaled else runtime
            assert min(abs(base - h) for h in history[context.context_id]) < 1e-6 * base
