import json
import os

from perfbench.httpgen import Outcome, Request, check_outcomes
from perfbench.layers import PER_LAYER
from perfbench.oracle import Oracle
from perfbench.workloads import END_TO_END, Run


class _FixedOracle(Oracle):
    def __init__(self, answer):
        self.answer = answer

    def predict(self, payload, model=None, model_key=""):
        return self.answer


def _outcome(body, status=200, error=None):
    request = Request(0.0, "POST", "/predict?rid=0",
                      {"context": {}, "machines": [4]}, "zeroshot")
    return Outcome(request, 0.0, 0.0, 0.01, 0.0, status=status, body=body, error=error)


def test_oracle_mismatch_counts_as_failed():
    oracle = _FixedOracle([10.0])
    good = _outcome({"predictions_s": [10.0], "zero_shot": True})
    off_by_ulp = _outcome({"predictions_s": [10.000000000000002], "zero_shot": True})
    refused = _outcome({"error": "overloaded"}, status=503)
    timed_out = _outcome(None, status=0, error="TimeoutError: timed out")
    run = Run()
    problems = check_outcomes([good, off_by_ulp, refused, timed_out], oracle.check_predict)
    run.phase("open", 4, problems)
    assert run.phases["open"] == {"attempted": 4, "succeeded": 1, "failed": 3}
    assert "oracle" in off_by_ulp.error


def test_benchmark_json_matches_the_metric_tables():
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == {"serve-mix", "online-drift", "campaign"}
