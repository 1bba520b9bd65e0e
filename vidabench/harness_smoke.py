"""Smoke check of the harness: ``python3 -m pytest vidabench/harness_smoke.py``
(or run it directly). Not named ``test_*`` on purpose: the repository's
tier-1 ``pytest`` run must not start a benchmark.

Runs ``--quick --only warm_adhoc`` end to end and traced, and asserts that
every metric BENCHMARK.json declares appears exactly once with a finite value
and that no operation failed.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_quick(trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "warm_adhoc", "--quick", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=170)
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_quick_warm_adhoc_reports_every_declared_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = run_quick(trace)
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] and result["failed"] == 0   # error_rate 0
        assert result["attempted"] >= 1
        names = [m["name"] for m in spec[key]]
        assert list(result["metrics"]) == names   # each once, nothing else
        for metric in spec[key]:
            got = result["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"]
            assert math.isfinite(got["value"]), metric["name"]
        if trace:
            layers = result["metrics"]
            assert layers["formats.csvfmt.raw_bytes"]["value"] == 0
            assert layers["formats.jsonfmt.raw_bytes"]["value"] == 0


if __name__ == "__main__":
    test_quick_warm_adhoc_reports_every_declared_metric()
    print("ok")
