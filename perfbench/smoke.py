"""Smoke test of the benchmark itself, at tiny sizes (well under a minute).

    python3 perfbench/smoke.py

For each workload kind it runs one tiny unit untraced and traced and checks
that every metric BENCHMARK.json names is emitted with its unit, then
corrupts one reference digest and checks that the run reports failures.
The fault goes into a copy of the benchmark's references, never into src/.
"""

from __future__ import annotations

import copy
import json
import sys

import harness
from workloads import K_POOL, OraclePairs, Scan, Verify, partner

SEED = 7

# Same workload kinds as the real ones, at tau <= 3 and one n=13 verify.
TINY = (
    (Scan("scan-exact", 3, "exact", "charpoly_exact", trace_units=1), "charpoly_exact", "CCE"),
    (Scan("scan-transfer", 3, "transfer", "short_part", trace_units=1), "short_part", "CCE"),
    (Verify("verify-large", "exact", trace_units=1, words=["CCEPP"], k="1/1"),
     "charpoly_exact", "CCEPP"),
    (OraclePairs("oracle-pairs", 3, trace_units=1), "oracle", "CCE"),
)


def _result(values, specs, rec):
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in specs}
    return json.loads(harness.result_line(rec.failed == 0, rec.attempted, rec.failed, metrics))


def check_emitted(result, specs, nonzero):
    got = result["metrics"]
    if sorted(got) != sorted(m["name"] for m in specs):
        raise AssertionError(f"metric names differ: {sorted(got)}")
    for m in specs:
        entry = got[m["name"]]
        if entry["unit"] != m["unit"] or not isinstance(entry["value"], (int, float)):
            raise AssertionError(f"{m['name']}: bad entry {entry}")
        if nonzero and entry["value"] <= 0:
            raise AssertionError(f"{m['name']} is not positive: {entry}")


def main() -> int:
    cli = harness.import_cli()
    refs = harness.load_refs()
    specs = harness.metric_specs()
    for workload, table, victim in TINY:
        name = workload.name
        rec = harness.run_timed(cli, workload, workload.units(SEED, refs), refs, 0)
        setup_s, _ = harness.measure_setup(name, SEED, rec.clock, samples=1)
        result = _result(harness.end_to_end(rec, setup_s), specs["end_to_end"], rec)
        check_emitted(result, specs["end_to_end"], nonzero=True)
        if result["failed"] or not result["correct"]:
            raise AssertionError(f"{name}: clean run failed {result}")

        spans = harness.HERE / "out" / f"smoke-{name}.jsonl"
        _, traced, layers, missing = harness.traced(
            cli, workload, workload.units(SEED, refs), refs, spans)
        if missing:
            raise AssertionError(f"{name}: layers not found {missing}")
        check_emitted(_result(layers, specs["per_layer"], traced), specs["per_layer"], False)

        broken = copy.deepcopy(refs)
        for k in K_POOL:
            for cls in (victim, partner(victim)):
                if cls in broken[table].get(k, {}):
                    broken[table][k][cls] = "0" * 16
        bad = harness.run_timed(cli, workload, workload.units(SEED, broken), broken, 0)
        if bad.failed == 0:
            raise AssertionError(f"{name}: a corrupted {table} digest was not reported")
        print(f"{name}: ok ({rec.attempted} instances; corrupted digest -> "
              f"{bad.failed} failed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
