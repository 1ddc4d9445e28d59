"""cospec benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload scan-exact --seed 1 --seconds 25 --trace 0

Run from anywhere; it uses the `src/` next to this directory.  The last
line of stdout is the result object; the line before it holds the run
context and sample counts.  With `--trace 1` the metrics are the per-layer
ones and the spans go to `perfbench/out/`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="do only the set-up, print 'ready' and exit (used to time set-up)")
    args = ap.parse_args(argv)

    try:
        cli, refs, workload, units = harness.setup(args.workload, args.seed)
        if args.setup_probe:
            next(units)
            print("ready", flush=True)
            return 0
        specs = harness.metric_specs()
        context = harness.run_context(cli)
        if args.trace:
            spans = harness.HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            plain, rec, values, missing = harness.traced(cli, workload, units, refs, spans)
            detail = {"trace_units": workload.trace_units, "spans": str(spans),
                      "missing_layers": missing}
            metric_list = specs["per_layer"]
            attempted, failed = plain.attempted + rec.attempted, plain.failed + rec.failed
        else:
            clock = harness.Clock()
            setup_s, setup_wall_s = harness.measure_setup(args.workload, args.seed, clock)
            rec = harness.run_timed(cli, workload, units, refs, args.seconds, clock)
            values = harness.end_to_end(rec, setup_s)
            detail = {"units": len(rec.unit_rates), "instance_samples": len(rec.instance_times),
                      "setup_samples": harness.SETUP_SAMPLES,
                      "wall_clock": harness.wall_clock(rec, setup_wall_s)}
            metric_list = specs["end_to_end"]
            attempted, failed = rec.attempted, rec.failed
    except harness.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    detail["failed_share"] = failed / attempted
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "context": context, "detail": detail}))
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in metric_list}
    print(harness.result_line(failed == 0, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
