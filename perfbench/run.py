"""The repository benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload camera-vgg16 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same phases with instrumentation on and reports
the per-layer metrics instead.  Metric names and units come from
``BENCHMARK.json``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it (``details: {...}``) records the environment, the plan
and every phase.  Exit status: 0 when every output check passed, 1 when
a check failed, 2 when the benchmark could not run at all.

See ``perfbench/README.md`` for what each workload loads and which
end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import os

#: Variables that override the thread and kernel defaults a user of the
#: package gets.  They are removed before numpy loads (its BLAS thread
#: pool sizes itself at load) and before worker processes fork, and the
#: removal is recorded in the output.
OVERRIDE_PREFIXES = ("OPENBLAS_", "OMP_", "MKL_", "REPRO_")
REMOVED = sorted(key for key in os.environ if key.startswith(OVERRIDE_PREFIXES))
for _key in REMOVED:
    del os.environ[_key]

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: workload name -> module that runs it.
WORKLOADS = {
    "camera-vgg16": "serving",
    "sim-fleet-day": "simfleet",
    "control-churn": "control",
}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    try:
        spec = _spec()
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        return _fail(f"no package source under {os.path.relpath(SRC)}")
    sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.abspath(repro.__file__)) != os.path.join(SRC, "repro"):
        return _fail(f"imported repro from {repro.__file__}, not this checkout")

    from common import CheckFailed, cpu_ticks, environment, stop_children

    module = importlib.import_module(WORKLOADS[args.workload])
    trace = bool(args.trace)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    ticks_before = cpu_ticks()
    try:
        outcome = module.run(args.workload, args.seed, args.seconds, trace)
    except CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        print(json.dumps({
            "correct": False, "attempted": 1, "failed": 1, "metrics": {},
        }))
        return 1
    finally:
        stop_children()

    ticks_after = cpu_ticks()
    ticks = ticks_after[0] - ticks_before[0]
    measured = outcome["layers"] if trace else outcome["metrics"]
    metrics = {}
    for entry in wanted:
        if not trace and entry["name"] not in measured:
            return _fail(f"workload did not measure {entry['name']}")
        # A layer the workload does not run did no work: its counts and
        # times are zero by measurement, not by omission.
        value = measured.get(entry["name"], 0.0)
        metrics[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
    unknown = sorted(set(measured) - {entry["name"] for entry in wanted})
    if unknown:
        return _fail(f"workload reported metrics BENCHMARK.json lacks: {unknown}")
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": trace,
        "environment": environment(OVERRIDE_PREFIXES, REMOVED),
        # Share of CPU time the hypervisor withheld during the run: a
        # high value marks a run slowed by other tenants of the host.
        "host_steal_share":
            (ticks_after[1] - ticks_before[1]) / ticks if ticks > 0 else 0.0,
        **outcome["details"],
    }
    print("details: " + json.dumps(details, default=str))
    print(json.dumps({
        "correct": True,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
