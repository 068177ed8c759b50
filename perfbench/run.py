"""Benchmark of the intricacy package.

    python3 perfbench/run.py --workload {sweep,large_n,dense} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout.  Set-up is timed in ``SETUP_SAMPLES``
processes (``SETUP_SAMPLES - 1`` that stop after set-up, then the one that
runs the workload on one thread) and reported as their median.  The workload
process repeats rounds of its workload while the next one, as long as the
last, still ends within ``--seconds``.

With ``--trace 0`` the end-to-end metrics of ``BENCHMARK.json`` are reported:

- ``wall_s``: mean timed wall time of one round;
- ``items_per_s``: items of one round per ``wall_s``;
- ``item_p50_ms``, ``item_p90_ms``: latency quantiles over the items of one
  round, each item at its mean latency over the run (see ``mean_items``;
  the sample counts are printed beside them);
- ``setup_s``: median time from process start to the first timed step;
- ``peak_rss_mb``: peak resident memory of the workload process;
- ``ok_share``: 1 - failed_share, the share of attempted items that
  completed and passed every check (``failed_share`` itself is printed but
  is 0 when all is well, which a ratio against a baseline cannot use).

With ``--trace 1`` the per-layer metrics are reported, per traced round,
from spans around the package's public functions (see ``spans.py``);
``layers.json`` says which end-to-end metric each should move, and where.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Every run also writes the full result, with its
provenance, to ``perfbench/out/<workload>-seed<seed>-trace<t>.json``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("sweep", "large_n", "dense")
SETUP_SAMPLES = 3
DEADLINE_S = 170         # the whole run, set-up processes included
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def spawn_worker(args, deadline, log, setup_only=False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **THREAD_ENV)
    cmd += ["--started", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=log,
                              env=env, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("workload process did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited {proc.returncode}")
    return json.loads(lines[-1])


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (``statistics.quantiles`` inclusive)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def mean_items(rounds) -> tuple[list, dict]:
    """One round's items, each at its mean latency over the run's rounds.

    Returns the mean latencies of the first round that passed every check,
    in its order, and the number of samples behind each item kind.  Only
    items that passed their checks count.  Means rather than medians or
    quantiles of the raw samples: a CPU shared with other tenants runs in a
    fast state or one about 1.4 times slower (2-vCPU Xeon VM), for a share
    of the time that drifts between runs; a mean follows that share in
    proportion, while a quantile of a two-state sample jumps between the
    states.
    """
    samples: dict[str, list] = {}
    for r in rounds:
        for it in r["items"]:
            if not it["failures"]:
                samples.setdefault(it["kind"], []).append(it["latency_s"])
    template = next((r for r in rounds
                     if not any(it["failures"] for it in r["items"])), None)
    if template is None:
        raise BenchError("no round passed all of its checks")
    means = {kind: statistics.fmean(v) for kind, v in samples.items()}
    return ([means[it["kind"]] for it in template["items"]],
            {kind: len(v) for kind, v in samples.items()})


def end_to_end(result: dict, setup_samples) -> tuple[dict, dict]:
    """End-to-end metric values, plus a few figures printed beside them."""
    rounds = [r for r in result["rounds"] if not r["traced"]]
    items, samples = mean_items(rounds)
    walls = [r["wall_s"] for r in rounds]
    wall = statistics.fmean(walls)
    attempted, failed = result["attempted"], result["failed"]
    values = {
        "wall_s": wall,
        "items_per_s": len(items) / wall,
        "item_p50_ms": quantile(items, 0.5) * 1e3,
        "item_p90_ms": quantile(items, 0.9) * 1e3,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_share": (attempted - failed) / attempted,
    }
    extra = {"rounds": len(rounds), "items_per_round": len(items),
             "item_samples": sum(samples.values()),
             "fewest_samples_per_item": min(samples.values()),
             "round_wall_s_range": [min(walls), max(walls)],
             "failed_share": failed / attempted,
             "setup_samples_s": list(setup_samples)}
    return values, extra


def per_layer(result: dict) -> tuple[dict, dict]:
    """Per-layer metric values per traced round, plus the full span table."""
    trace = result["trace"]
    traced = [r for r in result["rounds"] if r["traced"]]
    plain = [r for r in result["rounds"] if not r["traced"]]
    n = len(traced)
    spans = {name: {"calls": c / n, "total_s": t / n, "self_s": s / n}
             for name, (c, t, s) in trace["spans"].items() if c}
    counts = {k: v / n for k, v in trace["counts"].items()}
    for r in traced:
        for k, v in r["counts"].items():
            counts[k] = counts.get(k, 0.0) + v / n

    def span(name, field):
        return spans.get(name, {}).get(field, 0.0)

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    values = {}
    for name in trace["spans"]:
        values[f"{name}.calls"] = span(name, "calls")
        values[f"{name}.self_s"] = span(name, "self_s")
    layers = {}
    for name, s in spans.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + s["self_s"]
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = layers.get(layer, 0.0)
    rows = counts.get("laws.mask_rows", 0.0)
    draws = counts.get("rng.draws", 0.0)
    iterations = counts.get("experiments.maximizer_search.iterations", 0.0)
    traced_wall = statistics.fmean(r["wall_s"] for r in traced)
    values.update({
        "laws.mask_rows": rows,
        "laws.ns_per_mask_row": ratio(
            span("laws.all_subset_entropies", "self_s"), rows, 1e9),
        "rng.draws": draws,
        "rng.ns_per_draw": trace["ns_per_draw"],
        "rng.est_s": draws * trace["ns_per_draw"] * 1e-9,
        "construction.distinct_share": ratio(
            counts.get("construction.support", 0.0),
            counts.get("construction.configs_drawn", 0.0)),
        "experiments.maximizer_search.iterations": iterations,
        "experiments.maximizer_search.ms_per_iteration": ratio(
            span("experiments.maximizer_search", "total_s"), iterations, 1e3),
        "cli.law_file_bytes": counts.get("cli.law_file_bytes", 0.0),
        "trace.wall_s": traced_wall,
        "trace.untraced_s": traced_wall - sum(layers.values()),
        "trace.overhead_s": traced_wall - statistics.fmean(
            r["wall_s"] for r in plain),
    })
    return values, {"traced_rounds": n, "spans": spans, "counts": counts}


def provenance(args, result) -> dict:
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        rev = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    rounds = result["rounds"]
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "versions": result["versions"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": THREAD_ENV,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(rounds),
        "traced_rounds": sum(1 for r in rounds if r["traced"]),
        "attempted": result["attempted"],
        "failed": result["failed"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="intricacy benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    for needed in (ROOT / "src" / "intricacy" / "__init__.py",
                   ROOT / "tests" / "fixtures" / "calibration.json"):
        if not needed.is_file():
            print(f"error: {needed} not found; run from the root of an "
                  "intricacy checkout", file=sys.stderr)
            return 2
    OUT.mkdir(exist_ok=True)
    log_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.log"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        with open(log_path, "w") as log:
            setup = [spawn_worker(args, deadline, log, setup_only=True)["setup_s"]
                     for _ in range(SETUP_SAMPLES - 1)]
            result = spawn_worker(args, deadline, log)
    except BenchError as exc:
        print(f"error: {exc}; see {log_path}", file=sys.stderr)
        return 1
    setup.append(result["setup_s"])
    failures = [f for r in result["rounds"] for it in r["items"]
                for f in it["failures"]]
    try:
        if args.trace:
            values, detail = per_layer(result)
            wanted = spec["per_layer"]
        else:
            values, detail = end_to_end(result, setup)
            wanted = spec["end_to_end"]
    except BenchError as exc:
        print(f"error: {exc}; first failure: {failures[:1]}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    summary = {"correct": result["failed"] == 0,
               "attempted": result["attempted"], "failed": result["failed"],
               "metrics": metrics}
    record = {"summary": summary, "detail": detail, "all_values": values,
              "provenance": provenance(args, result),
              "failures": failures[:20], "rounds": result["rounds"]}
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {result['attempted']}  failed {result['failed']}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>16.6g} {m['unit']}")
    for key, value in detail.items():
        if not isinstance(value, dict):
            print(f"  {key:48s} {value}")
    if args.trace:
        print("  spans by self time per traced round:")
        top = sorted(detail["spans"].items(), key=lambda kv: -kv[1]["self_s"])
        for name, s in top[:10]:
            print(f"    {name:46s} {s['self_s']:>12.6f} s  {s['calls']:>10g} calls")
    for f in failures[:5]:
        print(f"  FAILED: {f.strip().splitlines()[-1]}")
    print(f"  full result: {out_path.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
