"""End-to-end benchmark of the Move-protocol reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload scoin_sharded --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric (set-up sampled three
times in fresh processes, then one measured run).  ``--trace 1`` runs
the workload untraced and traced with the same seed, checks that both
reach the same state, and prints every per-layer metric.  Each workload
runs in its own process with ``PYTHONHASHSEED`` derived from the seed.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import catalog  # noqa: E402

SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not produce a result."""


def hash_seed(seed: int) -> str:
    """``PYTHONHASHSEED`` for a workload seed (same seed, same dict order)."""
    return str(int.from_bytes(hashlib.sha256(f"perfbench-{seed}".encode()).digest()[:4], "big"))


def host_info() -> dict:
    rev = "unknown"
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
        if proc.returncode == 0:
            rev = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_rev": rev,
    }


def run_worker(workload: str, seed: int, seconds: int, mode: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed(seed)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [
        sys.executable, "-m", "perfbench.worker", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker for {workload} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} failed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def end_to_end(setups: list, run: dict) -> dict:
    measure = run["measure"]
    results = run["results"]
    serve_ref = measure["ref_s"] - measure["read_ref_s"]
    attempted = results["attempted"]
    values = {
        "setup_s": statistics.median(s["setup"]["ref_s"] for s in setups),
        "tx_per_ref_s": results["txs"] / serve_ref,
        "ops_per_ref_s": results["ops"] / serve_ref,
        "reads_per_ref_s": measure["read_rate_median"],
        "peak_rss_mb": run["peak_rss_mb"],
        "op_p50_sim_s": results["op_p50_sim_s"],
        "op_p99_sim_s": results["op_p99_sim_s"],
        "ok_frac": (attempted - results["failed"] - results["refused"]) / attempted,
    }
    return values


def per_layer(untraced: dict, traced: dict) -> dict:
    trace = traced["trace"]
    results = traced["results"]
    total = trace["total_s"]
    scale = trace["scale"]
    values = {}
    for layer in catalog.LAYERS:
        entry = trace["layers"][layer]
        values[f"{layer}.calls"] = entry["calls"]
        values[f"{layer}.self_ref_s"] = entry["self_s"] * scale
        values[f"{layer}.share"] = entry["self_s"] / total
    values["untraced.share"] = trace["untraced_s"] / total
    values["trace.overhead_frac"] = traced["measure"]["ref_s"] / untraced["measure"]["ref_s"] - 1.0
    values["probe.slice_us"] = traced["measure"]["slice_us"]
    lookups = results["keccak_memo_hits"] + results["keccak_memo_misses"]
    moves_done = results["moves_in_window"]
    values.update({
        "statedb.commit_p50_ref_ms": trace["statedb.commit_p50_ref_ms"],
        "crypto.keccak_memo_hit_ratio": results["keccak_memo_hits"] / lookups if lookups else 0.0,
        "core.proof_verifies_per_move": trace["proof_verifies"] / moves_done if moves_done else 0.0,
        "core.proof_bytes_p50": trace["core.proof_bytes_p50"],
        "executor.fail_frac": trace["executor.fail_frac"],
        "gateway.queue_wait_p50_sim_s": trace["gateway.queue_wait_p50_sim_s"],
        "mempool.wait_p50_sim_s": trace["mempool.wait_p50_sim_s"],
        "chain.block_p50_ref_ms": trace["chain.block_p50_ref_ms"],
        "chain.block_p95_ref_ms": trace["chain.block_p95_ref_ms"] or 0.0,
        "ibc.move_success_frac": (
            results["moves_ok"] / results["moves_started"] if results["moves_started"] else 0.0
        ),
        "net.msgs_per_block": results["net_msgs"] / results["blocks"] if results["blocks"] else 0.0,
        "move_p99_sim_s": results["move_p99_sim_s"] or 0.0,
    })
    return values


def shares_balance(values: dict) -> float:
    """|sum of layer shares + untraced share - 1| (must be ~0)."""
    total = sum(values[f"{layer}.share"] for layer in catalog.LAYERS) + values["untraced.share"]
    return abs(total - 1.0)


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------


def print_header(args, host: dict) -> None:
    print(f"perfbench  workload={args.workload}  seed={args.seed}  seconds={args.seconds}  "
          f"trace={args.trace}  PYTHONHASHSEED={hash_seed(args.seed)}")
    print(f"  why: {catalog.WORKLOAD_WHY[args.workload]}")
    print(f"  host: cpu_count={host['cpu_count']} python={host['python']} "
          f"machine={host['machine']} git_rev={host['git_rev']}")
    print("  timing unit: ref_s = wall seconds scaled by the probe kernel "
          "(perfbench/probe.py) to the reference host's speed; 's' below is ref_s too")


def print_end_to_end(values: dict, setups: list, run: dict) -> None:
    measure = run["measure"]
    results = run["results"]
    print(f"  {'metric':<18} {'value':>14}  {'unit':<10} better  bound  meaning")
    for name, spec in catalog.END_TO_END.items():
        value = "n/a" if values[name] is None else f"{values[name]:.6g}"
        print(f"  {name:<18} {value:>14}  {spec['unit']:<10} {spec['better']:<7} "
              f"{spec['bound']:<6} {catalog.END_TO_END_MEANING[name]}")
    raw = ", ".join(f"{s['setup']['wall_s']:.3f}" for s in setups)
    slices = ", ".join(f"{s['setup']['slice_us']:.0f}" for s in setups)
    print(f"  raw: setup wall_s [{raw}] probe.slice_us [{slices}]; measure wall_s "
          f"{measure['wall_s']:.3f} (read path {measure['read_work_s']:.3f}) -> "
          f"{measure['ref_s']:.3f} ref_s, probe.slice_us {measure['slice_us']:.0f}")
    print(f"  samples: {results['op_samples']} operations (p99 needs >= 1000), "
          f"{results['move_samples']} moves, {results['reads']} reads, {results['txs']} txs, "
          f"{results['blocks']} blocks, {results['refused']} refused")


def print_per_layer(values: dict, traced: dict, workload: str, balance: float) -> None:
    print("  per layer: <layer>.calls (count, higher), <layer>.self_ref_s (ref_s, lower), "
          "<layer>.share (ratio, lower)")
    print(f"  {'layer':<10} {'calls':>9} {'self_ref_s':>11} {'share':>7}  moves -> on")
    for layer in catalog.LAYERS:
        metric, on = catalog.LAYER_MOVES[layer]
        print(f"  {layer:<10} {values[f'{layer}.calls']:>9} {values[f'{layer}.self_ref_s']:>11.4f} "
              f"{values[f'{layer}.share']:>7.3f}  {metric} -> {on}")
    print(f"  {'untraced':<10} {'':>9} {'':>11} {values['untraced.share']:>7.3f}")
    trace = traced["trace"]
    where = ("all in workload" if trace["reads_are_harness"]
             else "proofs in statedb/merkle, root checks in workload")
    print(f"  shares sum to 1 within {balance:.2e}; tracing overhead "
          f"{values['trace.overhead_frac']:+.1%}; the read stream is "
          f"{trace['read_s'] / trace['total_s']:.3f} of the traced total ({where})")
    for name, spec in catalog.PER_LAYER.items():
        if not name.endswith((".calls", ".self_ref_s", ".share")):
            print(f"  {name:<30} {values[name]:>12.6g} {spec['unit']:<7} {spec['better']:<7} "
                  f"{catalog.PER_LAYER_MEANING[name]}")
    for layers, predicted in catalog.predictions_for(workload):
        label = "small" if predicted is None else f"{predicted:.2f}"
        measured = sum(values[f"{layer}.share"] for layer in layers)
        held = catalog.prediction_holds(predicted, measured)
        print(f"  prediction {'+'.join(layers)} share {label}: measured {measured:.3f} "
              f"{'confirmed' if held else 'NOT confirmed'}")


def metric_entry(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Move-protocol end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(catalog.WORKLOAD_WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    host = host_info()
    print_header(args, host)
    problems = []
    try:
        if args.trace == 0:
            setups = [run_worker(args.workload, args.seed, args.seconds, "setup")
                      for _ in range(SETUP_SAMPLES - 1)]
            run = run_worker(args.workload, args.seed, args.seconds, "measure")
            setups.append(run)
            for sample in setups[1:]:
                if sample["setup_digest"] != setups[0]["setup_digest"]:
                    problems.append("set-up state roots differ between runs of one seed")
            for sample in setups:
                problems.extend(sample["problems"])
            values = end_to_end(setups, run)
            print_end_to_end(values, setups, run)
            metrics = {
                name: metric_entry(values[name], spec["unit"])
                for name, spec in catalog.END_TO_END.items()
            }
        else:
            untraced = run_worker(args.workload, args.seed, args.seconds, "measure")
            traced = run_worker(args.workload, args.seed, args.seconds, "trace")
            run = traced
            problems.extend(untraced["problems"])
            problems.extend(traced["problems"])
            if untraced["digest"] != traced["digest"]:
                problems.append("state roots / fleet log digest differ between untraced and traced runs")
            if untraced["results"] != traced["results"]:
                problems.append("deterministic results differ between untraced and traced runs")
            values = per_layer(untraced, traced)
            balance = shares_balance(values)
            if balance > 1e-6:
                problems.append(f"layer shares + untraced share miss 1 by {balance:.3g}")
            print_per_layer(values, traced, args.workload, balance)
            metrics = {
                name: metric_entry(values[name], spec["unit"])
                for name, spec in catalog.PER_LAYER.items()
            }
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    missing = [name for name, entry in metrics.items() if entry["value"] is None]
    if missing:
        problems.append(f"metrics without enough samples: {', '.join(missing)}")
        for name in missing:
            metrics[name]["value"] = 0.0
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(f"  correctness gate: {'passed' if not problems else 'FAILED'}")
    results = run["results"]
    print("details: " + json.dumps({
        "host": host,
        "pythonhashseed": hash_seed(args.seed),
        "setup": [s["setup"] for s in setups] if args.trace == 0 else None,
        "measure": run["measure"],
        "results": results,
        "probe": run["probe"],
    }, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": results["attempted"] + results["reads"],
        "failed": results["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
