"""One workload process: set up, and optionally measure and trace.

Run by ``perfbench/run.py`` with ``PYTHONHASHSEED`` derived from the
seed, one process per set-up sample or measured run::

    python3 -m perfbench.worker --workload NAME --seed N --seconds S \\
        --mode setup|measure|trace

Prints one JSON object as its last stdout line: the timings (work-clock
and reference seconds), the probe's slice time, the deterministic
results (counts, simulated-time latencies, state roots) and the
correctness-gate failures.  ``trace`` mode also carries the per-layer
span totals.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import statistics
import sys
import time

from perfbench import probe as probe_mod
from perfbench.probe import Probe
from perfbench.stats import percentile
from perfbench.catalog import LAYERS
from perfbench.trace import Tracer, install_layers
from perfbench.workloads import WORKLOADS
from repro.crypto.hashing import keccak_memo_info

SPAN_DIR = pathlib.Path(".perfbench")


def _pct(samples, q):
    try:
        return percentile(samples, q)
    except ValueError:
        return None


def _phase(probe: Probe, start: float, end: float, wall: float) -> dict:
    probe.sample()  # close the interval
    return {
        "work_s": end - start,
        "wall_s": wall,
        "ref_s": probe.ref_seconds(start, end),
        "slice_us": probe.slice_us(start, end),
    }


def run(name: str, seed: int, seconds: int, mode: str) -> dict:
    workload = WORKLOADS[name](seed=seed, seconds=seconds)
    workload.generate()
    out = {"workload": name, "seed": seed, "mode": mode}
    with Probe() as probe:
        wall0 = time.perf_counter()
        t0 = probe.work_clock()
        workload.setup()
        t1 = probe.work_clock()
        out["setup"] = _phase(probe, t0, t1, time.perf_counter() - wall0)
        out["setup_digest"] = workload.state_digest()
        if mode == "setup":
            out["problems"] = list(workload.setup_failures)
            return out

        workload.prepare()
        tracer = None
        records = None
        if mode == "trace":
            tracer = Tracer(probe.work_clock, workload.sim_now)
            records = install_layers(tracer, workload)
        memo0 = keccak_memo_info()
        net = workload.network()
        msgs0 = net.messages_sent if net is not None else 0
        wall0 = time.perf_counter()
        t0 = probe.work_clock()
        try:
            workload.measure(probe.work_clock)
        finally:
            t1 = probe.work_clock()
            wall = time.perf_counter() - wall0
            if tracer is not None:
                tracer.uninstall()
        memo1 = keccak_memo_info()
        out["measure"] = _phase(probe, t0, t1, wall)
        batches = [(probe.ref_seconds(a, b), n) for a, b, n in workload.read_intervals]
        out["measure"]["read_ref_s"] = sum(ref for ref, _n in batches)
        out["measure"]["read_work_s"] = sum(b - a for a, b, _n in workload.read_intervals)
        # median over batches: one collector pause in a batch of a few
        # dozen proofs would otherwise swing the whole read rate
        out["measure"]["read_rate_median"] = statistics.median(
            n / ref for ref, n in batches if ref > 0
        )
        blocks = workload.blocks_since(workload.h0)
        moves_in_window = workload.moves_ok
        msgs = (net.messages_sent - msgs0) if net is not None else 0
        hits = memo1.hits - memo0.hits
        misses = memo1.misses - memo0.misses

    workload.drain()
    problems = workload.check()
    out["problems"] = problems
    out["digest"] = workload.state_digest()
    out["results"] = {
        "attempted": workload.attempted,
        "failed": workload.failed,
        "refused": workload.refused,
        "ops": workload.ops,
        "txs": workload.txs,
        "reads": workload.reads,
        "blocks": blocks,
        "op_samples": len(workload.op_latencies),
        "op_p50_sim_s": _pct(workload.op_latencies, 0.50),
        "op_p99_sim_s": _pct(workload.op_latencies, 0.99),
        "move_samples": len(workload.move_latencies),
        "move_p99_sim_s": _pct(workload.move_latencies, 0.99),
        "moves_started": workload.moves_started,
        "moves_ok": workload.moves_ok,
        "moves_in_window": moves_in_window,
        "net_msgs": msgs,
        "keccak_memo_hits": hits,
        "keccak_memo_misses": misses,
    }
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out["trace"] = _trace_summary(tracer, records, workload, out)
        SPAN_DIR.mkdir(exist_ok=True)
        tracer.dump(SPAN_DIR / f"spans-{name}-{seed}.jsonl")
    return out


def _trace_summary(tracer: Tracer, records, workload, out) -> dict:
    measure = out["measure"]
    total = measure["work_s"]
    #: work-clock seconds -> reference seconds over the traced phase
    scale = measure["ref_s"] / total if total else 0.0
    layers = {
        layer: {
            "calls": tracer.calls.get(layer, 0),
            "self_s": tracer.self_time.get(layer, 0.0),
        }
        for layer in LAYERS
    }
    commits = [d * scale * 1e3 for d in tracer.durations.get("statedb.WorldState.commit", [])]
    blocks = [d * scale * 1e3 for d in tracer.durations.get("chain.Chain.produce_block", [])]
    bundles = records["bundles"]
    queue_waits = []
    submit_time = records["submit_time"]
    for _when, _label, handle, tx in getattr(workload, "submissions", ()):
        flushed = submit_time.get(tx.tx_id)
        if flushed is not None and handle.admitted_at is not None:
            queue_waits.append(flushed - handle.admitted_at)
    executed = tracer.calls.get("executor", 0)
    reads = tracer.durations.get(f"workload.{type(workload).__name__}._read_accounts", [])
    return {
        "total_s": total,
        "scale": scale,
        "untraced_s": tracer.untraced(total),
        #: time inside the read stream's batches
        "read_s": sum(reads),
        "reads_are_harness": workload.READS_ARE_HARNESS,
        "layers": layers,
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.spans_dropped,
        "statedb.commit_p50_ref_ms": _median(commits),
        "chain.block_p50_ref_ms": _median(blocks),
        "chain.block_p95_ref_ms": _pct(blocks, 0.95),
        "core.proof_bytes_p50": _median([b.size_bytes() for b in bundles]),
        "proof_verifies": tracer.calls_by_name.get(
            "core.ContractStateProof.verify_against_root", 0
        ),
        "executor.fail_frac": records["receipts_failed"][0] / executed if executed else 0.0,
        "gateway.queue_wait_p50_sim_s": _median(queue_waits),
        "mempool.wait_p50_sim_s": _median(records["mempool_wait"]),
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.mode)
    result["probe"] = {
        "kernel_rounds": probe_mod.KERNEL_ROUNDS,
        "ref_slice_us": probe_mod.REF_SLICE_S * 1e6,
        "period_s": probe_mod.PERIOD_S,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
