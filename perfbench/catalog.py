"""What the benchmark reports, beyond ``BENCHMARK.json``: what each
metric means, the layer -> metric -> workload map, and the predicted
layer shares.

``BENCHMARK.json`` is the one source of the workloads' why-lines and
of every metric's unit, direction and bound; ``run.py`` prints from
both.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Optional, Tuple

BENCHMARK = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
#: why each workload is in the benchmark
WORKLOAD_WHY: Dict[str, str] = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
#: name -> {"unit", "better", "bound"}; measured with tracing off
END_TO_END: Dict[str, dict] = {m["name"]: m for m in BENCHMARK["end_to_end"]}
#: name -> {"unit", "better"}; measured by the traced run
PER_LAYER: Dict[str, dict] = {m["name"]: m for m in BENCHMARK["per_layer"]}

#: end-to-end metric -> meaning
END_TO_END_MEANING = {
    "setup_s": "reference seconds to build chains/cluster, deploy, fund and place accounts "
               "(median of 3 cold set-ups)",
    "tx_per_ref_s": "committed transactions / serve-path reference seconds",
    "ops_per_ref_s": "completed client operations (SCoin op, confirmed gateway request, "
                     "completed move, committed transfer) / serve-path reference seconds",
    "reads_per_ref_s": "account proofs served and verified against the committed root per "
                       "read-path reference second (median over read batches)",
    "peak_rss_mb": "peak resident memory of the measured process",
    "op_p50_sim_s": "median simulated time from when an operation was due to its committed reply",
    "op_p99_sim_s": "p99 of the same (at least 10 samples beyond it)",
    "ok_frac": "operations completed / attempted; refusals (gateway sheds) count against it "
               "(failed_frac = 1 - ok_frac)",
}

LAYERS = (
    "statedb", "merkle", "core", "runtime", "executor", "gateway",
    "mempool", "chain", "crypto", "ibc", "consensus", "workload",
)

#: layer -> (end-to-end metric it should move, workloads)
LAYER_MOVES: Dict[str, Tuple[str, str]] = {
    "statedb": ("tx_per_ref_s, setup_s, reads_per_ref_s", "bigstate_rw"),
    "merkle": ("tx_per_ref_s, setup_s, reads_per_ref_s", "bigstate_rw"),
    "core": ("ops_per_ref_s", "ibc_store_moves"),
    "runtime": ("tx_per_ref_s", "scoin_sharded"),
    "executor": ("tx_per_ref_s", "scoin_sharded"),
    "gateway": ("ops_per_ref_s", "gateway_overload"),
    "mempool": ("tx_per_ref_s", "all"),
    "chain": ("tx_per_ref_s", "all"),
    "crypto": ("tx_per_ref_s", "all"),
    "ibc": ("ops_per_ref_s", "scoin_sharded, ibc_store_moves"),
    "consensus": ("ops_per_ref_s", "scoin_sharded, ibc_store_moves"),
    "workload": ("none (harness cost, never a claimable gain)", "-"),
}

#: per-layer metric -> meaning
PER_LAYER_MEANING: Dict[str, str] = {}
for _layer in LAYERS:
    PER_LAYER_MEANING[f"{_layer}.calls"] = f"timed calls into {_layer}"
    PER_LAYER_MEANING[f"{_layer}.self_ref_s"] = f"self time of {_layer} spans"
    PER_LAYER_MEANING[f"{_layer}.share"] = f"{_layer} self time / traced total"
PER_LAYER_MEANING.update({
    "untraced.share": "traced-phase time outside every span / traced total",
    "trace.overhead_frac": "traced / untraced measured reference seconds - 1",
    "probe.slice_us": "median probe kernel time during the traced phase",
    "statedb.commit_p50_ref_ms": "median WorldState.commit duration",
    "crypto.keccak_memo_hit_ratio": "keccak small-input memo hits / lookups",
    "core.proof_verifies_per_move": "ContractStateProof verifications per completed move",
    "core.proof_bytes_p50": "median Move2 proof bundle size",
    "executor.fail_frac": "failed receipts / executed transactions",
    "gateway.queue_wait_p50_sim_s": "median admission -> mempool flush wait",
    "mempool.wait_p50_sim_s": "median Chain.submit -> block inclusion wait",
    "chain.block_p50_ref_ms": "median Chain.produce_block duration",
    "chain.block_p95_ref_ms": "p95 of the same (0 with fewer than 200 blocks)",
    "ibc.move_success_frac": "moves whose phases report success / moves started (0 without moves)",
    "net.msgs_per_block": "consensus network messages per block",
    "move_p99_sim_s": "p99 Move1 submit -> completion (gateway: move-class requests); "
                      "0 without enough samples",
})


#: (layers, workload, predicted share or None for "small"), taken from a
#: cProfile split of each workload made before the benchmark existed
PREDICTIONS: List[Tuple[Tuple[str, ...], str, Optional[float]]] = [
    (("statedb", "merkle"), "bigstate_rw", 0.87),
    (("statedb", "merkle"), "scoin_sharded", 0.28),
    (("statedb", "merkle"), "ibc_store_moves", 0.01),
    (("core",), "ibc_store_moves", 0.85),
    (("core",), "scoin_sharded", 0.15),
    (("core",), "bigstate_rw", 0.0),
    (("core",), "gateway_overload", 0.0),
    (("runtime", "executor"), "scoin_sharded", 0.33),
    (("runtime", "executor"), "bigstate_rw", 0.10),
    (("gateway",), "gateway_overload", 0.25),
    (("gateway",), "scoin_sharded", 0.0),
    (("gateway",), "bigstate_rw", 0.0),
    (("gateway",), "ibc_store_moves", 0.0),
    (("mempool",), "all", None),
    (("crypto",), "all", None),
    (("consensus",), "scoin_sharded", 0.125),
    (("consensus",), "ibc_store_moves", 0.125),
    (("consensus",), "bigstate_rw", 0.0),
    (("workload",), "scoin_sharded", 0.10),
]

#: "small" means below this share
SMALL = 0.05


def prediction_holds(predicted: Optional[float], measured: float) -> bool:
    """A predicted share holds when the measured one is within a third
    of it (or 0.03 absolute, whichever is wider); ``None`` predicts a
    small share; 0 predicts under 0.005."""
    if predicted is None:
        return measured < SMALL
    if predicted == 0.0:
        return measured < 0.005
    return abs(measured - predicted) <= max(0.03, predicted / 3)


def predictions_for(workload: str) -> List[Tuple[Tuple[str, ...], Optional[float]]]:
    return [
        (layers, share) for layers, name, share in PREDICTIONS
        if name in (workload, "all")
    ]
