"""Per-layer tracing from outside the program.

The traced run wraps public calls of each layer (the table in
``perfbench/README.md``) with span recorders installed from this file;
nothing under ``src/`` knows about them.  A span is ``(id, name, start,
end, parent id)`` on the probe-free work clock.  A layer's **self time**
is the time of its spans minus the time of the spans nested inside
them, so the layers' self times plus the untraced remainder add up to
the traced phase exactly.  An *opaque* span charges everything inside
it to its own layer: the wrappers it reaches record nothing.
:meth:`Tracer.uninstall` restores every patched attribute.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: span records kept in memory for the span dump; later spans are counted
MAX_SPANS = 100_000


class Tracer:
    """Span stack, self-time accounting and the attribute patches."""

    def __init__(self, clock: Callable[[], float], sim_now: Callable[[], float]):
        self.clock = clock
        self.sim_now = sim_now
        #: open spans: [span id, child time]
        self.stack: List[list] = []
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.calls_by_name: Dict[str, int] = defaultdict(int)
        #: open opaque spans; wrappers reached inside one record nothing
        self._opaque = 0
        #: total time of spans that had no parent
        self.top_level = 0.0
        #: span name -> durations, for the spans whose percentiles we report
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.spans: List[Tuple[int, str, float, float, int]] = []
        self.spans_dropped = 0
        self._next_id = 0
        self._patches: List[Tuple[object, str, object]] = []
        #: id(wrapper) -> (wrapper, original listener)
        self._listener_originals: Dict[int, Tuple[Callable, Callable]] = {}
        self._listener_chains: list = []

    # -- span accounting -------------------------------------------------

    def run_span(self, layer: str, name: str, fn, args, kwargs, keep: bool,
                 opaque: bool = False):
        if self._opaque:
            return fn(*args, **kwargs)
        stack = self.stack
        span_id = self._next_id
        self._next_id += 1
        parent = stack[-1][0] if stack else -1
        frame = [span_id, 0.0]
        stack.append(frame)
        self._opaque += opaque
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._opaque -= opaque
            stack.pop()
            duration = end - start
            self.self_time[layer] += duration - frame[1]
            self.calls[layer] += 1
            self.calls_by_name[name] += 1
            if stack:
                stack[-1][1] += duration
            else:
                self.top_level += duration
            if keep:
                self.durations[name].append(duration)
            if len(self.spans) < MAX_SPANS:
                self.spans.append((span_id, name, start, end, parent))
            else:
                self.spans_dropped += 1

    def wrap_callable(self, layer: str, name: str, fn, keep: bool = False,
                      opaque: bool = False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.run_span(layer, name, fn, args, kwargs, keep, opaque)

        return wrapper

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, layer: str, keep: bool = False,
              timed: Optional[Callable] = None, untimed: Optional[Callable] = None,
              opaque: bool = False) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper around
        the original (or around ``timed``, a stand-in that calls it); a
        property's getter is wrapped in place.  ``untimed`` replaces the
        attribute without a span; ``opaque`` makes the span opaque."""
        if isinstance(owner, type):
            original = next(k.__dict__[attr] for k in owner.__mro__ if attr in k.__dict__)
            own = attr in owner.__dict__
        else:
            original, own = getattr(owner, attr), True
        name = f"{layer}.{getattr(owner, '__name__', str(owner))}.{attr}"
        if untimed is not None:
            replacement = untimed
        elif isinstance(original, property):
            replacement = property(self.wrap_callable(layer, name, original.fget, keep, opaque))
        else:
            replacement = self.wrap_callable(layer, name, timed or original, keep, opaque)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original if own else None))

    def patch_listeners(self, chain_class, chains) -> None:
        """Time block listeners as the ``ibc`` layer: those already
        registered and those subscribed while the trace runs."""
        originals = self._listener_originals
        wrappers: Dict[int, Callable] = {}

        def wrap(listener):
            w = self.wrap_callable("ibc", "ibc.listener", listener)
            originals[id(w)] = (w, listener)
            wrappers[id(listener)] = w
            return w

        for chain in chains:
            chain._listeners[:] = [wrap(listener) for listener in chain._listeners]
            self._listener_chains.append(chain)
        original_subscribe = chain_class.subscribe
        original_unsubscribe = chain_class.unsubscribe

        def subscribe(chain, listener):
            return original_subscribe(chain, wrap(listener))

        def unsubscribe(chain, listener):
            return original_unsubscribe(chain, wrappers.pop(id(listener), listener))

        self.patch(chain_class, "subscribe", "ibc", untimed=subscribe)
        self.patch(chain_class, "unsubscribe", "ibc", untimed=unsubscribe)

    def uninstall(self) -> None:
        """Restore every patched attribute and listener list."""
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()
        originals = self._listener_originals
        for chain in self._listener_chains:
            chain._listeners[:] = [
                originals[id(w)][1] if id(w) in originals else w for w in chain._listeners
            ]
        self._listener_chains.clear()
        originals.clear()

    # -- results -----------------------------------------------------------

    def untraced(self, total: float) -> float:
        """Phase time outside every span."""
        return total - self.top_level

    def dump(self, path) -> None:
        """Write the kept spans as JSON lines."""
        with open(path, "w") as out:
            for span_id, name, start, end, parent in self.spans:
                out.write(json.dumps(
                    {"id": span_id, "name": name, "start": start, "end": end, "parent": parent}
                ) + "\n")


def install_layers(tracer: Tracer, workload) -> Dict[str, list]:
    """Wrap each layer's public calls for one workload; returns the
    side records (submit times, block waits, proof bundles, receipts)
    the per-layer metrics need."""
    import repro.chain.executor as executor_mod
    import repro.core.move as move_mod
    import repro.ibc.bridge as bridge_mod
    import repro.workload.clients as clients_mod
    from repro.chain.chain import Chain
    from repro.chain.executor import TransactionExecutor
    from repro.chain.mempool import Mempool
    from repro.chain.tx import Transaction
    from repro.core.proofs import ContractStateProof
    from repro.gateway.fleet import GatewayFleet
    from repro.merkle.iavl import IAVLTree
    from repro.merkle.trie import MerklePatriciaTrie
    from repro.net.sim import Simulator
    from repro.runtime.runtime import Runtime
    from repro.statedb.state import WorldState

    records: Dict[str, list] = {
        "submit_time": {}, "mempool_wait": [], "bundles": [], "receipts_failed": [0],
    }
    submit_time = records["submit_time"]
    mempool_wait = records["mempool_wait"]
    bundles = records["bundles"]
    failed = records["receipts_failed"]

    tracer.patch(WorldState, "commit", "statedb", keep=True)
    tracer.patch(WorldState, "snapshot_tree", "statedb")
    tracer.patch(WorldState, "prove_account", "statedb")
    for cls in (IAVLTree, MerklePatriciaTrie):
        for attr in ("set", "root_hash", "prove"):
            tracer.patch(cls, attr, "merkle")

    original_prove_contract = Chain.prove_contract_at

    def prove_contract_at(chain, *args, **kwargs):
        bundle = original_prove_contract(chain, *args, **kwargs)
        bundles.append(bundle)
        return bundle

    tracer.patch(Chain, "prove_contract_at", "core", timed=prove_contract_at)
    tracer.patch(ContractStateProof, "verify_against_root", "core")
    tracer.patch(executor_mod, "apply_move1", "core")
    tracer.patch(executor_mod, "apply_move2", "core")
    tracer.patch(move_mod, "validate_move2", "core")

    tracer.patch(Runtime, "call", "runtime")
    original_execute = TransactionExecutor.execute

    def execute(executor, tx, env):
        receipt = original_execute(executor, tx, env)
        if not receipt.success:
            failed[0] += 1
        return receipt

    tracer.patch(TransactionExecutor, "execute", "executor", timed=execute)

    tracer.patch(GatewayFleet, "submit", "gateway")
    tracer.patch(GatewayFleet, "flush", "gateway")

    original_submit = Chain.submit
    sim_now = tracer.sim_now

    def submit(chain, tx):
        submit_time.setdefault(tx.tx_id, sim_now())
        return original_submit(chain, tx)

    tracer.patch(Chain, "submit", "mempool", timed=submit)
    tracer.patch(Mempool, "take", "mempool")

    original_produce = Chain.produce_block

    def produce_block(chain, *args, **kwargs):
        block = original_produce(chain, *args, **kwargs)
        stamp = block.header.timestamp
        for tx in block.transactions:
            when = submit_time.get(tx.tx_id)
            if when is not None:
                mempool_wait.append(stamp - when)
        return block

    tracer.patch(Chain, "produce_block", "chain", keep=True, timed=produce_block)

    tracer.patch(Transaction, "verify", "crypto")

    tracer.patch(bridge_mod.IBCBridge, "move_contract", "ibc")
    tracer.patch(Chain, "ingest_header", "ibc")
    tracer.patch_listeners(Chain, workload.chains())

    tracer.patch(Simulator, "run", "consensus")

    for module in (clients_mod, bridge_mod):
        tracer.patch(module, "sign_transaction", "workload")
    # where the read stream is the benchmark's own addition, its proof
    # reads must not count as statedb/merkle time
    tracer.patch(type(workload), "_read_accounts", "workload", keep=True,
                 opaque=workload.READS_ARE_HARNESS)
    return records
