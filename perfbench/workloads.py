"""The four benchmark workloads.

Each workload is built from ``(seed, seconds)`` alone.  Its life has
four steps, which the worker process times separately:

* ``generate()`` — build the inputs from the seed (keys, arrival
  schedules, signed open-loop transactions).  Load-generator work: not
  timed.
* ``setup()`` — build the chains, deploy, fund, place accounts: the
  ``setup_s`` phase.
* ``measure(clock)`` — the timed phase.  The amount of work is fixed by
  ``seconds`` (simulated seconds or blocks per requested second), never
  by the wall clock, so one seed always does the same work and yields
  the same simulated-time results.
* ``drain()`` + ``check()`` — finish in-flight work untimed and return
  the correctness-gate failures.

Every chain runs as a node operator would run it: serial executor
(``executor_workers=0``), telemetry disabled, signatures verified.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Tuple

from repro.apps.store import StateStore
from repro.chain.chain import Chain
from repro.chain.params import burrow_params, ethereum_params
from repro.chain.tx import DeployPayload, TransferPayload, sign_transaction
from repro.consensus.pow import PowEngine
from repro.consensus.tendermint import TendermintEngine
from repro.core.registry import ChainRegistry
from repro.crypto.keys import Address, KeyPair
from repro.gateway import GatewayFleet, GatewayLimits, SimNetTransport
from repro.ibc.bridge import IBCBridge
from repro.ibc.headers import connect_chains
from repro.net.latency import LatencyModel
from repro.net.sim import Simulator
from repro.net.transport import Network
from repro.node import Node
from repro.sharding.cluster import ShardedCluster
from repro.workload.clients import ScoinWorkload

Clock = Callable[[], float]


class Workload:
    """Shared bookkeeping; subclasses fill in the four steps."""

    name = ""
    #: the read stream is the benchmark's own addition, not part of the
    #: workload: the traced run charges it whole to the ``workload`` layer
    READS_ARE_HARNESS = True

    def __init__(self, seed: int, seconds: int):
        self.seed = seed
        self.seconds = seconds
        #: deterministic reader choices (separate from the program's RNGs)
        self.reader_rng = random.Random(seed * 7919 + 17)
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.ops = 0
        self.txs = 0
        self.reads = 0
        self.read_failures = 0
        #: read batches: (work-clock start, end, reads)
        self.read_intervals: List[Tuple[float, float, int]] = []
        self.op_latencies: List[float] = []
        self.move_latencies: List[float] = []
        self.moves_started = 0
        self.moves_ok = 0
        self.setup_failures: List[str] = []

    # -- hooks for the tracer -----------------------------------------

    def sim_now(self) -> float:
        """The workload's simulated clock."""
        raise NotImplementedError

    def chains(self) -> List[Chain]:
        raise NotImplementedError

    def network(self):
        """The consensus network (message counts), if any."""
        return None

    # -- steps ---------------------------------------------------------

    def generate(self) -> None:
        """Build the seed-derived inputs set-up needs (untimed)."""

    def prepare(self) -> None:
        """Build the measured phase's open-loop inputs (untimed)."""

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, clock: Clock) -> None:
        raise NotImplementedError

    def drain(self) -> None:
        """Finish in-flight work after the timed phase (untimed)."""

    def check(self) -> List[str]:
        raise NotImplementedError

    # -- shared pieces -------------------------------------------------

    def _check_setup_receipts(self) -> None:
        """Gate: every receipt produced during set-up succeeded."""
        for chain in self.chains():
            bad = [r for r in chain.receipts.values() if not r.success]
            if bad:
                self.setup_failures.append(
                    f"{chain.params.name}: {len(bad)} set-up receipts failed "
                    f"(first: {bad[0].error})"
                )

    def _read_accounts(self, clock: Clock, chain: Chain, addresses) -> None:
        """The read stream: serve account proofs and verify each one
        against the committed root, as a light-client reader would."""
        t0 = clock()
        state = chain.state
        root = state.committed_root
        for address in addresses:
            proof = state.prove_account(address)
            if proof.computed_root() != root:
                self.read_failures += 1
        self.reads += len(addresses)
        self.read_intervals.append((t0, clock(), len(addresses)))

    def committed_txs(self, heights: Dict[int, int]) -> int:
        """Transactions in blocks above the recorded heights."""
        total = 0
        for chain in self.chains():
            for block in chain.blocks[heights[chain.chain_id] + 1:]:
                total += len(block.transactions)
        return total

    def heights(self) -> Dict[int, int]:
        return {chain.chain_id: chain.height for chain in self.chains()}

    def state_digest(self) -> Dict[str, str]:
        """Head state roots: must match between two runs of one seed."""
        return {
            chain.params.name: chain.state.committed_root.hex()
            for chain in self.chains()
        }

    def blocks_since(self, heights: Dict[int, int]) -> int:
        return sum(chain.height - heights[chain.chain_id] for chain in self.chains())


# ----------------------------------------------------------------------
# scoin_sharded
# ----------------------------------------------------------------------


class ScoinSharded(Workload):
    """Paper Fig. 6: 4 Tendermint/IAVL shards, 250 closed-loop SCoin
    clients per shard, 20 % cross-shard operations."""

    name = "scoin_sharded"
    SHARDS = 4
    CLIENTS_PER_SHARD = 250
    CROSS_RATE = 0.2
    TOKENS = 1_000_000
    #: simulated seconds of closed-loop traffic per requested second
    SIM_PER_SECOND = 30.0
    READ_EVERY = 5.0
    READS_PER_TICK = 200

    def setup(self) -> None:
        self.cluster = ShardedCluster(
            num_shards=self.SHARDS, seed=self.seed, verify_signatures=True
        )
        self.scoin = ScoinWorkload(
            self.cluster,
            clients_per_shard=self.CLIENTS_PER_SHARD,
            cross_rate=self.CROSS_RATE,
            tokens_per_client=self.TOKENS,
            seed=self.seed,
        )
        sim = self.cluster.sim
        self.cluster.start()
        ready = [False]
        self.scoin.setup(lambda: ready.__setitem__(0, True))
        while not ready[0]:
            sim.run(until=sim.now + 10.0)
            if sim.now > 5_000.0:
                raise RuntimeError("scoin set-up did not finish")
        self._check_setup_receipts()

    def sim_now(self) -> float:
        return self.cluster.sim.now

    def chains(self) -> List[Chain]:
        return self.cluster.shards

    def network(self):
        return self.cluster.network

    def _reader(self, clock: Clock, until: float) -> None:
        idle = [c for c in self.scoin.clients if not c.busy and not c.in_op]
        pool = idle or self.scoin.clients
        picks = [pool[self.reader_rng.randrange(len(pool))] for _ in range(self.READS_PER_TICK)]
        by_shard: Dict[int, List[Address]] = {}
        for client in picks:
            by_shard.setdefault(client.shard, []).append(client.account)
        for shard, accounts in sorted(by_shard.items()):
            self._read_accounts(clock, self.cluster.shard(shard), accounts)
        sim = self.cluster.sim
        if sim.now + self.READ_EVERY < until:
            sim.schedule(self.READ_EVERY, lambda: self._reader(clock, until))

    def _count_moves(self) -> None:
        """Count the cross-shard moves started and those whose phases
        report success (the SCoin report folds failed moves into its
        failures with failed single-shard transfers).  The class's
        ``move_contract`` is looked up per call, so the traced run's
        wrapper still times it."""
        bridge = self.scoin.bridge

        def move_contract(*args, on_done, **kwargs):
            self.moves_started += 1

            def done(phases) -> None:
                self.moves_ok += phases.success
                on_done(phases)

            return type(bridge).move_contract(bridge, *args, on_done=done, **kwargs)

        bridge.move_contract = move_contract

    def measure(self, clock: Clock) -> None:
        sim = self.cluster.sim
        duration = self.SIM_PER_SECOND * self.seconds
        self.h0 = self.heights()
        self._count_moves()
        sim.schedule(self.READ_EVERY, lambda: self._reader(clock, sim.now + duration))
        report = self.scoin.measure_again(duration)
        self.txs = self.committed_txs(self.h0)
        self.ops = report.ops_completed
        self.failed = report.failures
        self.attempted = report.ops_completed + report.failures
        self.op_latencies = list(report.latency.all_samples())
        self.move_latencies = list(report.latency.samples("cross-shard"))

    def drain(self) -> None:
        sim = self.cluster.sim
        deadline = sim.now + 1_000.0
        while any(c.in_op or c.busy for c in self.scoin.clients):
            sim.run(until=sim.now + 5.0)
            if sim.now > deadline:
                break
        self.cluster.stop()

    def check(self) -> List[str]:
        problems = list(self.setup_failures)
        stuck = [c.index for c in self.scoin.clients if c.in_op or c.busy]
        if stuck:
            problems.append(f"{len(stuck)} SCoin clients still mid-operation after drain")
        supply = 0
        for client in self.scoin.clients:
            chain = self.cluster.shard(client.shard)
            supply += chain.view(client.account, "token_balance")
        expected = self.TOKENS * len(self.scoin.clients)
        if supply != expected:
            problems.append(f"SCoin supply not conserved: {supply} != {expected} (I3)")
        if self.failed:
            problems.append(f"{self.failed} SCoin operations failed")
        if self.read_failures:
            problems.append(f"{self.read_failures} account proofs missed the root")
        return problems


# ----------------------------------------------------------------------
# bigstate_rw
# ----------------------------------------------------------------------


class BigstateRW(Workload):
    """One Burrow chain with 5×10⁴ funded accounts; native transfers in
    blocks plus account-proof reads beside every block, no consensus."""

    name = "bigstate_rw"
    #: the proof reads are half of this workload: traced as statedb/merkle
    READS_ARE_HARNESS = False
    ACCOUNTS = 50_000
    SENDERS = 1_000
    BLOCK_INTERVAL = 5.0
    #: Poisson transfer arrivals per simulated second (blocks hold 500)
    ARRIVAL_RATE = 60.0
    BLOCKS_PER_SECOND = 9.0
    READS_PER_BLOCK = 150

    def generate(self) -> None:
        self.population = [
            Address((i + 1).to_bytes(20, "big")) for i in range(self.ACCOUNTS)
        ]
        self.senders = [KeyPair.from_name(f"bigstate-sender-{i}") for i in range(self.SENDERS)]

    def prepare(self) -> None:
        rng = random.Random(self.seed)
        self.blocks = max(4, round(self.BLOCKS_PER_SECOND * self.seconds))
        horizon = self.blocks * self.BLOCK_INTERVAL
        # open-loop arrivals, signed before timing: (due time, tx)
        self.arrivals = []
        t = 0.0
        nonce = 0
        while True:
            t += rng.expovariate(self.ARRIVAL_RATE)
            if t >= horizon:
                break
            nonce += 1
            sender = self.senders[rng.randrange(self.SENDERS)]
            to = self.population[rng.randrange(self.ACCOUNTS)]
            tx = sign_transaction(sender, TransferPayload(to=to, amount=1), nonce=nonce)
            self.arrivals.append((t, tx))
        self.read_sets = [
            [self.population[rng.randrange(self.ACCOUNTS)] for _ in range(self.READS_PER_BLOCK)]
            for _ in range(self.blocks)
        ]

    def setup(self) -> None:
        self.chain = Chain(burrow_params(1), verify_signatures=True)
        allocations = {address: 1_000 for address in self.population}
        allocations.update({kp.address: 10**12 for kp in self.senders})
        self.chain.fund(allocations)
        self._now = 0.0
        self._check_setup_receipts()

    def sim_now(self) -> float:
        return self._now

    def chains(self) -> List[Chain]:
        return [self.chain]

    def measure(self, clock: Clock) -> None:
        chain = self.chain
        self.h0 = self.heights()
        due: Dict[str, float] = {}
        index = 0
        for block in range(1, self.blocks + 1):
            block_time = block * self.BLOCK_INTERVAL
            while index < len(self.arrivals) and self.arrivals[index][0] < block_time:
                when, tx = self.arrivals[index]
                self._now = when
                due[tx.tx_id] = when
                chain.submit(tx)
                index += 1
            self._now = block_time
            chain.produce_block(timestamp=block_time)
            self._read_accounts(clock, chain, self.read_sets[block - 1])
        self.txs = self.committed_txs(self.h0)
        self.attempted = index
        for tx_id, when in due.items():
            receipt = chain.receipts.get(tx_id)
            if receipt is None:
                self.failed += 1
            elif not receipt.success:
                self.failed += 1
            else:
                self.op_latencies.append(receipt.block_time - when)
        self.ops = len(self.op_latencies)

    def check(self) -> List[str]:
        problems = list(self.setup_failures)
        if self.failed:
            problems.append(f"{self.failed} transfers failed or were not included")
        if self.read_failures:
            problems.append(f"{self.read_failures} account proofs missed the root")
        return problems


# ----------------------------------------------------------------------
# gateway_overload
# ----------------------------------------------------------------------


class GatewayOverload(Workload):
    """A 4-replica gateway fleet offered twice its flush capacity by
    10⁴ Zipf(1.1) open-loop clients, class mix 5/10/85 move/view/bulk."""

    name = "gateway_overload"
    CLIENTS = 10_000
    REPLICAS = 4
    ZIPF_S = 1.1
    CLASS_MIX = (0.05, 0.10, 0.85)
    LIMITS = dict(max_queue_depth=256, batch_size=16, flush_interval=0.5, mempool_headroom=4)
    #: offered load: twice REPLICAS * batch_size / flush_interval
    RATE = 2 * REPLICAS * 16 / 0.5
    SIM_PER_SECOND = 27.0
    DRAIN = 20.0
    READ_EVERY = 2.0
    READS_PER_TICK = 100

    def generate(self) -> None:
        self.keypairs = [KeyPair.from_name(f"fleet-client-{i}") for i in range(self.CLIENTS)]

    def prepare(self) -> None:
        rng = random.Random(self.seed)
        weights = [1.0 / (i + 1) ** self.ZIPF_S for i in range(self.CLIENTS)]
        self.duration = self.SIM_PER_SECOND * self.seconds
        # Superposed Poisson streams = one Poisson stream at RATE whose
        # sender is drawn by Zipf weight.
        cumulative = []
        acc = 0.0
        for w in weights:
            acc += w
            cumulative.append(acc)
        from bisect import bisect_left

        move_p, view_p, _ = self.CLASS_MIX
        self.arrivals = []
        t = 0.0
        nonce = 0
        while True:
            t += rng.expovariate(self.RATE)
            if t >= self.duration:
                break
            index = min(bisect_left(cumulative, rng.random() * acc), self.CLIENTS - 1)
            target = self.keypairs[rng.randrange(self.CLIENTS)]
            draw = rng.random()
            label = "move" if draw < move_p else "view" if draw < move_p + view_p else "bulk"
            nonce += 1
            tx = sign_transaction(
                self.keypairs[index], TransferPayload(to=target.address, amount=1), nonce=nonce
            )
            self.arrivals.append((t, index, label, tx))

    def setup(self) -> None:
        params = burrow_params(1, max_block_txs=300, block_interval=2.0)
        self.node = Node(params, seed=self.seed, verify_signatures=True)
        self.node.chain(1).fund({kp.address: 10**12 for kp in self.keypairs})
        self.fleet = GatewayFleet(
            self.node, replicas=self.REPLICAS, limits=GatewayLimits(**self.LIMITS)
        )
        self.transport = SimNetTransport(self.fleet, latency=0.05, jitter=0.05)
        self._check_setup_receipts()

    def sim_now(self) -> float:
        return self.node.sim.now

    def chains(self) -> List[Chain]:
        return [self.node.chain(1)]

    def _reader(self, clock: Clock, until: float) -> None:
        picks = [
            self.keypairs[self.reader_rng.randrange(self.CLIENTS)].address
            for _ in range(self.READS_PER_TICK)
        ]
        self._read_accounts(clock, self.node.chain(1), picks)
        sim = self.node.sim
        if sim.now + self.READ_EVERY < until:
            sim.schedule(self.READ_EVERY, lambda: self._reader(clock, until))

    def measure(self, clock: Clock) -> None:
        sim = self.node.sim
        self.h0 = self.heights()
        start = sim.now
        self.submissions = []

        def fire(when: float, index: int, label: str, tx) -> None:
            handle = self.transport.submit(
                tx, 1, client_id=f"fleet-client-{index}", priority=label
            )
            self.submissions.append((when, label, handle, tx))

        for when, index, label, tx in self.arrivals:
            sim.schedule_at(
                start + when, lambda w=start + when, i=index, l=label, t=tx: fire(w, i, l, t)
            )
        end = start + self.duration + self.DRAIN
        sim.schedule(self.READ_EVERY, lambda: self._reader(clock, end))
        self.node.start()
        self.fleet.start()
        self.node.run(until=end)
        self.fleet.stop()
        self.node.stop()
        self.txs = self.committed_txs(self.h0)
        self.attempted = len(self.submissions)
        for when, label, handle, _tx in self.submissions:
            if handle.error is not None:
                if handle.error.code == "queue_full":
                    self.refused += 1
                else:
                    self.failed += 1
            elif handle.receipt is not None and handle.receipt.success:
                self.ops += 1
                latency = handle.resolved_at - when
                self.op_latencies.append(latency)
                if label == "move":
                    self.move_latencies.append(latency)
            else:
                self.failed += 1

    def state_digest(self) -> Dict[str, str]:
        digest = super().state_digest()
        digest["fleet.log_digest"] = self.fleet.log_digest()
        return digest

    def check(self) -> List[str]:
        problems = list(self.setup_failures)
        if self.failed:
            problems.append(f"{self.failed} requests failed other than by shedding")
        if self.read_failures:
            problems.append(f"{self.read_failures} account proofs missed the root")
        if not self.refused:
            problems.append("no request was shed: the fleet was not overloaded")
        return problems


# ----------------------------------------------------------------------
# ibc_store_moves
# ----------------------------------------------------------------------

class IbcStoreMoves(Workload):
    """Store-100 contracts ping-pong between Burrow (Tendermint/IAVL) and
    Ethereum (PoW/MPT) chains in a closed loop.

    One Burrow chain is the hub; each of the 40 contracts has its own
    Ethereum chain, and each contract pauses an exponential think time
    before every move.  PoW block times are random and shared by every
    move on one chain, and each chain's miners get seed-drawn regions:
    with a single Ethereum chain the contracts move in lock-step and a
    run's latency tail rests on a handful of mining gaps, and with two
    contracts per chain over twenty chains the latencies still spread
    by 8 % from seed to seed (4 % with forty chains).
    """

    name = "ibc_store_moves"
    ETHEREUMS = 40
    STORES_PER_CHAIN = 1
    SLOTS = 100
    #: validators (Tendermint) / miners (PoW) per chain; four keeps the
    #: 41 chains' consensus traffic from drowning the proof work
    VALIDATORS = 4
    THINK_MEAN = 10.0
    SIM_PER_SECOND = 250.0
    READ_EVERY = 15.0
    READS_PER_TICK = 4

    def setup(self) -> None:
        self.sim = Simulator(seed=self.seed)
        self.think_rng = random.Random(self.seed * 31 + 7)
        self.net = Network(self.sim)
        registry = ChainRegistry()
        model = LatencyModel()
        self.burrow = Chain(burrow_params(1), registry, verify_signatures=True)
        self.engines = [TendermintEngine(
            self.sim, self.net, self.burrow, model.assign_regions(self.VALIDATORS, self.sim.rng),
        )]
        self.ethereums: List[Chain] = []
        for index in range(self.ETHEREUMS):
            ethereum = Chain(ethereum_params(index + 2), registry, verify_signatures=True)
            connect_chains([self.burrow, ethereum])
            self.engines.append(PowEngine(
                self.sim, self.net, ethereum, model.assign_regions(self.VALIDATORS, self.sim.rng),
            ))
            self.ethereums.append(ethereum)
        self.by_id = {chain.chain_id: chain for chain in self.chains()}
        self.bridge = IBCBridge(self.sim, self.chains())
        self.owner = KeyPair.from_name("ibc-store-owner")
        for engine in self.engines:
            engine.start()
        deploys = [
            sign_transaction(
                self.owner,
                DeployPayload(code_hash=StateStore.CODE_HASH, args=(self.SLOTS,)),
                nonce=i + 1,
            )
            for i in range(self.ETHEREUMS * self.STORES_PER_CHAIN)
        ]
        for tx in deploys:
            self.burrow.submit(tx)
        while any(tx.tx_id not in self.burrow.receipts for tx in deploys):
            self.sim.run(until=self.sim.now + 5.0)
            if self.sim.now > 2_000.0:
                raise RuntimeError("store deploys were not included")
        self.stores = [self.burrow.receipts[tx.tx_id].return_value for tx in deploys]
        #: store -> (burrow id, id of its Ethereum chain)
        self.pair_of = {
            store: (1, self.ethereums[i // self.STORES_PER_CHAIN].chain_id)
            for i, store in enumerate(self.stores)
        }
        self.location = {store: 1 for store in self.stores}
        self.initial_storage = {
            store: self._store_contents(self.burrow, store) for store in self.stores
        }
        self._check_setup_receipts()

    def sim_now(self) -> float:
        return self.sim.now

    def chains(self) -> List[Chain]:
        return [self.burrow] + self.ethereums

    def network(self):
        return self.net

    def _store_contents(self, chain: Chain, store: Address) -> tuple:
        """The Store's application state as its views report it (the
        protocol's own ``moved_at`` stamp is expected to change)."""
        size = chain.view(store, "size")
        return (size, tuple(chain.view(store, "value_at", i) for i in range(size)))

    def _schedule_move(self, store: Address) -> None:
        self.sim.schedule(
            self.think_rng.expovariate(1.0 / self.THINK_MEAN), lambda: self._start_move(store)
        )

    def _start_move(self, store: Address) -> None:
        if self.sim.now >= self._end:
            return
        source = self.location[store]
        burrow_id, ethereum_id = self.pair_of[store]
        target = ethereum_id if source == burrow_id else burrow_id
        self.moves_started += 1
        self._in_flight += 1
        self.bridge.move_contract(
            self.owner, store, source, target,
            on_done=lambda phases: self._after_move(store, phases),
        )

    def _after_move(self, store: Address, phases) -> None:
        self._in_flight -= 1
        if not phases.success:
            self.failed += 1
            self.move_errors.append(phases.error)
            return
        self.location[store] = phases.target_chain
        self.moves_ok += 1
        self.move_latencies.append(phases.total_time)
        if phases.completed_at <= self._end:
            self.ops += 1
        self._schedule_move(store)

    def _reader(self, clock: Clock) -> None:
        for chain in self.chains():
            here = [s for s in self.stores if self.location[s] == chain.chain_id]
            if here:
                picks = [here[self.reader_rng.randrange(len(here))] for _ in range(self.READS_PER_TICK)]
                self._read_accounts(clock, chain, picks)
        if self.sim.now + self.READ_EVERY < self._end:
            self.sim.schedule(self.READ_EVERY, lambda: self._reader(clock))

    def measure(self, clock: Clock) -> None:
        self.h0 = self.heights()
        self.move_errors: List[str] = []
        self._in_flight = 0
        self._end = self.sim.now + self.SIM_PER_SECOND * self.seconds
        for store in self.stores:
            self._schedule_move(store)
        self.sim.schedule(self.READ_EVERY, lambda: self._reader(clock))
        self.sim.run(until=self._end)
        self.txs = self.committed_txs(self.h0)

    def drain(self) -> None:
        deadline = self.sim.now + 3_000.0
        while self._in_flight and self.sim.now < deadline:
            self.sim.run(until=self.sim.now + 15.0)
        for engine in self.engines:
            engine.stop()
        self.attempted = self.moves_started
        self.op_latencies = list(self.move_latencies)

    def check(self) -> List[str]:
        problems = list(self.setup_failures)
        if self._in_flight:
            problems.append(f"{self._in_flight} moves still in flight after drain")
        if self.failed:
            problems.append(f"{self.failed} moves failed (first: {self.move_errors[0]})")
        for store in self.stores:
            chain = self.by_id[self.location[store]]
            record = chain.state.contract(store)
            if record is None or record.location != chain.chain_id:
                problems.append(f"store {store} is not active where its last move put it")
            elif self._store_contents(chain, store) != self.initial_storage[store]:
                problems.append(f"store {store} storage changed across its round trips")
        if self.read_failures:
            problems.append(f"{self.read_failures} account proofs missed the root")
        return problems


WORKLOADS = {
    cls.name: cls for cls in (ScoinSharded, BigstateRW, GatewayOverload, IbcStoreMoves)
}
