"""Baseline CU-driven collective kernels (what T3 replaces).

These model today's GPU collectives (Figure 10a): GPU compute units read
operand copies from DRAM, reduce them, and stream results over the ring —
competing with any concurrent kernel for CUs and memory bandwidth.

The run is co-simulated across every GPU of the topology.  Synchronization
is by data arrival: step ``s`` on a rank cannot start until the chunk sent
to it at step ``s-1`` has fully landed in its DRAM.  Within a step, reads,
CU reduction, link serialization and remote writes are pipelined at the
simulation quantum, so each step's duration converges to its bottleneck
(link, DRAM or CU throughput) — the property the Figure 6 CU-sharing study
depends on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.collectives.plan import CollectivePlan, plan_for
from repro.collectives.schedule import (
    chunk_sizes,
    ring_ag_schedule,
    ring_rs_schedule,
)
from repro.interconnect.topology import RingTopology, Topology
from repro.memory.request import AccessKind, Stream
from repro.sim.engine import BaseEvent, Process
from repro.sim.machines import CallbackMachine, CompletionGroup
from repro.sim.primitives import Resource


@dataclass
class CollectiveResult:
    """Timing of one co-simulated collective."""

    start: float = 0.0
    end: float = 0.0
    per_rank_end: Dict[int, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _QuantumMachine(CallbackMachine):
    """Callback state machine for one pipelined quantum: operand reads →
    CU reduction → link serialization → remote writes.

    The event-driven replacement for the former ``_quantum_proc``
    generator process — by far the most-instantiated process in the
    simulator.  The machine subclasses :class:`BaseEvent` and re-arms
    *itself* for every stage boundary (boot, reads-complete,
    writes-complete, completion) and for the CU hold interval, so one
    recycled object replaces the process + boot event + two ``AllOf``
    composites + per-child closures the generator version allocated per
    quantum.  Every boundary is scheduled at exactly the slot the
    generator version's event occupied (see ``repro.sim.machines``), so
    firing order — and therefore every DRAM arbitration decision — is
    bit-identical to the process version (the golden-digest gate,
    ``tests/test_golden.py``, pins this).

    Callers guarantee ``read_bytes`` and ``cu_bytes`` are positive (every
    ring step reads at least the local copy and reduces it).
    """

    __slots__ = ("coll", "gpu", "dst", "nbytes", "read_bytes",
                 "cu_bytes", "reduce_unit", "cu_bw", "chunk_id", "group",
                 "_stage", "_pending", "_hold")

    def __init__(self, coll: "_RingCollectiveBase", rank: int, dst: int,
                 nbytes: int, read_bytes: int, cu_bytes: int,
                 reduce_unit: Resource, cu_bw: float,
                 chunk_id: Optional[int], group: CompletionGroup):
        super().__init__(coll.env)
        self.coll = coll
        self.gpu = coll.topo.gpus[rank]
        self.dst = dst
        self.nbytes = nbytes
        self.read_bytes = read_bytes
        self.cu_bytes = cu_bytes
        self.reduce_unit = reduce_unit
        self.cu_bw = cu_bw
        self.chunk_id = chunk_id
        self.group = group
        self._stage = 0
        self._pending = 0
        self._hold = 0.0

    def _advance(self, _event: BaseEvent) -> None:
        stage = self._stage
        if stage == 0:
            # Booted: issue the operand reads.
            self._stage = 1
            reads = self.gpu.mc.submit_bulk(
                AccessKind.READ, Stream.COMPUTE, self.read_bytes,
                self.coll.label)
            self._pending = len(reads)
            cb = self._read_done
            for ev in reads:
                ev.add_callback(cb)
        elif stage == 1:
            # Reads landed: queue for the CU reduce unit.
            self._stage = 2
            env = self.env
            hold = self.cu_bytes / self.cu_bw
            if env.faults is not None and env.faults.has_compute_faults:
                # Straggler seam: the CU reduction of a slowed GPU paces
                # its ring step exactly like a slowed GEMM wave.
                hold *= env.faults.compute_factor(self.gpu.gpu_id, env._now)
            self._hold = hold
            self.reduce_unit.request().add_callback(self._granted)
        elif stage == 2:
            # CU hold elapsed: release the unit, go on the wire.
            self.reduce_unit.release()
            self.gpu.link_to(self.dst).transfer(self.nbytes) \
                .add_callback(self._arrived)
        elif stage == 3:
            # Writes landed (the slot the writes-AllOf used to fire in).
            self._stage = 4
            self._arm()
        else:
            # Completion slot (the former process-completion event).
            self.group.done_one()

    def _read_done(self, _event: BaseEvent) -> None:
        self._pending -= 1
        if not self._pending:
            self._arm()

    def _granted(self, _event: BaseEvent) -> None:
        self._arm(self._hold)

    def _arrived(self, _event: BaseEvent) -> None:
        # Arriving writes are tagged with the chunk they deliver, so a T3
        # Tracker at the receiver can gate consumers on chunk arrival
        # (Section 7.2).
        writes = self.gpu.peer(self.dst).mc.submit_bulk(
            AccessKind.WRITE, Stream.COMM, self.nbytes, self.coll.label,
            wg_id=self.chunk_id, chunk_id=self.chunk_id)
        self._pending = len(writes)
        cb = self._write_done
        for ev in writes:
            ev.add_callback(cb)

    def _write_done(self, _event: BaseEvent) -> None:
        self._pending -= 1
        if not self._pending:
            self._stage = 3
            self._arm()


class _RingCollectiveBase:
    """Shared machinery for baseline ring collectives."""

    label = "collective"

    def __init__(self, topology: RingTopology, nbytes_total: int,
                 n_cus: Optional[int] = None,
                 launch_overhead_ns: float = 2_000.0):
        self.topo = topology
        self.env = topology.env
        self.system = topology.system
        self.nbytes_total = nbytes_total
        self.n_cus = n_cus
        self.launch_overhead_ns = launch_overhead_ns
        n = topology.n_gpus
        self.chunks = chunk_sizes(nbytes_total, n)
        #: incoming[rank][step] fires when the chunk sent to simulated
        #: ``rank`` at ``step`` has fully landed in its DRAM.
        self._incoming: List[Dict[int, BaseEvent]] = [
            {s: BaseEvent(self.env) for s in range(1, n)}
            for _ in topology.gpus
        ]
        self.result = CollectiveResult()

    # -- per-quantum pipeline -------------------------------------------------

    def _quanta(self, nbytes: int) -> List[int]:
        quantum = self.system.fidelity.quantum_bytes
        full, rem = divmod(nbytes, quantum)
        sizes = [quantum] * full
        if rem:
            sizes.append(rem)
        return sizes

    def _send_chunk(self, rank: int, step: int, chunk_bytes: int,
                    read_factor: int, cu_factor: int,
                    reduce_unit: Resource, cu_bw: float,
                    chunk_id: Optional[int] = None):
        """Pipeline one chunk to the downstream neighbour; returns when it
        has fully landed there, then fires the receiver's incoming event."""
        dst = self.topo.next_gpu(rank)
        quanta = self._quanta(chunk_bytes)
        group = CompletionGroup(self.env, len(quanta))
        for q in quanta:
            _QuantumMachine(
                self, rank, dst, q, read_factor * q, cu_factor * q,
                reduce_unit, cu_bw, chunk_id, group).start()
        yield group
        self._incoming[self.topo.representative(dst)][step].succeed()

    # -- orchestration -----------------------------------------------------------

    def _rank_proc(self, rank: int):
        raise NotImplementedError

    def launch(self) -> List[Process]:
        """Start every simulated rank (each GPU of the topology)."""
        self.result.start = self.env.now
        return [
            self.env.process(self._rank_proc(rank),
                             name=f"{self.label}.rank{rank}")
            for rank in range(len(self.topo.gpus))
        ]

    def run(self) -> CollectiveResult:
        """Launch on all ranks and simulate to completion."""
        procs = self.launch()
        done = self.env.all_of(procs)
        self.env.run()
        if not done.fired:
            raise RuntimeError(
                f"{self.label} deadlocked: some rank never finished")
        self.result.end = self.env.now
        self.result.per_rank_end = self.topo.per_rank(
            self.result.per_rank_end)
        return self.result

    def _cu_bandwidth(self) -> float:
        return self.system.compute.reduce_bandwidth(self.n_cus)


class RingReduceScatter(_RingCollectiveBase):
    """Baseline ring reduce-scatter (Figures 3 and 10a)."""

    label = "rs"

    def _rank_proc(self, rank: int):
        env = self.env
        gpu = self.topo.gpus[rank]
        n = self.topo.n_gpus
        yield env.timeout(self.launch_overhead_ns)
        reduce_unit = Resource(env, 1, name=f"rs.cu.{rank}")
        cu_bw = self._cu_bandwidth()

        for ring_step in ring_rs_schedule(n, rank):
            if ring_step.step >= 2:
                # Need the partial received in the previous step.
                yield self._incoming[rank][ring_step.step - 1]
            chunk_bytes = self.chunks[ring_step.send_chunk]
            # Step 1 reads only the fresh local copy; steady steps read the
            # local copy plus the received partial (2 copies, Figure 10a).
            read_factor = 1 if ring_step.step == 1 else 2
            yield from self._send_chunk(
                rank, ring_step.step, chunk_bytes,
                read_factor=read_factor, cu_factor=read_factor + 1,
                reduce_unit=reduce_unit, cu_bw=cu_bw)

        # Final local reduction of this rank's own chunk.
        yield self._incoming[rank][n - 1]
        own = self.chunks[rank]
        reads = gpu.mc.submit_bulk(
            AccessKind.READ, Stream.COMPUTE, 2 * own, self.label)
        yield env.all_of(reads)
        yield from reduce_unit.acquire(hold=3 * own / cu_bw)
        writes = gpu.mc.submit_bulk(
            AccessKind.WRITE, Stream.COMPUTE, own, self.label)
        yield env.all_of(writes)
        self.result.per_rank_end[rank] = env.now


class RingAllGather(_RingCollectiveBase):
    """Baseline ring all-gather: pure forwarding, no reduction."""

    label = "ag"

    def _rank_proc(self, rank: int):
        env = self.env
        n = self.topo.n_gpus
        yield env.timeout(self.launch_overhead_ns)
        copy_unit = Resource(env, 1, name=f"ag.cu.{rank}")
        cu_bw = self._cu_bandwidth()

        for ring_step in ring_ag_schedule(n, rank):
            if ring_step.step >= 2:
                yield self._incoming[rank][ring_step.step - 1]
            chunk_bytes = self.chunks[ring_step.send_chunk]
            yield from self._send_chunk(
                rank, ring_step.step, chunk_bytes,
                read_factor=1, cu_factor=2,
                reduce_unit=copy_unit, cu_bw=cu_bw,
                chunk_id=ring_step.send_chunk)
        self.result.per_rank_end[rank] = env.now


class PlannedReduceScatter(_RingCollectiveBase):
    """CU-driven reduce-scatter executing an arbitrary
    :class:`~repro.collectives.plan.CollectivePlan`.

    Where :class:`RingReduceScatter` is hard-wired to the flat single-ring
    schedule, this executor walks the plan's per-rank step lists —
    including the hierarchical two-phase (intra-node ring, then
    per-position inter-node rings) plan — with the same quantum-pipelined
    read/reduce/link/write cost model.  On a flat ring plan it reproduces
    :class:`RingReduceScatter`'s behaviour; it exists so the scale-out
    experiments have an apples-to-apples Sequential baseline on any
    topology.
    """

    label = "rs"

    def __init__(self, topology: Topology, nbytes_total: int,
                 plan: Optional[CollectivePlan] = None,
                 n_cus: Optional[int] = None,
                 launch_overhead_ns: float = 2_000.0):
        if plan is None:
            plan = plan_for(topology, "ring-rs")
        if plan.n_ranks != topology.n_gpus:
            raise ValueError(
                f"plan covers {plan.n_ranks} ranks but the topology has "
                f"{topology.n_gpus}")
        self.topo = topology
        self.env = topology.env
        self.system = topology.system
        self.nbytes_total = nbytes_total
        self.n_cus = n_cus
        self.launch_overhead_ns = launch_overhead_ns
        self.plan = plan
        self.chunks = chunk_sizes(nbytes_total, plan.n_chunks)
        #: arrival[(rank, stage, step, chunk)] fires when that chunk's
        #: contribution has fully landed in ``rank``'s DRAM.
        self._arrivals: Dict[Tuple[int, str, int, int], BaseEvent] = {}
        for rank in range(plan.n_ranks):
            for step in plan.steps(rank):
                for cid in step.recv_chunks:
                    self._arrivals[(rank, step.stage, step.step, cid)] = \
                        BaseEvent(self.env)
        self.result = CollectiveResult()

    def _send_group(self, rank: int, dst_rank: int, stage: str, step: int,
                    chunk_ids: Tuple[int, ...], read_factor: int,
                    reduce_unit: Resource, cu_bw: float):
        group = CompletionGroup(self.env)
        for cid in chunk_ids:
            for q in self._quanta(self.chunks[cid]):
                group.expect()
                _QuantumMachine(
                    self, rank, dst_rank, q, read_factor * q,
                    (read_factor + 1) * q, reduce_unit, cu_bw, cid,
                    group).start()
        yield group
        for cid in chunk_ids:
            self._arrivals[(dst_rank, stage, step, cid)].succeed()

    def _rank_proc(self, rank: int):
        env = self.env
        gpu = self.topo.gpus[rank]
        rank_plan = self.plan.rank_plan(rank)
        yield env.timeout(self.launch_overhead_ns)
        reduce_unit = Resource(env, 1, name=f"rs.cu.{rank}")
        cu_bw = self._cu_bandwidth()

        #: copies held per chunk (1 local + received partials): paces the
        #: read/reduce cost of each forward, as in Figure 10a.
        copies = {cid: 1 for cid in range(self.plan.n_chunks)}
        pending: Dict[int, List[BaseEvent]] = {}
        for step in rank_plan.steps:
            if step.send_chunks:
                deps = [ev for cid in step.send_chunks
                        for ev in pending.pop(cid, [])]
                if deps:
                    yield env.all_of(deps)
                read_factor = copies[step.send_chunks[0]]
                yield from self._send_group(
                    rank, step.dst, step.stage, step.step, step.send_chunks,
                    read_factor, reduce_unit, cu_bw)
            for cid in step.recv_chunks:
                pending.setdefault(cid, []).append(
                    self._arrivals[(rank, step.stage, step.step, cid)])
                copies[cid] += 1

        # Final local reduction of any chunk that terminates here.
        for cid in rank_plan.terminal_chunks():
            deps = pending.pop(cid, [])
            if deps:
                yield env.all_of(deps)
            own = self.chunks[cid]
            held = copies[cid]
            reads = gpu.mc.submit_bulk(
                AccessKind.READ, Stream.COMPUTE, held * own, self.label)
            yield env.all_of(reads)
            yield from reduce_unit.acquire(hold=(held + 1) * own / cu_bw)
            writes = gpu.mc.submit_bulk(
                AccessKind.WRITE, Stream.COMPUTE, own, self.label)
            yield env.all_of(writes)
        self.result.per_rank_end[rank] = env.now


class RingAllReduce:
    """Baseline all-reduce = ring-RS followed by ring-AG (Section 2.3)."""

    label = "ar"

    def __init__(self, topology: RingTopology, nbytes_total: int,
                 n_cus: Optional[int] = None,
                 launch_overhead_ns: float = 2_000.0):
        self.topo = topology
        self.nbytes_total = nbytes_total
        self.n_cus = n_cus
        self.launch_overhead_ns = launch_overhead_ns
        self.rs_result: Optional[CollectiveResult] = None
        self.ag_result: Optional[CollectiveResult] = None

    def run(self) -> CollectiveResult:
        start = self.topo.env.now
        rs = RingReduceScatter(
            self.topo, self.nbytes_total, n_cus=self.n_cus,
            launch_overhead_ns=self.launch_overhead_ns)
        self.rs_result = rs.run()
        ag = RingAllGather(
            self.topo, self.nbytes_total, n_cus=self.n_cus,
            launch_overhead_ns=self.launch_overhead_ns)
        self.ag_result = ag.run()
        return CollectiveResult(start=start, end=self.topo.env.now)
