"""Node topologies: wire GPUs together with bandwidth/latency links.

The paper evaluates the ring topology (intra-node tensor parallelism,
Section 2.3); the fully-connected topology supports the direct-RS
discussion of Section 7.1.  A topology owns the :class:`GPU` instances and
the directed :class:`~repro.sim.primitives.Pipe` links between them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, TypeVar

from repro.config import SystemConfig
from repro.gpu.gpu import GPU
from repro.sim.engine import Environment, SimulationError
from repro.sim.primitives import Pipe

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.collectives.plan import OrbitRelabel

T = TypeVar("T")


class Topology:
    """Base: a set of GPUs plus directed links."""

    def __init__(self, env: Environment, system: SystemConfig,
                 policy_name: str = "compute-priority"):
        self.env = env
        self.system = system
        self.gpus: List[GPU] = [
            GPU(env, gpu_id, system, policy_name=policy_name)
            for gpu_id in range(self._n_simulated())
        ]
        self.links: Dict[Tuple[int, int], Pipe] = {}
        self._wire()

    # subclasses define which directed edges exist
    def edges(self) -> List[Tuple[int, int]]:
        raise NotImplementedError

    def _n_simulated(self) -> int:
        """GPUs this topology simulates: one per rank."""
        return self.system.n_gpus

    def _endpoint(self, rank: int):
        """What a link to ``rank`` delivers into."""
        return self.gpus[rank]

    def representative(self, rank: int) -> int:
        """Index into ``gpus`` of the GPU that simulates ring rank ``rank``."""
        return rank % len(self.gpus)

    def per_rank(self, values: Dict[int, T]) -> Dict[int, T]:
        """Per-rank results of every rank, from the simulated GPUs' ones."""
        return values

    def _make_pipe(self, src: int, dst: int, bandwidth: float,
                   latency_ns: float, suffix: str = "") -> Pipe:
        """Build + register one directed link, applying any static link
        degradation from ``env.faults`` (bandwidth factor, extra latency)."""
        nominal_bandwidth, nominal_latency = bandwidth, latency_ns
        if self.env.faults is not None:
            bandwidth, latency_ns = self.env.faults.link_parameters(
                src, dst, bandwidth, latency_ns)
        pipe = Pipe(self.env, bandwidth_bytes_per_ns=bandwidth,
                    latency_ns=latency_ns,
                    name=f"link.{src}->{dst}{suffix}")
        pipe.endpoints = (src, dst)
        pipe.nominal_bandwidth = nominal_bandwidth
        pipe.nominal_latency_ns = nominal_latency
        self.links[(src, dst)] = pipe
        self.gpus[src].connect(self._endpoint(dst), pipe)
        return pipe

    def _wire(self) -> None:
        link_cfg = self.system.link
        for src, dst in self.edges():
            self._make_pipe(src, dst, link_cfg.bandwidth,
                            link_cfg.latency_ns)

    def link(self, src: int, dst: int) -> Pipe:
        if (src, dst) not in self.links:
            raise SimulationError(f"no link {src}->{dst} in this topology")
        return self.links[(src, dst)]

    @property
    def n_gpus(self) -> int:
        """Ranks of the topology (simulated or represented)."""
        return self.system.n_gpus

    def total_bytes_on_wire(self) -> float:
        return sum(pipe.bytes_sent for pipe in self.links.values())


class RingTopology(Topology):
    """Bidirectional ring; ring collectives send "downstream" to
    ``(rank - 1) mod N`` as in the paper's Figure 7 (GPU-0 sends to
    GPU-3)."""

    def edges(self) -> List[Tuple[int, int]]:
        n = self.system.n_gpus
        forward = [(i, (i - 1) % n) for i in range(n)]
        backward = [(i, (i + 1) % n) for i in range(n)]
        return forward + backward

    def next_gpu(self, rank: int) -> int:
        """Downstream neighbour (the one ``rank`` sends chunks to)."""
        return (rank - 1) % self.system.n_gpus

    def prev_gpu(self, rank: int) -> int:
        """Upstream neighbour (the one ``rank`` receives chunks from)."""
        return (rank + 1) % self.system.n_gpus


class _RotatedPeer:
    """Ring rank ``gpu_id`` seen across the orbit ring's wrap-around link:
    the representative ``gpu``, with every delivered chunk and WG id
    shifted into its frame.  It stands in for both the peer GPU and its
    memory controller (``mc``), the only part a sender reaches."""

    def __init__(self, gpu: GPU, gpu_id: int, relabel: "OrbitRelabel"):
        self.gpu = gpu
        self.gpu_id = gpu_id
        self.mc = self
        self.relabel = relabel

    def submit_bulk(self, kind, stream, nbytes, label,
                    wg_id: Optional[int] = None,
                    wf_id: Optional[int] = None,
                    chunk_id: Optional[int] = None):
        return self.gpu.mc.submit_bulk(
            kind, stream, nbytes, label, wg_id=self.relabel.wg(wg_id),
            wf_id=wf_id, chunk_id=self.relabel.chunk(chunk_id))


class OrbitRingTopology(RingTopology):
    """A ring simulated on one rank per rotation orbit.

    When rank ``r + p`` runs rank ``r``'s program shifted by ``p`` chunks
    (:func:`~repro.collectives.plan.orbit_period`), ``p`` representative
    GPUs reproduce every rank of the ``n``-GPU ring exactly: ring rank
    ``r`` is representative ``r mod p``.  Representatives keep the ring's
    downstream links; representative 0's wraps to representative
    ``p - 1`` (itself when ``p == 1``), which stands for ring rank
    ``n - 1`` and so receives every chunk and WG id shifted by ``p``
    (:class:`~repro.collectives.plan.OrbitRelabel`).  Links and peers keep
    ring rank ids, so senders address rank ``n - 1`` as on the full ring.

    Only the downstream links are wired: the flat ring-RS/AG and fused
    ring-RS use no other.
    """

    def __init__(self, env: Environment, system: SystemConfig,
                 relabel: "OrbitRelabel",
                 policy_name: str = "compute-priority"):
        self.relabel = relabel
        super().__init__(env, system, policy_name=policy_name)

    def _n_simulated(self) -> int:
        return self.relabel.period

    def edges(self) -> List[Tuple[int, int]]:
        return [(rank, self.next_gpu(rank)) for rank in range(len(self.gpus))]

    def _endpoint(self, rank: int):
        gpu = self.gpus[self.representative(rank)]
        if gpu.gpu_id == rank:
            return gpu
        return _RotatedPeer(gpu, rank, self.relabel)

    def per_rank(self, values: Dict[int, T]) -> Dict[int, T]:
        return {rank: values[self.representative(rank)]
                for rank in range(self.n_gpus)}


class FullyConnectedTopology(Topology):
    """All-to-all dedicated links (direct-RS substrate, Section 7.1)."""

    def edges(self) -> List[Tuple[int, int]]:
        n = self.system.n_gpus
        return [(i, j) for i in range(n) for j in range(n) if i != j]


class HierarchicalRingTopology(RingTopology):
    """A ring spanning multiple nodes (Section 7.8).

    GPUs are grouped into nodes of ``gpus_per_node``; ring edges that
    cross a node boundary use slower inter-node links
    (``inter_node_fraction`` of the intra-node bandwidth, plus extra
    latency).  Ring collectives and T3 fusion work unchanged — the slow
    hops simply pace the affected steps, exposing the paper's
    "communication costs can be much larger than GEMM execution"
    inter-node regime.

    Beyond the flat ring, the topology wires **rail links**: for each
    intra-node position ``g``, GPU ``(k, g)`` connects to ``(k±1, g)`` on
    the neighbouring nodes.  These per-position inter-node rings carry
    the ``inter`` phase of the hierarchical collective plan
    (:func:`repro.collectives.plan.hierarchical_rs_plan`), which is what
    lets fused T3 reduce across nodes.  Rail links cross nodes, so they
    get the slow inter-node parameters automatically.
    """

    def __init__(self, env: Environment, system: SystemConfig,
                 gpus_per_node: int, inter_node_fraction: float = 0.25,
                 inter_node_extra_latency_ns: float = 1500.0,
                 policy_name: str = "compute-priority"):
        if gpus_per_node < 1 or system.n_gpus % gpus_per_node:
            raise SimulationError(
                f"{system.n_gpus} GPUs cannot be grouped into nodes of "
                f"{gpus_per_node}")
        if not 0 < inter_node_fraction <= 1:
            raise SimulationError("inter_node_fraction must be in (0, 1]")
        self.gpus_per_node = gpus_per_node
        self.inter_node_fraction = inter_node_fraction
        self.inter_node_extra_latency_ns = inter_node_extra_latency_ns
        super().__init__(env, system, policy_name=policy_name)

    @property
    def n_nodes(self) -> int:
        return self.system.n_gpus // self.gpus_per_node

    def node_of(self, rank: int) -> int:
        return rank % self.system.n_gpus // self.gpus_per_node

    def edges(self) -> List[Tuple[int, int]]:
        base = super().edges()
        per = self.gpus_per_node
        if self.n_nodes <= 1 or per <= 1:
            return base  # the flat ring already is the node ring
        seen = set(base)
        extra: List[Tuple[int, int]] = []

        def add(src: int, dst: int) -> None:
            if dst != src and (src, dst) not in seen:
                seen.add((src, dst))
                extra.append((src, dst))

        for k in range(self.n_nodes):
            # Close each node's ring: the flat ring supplies the in-node
            # hops, but position 0 <-> position per-1 wraps through the
            # next node — the intra phase needs the direct link.
            add(k * per, k * per + per - 1)
            add(k * per + per - 1, k * per)
        for g in range(per):
            for k in range(self.n_nodes):
                src = k * per + g
                for dk in (-1, 1):
                    add(src, ((k + dk) % self.n_nodes) * per + g)
        return base + extra

    def is_inter_node(self, src: int, dst: int) -> bool:
        return self.node_of(src) != self.node_of(dst)

    def _wire(self) -> None:
        link_cfg = self.system.link
        for src, dst in self.edges():
            crossing = self.is_inter_node(src, dst)
            bandwidth = link_cfg.bandwidth * (
                self.inter_node_fraction if crossing else 1.0)
            latency = link_cfg.latency_ns + (
                self.inter_node_extra_latency_ns if crossing else 0.0)
            self._make_pipe(src, dst, bandwidth, latency,
                            suffix=".xnode" if crossing else "")
