"""Server pools.

"A server pool is a set of servers with a network load-balancer
distributing incoming requests evenly across them.  All servers have
the same software and hardware." (§I, footnote 1).  The pool is the
unit of capacity: planning adds or removes whole servers.  The even
split itself happens in the simulator, over each window's online mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.deployment import SoftwareVersion
from repro.cluster.hardware import HardwareSpec
from repro.cluster.server import Server, ServerArrays, ServerState
from repro.cluster.service import MicroServiceProfile


@dataclass
class ServerPool:
    """The servers of one micro-service in one datacenter."""

    pool_id: str
    datacenter_id: str
    profile: MicroServiceProfile
    servers: List[Server] = field(default_factory=list)
    #: Cached column view of the servers for the batched observation
    #: path; rebuilt lazily after any composition change.
    _arrays: Optional[ServerArrays] = field(default=None, repr=False, compare=False)

    @classmethod
    def build(
        cls,
        pool_id: str,
        datacenter_id: str,
        profile: MicroServiceProfile,
        n_servers: int,
        hardware: HardwareSpec,
        rng: np.random.Generator,
        hardware_mix: Optional[Dict[HardwareSpec, float]] = None,
    ) -> "ServerPool":
        """Construct a pool of ``n_servers`` identical (or mixed) servers.

        ``hardware_mix`` maps SKU -> fraction; when provided it overrides
        ``hardware`` and produces the Fig 3 two-generation pool.
        """
        if n_servers < 1:
            raise ValueError("a pool needs at least one server")
        pool = cls(pool_id=pool_id, datacenter_id=datacenter_id, profile=profile)
        skus: List[HardwareSpec] = []
        if hardware_mix:
            fractions = np.asarray(list(hardware_mix.values()), dtype=float)
            if abs(fractions.sum() - 1.0) > 1e-6:
                raise ValueError("hardware_mix fractions must sum to 1")
            counts = np.floor(fractions * n_servers).astype(int)
            while counts.sum() < n_servers:
                counts[int(np.argmax(fractions))] += 1
            for sku, count in zip(hardware_mix, counts):
                skus.extend([sku] * int(count))
        else:
            skus = [hardware] * n_servers
        for i, sku in enumerate(skus[:n_servers]):
            pool.servers.append(
                Server(
                    server_id=f"{datacenter_id}.{pool_id}.s{i:04d}",
                    pool_id=pool_id,
                    datacenter_id=datacenter_id,
                    profile=profile,
                    hardware=sku,
                    noise_phase=int(rng.integers(0, 10_000)),
                )
            )
        return pool

    # ------------------------------------------------------------------
    # Capacity control
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self.servers)

    def online_servers(self) -> List[Server]:
        return [s for s in self.servers if s.state.is_online]

    @property
    def online_count(self) -> int:
        return len(self.online_servers())

    def server_arrays(self) -> ServerArrays:
        """Cached column view of the servers (the batched hot path).

        The cache is invalidated by :meth:`resize` and
        :meth:`set_version`; code that mutates ``Server`` objects
        directly must call :meth:`invalidate_arrays` afterwards.
        """
        if self._arrays is None or len(self._arrays.server_ids) != self.size:
            self._arrays = ServerArrays.from_servers(self.servers)
        return self._arrays

    def flush_arrays(self) -> None:
        """Write the cached column view's mutable state back to servers."""
        if self._arrays is not None and len(self._arrays.server_ids) == self.size:
            self._arrays.flush(self.servers)

    def invalidate_arrays(self) -> None:
        """Flush and drop the cached column view after a mutation."""
        self.flush_arrays()
        self._arrays = None

    def resize(self, n_servers: int, rng: np.random.Generator) -> None:
        """Grow or shrink the pool to ``n_servers`` total servers.

        Shrinking removes servers from the tail (drained and returned);
        growing clones the configuration of an existing server.  This is
        the experimental control variable of §II-B2.
        """
        if n_servers < 1:
            raise ValueError("cannot shrink a pool below one server")
        self.invalidate_arrays()
        if n_servers < self.size:
            del self.servers[n_servers:]
            return
        template = self.servers[-1]
        for i in range(self.size, n_servers):
            self.servers.append(
                Server(
                    server_id=f"{self.datacenter_id}.{self.pool_id}.s{i:04d}",
                    pool_id=self.pool_id,
                    datacenter_id=self.datacenter_id,
                    profile=self.profile,
                    hardware=template.hardware,
                    version=template.version,
                    noise_phase=int(rng.integers(0, 10_000)),
                )
            )

    def set_version(self, version: SoftwareVersion) -> None:
        """Deploy a software version to every server (instantaneous)."""
        # The restart resets working sets, so the stale cached column
        # view is dropped without flushing back.
        self._arrays = None
        for server in self.servers:
            server.version = version
            server.restart()
