"""Importable helpers for core-layer tests (kept out of conftest so
property tests can import them under pytest's rootdir-based sys.path)."""

from __future__ import annotations

from repro.core.cache import CachePolicy
from repro.core.engine import LookupEngine
from repro.core.fields import ARTICLE_SCHEMA
from repro.core.service import IndexService
from repro.dht.idspace import hash_key
from repro.dht.ring import IdealRing
from repro.net.transport import SimulatedTransport
from repro.storage.store import DHTStorage


def build_engine_stack(scheme, cache_policy=CachePolicy.NONE, cache_capacity=None):
    """A small ring + service + engine stack for search tests."""
    ring = IdealRing(64)
    for index in range(16):
        ring.add_node(hash_key(f"node-{index}", 64))
    transport = SimulatedTransport()
    service = IndexService(
        ARTICLE_SCHEMA,
        scheme,
        DHTStorage(ring),
        DHTStorage(ring),
        transport,
        cache_policy=cache_policy,
        cache_capacity=cache_capacity,
    )
    return service, LookupEngine(service, user="user:prop")


#: The two drivers of a service exchange, for tests parametrized over both.
DRIVERS = ("blocking", "kernel")


def run_exchange(driver, service, method, *args):
    """Run one service operation through the named driver.

    ``"blocking"`` calls ``service.<method>(*args)``.  ``"kernel"`` calls
    ``service.<method>_async`` on an event kernel with ``constant:0``
    latency, runs the kernel dry, and returns the outcome -- or raises
    it, when it is a :class:`DeliveryError`.
    """
    from repro.net.latency import parse_latency_model
    from repro.net.transport import DeliveryError
    from repro.sim.kernel import EventKernel

    if driver == "blocking":
        return getattr(service, method)(*args)
    transport = service.transport
    if transport.kernel is None:
        transport.bind_clock(EventKernel(), parse_latency_model("constant:0"))
    outcomes = []
    getattr(service, method + "_async")(*args, outcomes.append, outcomes.append)
    transport.kernel.run()
    (outcome,) = outcomes
    if isinstance(outcome, DeliveryError):
        raise outcome
    return outcome
