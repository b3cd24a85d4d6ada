"""Which public functions the traced run wraps, and the per-layer table.

:func:`install` wraps, from outside the program, the public entry
points of every layer the workloads exercise; :func:`layer_metrics`
turns the recorded spans, boundary counts and ``repro.perf`` counter
deltas of one traced run into the per-layer metrics of BENCHMARK.json.

Every count and time is normalised per end-to-end operation of the
measured phase (``_per_op``), per frame, per inserted record or per
churn event, as its name says; names without such a suffix are raw
counts or ratios for the whole run.  The ``repro.perf`` counters are one
process-wide singleton, so on the wire workloads they sum the client and
all daemons; so do the span totals, since the daemons run in the same
process.
"""

from __future__ import annotations

from typing import Callable

from spans import SpanRecorder, patch_function, patch_method

def install(recorder: SpanRecorder) -> list:
    """Wrap every layer boundary; returns the undo list for
    :func:`spans.restore`."""
    from repro.core.cache import NodeCache
    from repro.core.engine import LookupEngine
    from repro.core.query import FieldQuery
    from repro.core.service import IndexService
    from repro.dht.base import DHTProtocol
    from repro.dht.can import CANNetwork
    from repro.dht.chord import ChordNetwork
    from repro.dht.kademlia import KademliaNetwork
    from repro.dht.pastry import PastryNetwork
    from repro.dht.ring import IdealRing
    from repro.net.faults import FaultyTransport
    from repro.net.traffic import TrafficMeter
    from repro.rpc import transport as rpc_transport
    from repro.rpc.cluster import ClusterClient
    from repro.rpc.transport import AsyncioTransport
    from repro.sec import entries as sec_entries
    from repro.sec.identity import NodeIdentity
    from repro.sim.kernel import EventKernel
    from repro.storage.store import DHTStorage
    from repro.workload.corpus import SyntheticCorpus
    from repro.workload.querygen import QueryGenerator

    undo: list = []

    def span(name: str) -> Callable[[Callable], Callable]:
        return lambda fn: recorder.wrap(name, fn)

    def request(name: str) -> Callable[[Callable], Callable]:
        return lambda fn: recorder.wrap(name, fn, request=True)

    def count(name: str) -> Callable[[Callable], Callable]:
        return lambda fn: recorder.counted(name, fn)

    # repro.workload
    patch_method(undo, SyntheticCorpus, "__init__", span("workload.corpus"))
    patch_method(undo, QueryGenerator, "__init__", span("workload.querygen"))
    patch_method(
        undo, QueryGenerator, "generate",
        lambda fn: recorder.wrap_steps("workload.querygen", fn),
    )
    # repro.core.engine: the synchronous search, the kernel/asyncio
    # search, and every resumption of the search state machine.
    for attr in ("search", "start_async"):
        patch_method(undo, LookupEngine, attr, request("engine.search"))
    patch_method(
        undo, LookupEngine, "search_steps",
        lambda fn: recorder.wrap_steps("engine.search", fn),
    )
    # repro.core.query
    patch_method(undo, FieldQuery, "parse", span("query.parse"))
    patch_method(undo, FieldQuery, "key", count("query.key"))
    # repro.core.service
    patch_method(undo, IndexService, "insert_record", span("service.insert_record"))
    for attr in ("query_key", "query_key_async"):
        patch_method(undo, IndexService, attr, span("service.query_key"))
    for attr in ("fetch_file", "fetch_file_async"):
        patch_method(undo, IndexService, attr, span("service.fetch_file"))
    # repro.core.cache: every shortcut a node's cache accepts.
    patch_method(undo, NodeCache, "insert", count("cache.shortcut_inserts"))
    # repro.storage: reads (the handlers' node-local reads included),
    # placement, and churn repair.
    for attr in ("get", "values_at"):
        patch_method(undo, DHTStorage, attr, span("storage.get"))
    patch_method(
        undo, DHTStorage, "responsible_nodes", span("storage.responsible_nodes")
    )
    patch_method(undo, DHTStorage, "repair", span("storage.repair"))
    # repro.dht
    for substrate in (IdealRing, ChordNetwork, KademliaNetwork,
                      PastryNetwork, CANNetwork):
        patch_method(undo, substrate, "lookup", span("dht.lookup"))
        if "remove_node" in substrate.__dict__:
            patch_method(undo, substrate, "remove_node", count("churn.events"))
    patch_method(undo, DHTProtocol, "is_alive", count("dht.is_alive"))
    # repro.net
    for attr in ("send", "send_async"):
        patch_method(undo, FaultyTransport, attr, span("net.send"))
    patch_method(undo, TrafficMeter, "record", span("net.traffic.record"))
    # repro.sim.kernel: the scheduler class is private, so find it
    # through the public constructor.
    for scheduler in ("heap", "wheel"):
        kernel_class = type(EventKernel(scheduler=scheduler))
        patch_method(undo, kernel_class, "step", _kernel_step(recorder))
    # repro.rpc.codec, wrapped where the transport calls it.
    for attr in ("encode_message", "encode_frame", "sign_frame"):
        patch_function(undo, [rpc_transport], attr, span("codec.encode"))
    for attr in ("decode_message", "decode_frame_signed"):
        patch_function(undo, [rpc_transport], attr, span("codec.decode"))
    # repro.rpc.transport: requests, blocking cross-thread hops, and
    # the daemons' endpoint callables (own root spans).
    patch_method(
        undo, AsyncioTransport, "request",
        lambda fn: recorder.wrap_async("rpc.request", fn),
    )
    for attr in ("send", "send_many"):
        patch_method(undo, AsyncioTransport, attr, span("cluster.hop"))
    patch_method(undo, ClusterClient, "insert_record", request("client.insert_record"))
    patch_method(undo, AsyncioTransport, "register", _wrapping_register(recorder))
    # repro.sec
    patch_method(undo, NodeIdentity, "sign", span("sec.sign"))
    patch_function(
        undo, [rpc_transport, sec_entries], "verify_signature", span("sec.verify")
    )
    return undo


def _kernel_step(recorder: SpanRecorder) -> Callable[[Callable], Callable]:
    """``kernel.step`` spans plus the largest pending-event count."""

    def make(fn: Callable) -> Callable:
        timed = recorder.wrap("kernel.step", fn)
        peak = recorder.gauges

        def step(self):
            ran = timed(self)
            pending = self.pending
            if pending > peak.get("kernel.pending_max", 0):
                peak["kernel.pending_max"] = pending
            return ran

        return step

    return make


def _wrapping_register(recorder: SpanRecorder) -> Callable[[Callable], Callable]:
    def make(register: Callable) -> Callable:
        def wrapper(self, name, endpoint):
            return register(
                self, name, recorder.wrap("daemon.handler", endpoint, root=True)
            )

        return wrapper

    return make


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    run: dict[str, dict[str, float]],
    setup: dict[str, dict[str, float]],
    traced: dict,
) -> dict[str, float]:
    """The per-layer metrics of one traced run.

    ``run``/``setup`` are :func:`spans.summarize` tables of the measured
    phase and of set-up; ``traced`` is the traced child's result: its
    outcome (operations, interactions, ...), the measured phase's
    boundary counts and ``repro.perf`` deltas, and the gauges.
    """
    outcome, counts, perf = traced["outcome"], traced["counts"], traced["perf"]
    extra = outcome["extra"]
    ops = outcome["attempted"]

    def calls(name: str) -> int:
        return run.get(name, {}).get("calls", 0)

    def self_us(name: str, table: dict = run) -> float:
        return table.get(name, {}).get("self_ns", 0) / 1e3

    def per_op(value: float) -> float:
        return _ratio(value, ops)

    frames = perf.get("rpc_udp_frames", 0) + perf.get("rpc_tcp_frames", 0)
    events = counts.get("churn.events", 0)
    inserts = setup.get("service.insert_record", {}).get("calls", 0)
    repair = run.get("storage.repair", {})
    both = {
        name: {
            key: setup.get(name, {}).get(key, 0) + run.get(name, {}).get(key, 0)
            for key in ("calls", "self_ns")
        }
        for name in ("workload.corpus", "workload.querygen")
    }
    metrics = {
        "workload.corpus.self_ms": self_us("workload.corpus", both) / 1e3,
        "workload.querygen.self_ms": self_us("workload.querygen", both) / 1e3,
        "service.insert_record.self_us_per_record": _ratio(
            self_us("service.insert_record", setup), inserts
        ),
        "service.insert_record.calls": inserts,
        "engine.search.self_us_per_op": per_op(self_us("engine.search")),
        "engine.interactions_per_op": per_op(outcome["interactions"]),
        "engine.retries_per_op": per_op(perf.get("engine_retries", 0)),
        "engine.gave_up": perf.get("engine_gave_up", 0),
        "query.parse.calls_per_op": per_op(calls("query.parse")),
        "query.parse.self_us_per_op": per_op(self_us("query.parse")),
        "query.parse.cache_hit_ratio": _ratio(
            perf.get("field_parse_cache_hits", 0), perf.get("field_parse_calls", 0)
        ),
        "query.key.calls_per_op": per_op(counts.get("query.key", 0)),
        "service.query_key.self_us_per_op": per_op(self_us("service.query_key")),
        "service.fetch_file.self_us_per_op": per_op(self_us("service.fetch_file")),
        "service.failovers_per_op": per_op(perf.get("service_failovers", 0)),
        "cache.hit_ratio": _ratio(outcome["cache_hits"], outcome["lookups"]),
        "cache.shortcut_inserts_per_op": per_op(
            counts.get("cache.shortcut_inserts", 0)
        ),
        "storage.get.self_us_per_op": per_op(self_us("storage.get")),
        "storage.responsible_nodes.calls_per_op": per_op(
            calls("storage.responsible_nodes")
        ),
        "storage.failovers_per_op": per_op(perf.get("storage_failovers", 0)),
        "storage.repair.self_ms_per_event": _ratio(
            repair.get("self_ns", 0) / 1e6, events
        ),
        "storage.repair.share": _ratio(
            repair.get("total_ns", 0), extra["run_s"] * 1e9
        ),
        "storage.repair.keys_repaired_per_event": _ratio(
            perf.get("storage_repair_keys", 0), events
        ),
        "dht.lookup.calls_per_op": per_op(calls("dht.lookup")),
        "dht.lookup.self_us_per_op": per_op(self_us("dht.lookup")),
        "dht.is_alive.calls_per_op": per_op(counts.get("dht.is_alive", 0)),
        "net.send.calls_per_op": per_op(calls("net.send")),
        "net.send.self_us_per_op": per_op(self_us("net.send")),
        "net.traffic.record.self_us_per_op": per_op(self_us("net.traffic.record")),
        "net.bytes_per_op": per_op(outcome["bytes"]),
        "net.faults.drops_per_op": per_op(perf.get("fault_drops", 0)),
        "net.faults.crashed_sends_per_op": per_op(
            perf.get("fault_crashed_sends", 0)
        ),
        "kernel.events_per_op": per_op(calls("kernel.step")),
        "kernel.step.self_us_per_op": per_op(self_us("kernel.step")),
        "kernel.pending_max": traced["gauges"].get("kernel.pending_max", 0),
        "codec.frames_per_op": per_op(frames),
        "codec.bytes_per_frame": _ratio(perf.get("rpc_bytes_sent", 0), frames),
        "codec.encode.self_us_per_frame": _ratio(self_us("codec.encode"), frames),
        "codec.decode.self_us_per_frame": _ratio(self_us("codec.decode"), frames),
        "rpc.request.calls_per_op": per_op(calls("rpc.request")),
        "rpc.request.wait_us_per_op": per_op(self_us("rpc.request")),
        "rpc.retries_per_op": per_op(perf.get("rpc_retries", 0)),
        "rpc.timeouts_per_op": per_op(perf.get("rpc_timeouts", 0)),
        "rpc.tcp_connects": perf.get("rpc_tcp_connects", 0),
        "daemon.handler.calls_per_op": per_op(calls("daemon.handler")),
        "daemon.handler.self_us_per_op": per_op(self_us("daemon.handler")),
        "cluster.hop.calls_per_op": per_op(calls("cluster.hop")),
        "cluster.hop.wait_us_per_op": per_op(
            run.get("cluster.hop", {}).get("total_ns", 0) / 1e3
        ),
        "sec.sign.calls_per_op": per_op(calls("sec.sign")),
        "sec.sign.self_us_per_op": per_op(self_us("sec.sign")),
        "sec.verify.calls_per_op": per_op(calls("sec.verify")),
        "sec.verify.self_us_per_op": per_op(self_us("sec.verify")),
        "gen.late_p99_ms": extra.get("late_p99_ms", 0.0),
        "gen.late_max_ms": extra.get("late_max_ms", 0.0),
        "error_rate": _ratio(outcome["errors"], ops),
    }
    return metrics
