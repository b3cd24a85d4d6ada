"""The benchmark's four workloads: set-up, measured phase and checks.

Each workload turns ``--seed`` into the program's inputs (corpus,
query feed, chaos schedule, arrival script) and sizes its measured
phase from ``--seconds``.  ``setup()`` builds the system;
``run()`` measures it and returns a :class:`Outcome` holding the
end-to-end metrics, the outputs the checks compare, and the counts the
per-layer table normalises by.
"""

from __future__ import annotations

import asyncio
import math
import random
import threading
import time
from array import array
from dataclasses import dataclass, field, replace

from spans import CURRENT_REQUEST

#: Seed 0 reproduces the presets' own seeds exactly; seed n offsets them.
CORPUS_SEED, QUERY_SEED, CHURN_SEED = 2003, 42, 7

#: Sim feed length per requested second of measurement.
SIM_QUERIES_PER_SECOND = {"sim-paper": 1000, "sim-churn": 500}
#: The preset's chaos ratio: churn and crash events per query.
CHURN_EVENTS_PER_QUERY = 1 / 1000
CRASH_EVENTS_PER_QUERY = 1 / 5000
#: sim-churn's acceptance bar (the churn preset's own).
CHURN_MIN_SUCCESS = 0.95

WIRE_NODES = 8
#: wire-open's offered load: fixed, about a fifth of the single-process
#: knee (400-600 ops/s), leaving the loop about 20% busy.  Busier, a slow
#: spell of a shared host multiplies the queueing: at 130 ops/s the p95
#: ranged 7-19 ms over five runs, and at 240 ops/s the loop fell into
#: timeouts and retries.
WIRE_OPEN_RATE_HZ = 80.0
WIRE_OPEN_STORE_FRACTION = 0.25
WIRE_BASE_RECORDS = 200
WIRE_STORE_POOL = 2000
#: Time allowed after the last arrival for operations to complete.
WIRE_DRAIN_S = 15.0
#: Generator lateness beyond which a wire-open run is refused: past it
#: the loop is too busy to start operations on time, and the run no
#: longer offers the load it schedules.
LATE_P99_BOUND_MS = 50.0
LATE_MAX_BOUND_MS = 1000.0
#: wire-signed closed-loop phase lengths per requested second.
SIGNED_INSERTS_PER_SECOND = 60
SIGNED_LOOKUPS_PER_SECOND = 150


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


#: Latency percentiles computed for every kind of operation.
PERCENTILES = (50, 95, 99)


def latency_metrics(kind: str, samples_ms) -> dict[str, float]:
    """``<kind>_p<q>_ms`` for every q in :data:`PERCENTILES`."""
    return {
        f"{kind}_p{q}_ms": percentile(samples_ms, q / 100) for q in PERCENTILES
    }


@dataclass
class Outcome:
    """What one measured phase produced."""

    #: End-to-end metrics (all but ``setup_s`` and ``peak_rss_mb``).
    metrics: dict[str, float]
    #: Program outputs the checks compare (and the goldens record).
    outputs: dict[str, object]
    #: End-to-end operations of the measured phase, and those failed.
    attempted: int
    failed: int
    #: The operations' work, for the per-layer table.
    lookups: int
    interactions: int
    cache_hits: int
    bytes: int
    errors: int
    #: Sample counts behind the percentiles.
    samples: dict[str, int]
    extra: dict[str, float] = field(default_factory=dict)
    #: Failed output checks (empty when correct).
    problems: list[str] = field(default_factory=list)


# -- simulator workloads ------------------------------------------------------


class SimWorkload:
    """sim-paper and sim-churn: one :class:`Experiment`, fed in-process."""

    def __init__(self, name: str, seed: int, seconds: int) -> None:
        from repro.sim.presets import get_preset

        self.name = name
        self.seed = seed
        queries = SIM_QUERIES_PER_SECOND[name] * seconds
        seeds = dict(
            num_queries=queries,
            corpus_seed=CORPUS_SEED + seed,
            query_seed=QUERY_SEED + seed,
            churn_seed=CHURN_SEED + seed,
        )
        if name == "sim-paper":
            self.config = replace(get_preset("paper"), **seeds)
        else:
            self.config = replace(
                get_preset("concurrent"),
                churn_events=max(1, round(queries * CHURN_EVENTS_PER_QUERY)),
                crash_events=max(1, round(queries * CRASH_EVENTS_PER_QUERY)),
                **seeds,
            )
        self.experiment = None
        self.store_ns = array("q")
        #: Metrics of the set-up itself (``run.py`` takes their median
        #: over every set-up of a run, like ``setup_s``).
        self.setup_metrics: dict[str, float] = {}

    def setup(self) -> None:
        from repro.sim.experiment import Experiment

        self.experiment = Experiment(self.config)
        service = self.experiment.service
        insert = service.insert_record
        store_ns = self.store_ns
        clock = time.perf_counter_ns

        def timed_insert(*args, **kwargs):
            started = clock()
            try:
                return insert(*args, **kwargs)
            finally:
                store_ns.append(clock() - started)

        # Shadow the method on this instance only, for populate().
        service.insert_record = timed_insert
        started = time.perf_counter()
        try:
            self.experiment.populate()
        finally:
            del service.insert_record
        populate_s = time.perf_counter() - started
        stores_ms = [value / 1e6 for value in store_ns]
        self.setup_metrics = {
            "inserts_per_s": len(stores_ms) / populate_s,
            **latency_metrics("store", stores_ms),
        }

    def run(self) -> Outcome:
        experiment = self.experiment
        done_ns = array("q")
        clock = time.perf_counter_ns
        experiment.trace_sink = lambda trace: done_ns.append(clock())
        started = clock()
        result = experiment.run()
        ended = clock()
        run_s = (ended - started) / 1e9
        marks = [started, *done_ns]
        gaps_ms = [(b - a) / 1e6 for a, b in zip(marks, marks[1:])]
        searches = result.searches
        metrics = {
            "queries_per_s": searches / run_s,
            "lookups_per_s": searches / run_s,
            "success_rate": result.success_rate,
            **latency_metrics("lookup", gaps_ms),
            **self.setup_metrics,
        }
        outputs = {
            "searches": searches,
            "found": result.found,
            "avg_interactions": result.avg_interactions,
            "normal_bytes_total": result.normal_bytes_total,
            "index_storage_bytes": result.index_storage_bytes,
            "success_rate": result.success_rate,
            "response_time_ms_p50": result.response_time_ms_p50,
            "response_time_ms_p99": result.response_time_ms_p99,
        }
        problems = []
        if searches != self.config.num_queries or len(gaps_ms) != searches:
            problems.append(
                f"{searches} lookups completed of {self.config.num_queries}"
            )
        if self.name == "sim-paper":
            # No chaos: every lookup must find its target.
            failed = searches - result.found
            if failed:
                problems.append(f"{failed} lookups did not find their target")
        else:
            # Lookups lost to injected faults are this workload's
            # measured outcome (success_rate), not a program failure.
            failed = 0
            if result.success_rate < CHURN_MIN_SUCCESS:
                problems.append(
                    f"success rate {result.success_rate} below "
                    f"{CHURN_MIN_SUCCESS}"
                )
        meter = experiment.transport.meter
        return Outcome(
            metrics=metrics,
            outputs=outputs,
            attempted=searches,
            failed=failed,
            lookups=searches,
            interactions=result.total_interactions,
            cache_hits=result.cache_hits,
            bytes=meter.total_bytes,
            errors=searches - result.found,
            samples={"lookup": len(gaps_ms), "store": len(self.store_ns)},
            extra={"run_s": run_s},
            problems=problems,
        )

    def close(self) -> None:
        if self.experiment is not None:
            self.experiment.close()


# -- wire workloads -----------------------------------------------------------


def _entry_classes(client) -> list[tuple[str, ...]]:
    return sorted(tuple(sorted(keyset)) for keyset in client.scheme.entry_classes())


class _LoopTimers:
    """The kernel ``post`` surface ``LookupEngine.start_async`` needs,
    over a real asyncio loop (retry backoff becomes a loop timer)."""

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop

    def post(self, delay_ms: float, fn) -> None:
        self._loop.call_later(delay_ms / 1000.0, fn)


class WireOpen:
    """8 unsigned daemons driven open-loop through one client socket.

    The client shares the daemons' event loop, so one loop thread does
    all the work and no latency waits on a hand-off between threads
    (with a second loop thread, a busy host tripled the p95 from one
    run to the next).
    """

    name = "wire-open"
    setup_metrics: dict[str, float] = {}

    def __init__(self, seed: int, seconds: int) -> None:
        self.seed = seed
        self.seconds = seconds
        self.cluster = None
        self.client = None

    def setup(self) -> None:
        from repro.rpc.cluster import LocalCluster
        from repro.workload.corpus import CorpusConfig, SyntheticCorpus

        corpus = SyntheticCorpus(
            CorpusConfig(
                num_articles=WIRE_BASE_RECORDS + WIRE_STORE_POOL,
                num_authors=(WIRE_BASE_RECORDS + WIRE_STORE_POOL) * 2 // 5,
                seed=CORPUS_SEED + self.seed,
            )
        )
        self.base = corpus.records[:WIRE_BASE_RECORDS]
        self.pool = corpus.records[WIRE_BASE_RECORDS:]
        self.cluster = LocalCluster(
            WIRE_NODES, substrate="chord", cache="multi", replication=1
        ).start()
        self.client = self.cluster.client(user="perfbench:open")
        for record in self.base:
            self.client.insert_record(record)

    def schedule(self):
        from repro.loadgen.schedule import stage_schedule

        return stage_schedule(
            self.seed, 0, 0, WIRE_OPEN_RATE_HZ, float(self.seconds),
            store_fraction=WIRE_OPEN_STORE_FRACTION,
            num_store_records=len(self.pool),
            num_base_records=len(self.base),
            num_entry_classes=len(_entry_classes(self.client)),
        )

    def run(self) -> Outcome:
        from repro import perf
        from repro.core.query import FieldQuery
        from repro.loadgen.schedule import STORE, schedule_digest
        from repro.net.message import Message, MessageKind
        from repro.net.transport import DeliveryError

        client = self.client
        ops = self.schedule()
        classes = _entry_classes(client)
        n = len(ops)
        latency_ms = [0.0] * n
        late_ms = [0.0] * n
        completions = [0] * n
        dispatched: list = [None] * n
        status = {"not_found": 0, "gave_up": 0, "delivery_errors": 0,
                  "cache_hits": 0, "interactions": 0}
        finished = threading.Event()
        left = [n]
        window: list[float] = []

        # Set on the loop thread when the run starts.
        loop: asyncio.AbstractEventLoop = None
        timers: _LoopTimers = None

        def complete(index: int, due: float, outcome: str = "") -> None:
            completions[index] += 1
            if completions[index] > 1:
                return
            latency_ms[index] = (loop.time() - due) * 1000.0
            if outcome:
                status[outcome] += 1
            left[0] -= 1
            if not left[0]:
                window.append(loop.time())
                finished.set()

        def dispatch(index: int, due: float) -> None:
            op = ops[index]
            late_ms[index] = (loop.time() - due) * 1000.0
            dispatched[index] = op
            CURRENT_REQUEST.set(index + 1)
            if op.kind == STORE:
                messages = client.insert_messages(self.pool[op.record_index])

                async def store() -> None:
                    results = await client.transport.request_many(messages)
                    failed = any(isinstance(r, DeliveryError) for r in results)
                    complete(index, due, "delivery_errors" if failed else "")

                loop.create_task(store())
                return
            record = self.base[op.record_index]
            query = FieldQuery.msd_of(record).restrict(
                list(classes[op.entry_class])
            )

            def on_complete(trace) -> None:
                status["interactions"] += trace.interactions
                status["cache_hits"] += int(trace.cache_hit)
                if trace.gave_up:
                    outcome = "gave_up"
                elif not trace.found:
                    outcome = "not_found"
                else:
                    outcome = ""
                complete(index, due, outcome)

            client.engine.start_async(query, record, timers, on_complete)

        def arm(reply) -> None:
            nonlocal loop, timers
            loop = asyncio.get_running_loop()
            timers = _LoopTimers(loop)
            origin = loop.time() + 0.05
            window.append(origin)
            for index, op in enumerate(ops):
                loop.call_at(origin + op.at_s, dispatch, index, origin + op.at_s)

        bytes_before = perf.counters.rpc_bytes_sent
        # The cluster exposes no handle on its loop: a ping's reply
        # callback runs on it, and arms the arrival timers there.
        start = Message(
            kind=MessageKind.CONTROL,
            source=client.engine.user,
            destination=self.cluster.daemons[0].control_name,
            payload=("ping",),
        )
        client.transport.send_async(start, arm, lambda error: finished.set())
        finished.wait(timeout=self.seconds + WIRE_DRAIN_S + 1.0)
        # Read the accounting on the loop thread, after the deadline.
        snapshot: dict = {"completions": completions, "window": window,
                          "status": status}
        if loop is not None:
            taken = threading.Event()

            def take() -> None:
                snapshot.update(
                    completions=list(completions), window=list(window),
                    status=dict(status),
                )
                taken.set()

            loop.call_soon_threadsafe(take)
            taken.wait(timeout=10.0)
        completions_seen = snapshot["completions"]
        done = [i for i in range(n) if completions_seen[i]]
        lost = n - len(done)
        duplicates = sum(count - 1 for count in completions_seen if count > 1)
        stat = snapshot["status"]
        if len(snapshot["window"]) == 2:
            window_s = snapshot["window"][1] - snapshot["window"][0]
        else:
            window_s = self.seconds + WIRE_DRAIN_S
        stores = [i for i in done if ops[i].kind == STORE]
        lookups = [i for i in done if ops[i].kind != STORE]
        errors = (
            stat["not_found"] + stat["gave_up"] + stat["delivery_errors"] + lost
        )
        metrics = {
            "queries_per_s": len(done) / window_s,
            "lookups_per_s": len(lookups) / window_s,
            "inserts_per_s": len(stores) / window_s,
            "success_rate": (n - errors) / n,
            **latency_metrics("lookup", [latency_ms[i] for i in lookups]),
            **latency_metrics("store", [latency_ms[i] for i in stores]),
        }
        problems = []
        if duplicates:
            problems.append(f"{duplicates} operations completed twice")
        # Every scheduled operation dispatched exactly as generated: the
        # dispatched script digests equal to a fresh generation of it.
        if schedule_digest([op for op in dispatched if op is not None]) != (
            schedule_digest(self.schedule())
        ):
            problems.append("dispatched operations differ from the schedule")
        late_p99 = percentile(late_ms, 0.99)
        late_max = max(late_ms)
        if late_p99 > LATE_P99_BOUND_MS or late_max > LATE_MAX_BOUND_MS:
            problems.append(
                f"generator ran late: p99 {late_p99:.1f} ms, "
                f"max {late_max:.1f} ms"
            )
        return Outcome(
            metrics=metrics,
            outputs={
                "scheduled": n,
                "completed": len(done),
                "duplicates": duplicates,
                "lost": lost,
                **stat,
            },
            attempted=n,
            failed=errors,
            lookups=len(lookups),
            interactions=stat["interactions"],
            cache_hits=stat["cache_hits"],
            bytes=perf.counters.rpc_bytes_sent - bytes_before,
            errors=errors,
            samples={"lookup": len(lookups), "store": len(stores)},
            extra={
                "run_s": window_s,
                "late_p99_ms": late_p99,
                "late_max_ms": late_max,
            },
            problems=problems,
        )

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.cluster is not None:
            self.cluster.stop()


class WireSigned:
    """8 signed daemons; one closed-loop client on the caller's thread."""

    name = "wire-signed"
    setup_metrics: dict[str, float] = {}

    def __init__(self, seed: int, seconds: int) -> None:
        self.seed = seed
        self.inserts = SIGNED_INSERTS_PER_SECOND * seconds
        self.lookups = SIGNED_LOOKUPS_PER_SECOND * seconds
        self.cluster = None
        self.client = None

    def setup(self) -> None:
        from repro.rpc.cluster import LocalCluster
        from repro.workload.corpus import CorpusConfig, SyntheticCorpus

        self.records = SyntheticCorpus(
            CorpusConfig(
                num_articles=self.inserts,
                num_authors=max(1, self.inserts * 2 // 5),
                seed=CORPUS_SEED + self.seed,
            )
        ).records
        self.cluster = LocalCluster(
            WIRE_NODES, substrate="chord", cache="none", signed=True
        ).start()
        self.client = self.cluster.client(user="perfbench:signed")

    def run(self) -> Outcome:
        from repro import perf
        from repro.core.query import FieldQuery
        from repro.net.transport import DeliveryError, TransportError

        client = self.client
        before = perf.snapshot()
        clock = time.perf_counter_ns
        insert_ms = []
        insert_errors = 0
        started = clock()
        for record in self.records:
            began = clock()
            try:
                client.insert_record(record)
            except (DeliveryError, TransportError):
                insert_errors += 1
            insert_ms.append((clock() - began) / 1e6)
        insert_s = (clock() - started) / 1e9
        rng = random.Random(f"perfbench:{self.seed}:lookups")
        classes = _entry_classes(client)
        lookup_ms = []
        found = interactions = 0
        started = clock()
        for _ in range(self.lookups):
            record = self.records[rng.randrange(len(self.records))]
            query = FieldQuery.msd_of(record).restrict(
                list(classes[rng.randrange(len(classes))])
            )
            began = clock()
            trace = client.search(query, record)
            lookup_ms.append((clock() - began) / 1e6)
            found += int(trace.found)
            interactions += trace.interactions
        lookup_s = (clock() - started) / 1e9
        counts = perf.delta(before, perf.snapshot())
        attempted = self.inserts + self.lookups
        failed = insert_errors + self.lookups - found
        metrics = {
            "queries_per_s": attempted / (insert_s + lookup_s),
            "lookups_per_s": self.lookups / lookup_s,
            "inserts_per_s": self.inserts / insert_s,
            "success_rate": (attempted - failed) / attempted,
            **latency_metrics("lookup", lookup_ms),
            **latency_metrics("store", insert_ms),
        }
        problems = []
        if found != self.lookups:
            problems.append(f"{self.lookups - found} lookups missed their target")
        if insert_errors:
            problems.append(f"{insert_errors} inserts failed")
        if counts["sec_verify_failures"]:
            problems.append(
                f"{counts['sec_verify_failures']} signature verifications failed"
            )
        if not counts["sec_verify_calls"]:
            problems.append("no frame signature was verified")
        return Outcome(
            metrics=metrics,
            outputs={
                "inserts": self.inserts,
                "lookups": self.lookups,
                "found": found,
                "sec_verify_failures": counts["sec_verify_failures"],
            },
            attempted=attempted,
            failed=failed,
            lookups=self.lookups,
            interactions=interactions,
            cache_hits=0,
            bytes=counts["rpc_bytes_sent"],
            errors=failed,
            samples={"lookup": len(lookup_ms), "store": len(insert_ms)},
            extra={"run_s": insert_s + lookup_s},
            problems=problems,
        )

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.cluster is not None:
            self.cluster.stop()


def make(name: str, seed: int, seconds: int):
    """The workload object for a name."""
    if name in SIM_QUERIES_PER_SECOND:
        return SimWorkload(name, seed, seconds)
    if name == "wire-open":
        return WireOpen(seed, seconds)
    if name == "wire-signed":
        return WireSigned(seed, seconds)
    raise ValueError(f"unknown workload {name!r}")
