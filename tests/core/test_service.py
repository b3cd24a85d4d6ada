"""Unit tests for the distributed index service."""

import pytest

from conftest_helpers import run_exchange
from repro import perf
from repro.core.cache import CachePolicy
from repro.core.fields import ARTICLE_SCHEMA
from repro.core.query import FieldQuery
from repro.core.scheme import complex_scheme, flat_scheme, simple_scheme
from repro.core.service import IndexService, QueryAnswer
from repro.dht.idspace import hash_key
from repro.dht.ring import IdealRing
from repro.net.adversary import ROLE_POISONER, AdversarialTransport
from repro.net.transport import SimulatedTransport
from repro.sec import TrustLedger
from repro.storage.store import DHTStorage

@pytest.fixture
def service(paper_records, service_factory):
    service = service_factory()
    for record in paper_records:
        service.insert_record(record)
    return service


class TestInsertion:
    def test_file_stored_under_msd(self, service, paper_records):
        msd = FieldQuery.msd_of(paper_records[0])
        assert msd.key() in service.file_store

    def test_index_mappings_created(self, service, paper_records):
        author = FieldQuery.of_record(paper_records[0], ["author"])
        values = service.index_store.values(author.key())
        author_title = FieldQuery.of_record(paper_records[0], ["author", "title"])
        assert author_title.key() in values

    def test_shared_entries_deduplicated(self, service, paper_records):
        """d2 and d3 share INFOCOM/1996: one conf->conf+year mapping."""
        conf = FieldQuery(ARTICLE_SCHEMA, {"conf": "INFOCOM"})
        values = service.index_store.values(conf.key())
        assert len(values) == len(set(values)) == 1

    def test_query_returns_all_matching_entries(self, service, paper_records):
        author = FieldQuery(ARTICLE_SCHEMA, {"author": "John_Smith"})
        answer = service.query(author, user="user:test")
        assert len(answer.entries) == 2  # TCP and IPv6 author+title pairs


class TestQueryAndFetch:
    def test_query_unknown_key_is_empty(self, service):
        ghost = FieldQuery(ARTICLE_SCHEMA, {"author": "Nobody_Here"})
        answer = service.query(ghost, user="user:test")
        assert answer.empty

    def test_fetch_file(self, service, paper_records):
        msd = FieldQuery.msd_of(paper_records[0])
        node, found = service.fetch_file(msd, user="user:test")
        assert found
        assert node in service.file_store.protocol.node_ids

    def test_fetch_missing_file(self, service, paper_records):
        fake = FieldQuery.msd_of(paper_records[0]).extend({})
        service.file_store.remove_key(fake.key())
        _, found = service.fetch_file(fake, user="user:test")
        assert not found

    def test_query_traffic_metered(self, service, paper_records):
        before = service.transport.meter.normal_bytes
        author = FieldQuery(ARTICLE_SCHEMA, {"author": "John_Smith"})
        service.query(author, user="user:test")
        assert service.transport.meter.normal_bytes > before


class TestCachingPath:
    def test_shortcut_roundtrip(self, paper_records, service_factory):
        service = service_factory(cache_policy=CachePolicy.SINGLE)
        for record in paper_records:
            service.insert_record(record)
        author = FieldQuery(ARTICLE_SCHEMA, {"author": "John_Smith"})
        msd = FieldQuery.msd_of(paper_records[0])
        node = service.index_store.responsible_nodes(author.key())[0]
        service.insert_shortcut(node, author.key(), msd.key(), user="user:test")
        answer = service.query(author, user="user:test")
        assert msd.key() in answer.shortcuts
        assert msd.key() not in answer.entries

    def test_shortcut_counts_as_cache_traffic(self, paper_records, service_factory):
        service = service_factory(cache_policy=CachePolicy.SINGLE)
        service.insert_record(paper_records[0])
        author = FieldQuery(ARTICLE_SCHEMA, {"author": "John_Smith"})
        msd = FieldQuery.msd_of(paper_records[0])
        node = service.index_store.responsible_nodes(author.key())[0]
        before = service.transport.meter.cache_bytes
        service.insert_shortcut(node, author.key(), msd.key(), user="user:test")
        assert service.transport.meter.cache_bytes > before

    def test_shortcut_noop_without_policy(self, service, paper_records):
        author = FieldQuery(ARTICLE_SCHEMA, {"author": "John_Smith"})
        msd = FieldQuery.msd_of(paper_records[0])
        node = service.index_store.responsible_nodes(author.key())[0]
        service.insert_shortcut(node, author.key(), msd.key(), user="user:test")
        assert service.transport.meter.cache_bytes == 0
        assert service.query(author, user="user:test").shortcuts == []

    def test_permanent_shortcut_mapping(self, service, paper_records):
        service.insert_shortcut_mapping(paper_records[0], ["author"])
        author = FieldQuery(ARTICLE_SCHEMA, {"author": "John_Smith"})
        answer = service.query(author, user="user:test")
        msd = FieldQuery.msd_of(paper_records[0])
        assert msd.key() in answer.entries


class TestDeletion:
    def test_delete_removes_file_and_exclusive_entries(
        self, service, paper_records
    ):
        service.delete_record(paper_records[0])
        msd = FieldQuery.msd_of(paper_records[0])
        assert msd.key() not in service.file_store
        title = FieldQuery(ARTICLE_SCHEMA, {"title": "TCP"})
        assert service.query(title, user="user:test").empty

    def test_delete_preserves_shared_entries(self, service, paper_records):
        service.delete_record(paper_records[1])  # IPv6 (INFOCOM 1996)
        conf = FieldQuery(ARTICLE_SCHEMA, {"conf": "INFOCOM"})
        answer = service.query(conf, user="user:test")
        assert not answer.empty  # Wavelets still reachable

    def test_delete_preserves_author_for_remaining_articles(
        self, service, paper_records
    ):
        service.delete_record(paper_records[0])  # TCP
        author = FieldQuery(ARTICLE_SCHEMA, {"author": "John_Smith"})
        answer = service.query(author, user="user:test")
        assert len(answer.entries) == 1  # only IPv6 left

    def test_delete_unknown_record(self, service, paper_records):
        service.delete_record(paper_records[0])
        from repro.core.service import IndexServiceError

        with pytest.raises(IndexServiceError):
            service.delete_record(paper_records[0])

    def test_delete_then_reinsert(self, service, paper_records):
        service.delete_record(paper_records[0])
        service.insert_record(paper_records[0])
        title = FieldQuery(ARTICLE_SCHEMA, {"title": "TCP"})
        assert not service.query(title, user="user:test").empty


class TestReplicaFailover:
    """Failover and trust penalties are one policy run by two drivers."""

    #: Counters the exchange policy moves (the kernel driver additionally
    #: moves kernel and routing counters, which are left out).
    POLICY_COUNTERS = (
        "service_queries", "service_file_fetches", "service_failovers",
        "fault_crashed_sends", "sec_verify_failures", "sec_trust_updates",
    )

    def scenario(self, paper_records, driver):
        """Queries and fetches for every record over replication 3, with
        one node crashed and another forging; returns what is observable:
        outcomes, policy counters, trust scores, sends, the forger."""
        ring = IdealRing(64)
        for index in range(12):
            ring.add_node(hash_key(f"peer-{index}", 64))
        transport = AdversarialTransport(SimulatedTransport(), verify=True)
        trust = TrustLedger()
        service = IndexService(
            ARTICLE_SCHEMA, simple_scheme(),
            DHTStorage(ring, replication=3), DHTStorage(ring, replication=3),
            transport, trust=trust,
        )
        for record in paper_records:
            service.insert_record(record)
        # Five ring positions apart: no key has both among its replicas.
        nodes = sorted(ring.node_ids)
        crashed = IndexService.endpoint_name(nodes[0])
        forger = IndexService.endpoint_name(nodes[5])
        transport.fail_node(crashed)
        transport.mark(forger, ROLE_POISONER)
        before = perf.snapshot()
        outcomes = []
        for _ in range(3):  # rotate each replica to the front
            for record in paper_records:
                for fields in (["author"], ["conf"], ["author", "title"]):
                    query = FieldQuery.of_record(record, fields)
                    outcomes.append(
                        run_exchange(driver, service, "query", query, "u")
                    )
                msd = FieldQuery.msd_of(record)
                outcomes.append(
                    run_exchange(driver, service, "fetch_file", msd, "u")
                )
        moved = perf.delta(before, perf.snapshot())
        counts = {name: moved[name] for name in self.POLICY_COUNTERS}
        scores = {peer: trust.score(peer) for peer in trust.known_peers()}
        return outcomes, counts, scores, transport.sends, forger

    def test_both_drivers_agree(self, paper_records):
        blocking = self.scenario(paper_records, "blocking")
        assert self.scenario(paper_records, "kernel") == blocking
        outcomes, counts, scores, _, forger = blocking
        assert counts["service_failovers"] > 0
        assert counts["fault_crashed_sends"] > 0
        assert counts["sec_verify_failures"] > 0
        # Failover hides both faults from the caller ...
        for outcome in outcomes:
            if isinstance(outcome, QueryAnswer):
                assert not outcome.empty
            else:
                assert outcome[1]  # the file was found
        # ... and only the forger is penalized: a crash is benign.
        penalized = [peer for peer, score in scores.items() if score < 1.0]
        assert penalized == [forger]


class TestStatistics:
    def test_cache_sizes_empty_without_policy(self, service):
        assert all(size == 0 for size in service.cache_sizes().values())

    def test_cache_occupancy(self, paper_records, service_factory):
        service = service_factory(
            cache_policy=CachePolicy.LRU, cache_capacity=1, num_nodes=4
        )
        service.insert_record(paper_records[0])
        empty, full, total = service.cache_occupancy()
        assert total == 4 and empty == 4 and full == 0

    def test_index_keys_per_node_counts_entries(self, service):
        per_node = service.index_keys_per_node()
        # 3 records x 6 simple-scheme mappings, minus 1 shared INFOCOM
        # pair mapping... plus 3 files.
        total_expected = (
            service.index_store.total_entries() + service.file_store.total_entries()
        )
        assert sum(per_node.values()) == total_expected

    def test_index_storage_bytes_positive(self, service):
        assert service.index_storage_bytes() > 0

    def test_scheme_comparison_storage(self, paper_records, service_factory):
        """Flat must cost more index bytes than simple (Section V-B)."""
        sizes = {}
        for name, scheme in (
            ("simple", simple_scheme()),
            ("flat", flat_scheme()),
            ("complex", complex_scheme()),
        ):
            service = service_factory(scheme=scheme)
            for record in paper_records:
                service.insert_record(record)
            sizes[name] = service.index_storage_bytes()
        assert sizes["flat"] > sizes["simple"]


class TestValidation:
    def test_mismatched_substrates_rejected(self, ring_factory):
        from repro.core.service import IndexService, IndexServiceError
        from repro.net.transport import SimulatedTransport
        from repro.storage.store import DHTStorage

        with pytest.raises(IndexServiceError):
            IndexService(
                ARTICLE_SCHEMA,
                simple_scheme(),
                DHTStorage(ring_factory()),
                DHTStorage(ring_factory()),
                SimulatedTransport(),
            )


class TestFileLevelQuery:
    def test_msd_query_reports_file(self, service, paper_records):
        """Section IV-B: the node returns f when q is f's MSD."""
        msd = FieldQuery.msd_of(paper_records[0])
        answer = service.query(msd, user="user:test")
        assert answer.file_found
        assert not answer.empty

    def test_msd_query_after_delete_reports_nothing(self, service, paper_records):
        msd = FieldQuery.msd_of(paper_records[0])
        service.delete_record(paper_records[0])
        answer = service.query(msd, user="user:test")
        assert not answer.file_found

    def test_non_msd_query_has_no_file_marker(self, service):
        author = FieldQuery(ARTICLE_SCHEMA, {"author": "John_Smith"})
        answer = service.query(author, user="user:test")
        assert not answer.file_found
        assert all(not e.startswith("!") for e in answer.entries)
