"""Service-level tests for publisher-signed entries and second opinions.

These cover the two Byzantine behaviours that transport signatures
cannot address (a lying endpoint signs its forgery with its own valid
key): *fabrication*, caught by entry attestation, and *withholding*,
caught by cross-replica second opinions feeding the trust ledger.
"""

import pytest

from conftest_helpers import DRIVERS, run_exchange
from repro import perf
from repro.core.fields import ARTICLE_SCHEMA
from repro.core.query import FieldQuery
from repro.core.scheme import simple_scheme
from repro.core.service import IndexService
from repro.dht.idspace import hash_key
from repro.dht.ring import IdealRing
from repro.net.adversary import AdversarialTransport
from repro.net.transport import DeliveryError, SimulatedTransport
from repro.sec import NodeIdentity, TrustLedger, is_attested
from repro.sec.entries import attest_entry
from repro.storage.store import DHTStorage

PUBLISHER = NodeIdentity("service-publisher")
IMPOSTOR = NodeIdentity("impostor")


def build(
    replication=1, num_nodes=12, identity=PUBLISHER, trust=None, transport=None
):
    ring = IdealRing(64)
    for index in range(num_nodes):
        ring.add_node(hash_key(f"peer-{index}", 64))
    if transport is None:
        transport = SimulatedTransport()
    return IndexService(
        ARTICLE_SCHEMA,
        simple_scheme(),
        DHTStorage(ring, replication=replication),
        DHTStorage(ring, replication=replication),
        transport,
        trust=trust,
        entry_identity=identity,
    )


class TestAttestedStorage:
    def test_stored_values_are_attested(self, paper_records):
        service = build()
        for record in paper_records:
            service.insert_record(record)
        author = FieldQuery(ARTICLE_SCHEMA, {"author": "John_Smith"})
        stored = service.index_store.values(author.key())
        assert stored and all(is_attested(value) for value in stored)

    def test_query_returns_raw_entries(self, paper_records):
        service = build()
        for record in paper_records:
            service.insert_record(record)
        author = FieldQuery(ARTICLE_SCHEMA, {"author": "John_Smith"})
        answer = service.query(author, user="user:t")
        assert len(answer.entries) == 2
        assert not any(is_attested(entry) for entry in answer.entries)

    def test_delete_removes_attested_entries(self, paper_records):
        service = build()
        for record in paper_records:
            service.insert_record(record)
        service.delete_record(paper_records[0])
        title = FieldQuery(ARTICLE_SCHEMA, {"title": "TCP"})
        assert service.query(title, user="user:t").empty


class TestFabricationRejected:
    def test_unattested_entry_dropped(self, paper_records):
        service = build()
        service.insert_record(paper_records[0])
        author = FieldQuery(ARTICLE_SCHEMA, {"author": "John_Smith"})
        key = author.key()
        for node in service.index_store.responsible_nodes(key):
            service.index_store.put_local(node, key, "fabricated-entry")
        before = perf.counters.sec_entry_verify_failures
        answer = service.query(author, user="user:t")
        assert "fabricated-entry" not in answer.entries
        assert len(answer.entries) == 1  # the genuine mapping survives
        assert perf.counters.sec_entry_verify_failures > before

    def test_self_signed_forgery_dropped(self, paper_records):
        """An attacker attesting garbage with its own fresh key gains
        nothing: that key is not in the trusted publisher set."""
        service = build()
        service.insert_record(paper_records[0])
        author = FieldQuery(ARTICLE_SCHEMA, {"author": "John_Smith"})
        key = author.key()
        forged = attest_entry(key, "forged-entry", IMPOSTOR)
        for node in service.index_store.responsible_nodes(key):
            service.index_store.put_local(node, key, forged)
        answer = service.query(author, user="user:t")
        assert "forged-entry" not in answer.entries

    def test_forgery_penalizes_the_serving_node(self, paper_records):
        trust = TrustLedger()
        service = build(trust=trust)
        service.insert_record(paper_records[0])
        author = FieldQuery(ARTICLE_SCHEMA, {"author": "John_Smith"})
        key = author.key()
        node = service.index_store.responsible_nodes(key)[0]
        service.index_store.put_local(node, key, "fabricated-entry")
        service.query(author, user="user:t")
        assert not trust.is_trusted(IndexService.endpoint_name(node))


class TestSecondOpinions:
    """Both drivers of the query exchange apply one second-opinion rule."""

    def withholding_setup(self, paper_records, transport=None):
        trust = TrustLedger()
        service = build(replication=3, trust=trust, transport=transport)
        service.insert_record(paper_records[0])
        author = FieldQuery(ARTICLE_SCHEMA, {"author": "John_Smith"})
        key = author.key()
        withholder = service.index_store.responsible_nodes(key)[0]
        # Model withholding: the replica holds nothing to serve, but is
        # alive and answers (an empty answer passes every check).
        service.index_store._node_stores[withholder].pop(key, None)
        return service, trust, author, withholder

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_empty_answer_gets_second_opinion(self, paper_records, driver):
        service, trust, author, withholder = self.withholding_setup(
            paper_records
        )
        before = perf.counters.sec_contradictions
        for _ in range(6):  # rotation guarantees the withholder leads once
            answer = run_exchange(driver, service, "query", author, "user:t")
            assert not answer.empty  # another replica supplied the truth
        assert perf.counters.sec_contradictions > before
        assert not trust.is_trusted(IndexService.endpoint_name(withholder))

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_agreeing_empty_answers_accepted(self, paper_records, driver):
        """A key nobody holds resolves empty without contradictions."""
        trust = TrustLedger()
        service = build(replication=3, trust=trust)
        service.insert_record(paper_records[0])
        ghost = FieldQuery(ARTICLE_SCHEMA, {"author": "Nobody_Here"})
        before = perf.counters.sec_contradictions
        answer = run_exchange(driver, service, "query", ghost, "user:t")
        assert answer.empty
        assert perf.counters.sec_contradictions == before

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_transient_loss_after_held_answer_is_retried(
        self, paper_records, driver
    ):
        """A held empty answer is not believed when the next replica's
        request is merely lost: the loss goes back to the engine's retry
        logic (the same node will answer a retransmission)."""
        transport = AdversarialTransport(SimulatedTransport())
        service, trust, author, withholder = self.withholding_setup(
            paper_records, transport
        )
        replicas = service.index_store.responsible_nodes(author.key())
        assert replicas[0] == withholder
        # Lookups to the second replica are lost in flight; the third
        # answers honestly.
        transport.eclipse(IndexService.endpoint_name(replicas[1]))
        outcomes = []
        for _ in range(3):  # rotation puts each replica first once
            try:
                answer = run_exchange(driver, service, "query", author, "user:t")
            except DeliveryError as error:
                outcomes.append(error.reason)
            else:
                outcomes.append("empty" if answer.empty else "entries")
        # Orders tried: (eclipsed, ...), (honest, ...), then (withholder,
        # eclipsed, ...) -- where the held empty answer must not win.
        assert outcomes == [
            DeliveryError.DROPPED, "entries", DeliveryError.DROPPED
        ]
