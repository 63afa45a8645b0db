"""Chaos battery for dissemination and third-party publishing.

Subscribers under fault injection either rebuild a view byte-identical
to the fault-free one or raise a typed error — corrupted blocks are
never rendered, omitted blocks never silently truncate the view.
"""

import pytest

from repro.core.credentials import anyone, has_role
from repro.core.errors import (
    IncompletePackageError,
    IntegrityError,
    RetryExhausted,
    TamperedPackageError,
    TransportError,
)
from repro.core.subjects import Role, Subject
from repro.crypto.keys import KeyStore
from repro.faults import (
    FaultClock,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    RetryPolicy,
)
from repro.xmldb.parser import parse
from repro.xmldb.serializer import serialize
from repro.xmlsec.authorx import XmlPolicyBase, xml_deny, xml_grant
from repro.xmlsec.dissemination import (
    Disseminator,
    FaultyChannel,
    Packet,
    ResilientSubscriber,
    block_digest,
    omit_block,
    open_packet,
    open_packet_checked,
)

DOC_TEXT = """<hospital>
  <record id="r1"><name>Alice</name><diagnosis>flu</diagnosis>
    <ssn>123</ssn></record>
  <record id="r2"><name>Bob</name><diagnosis>cold</diagnosis>
    <ssn>456</ssn></record>
</hospital>"""

DOCTOR = Subject("dr", roles={Role("doctor")})


def make_setup():
    document = parse(DOC_TEXT, name="records")
    base = XmlPolicyBase([
        xml_grant(has_role("doctor"), "/hospital"),
        xml_deny(anyone(), "//ssn"),
        xml_grant(has_role("nurse"), "//record/name"),
    ])
    disseminator = Disseminator(base)
    packet = disseminator.package("records", document)
    distributor = disseminator.distributor({"dr": DOCTOR})
    store = KeyStore("rx-dr")
    for key in distributor.grant("dr").keys:
        store.import_key(key)
    return packet, store, disseminator.key_store


PACKET, STORE, OWNER_STORE = make_setup()
ORACLE_VIEW = serialize(open_packet(PACKET, STORE))


def make_subscriber(seed, rate=0.3):
    clock = FaultClock()
    plan = FaultPlan.random(seed, ["dissemination:channel"], rate,
                            horizon=40)
    channel = FaultyChannel(FaultInjector(plan, clock, seed=seed))
    subscriber = ResilientSubscriber(
        STORE, RetryPolicy(max_attempts=8, jitter_seed=seed), clock)
    return channel, subscriber


class TestFailClosedInvariant:
    @pytest.mark.parametrize("seed", range(110))
    def test_identical_view_or_typed_error(self, seed):
        channel, subscriber = make_subscriber(seed)
        try:
            view = subscriber.receive(lambda: channel.deliver(PACKET))
        except (TransportError, TamperedPackageError,
                IncompletePackageError):
            return  # fail-closed
        assert serialize(view) == ORACLE_VIEW

    def test_majority_of_seeds_complete(self):
        completed = 0
        for seed in range(110):
            channel, subscriber = make_subscriber(seed)
            try:
                view = subscriber.receive(
                    lambda: channel.deliver(PACKET))
                assert serialize(view) == ORACLE_VIEW
                completed += 1
            except (TransportError, TamperedPackageError,
                    IncompletePackageError):
                pass
        assert completed >= 100

    def test_exhaustion_keeps_the_typed_cause(self):
        # Corrupt every delivery; a subscriber holding every key (the
        # worst case for detection surface) must exhaust, not render.
        clock = FaultClock()
        plan = FaultPlan()
        for op in range(8):
            plan.add("dissemination:channel", op, FaultKind.CORRUPT)
        channel = FaultyChannel(FaultInjector(plan, clock))
        subscriber = ResilientSubscriber(
            OWNER_STORE, RetryPolicy(max_attempts=3, jitter_seed=0), clock)
        with pytest.raises(RetryExhausted) as excinfo:
            subscriber.receive(lambda: channel.deliver(PACKET))
        assert isinstance(excinfo.value.last_error, TamperedPackageError)


class TestCheckedOpening:
    def test_corrupt_block_raises_tampered(self):
        clock = FaultClock()
        plan = FaultPlan().add("dissemination:channel", 0,
                               FaultKind.CORRUPT)
        channel = FaultyChannel(FaultInjector(plan, clock))
        damaged = channel.deliver(PACKET)
        with pytest.raises(TamperedPackageError):
            open_packet_checked(damaged, OWNER_STORE)

    def test_corrupt_block_never_rendered_even_unchecked(self):
        """Defense in depth: even legacy unchecked opening cannot render
        rotted bytes, because the symmetric MAC rejects them."""
        clock = FaultClock()
        plan = FaultPlan().add("dissemination:channel", 0,
                               FaultKind.CORRUPT)
        channel = FaultyChannel(FaultInjector(plan, clock))
        damaged = channel.deliver(PACKET)
        with pytest.raises(IntegrityError):
            open_packet(damaged, OWNER_STORE)

    def test_omitted_held_block_raises_incomplete(self):
        held = [b.key_id for b in PACKET.blocks if b.key_id in STORE]
        faithless = omit_block(PACKET, held[0])
        with pytest.raises(IncompletePackageError):
            open_packet_checked(faithless, STORE)

    def test_omitting_unheld_block_is_not_the_subscribers_problem(self):
        unheld = [b.key_id for b in PACKET.blocks
                  if b.key_id not in STORE]
        pruned = omit_block(PACKET, unheld[0])
        assert serialize(open_packet_checked(pruned, STORE)) == ORACLE_VIEW

    def test_duplicate_identical_blocks_are_tolerated(self):
        clock = FaultClock()
        plan = FaultPlan().add("dissemination:channel", 0,
                               FaultKind.DUPLICATE)
        channel = FaultyChannel(FaultInjector(plan, clock))
        doubled = channel.deliver(PACKET)
        assert len(doubled.blocks) == len(PACKET.blocks) + 1
        assert serialize(open_packet_checked(doubled, STORE)) == ORACLE_VIEW

    def test_reversed_block_order_is_harmless(self):
        clock = FaultClock()
        channel = FaultyChannel(FaultInjector(FaultPlan(), clock))
        shuffled = channel.deliver(PACKET)
        assert list(shuffled.blocks) == list(reversed(PACKET.blocks))
        assert serialize(open_packet_checked(shuffled, STORE)) == ORACLE_VIEW

    def test_clean_packet_matches_unchecked_opening(self):
        assert serialize(open_packet_checked(PACKET, STORE)) == ORACLE_VIEW


class TestManifestBinding:
    """A held-key block counts only if this document's manifest lists
    it.  Configuration keys are shared across documents, so a block
    the owner packaged for another document passes its MAC."""

    NOTE_TEXT = ("<hospital><record id=\"r1\"><name>Alice</name>"
                 "</record><note>secret-B</note></hospital>")

    def spliced(self):
        base = XmlPolicyBase([
            xml_grant(has_role("doctor"), "/hospital"),
            xml_deny(anyone(), "//ssn"),
            xml_grant(has_role("nurse"), "//record/name"),
            xml_grant(has_role("doctor"), "//note"),
        ])
        disseminator = Disseminator(base)
        packet_a = disseminator.package("a", parse(DOC_TEXT, name="a"))
        packet_b = disseminator.package(
            "b", parse(self.NOTE_TEXT, name="b"))
        store = KeyStore("rx-dr")
        for key in disseminator.distributor(
                {"dr": DOCTOR}).grant("dr").keys:
            store.import_key(key)
        listed = {key_id for key_id, _ in packet_a.manifest}
        foreign = [block for block in packet_b.blocks
                   if block.key_id in store and block.key_id not in listed]
        assert len(foreign) == 1  # the <note>'s configuration
        return packet_a, foreign[0], store

    def test_block_spliced_from_another_document_raises_tampered(self):
        packet, foreign, store = self.spliced()
        spliced = Packet(packet.doc_id, packet.blocks + (foreign,),
                         dict(packet.skeleton), packet.manifest)
        assert "secret-B" in serialize(open_packet(spliced, store))
        with pytest.raises(TamperedPackageError):
            open_packet_checked(spliced, store)

    def test_empty_manifest_raises_tampered(self):
        bare = Packet(PACKET.doc_id, PACKET.blocks, dict(PACKET.skeleton),
                      ())
        with pytest.raises(TamperedPackageError):
            open_packet_checked(bare, STORE)

    def test_unlisted_duplicate_of_a_held_block_raises_tampered(self):
        # The owner's own key and plaintext under a fresh nonce: a valid
        # MAC, a listed key id, but bytes the manifest never listed.
        packet, store, owner = make_setup()
        held = next(block for block in packet.blocks if block.key_id in store)
        copy = owner.encrypt(held.key_id, store.decrypt(held))
        assert block_digest(copy) != block_digest(held)
        duplicated = Packet(packet.doc_id, packet.blocks + (copy,),
                            dict(packet.skeleton), packet.manifest)
        with pytest.raises(TamperedPackageError):
            open_packet_checked(duplicated, store)


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        outcomes = []
        for _ in range(2):
            channel, subscriber = make_subscriber(23)
            try:
                view = subscriber.receive(
                    lambda: channel.deliver(PACKET))
                outcomes.append(("ok", serialize(view),
                                 subscriber.telemetry.attempts))
            except (TransportError, TamperedPackageError,
                    IncompletePackageError) as exc:
                outcomes.append(("err", type(exc).__name__))
        assert outcomes[0] == outcomes[1]
