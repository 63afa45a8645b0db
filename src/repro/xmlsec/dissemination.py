"""Secure and selective dissemination of XML documents ([5], §4.1).

The broadcast problem: an owner publishes *one* encrypted copy of a
document such that each of many subscribers can decrypt exactly the
portion the policies authorize.  Author-X's construction, which this
module implements:

1. Label every element with its *policy configuration*.  A configuration
   records, for each READ-grant policy reaching the element, the set of
   DENY policies that would override that grant there (a deny overrides a
   grant when it is attached at equal or greater depth — the most-specific
   rule of :mod:`repro.xmlsec.authorx`).
2. All elements sharing a configuration are encrypted with the **same**
   key, so the number of keys scales with the number of distinct
   configurations, not with the number of subjects (benchmark E3).
3. Each subject receives all and only the keys of configurations it can
   unlock: it satisfies some grant in the configuration and none of that
   grant's dominating denies.

A :class:`Packet` is the broadcast unit: one ciphertext per configuration
containing the (node-path, tag, attributes, text) records of that
configuration's elements.  :func:`open_packet` rebuilds the authorized
view, synthesizing bare connector elements for undisclosed ancestors —
ancestor *tags* are visible through node paths, exactly the structural
disclosure Author-X's connectors make.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable

from repro.core.cache import MISS, LRUCache
from repro.core.errors import (
    IncompletePackageError,
    IntegrityError,
    MessageDropped,
    ReplicaUnavailable,
    TamperedPackageError,
    TransportError,
)
from repro.core.subjects import Subject
from repro.crypto.hashing import sha256_hex
from repro.crypto.keys import KeyDistributor, KeyStore
from repro.crypto.symmetric import Ciphertext, encrypt as symmetric_encrypt
from repro.faults.clock import FaultClock
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind
from repro.faults.resilience import (
    RetryPolicy,
    RetryTelemetry,
    retry_with_backoff,
)
from repro.xmldb.model import Document, Element
from repro.xmldb.parser import parse_element
from repro.xmldb.serializer import serialize_element
from repro.xmlsec.authorx import (
    Privilege,
    XmlPolicy,
    XmlPolicyBase,
    XmlPropagation,
    XmlSign,
)

#: A configuration: for each reachable grant, the denies dominating it.
Configuration = frozenset[tuple[int, frozenset[int]]]

EMPTY_CONFIGURATION: Configuration = frozenset()


def configuration_key_id(configuration: Configuration) -> str:
    """Deterministic key id for a configuration."""
    if not configuration:
        return "cfg:none"
    canonical = sorted((g, tuple(sorted(d))) for g, d in configuration)
    return "cfg:" + sha256_hex(repr(canonical))[:24]


@dataclass(frozen=True)
class Fragment:
    """The local content of one element (children excluded)."""

    node_path: str
    tag: str
    attributes: tuple[tuple[str, str], ...]
    text: str

    def serialize(self) -> str:
        shell = Element(self.tag, dict(self.attributes),
                        [self.text] if self.text else [])
        shell.attributes["__path__"] = self.node_path
        return serialize_element(shell)

    @classmethod
    def deserialize(cls, xml_text: str) -> "Fragment":
        shell = parse_element(xml_text)
        path = shell.attributes.pop("__path__")
        return cls(path, shell.tag,
                   tuple(sorted(shell.attributes.items())), shell.text)


def block_digest(block: Ciphertext) -> str:
    """Digest of one broadcast block as it crosses the wire."""
    return sha256_hex(b"block:" + block.nonce + block.body
                      + block.tag.encode("utf-8"))


@dataclass
class Packet:
    """The broadcast unit for one document: one block per configuration.

    ``skeleton`` maps each element's node path to its 0-based position
    among all element siblings, letting receivers reassemble views in
    document order.  It reveals only tags and counts — information node
    paths inside the blocks expose anyway (Author-X's connectors make the
    same structural disclosure).

    ``manifest`` lists ``(key_id, block_digest)`` for every block the
    owner packaged, sorted by key id.  Subscribers check received
    blocks against it (:func:`open_packet_checked`): a missing block
    for a held key is an *omission*, a digest mismatch is *tampering* —
    both typed errors, never silently-partial views.  Empty on packets
    built by older code; checking then falls back to MAC verification
    alone.
    """

    doc_id: str
    blocks: tuple[Ciphertext, ...]
    skeleton: dict[str, int]
    manifest: tuple[tuple[str, str], ...] = ()

    @property
    def configuration_count(self) -> int:
        return len(self.blocks)

    def total_bytes(self) -> int:
        return sum(len(b) for b in self.blocks)


def _policy_marks(policy_base: XmlPolicyBase, doc_id: str,
                  document: Document
                  ) -> dict[int, list[tuple[int, XmlPolicy]]]:
    """Per element: (attachment depth, policy) for applicable READ policies."""
    depths: dict[int, int] = {}

    def walk(node: Element, depth: int) -> None:
        depths[id(node)] = depth
        for child in node.element_children:
            walk(child, depth + 1)

    walk(document.root, 0)
    marks: dict[int, list[tuple[int, XmlPolicy]]] = {
        id(node): [] for node in document.iter()}
    policies = [p for p in policy_base
                if p.privilege is Privilege.READ
                and p.applies_to_document(doc_id)]
    # All targets in one DOM traversal (falls back per-policy only for
    # positional predicates) — same machinery as Author-X labelling.
    targets = XmlPolicyBase.select_policy_targets(policies, document)
    for policy, selected in zip(policies, targets):
        for root in selected:
            attachment = depths[id(root)]
            if policy.propagation is XmlPropagation.LOCAL:
                targets: Iterable[Element] = [root]
            elif policy.propagation is XmlPropagation.ONE_LEVEL:
                targets = [root] + root.element_children
            else:
                targets = root.iter()
            for node in targets:
                marks[id(node)].append((attachment, policy))
    return marks


def element_configurations(policy_base: XmlPolicyBase, doc_id: str,
                           document: Document) -> dict[int, Configuration]:
    """Map id(element) -> its policy configuration."""
    marks = _policy_marks(policy_base, doc_id, document)
    configurations: dict[int, Configuration] = {}
    for node in document.iter():
        node_marks = marks[id(node)]
        grants = [(d, p) for d, p in node_marks if p.sign is XmlSign.GRANT]
        denies = [(d, p) for d, p in node_marks if p.sign is XmlSign.DENY]
        entries: set[tuple[int, frozenset[int]]] = set()
        for grant_depth, grant in grants:
            dominating = frozenset(
                deny.policy_id for deny_depth, deny in denies
                if deny_depth >= grant_depth)
            entries.add((grant.policy_id, dominating))
        configurations[id(node)] = frozenset(entries)
    return configurations


def configurations_by_path(policy_base: XmlPolicyBase, doc_id: str,
                           document: Document) -> dict[str, Configuration]:
    """Like :func:`element_configurations`, keyed by node path —
    serializable, which the third-party publishing protocol needs."""
    by_id = element_configurations(policy_base, doc_id, document)
    return {node.node_path(): by_id[id(node)] for node in document.iter()}


def subject_can_unlock(policy_base: XmlPolicyBase, subject: Subject,
                       configuration: Configuration) -> bool:
    """True if *subject* satisfies some grant with no dominating deny."""
    if not configuration:
        return False
    by_id = {p.policy_id: p for p in policy_base}
    for grant_id, dominating in configuration:
        grant = by_id.get(grant_id)
        if grant is None or not grant.applies_to_subject(subject):
            continue
        overridden = any(
            by_id[deny_id].applies_to_subject(subject)
            for deny_id in dominating if deny_id in by_id)
        if not overridden:
            return True
    return False


class Disseminator:
    """Owner-side machinery: label, group, encrypt, distribute keys.

    With ``intern=True`` the expensive, deterministic half of
    :meth:`package` — labelling, configuration grouping and payload
    serialization — is cached under ``(doc_id, document, policy
    generation, document version)``, so any policy or document change
    makes the next lookup miss.  Re-packaging an unchanged document then
    only re-encrypts (each packet still gets fresh nonces).  The cache
    is keyed by the document *object* (identity), which is what lets
    the snapshot layer share prep work across epochs: an unchanged
    frozen document thaws to the same cached object every epoch.
    """

    def __init__(self, policy_base: XmlPolicyBase,
                 secret: str = "dissemination",
                 intern: bool = False) -> None:
        self.policy_base = policy_base
        self.key_store = KeyStore(secret)
        self._configurations: dict[str, Configuration] = {}
        self._prep_cache: LRUCache | None = (
            LRUCache(maxsize=256) if intern else None)

    @property
    def prep_stats(self) -> dict[str, int | float] | None:
        """Packaging-prep cache counters (None unless interning)."""
        if self._prep_cache is None:
            return None
        return self._prep_cache.stats.snapshot()

    def configurations_of(self, doc_id: str, document: Document
                          ) -> dict[int, Configuration]:
        """Map id(element) -> its policy configuration."""
        return element_configurations(self.policy_base, doc_id, document)

    # -- packaging ------------------------------------------------------

    def package(self, doc_id: str, document: Document,
                workers: int | None = None) -> Packet:
        """Encrypt *document* into one block per distinct configuration.

        Elements with the empty configuration (no grant at all) go under
        the reserved ``cfg:none`` key, which is never distributed.

        With ``workers`` set, block encryption runs on a thread pool:
        keys are created and nonces reserved serially (the key store is
        not thread-safe), then the pure
        :func:`repro.crypto.symmetric.encrypt` calls run concurrently.
        Encryption is deterministic given (key, nonce), so the packet is
        byte-identical to the serial one.
        """
        skeleton, payloads = self._prepare(doc_id, document)
        jobs = []
        for key_id, payload in payloads:
            key = self.key_store.get_or_create(key_id)
            jobs.append((key, payload, self.key_store.reserve_nonce(key_id)))
        if workers is not None and workers > 1 and len(jobs) > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                blocks = list(pool.map(
                    lambda job: symmetric_encrypt(*job), jobs))
        else:
            blocks = [symmetric_encrypt(*job) for job in jobs]
        manifest = tuple(sorted(
            (block.key_id, block_digest(block)) for block in blocks))
        return Packet(doc_id, tuple(blocks), dict(skeleton), manifest)

    def _prepare(self, doc_id: str, document: Document
                 ) -> tuple[dict[str, int],
                            tuple[tuple[str, str], ...]]:
        """The deterministic packaging prep: skeleton + per-key payloads.

        Cached when interning is on (see class docstring); the returned
        structures are treated as read-only by :meth:`package`.
        """
        cache_key = (doc_id, document, self.policy_base.generation,
                     document.version)
        if self._prep_cache is not None:
            prep = self._prep_cache.get(cache_key)
            if prep is not MISS:
                return prep
        configurations = self.configurations_of(doc_id, document)
        groups: dict[str, list[Fragment]] = {}
        skeleton: dict[str, int] = {}
        for node in document.iter():
            if node.parent is None:
                skeleton[node.node_path()] = 0
            else:
                siblings = node.parent.element_children
                skeleton[node.node_path()] = next(
                    i for i, s in enumerate(siblings) if s is node)
            configuration = configurations[id(node)]
            key_id = configuration_key_id(configuration)
            self._configurations.setdefault(key_id, configuration)
            groups.setdefault(key_id, []).append(Fragment(
                node.node_path(), node.tag,
                tuple(sorted(node.attributes.items())), node.text))
        # JSON framing: fragment text may contain any character, so a
        # bare separator byte would be ambiguous.
        payloads = tuple(
            (key_id, json.dumps([f.serialize() for f in groups[key_id]]))
            for key_id in sorted(groups))
        prep = (skeleton, payloads)
        if self._prep_cache is not None:
            self._prep_cache.put(cache_key, prep)
        return prep

    # -- key distribution -------------------------------------------------

    def can_unlock(self, subject: Subject,
                   configuration: Configuration) -> bool:
        """True if *subject* satisfies some grant with no dominating deny."""
        return subject_can_unlock(self.policy_base, subject, configuration)

    def entitled_key_ids(self, subject: Subject) -> list[str]:
        """All and only the configuration keys this subject may hold."""
        return sorted(
            key_id for key_id, configuration in self._configurations.items()
            if self.can_unlock(subject, configuration))

    def distributor(self, subjects: dict[str, Subject]) -> KeyDistributor:
        """A distributor granting each named subject its entitled keys."""
        return KeyDistributor(
            self.key_store,
            lambda name: self.entitled_key_ids(subjects[name]))

    def key_count(self) -> int:
        """Distinct distributable configuration keys created so far."""
        return sum(1 for k in self._configurations if k != "cfg:none")


def open_packet(packet: Packet, keys: KeyStore) -> Document | None:
    """Subscriber-side: decrypt what the held keys unlock, rebuild a view.

    Undisclosed ancestors of revealed elements become bare connector
    elements (tag only).  Returns None when nothing could be decrypted.
    """
    fragments: dict[str, Fragment] = {}
    for block in packet.blocks:
        if block.key_id not in keys:
            continue
        payload = keys.decrypt(block).decode("utf-8")
        for piece in json.loads(payload):
            fragment = Fragment.deserialize(piece)
            fragments[fragment.node_path] = fragment
    if not fragments:
        return None

    # Build the set of all paths needed: revealed elements + ancestors.
    needed: set[str] = set()
    for path in fragments:
        parts = path.strip("/").split("/")
        for end in range(1, len(parts) + 1):
            needed.add("/" + "/".join(parts[:end]))

    nodes: dict[str, Element] = {}
    order = packet.skeleton

    def sort_key(path: str) -> tuple[int, int, str]:
        return (path.count("/"), order.get(path, 1 << 30), path)

    for path in sorted(needed, key=sort_key):
        fragment = fragments.get(path)
        last = path.strip("/").split("/")[-1]
        tag = last.split("[")[0]
        if fragment is not None:
            node = Element(fragment.tag, dict(fragment.attributes))
            if fragment.text:
                node.append(fragment.text)
        else:
            node = Element(tag)  # connector: bare tag from the path
        nodes[path] = node
        parent_path = path.rsplit("/", 1)[0]
        if parent_path and parent_path in nodes:
            nodes[parent_path].append(node)

    root_path = min(nodes, key=lambda p: (p.count("/"), p))
    return Document(nodes[root_path], name=f"{packet.doc_id}@received")


# ---------------------------------------------------------------------------
# Faulty broadcast channel + fail-closed subscriber (repro.faults)
# ---------------------------------------------------------------------------

class FaultyChannel:
    """The wire between publisher and subscriber, with scheduled faults.

    One :meth:`deliver` call is one broadcast delivery attempt at the
    fault site ``dissemination:<name>``.  Whole-packet faults (drop,
    crash, reorder-behind-the-next-delivery) raise typed transport
    errors; block-level faults return a damaged packet — dropped,
    duplicated, shuffled or bit-rotted blocks — which is exactly what
    :func:`open_packet_checked` must catch.  A faithless *publisher*
    omitting or forging blocks looks identical on the wire, so the same
    subscriber check covers both accident and malice.
    """

    def __init__(self, faults: FaultInjector, name: str = "channel") -> None:
        self.faults = faults
        self.site = f"dissemination:{name}"

    def deliver(self, packet: Packet) -> Packet:
        events = self.faults.step(self.site)
        blocks = list(packet.blocks)
        for event in events:
            if event.kind is FaultKind.CRASH:
                raise ReplicaUnavailable("the publisher is down")
            if event.kind in (FaultKind.DROP, FaultKind.REORDER):
                raise MessageDropped(
                    f"broadcast of {packet.doc_id!r} lost in transit")
            if event.kind is FaultKind.STALE_READ:
                # No replica state to lag behind here; a stale delivery
                # is a lost-then-retried one.
                raise MessageDropped(
                    f"broadcast of {packet.doc_id!r} superseded")
            if event.kind is FaultKind.CORRUPT and blocks:
                index = self.faults.op_count(self.site) % len(blocks)
                victim = blocks[index]
                blocks[index] = Ciphertext(
                    victim.key_id, victim.nonce,
                    self.faults.corrupt_bytes(victim.body, self.site),
                    victim.tag)
            if event.kind is FaultKind.DUPLICATE and blocks:
                blocks.append(blocks[0])
        # Block order is never guaranteed by the substrate; reversing on
        # every delivery keeps receivers honest about that.
        blocks.reverse()
        return Packet(packet.doc_id, tuple(blocks), dict(packet.skeleton),
                      packet.manifest)


def omit_block(packet: Packet, key_id: str) -> Packet:
    """A faithless-publisher helper: serve *packet* without the block
    for *key_id* while still advertising it in the manifest."""
    kept = tuple(b for b in packet.blocks if b.key_id != key_id)
    return Packet(packet.doc_id, kept, dict(packet.skeleton),
                  packet.manifest)


def open_packet_checked(packet: Packet, keys: KeyStore) -> Document | None:
    """Fail-closed subscriber opening.

    Every block for a key the subscriber holds is checked against the
    manifest before use: a digest mismatch (or a MAC failure during
    decryption) raises :class:`TamperedPackageError`; a manifest entry
    with no matching block raises :class:`IncompletePackageError`.
    Only a packet that passes completely is rebuilt into a view —
    corrupted bytes are never rendered, partially-decryptable packets
    are never silently truncated.
    """
    expected = {key_id: digest for key_id, digest in packet.manifest}
    held_blocks: dict[str, Ciphertext] = {}
    for block in packet.blocks:
        if block.key_id not in keys:
            continue
        digest = block_digest(block)
        if expected and block.key_id in expected:
            if digest != expected[block.key_id]:
                raise TamperedPackageError(
                    f"block {block.key_id!r} of {packet.doc_id!r} does "
                    f"not match the owner's manifest")
        seen = held_blocks.get(block.key_id)
        if seen is not None and block_digest(seen) != digest:
            raise TamperedPackageError(
                f"conflicting duplicates of block {block.key_id!r}")
        held_blocks[block.key_id] = block
    missing = [key_id for key_id in expected
               if key_id in keys and key_id not in held_blocks]
    if missing:
        raise IncompletePackageError(
            f"packet {packet.doc_id!r} is missing blocks for held keys: "
            f"{sorted(missing)}")
    clean_blocks: list[Ciphertext] = []
    for key_id in sorted(held_blocks):
        block = held_blocks[key_id]
        try:
            keys.decrypt(block)
        except IntegrityError as exc:
            raise TamperedPackageError(
                f"block {key_id!r} of {packet.doc_id!r} failed its "
                f"MAC: {exc}") from exc
        clean_blocks.append(block)
    verified = Packet(packet.doc_id, tuple(clean_blocks),
                      dict(packet.skeleton), packet.manifest)
    return open_packet(verified, keys)


class ResilientSubscriber:
    """The wired dissemination client path: fetch, verify, retry.

    ``fetch`` produces one delivery attempt (typically
    ``lambda: channel.deliver(publisher_packet)``).  Tampered and
    incomplete deliveries are retried like transport faults — a fresh
    delivery may be clean — but when the budget runs out the *typed*
    error propagates: the subscriber never downgrades to unchecked
    opening.
    """

    def __init__(self, keys: KeyStore, policy: RetryPolicy | None = None,
                 clock: FaultClock | None = None) -> None:
        self.keys = keys
        self.policy = policy if policy is not None else RetryPolicy()
        self.clock = clock if clock is not None else FaultClock()
        self.telemetry = RetryTelemetry()

    def receive(self, fetch) -> Document | None:
        self.telemetry = RetryTelemetry()
        return retry_with_backoff(
            lambda: open_packet_checked(fetch(), self.keys),
            self.policy, self.clock, key="dissemination",
            retry_on=(TransportError, TamperedPackageError,
                      IncompletePackageError),
            telemetry=self.telemetry)
