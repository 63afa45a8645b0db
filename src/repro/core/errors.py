"""Exception hierarchy shared by every subsystem of the library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so a
caller can catch a single base class.  Security-relevant failures form their
own branch under :class:`SecurityError` so that audit hooks can distinguish
"the request was malformed" from "the request was denied or forged".
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the library."""


class ConfigurationError(ReproError):
    """A component was assembled with inconsistent or missing parameters."""


class SecurityError(ReproError):
    """Base class for security-relevant failures."""


class AccessDenied(SecurityError):
    """An access request was evaluated and denied.

    Attributes
    ----------
    subject, action, resource:
        Echo of the request, useful for audit records and error messages.
    """

    def __init__(self, subject: object, action: object, resource: object,
                 reason: str = "") -> None:
        self.subject = subject
        self.action = action
        self.resource = resource
        self.reason = reason
        detail = f" ({reason})" if reason else ""
        super().__init__(
            f"access denied: subject={subject!r} action={action!r} "
            f"resource={resource!r}{detail}")


class AuthenticationError(SecurityError):
    """A claimed identity or signature could not be verified."""


class IntegrityError(SecurityError):
    """Data failed an integrity (tamper-evidence) check."""


class CompletenessError(SecurityError):
    """A third party returned fewer results than the owner authorized."""


class PrivacyViolation(SecurityError):
    """Releasing a value or pattern would violate a privacy constraint."""


class InferenceViolation(PrivacyViolation):
    """A query is individually safe but completes a forbidden inference."""


class PolicyConflict(SecurityError):
    """Two applicable policies disagree and no resolution rule applies."""


class KeyManagementError(SecurityError):
    """A cryptographic key was missing, duplicated or malformed."""


class ParseError(ReproError):
    """Input text could not be parsed (XML, XPath, policy syntax...)."""

    def __init__(self, message: str, position: int | None = None) -> None:
        self.position = position
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)


class QueryError(ReproError):
    """A structurally valid query referenced unknown tables/columns etc."""


class TransactionError(ReproError):
    """A transaction could not commit (conflict, constraint violation)."""


class RegistryError(ReproError):
    """A UDDI registry operation failed (unknown key, duplicate entry)."""


class ServiceFault(ReproError):
    """A web-service invocation returned a SOAP fault."""

    def __init__(self, code: str, message: str) -> None:
        self.code = code
        super().__init__(f"[{code}] {message}")


# ---------------------------------------------------------------------------
# Partial-failure branch (repro.faults): every way the unreliable substrate
# can fail is a *typed* error, so resilient callers can distinguish
# retryable transport conditions from security verdicts and the chaos
# suite can assert the fail-closed invariant ("typed error or byte-
# identical result, never a silent partial answer").
# ---------------------------------------------------------------------------


class TransportError(ReproError):
    """Base class for retryable substrate failures (lost/late/garbled
    messages, crashed replicas).  Security errors deliberately do NOT
    derive from this class: a failed signature check must never be
    retried into acceptance."""


class MessageDropped(TransportError):
    """A message (or its acknowledgement) was lost in transit."""


class CorruptMessage(TransportError):
    """A message failed its transport frame checksum (bit rot, not an
    adversary — adversarial tampering is the security layer's domain)."""


class CallTimeout(TransportError):
    """An operation exceeded its deadline on the fault clock.  The
    caller must discard any late result (fail closed)."""


class ReplicaUnavailable(TransportError):
    """The target endpoint or registry replica is crashed/unreachable."""


class StaleRead(TransportError):
    """A read was served from a lagging replica and its staleness was
    detected (e.g. a read-your-writes watermark check failed)."""


class ReplicaDiverged(TransportError):
    """A replica refused a non-contiguous replication delta: accepting
    a delta whose version is not exactly ``watermark + 1`` would leave
    a hole in its history, so the replica falls behind instead and
    waits for anti-entropy repair.  Retryable from the primary's point
    of view — the gap is a transport condition, not corruption."""


class CircuitOpen(TransportError):
    """A circuit breaker is open; the call was not attempted."""


class AdmissionRejected(TransportError):
    """A request gateway's bounded admission queue is full, or a batch
    is bigger than its tenant's burst; the request was refused *before*
    entering the system (load shedding).  Retryable by construction:
    nothing was evaluated, so backing off and resubmitting cannot
    double-apply anything — though a batch over the burst must be split
    first."""


class Overloaded(TransportError):
    """A gateway shed this request under backpressure — the tenant's
    token bucket is empty or a queue-depth watermark tripped for its
    priority tier.  Unlike :class:`AdmissionRejected` (the hard bound),
    an ``Overloaded`` response is *graceful degradation*: it carries a
    ``retry_after`` hint (seconds) telling the client when capacity is
    expected back, so well-behaved clients back off instead of
    hammering a saturated loop.

    Attributes
    ----------
    retry_after:
        Suggested backoff in seconds before resubmitting.
    reason:
        Which mechanism shed the request (``"bucket"`` or
        ``"watermark"``), for telemetry.
    """

    def __init__(self, message: str, retry_after: float = 0.0,
                 reason: str = "watermark") -> None:
        self.retry_after = retry_after
        self.reason = reason
        super().__init__(
            f"{message} (retry after {retry_after:.4f}s)")


class RetryExhausted(TransportError):
    """A retried operation ran out of attempts.

    Attributes
    ----------
    attempts:
        How many attempts were made.
    last_error:
        The error raised by the final attempt.
    """

    def __init__(self, attempts: int, last_error: BaseException) -> None:
        self.attempts = attempts
        self.last_error = last_error
        super().__init__(
            f"gave up after {attempts} attempts; last error: "
            f"{type(last_error).__name__}: {last_error}")


class TamperedPackageError(IntegrityError):
    """A disseminated package failed verification: a block's MAC or
    manifest digest did not match.  Subscribers raise this instead of
    ever surfacing corrupted plaintext."""


class IncompletePackageError(CompletenessError):
    """A disseminated package is missing blocks the manifest promises
    for keys the subscriber holds."""


# ---------------------------------------------------------------------------
# Snapshot branch (repro.snap): epoch-published copy-on-write snapshots.
# ---------------------------------------------------------------------------


class SnapshotError(ReproError):
    """Misuse of the snapshot layer: mutating a frozen snapshot,
    resolving a node path that does not exist in the frozen tree, or
    publishing through a closed epoch manager."""


class EpochRetired(SnapshotError):
    """A released snapshot (or an epoch already reclaimed) was used
    where a pinned one is required — e.g. releasing the same snapshot
    twice, which would corrupt the reclamation refcounts."""


# ---------------------------------------------------------------------------
# Durability branch (repro.wal): group-commit write-ahead logging,
# checkpointing, and crash recovery under the stores.
# ---------------------------------------------------------------------------


class WalError(ReproError):
    """Base class for write-ahead-log failures (append refused, a
    recovery that cannot proceed, a checkpoint that cannot be read)."""


class WalCorrupt(WalError, IntegrityError):
    """The log or a checkpoint failed an integrity check that cannot be
    explained as a torn tail: a frame CRC mismatch *followed by* valid
    frames, a segment missing from the middle of the sequence, LSNs
    running backwards, a segment of a log other than the store's one
    log, or a checkpoint whose checksum does not cover its payload.
    Recovery fails closed — silently skipping committed records would
    be silent data loss, the one outcome a durability layer exists to
    prevent.  (A torn *tail* — a partial frame at the very end of the
    last segment with nothing valid after it — is the expected artifact
    of a crash between write and fsync, and is truncated at the last
    valid frame instead of raising.)

    Attributes
    ----------
    segment, offset:
        Where the damage was found (``None`` when it is not tied to a
        file, such as a record that does not decode as ops).
    """

    def __init__(self, message: str, *, segment: str | None = None,
                 offset: int | None = None) -> None:
        self.segment = segment
        self.offset = offset
        where = ""
        if segment is not None:
            where = f" [{segment}" + (
                f"@{offset}]" if offset is not None else "]")
        super().__init__(f"{message}{where}")
