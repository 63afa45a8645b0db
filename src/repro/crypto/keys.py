"""Key management: stores, nonce discipline and selective distribution.

The dissemination scheme of [5]/§4.1 hinges on key *distribution*: "the
service provider is responsible for distributing keys to the service
requestors in such a way that each service requestor receives all and only
the keys corresponding to the information it is entitled to access".
:class:`KeyDistributor` implements exactly that contract and the tests
assert the *all and only* part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.core.errors import KeyManagementError
from repro.crypto.symmetric import Ciphertext, SymmetricKey, decrypt, encrypt


class KeyStore:
    """Holds symmetric keys and enforces fresh nonces per key."""

    def __init__(self, secret: str = "keystore") -> None:
        self._secret = secret
        self._keys: dict[str, SymmetricKey] = {}
        self._nonce_counters: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key_id: str) -> bool:
        return key_id in self._keys

    def create(self, key_id: str) -> SymmetricKey:
        if key_id in self._keys:
            raise KeyManagementError(f"key {key_id!r} already exists")
        key = SymmetricKey.derive(key_id, self._secret)
        self._keys[key_id] = key
        self._nonce_counters[key_id] = 0
        return key

    def get_or_create(self, key_id: str) -> SymmetricKey:
        if key_id in self._keys:
            return self._keys[key_id]
        return self.create(key_id)

    def get(self, key_id: str) -> SymmetricKey:
        try:
            return self._keys[key_id]
        except KeyError:
            raise KeyManagementError(f"unknown key {key_id!r}") from None

    def import_key(self, key: SymmetricKey) -> None:
        """Install a key received from a distributor."""
        existing = self._keys.get(key.key_id)
        if existing is not None and existing.material != key.material:
            raise KeyManagementError(
                f"conflicting material for key {key.key_id!r}")
        self._keys[key.key_id] = key
        self._nonce_counters.setdefault(key.key_id, 0)

    def key_ids(self) -> list[str]:
        return sorted(self._keys)

    def encrypt(self, key_id: str, plaintext: bytes | str) -> Ciphertext:
        """Encrypt with an automatically fresh nonce."""
        key = self.get(key_id)
        nonce = self._nonce_counters[key_id]
        self._nonce_counters[key_id] = nonce + 1
        return encrypt(key, plaintext, nonce)

    def decrypt(self, ciphertext: Ciphertext) -> bytes:
        return decrypt(self.get(ciphertext.key_id), ciphertext)


@dataclass(frozen=True)
class KeyGrant:
    """The result of distributing keys to one recipient."""

    recipient: str
    keys: tuple[SymmetricKey, ...]

    def key_ids(self) -> list[str]:
        return sorted(k.key_id for k in self.keys)


class KeyDistributor:
    """Distributes, per recipient, *all and only* the keys they may hold.

    The owner registers an entitlement function mapping a recipient name
    to the set of key ids it is entitled to; :meth:`grant` materializes
    the keys from the owner's store.  Distribution is recorded so audits
    can answer "who holds key k?".
    """

    def __init__(self, store: KeyStore,
                 entitlement: Callable[[str], Iterable[str]]) -> None:
        self._store = store
        self._entitlement = entitlement
        self._granted: dict[str, set[str]] = {}

    def grant(self, recipient: str) -> KeyGrant:
        entitled = sorted(set(self._entitlement(recipient)))
        keys = tuple(self._store.get(key_id) for key_id in entitled)
        self._granted.setdefault(recipient, set()).update(entitled)
        return KeyGrant(recipient, keys)

    def holders_of(self, key_id: str) -> list[str]:
        return sorted(r for r, ids in self._granted.items()
                      if key_id in ids)

    def granted_to(self, recipient: str) -> set[str]:
        return set(self._granted.get(recipient, set()))
