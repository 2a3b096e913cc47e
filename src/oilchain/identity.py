"""Actors, device keys, signatures, and acceptance credentials.

Key material is derived deterministically from integer seeds so that a whole
scenario replays byte-for-byte. Signing uses Ed25519 (deterministic
signatures; a randomized scheme would change block hashes between runs).
Addresses are the last 20 bytes of SHA-256 over the raw public key.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
from dataclasses import dataclass, field
from enum import Enum

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .errors import EmptyPassphrase

ADDRESS_LEN = 20
_PBKDF2_ITERATIONS = 10_000


class Role(Enum):
    DRILLER = "Driller"
    REFINERY = "Refinery"
    STORAGE = "Storage"
    PUMP = "Pump"
    OTHER_FACTORY = "OtherFactory"
    CONSUMER = "Consumer"


@dataclass(frozen=True)
class KeyPair:
    """Raw Ed25519 key material plus the derived 20-byte address."""

    private_key: bytes = field(repr=False)
    public_key: bytes
    address: bytes


@dataclass(frozen=True)
class Actor(KeyPair):
    """A supply-chain participant: a keypair with one role.

    The private key stays in process memory; nothing in the ledger ever
    serializes it.
    """

    role: Role


@functools.lru_cache(maxsize=1024)
def derive_address(public_key: bytes) -> bytes:
    """Last 20 bytes of SHA-256 over the raw public key, hashed once per key
    while it is among the 1024 latest."""
    return hashlib.sha256(public_key).digest()[-ADDRESS_LEN:]


def address_hex(address: bytes) -> str:
    return "0x" + address.hex()


# run seeds lie in [0, SEED_LIMIT): key derivation packs a seed into 8 signed bytes
SEED_LIMIT = 2 ** 63


def generate_keypair(domain: str, seed: int) -> KeyPair:
    """Deterministic keypair from a domain label and a 64-bit seed."""
    material = hashlib.sha256(
        b"oilchain/key/" + domain.encode("utf-8") + b"/" + seed.to_bytes(8, "big", signed=True)
    ).digest()
    private = Ed25519PrivateKey.from_private_bytes(material)
    public = private.public_key().public_bytes_raw()
    return KeyPair(private_key=material, public_key=public, address=derive_address(public))


def generate_actor(role: Role, seed: int) -> Actor:
    """Create an actor with keys derived from (role, seed).

    The same (role, seed) always yields byte-identical keys; different seeds
    or roles yield distinct addresses.
    """
    kp = generate_keypair(f"actor:{role.value}", seed)
    return Actor(**vars(kp), role=role)


def generate_device(label: str, seed: int) -> KeyPair:
    """Keypair for non-actor identities: validators, telemetry gateways."""
    return generate_keypair(f"device:{label}", seed)


@functools.lru_cache(maxsize=1024)
def _signing_key(private_key: bytes) -> tuple[Ed25519PrivateKey, bytes]:
    """The key object and raw public key for raw private key bytes, built
    once per key.

    Ed25519 signing is deterministic, so the cached object signs exactly as a
    fresh one would. The bound keeps a process that signs with many keys from
    holding every key object it ever built.
    """
    key = Ed25519PrivateKey.from_private_bytes(private_key)
    return key, key.public_key().public_bytes_raw()


# how many of its latest signatures `sign` remembers; fixed, not configurable
SIGNATURE_MEMO_SIZE = 256

# (public key, message) -> the signature `sign` returned, oldest first
_signed: dict[tuple[bytes, bytes], bytes] = {}


def sign(message: bytes, private_key: bytes) -> bytes:
    """Ed25519 signature (64 bytes) over the message.

    The signature is remembered under (public key, message) as the newest
    entry until SIGNATURE_MEMO_SIZE later ones push it out, for `signed_here`.
    """
    key, public_key = _signing_key(private_key)
    signature = key.sign(message)
    signed = (public_key, bytes(message))
    _signed.pop(signed, None)
    _signed[signed] = signature
    if len(_signed) > SIGNATURE_MEMO_SIZE:
        del _signed[next(iter(_signed))]
    return signature


def signed_here(message: bytes, signature: bytes, public_key: bytes) -> bool:
    """True iff `sign` in this process recently returned exactly `signature`
    for `message` under the private key of `public_key`.

    Such a signature is valid without verifying it (Ed25519 signing is
    correct and deterministic). False says nothing: the signature may still
    be valid, made elsewhere or pushed out of the memo; `verify` decides.
    """
    try:
        remembered = _signed.get((public_key, message))
    except TypeError:                   # unhashable key material is never remembered
        return False
    return remembered is not None and remembered == signature


def verify(message: bytes, signature: bytes, public_key: bytes) -> bool:
    """True iff signature is valid. Malformed inputs return False, never raise.

    Always runs Ed25519: it never reads what `sign` remembers.
    """
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message)
        return True
    except (InvalidSignature, ValueError, TypeError):
        return False


def signed_here_or_verified(message: bytes, signature: bytes, public_key: bytes) -> bool:
    """True iff signature is valid: `signed_here`, else `verify`.

    Same answer as `verify`; it skips Ed25519 only for a signature this
    process recently made.
    """
    return (signed_here(message, signature, public_key)
            or verify(message, signature, public_key))


# --- passphrase credentials -------------------------------------------------

def _derive(passphrase: bytes, salt: bytes) -> bytes:
    return hashlib.pbkdf2_hmac("sha256", passphrase, salt, _PBKDF2_ITERATIONS)


@dataclass(frozen=True)
class PassphraseCredential:
    """A salt and the UTF-8 passphrase a buyer must present, kept out of repr.

    `stored`, salt || PBKDF2-HMAC-SHA256 digest, is derived on its first
    read and then kept on the object. Nothing writes it to a ledger or store.
    """

    salt: bytes
    passphrase: bytes = field(repr=False)

    @functools.cached_property
    def stored(self) -> bytes:
        return self.salt + _derive(self.passphrase, self.salt)


def make_passphrase_credential(passphrase: str, salt: bytes) -> PassphraseCredential:
    """The credential of a passphrase under a salt; it derives nothing.

    Raises EmptyPassphrase for the empty string.
    """
    if passphrase == "":
        raise EmptyPassphrase("passphrase must not be empty")
    return PassphraseCredential(salt, passphrase.encode("utf-8"))


def check_passphrase(credential: PassphraseCredential, attempt: str) -> bool:
    """Check a cleartext attempt against a credential.

    An attempt whose UTF-8 is the credential's passphrase is accepted without
    deriving. Any other is derived under the salt and compared with `stored`,
    so it gets the answer the stored form gives: HMAC zero-pads a short key,
    so the passphrase with trailing NULs is accepted too. Malformed inputs
    return False, never raise.
    """
    if not isinstance(credential, PassphraseCredential) or not isinstance(attempt, str):
        return False
    try:
        secret = attempt.encode("utf-8")
        return (hmac.compare_digest(credential.passphrase, secret)
                or hmac.compare_digest(credential.salt + _derive(secret, credential.salt),
                                       credential.stored))
    except (UnicodeEncodeError, TypeError):     # a lone surrogate, or a salt not bytes
        return False
