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
SIGNATURE_LEN = 64
_PBKDF2_ITERATIONS = 10_000


class Role(Enum):
    DRILLER = "Driller"
    REFINERY = "Refinery"
    STORAGE = "Storage"
    PUMP = "Pump"
    OTHER_FACTORY = "OtherFactory"
    CONSUMER = "Consumer"


class CredentialKind(Enum):
    SIGNATURE = "Signature"
    PASSPHRASE = "Passphrase"


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


@dataclass(frozen=True)
class Credential:
    """Either a presented signature / passphrase attempt, or a stored
    passphrase record (salt + PBKDF2 digest). Stored passphrase records never
    contain the cleartext."""

    kind: CredentialKind
    payload: bytes = field(repr=False)


def derive_address(public_key: bytes) -> bytes:
    """Last 20 bytes of SHA-256 over the raw public key."""
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
def _signing_key(private_key: bytes) -> Ed25519PrivateKey:
    """The key object for raw private key bytes, built once per key.

    Ed25519 signing is deterministic, so the cached object signs exactly as a
    fresh one would. The bound keeps a process that signs with many keys from
    holding every key object it ever built.
    """
    return Ed25519PrivateKey.from_private_bytes(private_key)


def sign(message: bytes, private_key: bytes) -> bytes:
    """Ed25519 signature (64 bytes) over the message."""
    return _signing_key(private_key).sign(message)


def verify(message: bytes, signature: bytes, public_key: bytes) -> bool:
    """True iff signature is valid. Malformed inputs return False, never raise."""
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message)
        return True
    except (InvalidSignature, ValueError, TypeError):
        return False


# --- passphrase credentials -------------------------------------------------

def make_passphrase_credential(passphrase: str, salt: bytes) -> Credential:
    """Stored form of a passphrase: salt || PBKDF2-HMAC-SHA256 digest.

    Raises EmptyPassphrase for the empty string; the cleartext is not kept.
    """
    if passphrase == "":
        raise EmptyPassphrase("passphrase must not be empty")
    dig = hashlib.pbkdf2_hmac(
        "sha256", passphrase.encode("utf-8"), salt, _PBKDF2_ITERATIONS
    )
    return Credential(kind=CredentialKind.PASSPHRASE, payload=salt + dig)


def check_passphrase(stored: Credential, attempt: str) -> bool:
    """Check a cleartext attempt against a stored passphrase credential."""
    if stored.kind is not CredentialKind.PASSPHRASE:
        return False
    salt, dig = stored.payload[:-32], stored.payload[-32:]
    got = hashlib.pbkdf2_hmac("sha256", attempt.encode("utf-8"), salt, _PBKDF2_ITERATIONS)
    return hmac.compare_digest(got, dig)


def signature_credential(signature: bytes) -> Credential:
    """Presented form of a signature credential."""
    return Credential(kind=CredentialKind.SIGNATURE, payload=signature)


def passphrase_attempt(text: str) -> Credential:
    """Presented form of a passphrase credential (carries the attempt)."""
    return Credential(kind=CredentialKind.PASSPHRASE, payload=text.encode("utf-8"))
