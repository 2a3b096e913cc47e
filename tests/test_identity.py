"""Keys, addresses, signatures, passphrase credentials."""

import hashlib

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from hypothesis import given, strategies as st

from oilchain import identity
from oilchain.errors import EmptyPassphrase
from oilchain.identity import Role


def test_same_role_and_seed_is_byte_identical():
    a = identity.generate_actor(Role.DRILLER, 1)
    b = identity.generate_actor(Role.DRILLER, 1)
    assert a.private_key == b.private_key
    assert a.public_key == b.public_key
    assert a.address == b.address


def test_different_seeds_give_distinct_addresses():
    a = identity.generate_actor(Role.DRILLER, 1)
    b = identity.generate_actor(Role.DRILLER, 2)
    assert a.address != b.address


def test_different_roles_give_distinct_addresses():
    a = identity.generate_actor(Role.DRILLER, 1)
    b = identity.generate_actor(Role.REFINERY, 1)
    assert a.address != b.address


def test_address_is_last_20_bytes_of_hash():
    actor = identity.generate_actor(Role.STORAGE, 5)
    assert actor.address == hashlib.sha256(actor.public_key).digest()[-20:]
    assert len(actor.address) == 20


def test_sign_verify_round_trip():
    actor = identity.generate_actor(Role.PUMP, 3)
    message = b"release batch 101"
    signature = identity.sign(message, actor.private_key)
    assert len(signature) == 64
    assert identity.verify(message, signature, actor.public_key)


def test_bit_flipped_message_fails_verification():
    actor = identity.generate_actor(Role.PUMP, 3)
    message = bytearray(b"release batch 101")
    signature = identity.sign(bytes(message), actor.private_key)
    message[0] ^= 0x01
    assert not identity.verify(bytes(message), signature, actor.public_key)


def test_malformed_signatures_return_false_not_raise():
    actor = identity.generate_actor(Role.PUMP, 3)
    message = b"release batch 101"
    signature = identity.sign(message, actor.private_key)
    assert not identity.verify(message, signature[:-1], actor.public_key)
    assert not identity.verify(message, b"", actor.public_key)
    assert not identity.verify(message, b"\x00" * 64, actor.public_key)
    assert not identity.verify(message, signature, b"\x00" * 5)


def test_wrong_key_fails_verification():
    signer = identity.generate_actor(Role.PUMP, 3)
    other = identity.generate_actor(Role.PUMP, 4)
    signature = identity.sign(b"msg", signer.private_key)
    assert not identity.verify(b"msg", signature, other.public_key)


@given(st.binary(max_size=128))
def test_signatures_verify_for_any_message(message):
    kp = identity.generate_device("prop", 11)
    assert identity.verify(message, identity.sign(message, kp.private_key), kp.public_key)


SIGNING_KEYS = [
    identity.generate_device("validator:0", 99),
    identity.generate_device("gateway:101", 7),
    identity.generate_actor(Role.DRILLER, 1),
    identity.generate_actor(Role.CONSUMER, 42),
]


@pytest.mark.parametrize("key", SIGNING_KEYS, ids=lambda key: key.address.hex()[:8])
@pytest.mark.parametrize("message", [b"", b"release batch 101", bytes(range(256))])
def test_sign_matches_a_freshly_built_key(key, message):
    fresh = Ed25519PrivateKey.from_private_bytes(key.private_key).sign(message)
    assert identity.sign(message, key.private_key) == fresh


def test_signing_key_is_built_once_per_key(monkeypatch):
    built = []

    class CountingKey:
        @staticmethod
        def from_private_bytes(data):
            built.append(data)
            return Ed25519PrivateKey.from_private_bytes(data)

    monkeypatch.setattr(identity, "Ed25519PrivateKey", CountingKey)
    identity._signing_key.cache_clear()
    kp = identity.generate_device("once", 5)
    built.clear()
    for i in range(10):
        identity.sign(i.to_bytes(2, "big"), kp.private_key)
    assert built == [kp.private_key]


# --- passphrases ------------------------------------------------------------

def test_passphrase_check():
    cred = identity.make_passphrase_credential("open sesame", salt=b"\x01" * 16)
    assert identity.check_passphrase(cred, "open sesame")
    assert not identity.check_passphrase(cred, "open sesame ")
    assert not identity.check_passphrase(cred, "wrong")


def test_passphrase_digest_depends_on_salt():
    a = identity.make_passphrase_credential("open sesame", salt=b"\x01" * 16)
    b = identity.make_passphrase_credential("open sesame", salt=b"\x02" * 16)
    assert a != b


def test_stored_passphrase_never_contains_cleartext():
    cred = identity.make_passphrase_credential("open sesame", salt=b"\x01" * 16)
    assert b"open sesame" not in cred


def test_empty_passphrase_rejected():
    with pytest.raises(EmptyPassphrase):
        identity.make_passphrase_credential("", salt=b"\x01" * 16)
