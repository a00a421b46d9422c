"""Pseudonymization: test vectors, domain separation, key file format."""

import hashlib
import hmac
import io
import os
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tmsensor import cli
from tmsensor.anon import (
    KEY_FILE_LEN,
    AnonKey,
    anonymize_ip,
    generate_key,
    load_key,
    pseudonyms,
    save_key,
)
from tmsensor.errors import EntropyUnavailable, KeyFileError

from conftest import ip4, ip6


def hmac_sha256_by_hand(key: bytes, message: bytes) -> bytes:
    """HMAC built from the raw block construction, independent of hmac.py."""
    block = key.ljust(64, b"\x00")
    inner = hashlib.sha256(bytes(b ^ 0x36 for b in block) + message).digest()
    return hashlib.sha256(bytes(b ^ 0x5C for b in block) + inner).digest()


# Frozen vectors, computed with the hand-rolled HMAC above.
ZERO_KEY_10_0_0_1 = 0x3FEC188E422215B7
ZERO_KEY_V6_COUNTING = 0xFE41F6A89E6B4E55  # ip = bytes(range(16))
RANGE_KEY_192_168_1_77 = 0x1EEF095942CEBF21
ZERO_KEY_ID = bytes.fromhex("66687aadf862bd77")  # sha256(32 zero bytes)[:8]


def test_zero_key_ipv4_vector(zero_key):
    assert anonymize_ip(zero_key, 4, ip4("10.0.0.1")) == ZERO_KEY_10_0_0_1


def test_zero_key_ipv6_vector(zero_key):
    assert anonymize_ip(zero_key, 6, bytes(range(16))) == ZERO_KEY_V6_COUNTING


def test_range_key_ipv4_vector(fixed_key):
    assert anonymize_ip(fixed_key, 4, ip4("192.168.1.77")) == RANGE_KEY_192_168_1_77


def test_matches_independent_hmac_on_random_inputs(fixed_key):
    rng = random.Random(20)
    for _ in range(200):
        ip = rng.randbytes(4)
        expected = int.from_bytes(
            hmac_sha256_by_hand(fixed_key.key_bytes, b"\x04" + ip)[:8], "big"
        )
        assert anonymize_ip(fixed_key, 4, ip) == expected
    for _ in range(50):
        ip = rng.randbytes(16)
        expected = int.from_bytes(
            hmac_sha256_by_hand(fixed_key.key_bytes, b"\x06" + ip)[:8], "big"
        )
        assert anonymize_ip(fixed_key, 6, ip) == expected


@given(st.binary(min_size=32, max_size=32),
       st.one_of(st.tuples(st.just(4), st.binary(min_size=4, max_size=4)),
                 st.tuples(st.just(6), st.binary(min_size=16, max_size=16))))
def test_matches_stdlib_hmac(key_bytes, address):
    version, ip = address
    digest = hmac.new(key_bytes, bytes([version]) + ip, hashlib.sha256).digest()
    assert anonymize_ip(AnonKey(key_bytes), version, ip) == int.from_bytes(digest[:8], "big")


@given(st.binary(min_size=32, max_size=32),
       st.one_of(st.tuples(st.just(4), st.lists(st.binary(min_size=4, max_size=4))),
                 st.tuples(st.just(6), st.lists(st.binary(min_size=16, max_size=16)))))
@example(bytes(32), (4, []))
@example(bytes(32), (6, []))
def test_pseudonyms_match_stdlib_hmac(key_bytes, addresses):
    version, ips = addresses
    expected = [int.from_bytes(hmac.new(key_bytes, bytes([version]) + ip,
                                        hashlib.sha256).digest()[:8], "big")
                for ip in ips]
    width = 4 if version == 4 else 16
    ids = pseudonyms(AnonKey(key_bytes), version, np.array(ips, f"V{width}"))
    assert ids.dtype == np.uint64
    assert ids.tolist() == expected


def test_determinism(fixed_key):
    a = anonymize_ip(fixed_key, 4, ip4("10.0.0.1"))
    b = anonymize_ip(fixed_key, 4, ip4("10.0.0.1"))
    assert a == b


def test_statelessness_under_interleaving(fixed_key):
    ips = [bytes([10, 0, i >> 8, i & 0xFF]) for i in range(64)]
    isolated = [anonymize_ip(fixed_key, 4, ip) for ip in ips]
    interleaved = []
    for ip in ips:
        anonymize_ip(fixed_key, 4, ips[0])  # unrelated interleaved call
        interleaved.append(anonymize_ip(fixed_key, 4, ip))
    assert isolated == interleaved


def test_no_collisions_over_1e5_distinct_ipv4(fixed_key):
    rng = random.Random(99)
    ips = set()
    while len(ips) < 100_000:
        ips.add(rng.randbytes(4))
    ids = {anonymize_ip(fixed_key, 4, ip) for ip in ips}
    assert len(ids) == 100_000


def test_different_keys_give_different_ids(fixed_key, zero_key):
    rng = random.Random(7)
    same = 0
    for _ in range(10_000):
        ip = rng.randbytes(4)
        if anonymize_ip(fixed_key, 4, ip) == anonymize_ip(zero_key, 4, ip):
            same += 1
    assert same == 0  # 10^4 trials at 2^-64 each; any hit means a bug


def test_version_domain_separation(fixed_key):
    """1.2.3.4 as v4 is unrelated to any v6 address starting 01 02 03 04."""
    v4_id = anonymize_ip(fixed_key, 4, bytes([1, 2, 3, 4]))
    v6_id = anonymize_ip(fixed_key, 6, bytes([1, 2, 3, 4]) + bytes(12))
    assert v4_id != v6_id
    # Even hashing the identical byte string under both tags must differ.
    raw = bytes([1, 2, 3, 4])
    assert int.from_bytes(
        hmac_sha256_by_hand(fixed_key.key_bytes, b"\x04" + raw)[:8], "big"
    ) != int.from_bytes(
        hmac_sha256_by_hand(fixed_key.key_bytes, b"\x06" + raw)[:8], "big"
    )


def test_wrong_address_length_raises(fixed_key):
    with pytest.raises(ValueError):
        anonymize_ip(fixed_key, 4, b"\x01\x02\x03")
    with pytest.raises(ValueError):
        anonymize_ip(fixed_key, 6, ip4("1.2.3.4"))
    with pytest.raises(ValueError):
        anonymize_ip(fixed_key, 4, ip6("::1"))
    with pytest.raises(ValueError):
        pseudonyms(fixed_key, 4, np.zeros(2, "V16"))
    with pytest.raises(ValueError):
        pseudonyms(fixed_key, 6, np.zeros(0, ">u4"))


def test_unknown_version_raises(fixed_key):
    # A wrong width raises ValueError too, so the message tells them apart.
    with pytest.raises(ValueError, match="must be 4 or 6, got 5"):
        anonymize_ip(fixed_key, 5, b"\x00" * 4)
    with pytest.raises(ValueError, match="must be 4 or 6, got 5"):
        pseudonyms(fixed_key, 5, np.zeros(2, ">u4"))


def test_id_fits_64_bits(fixed_key):
    for i in range(256):
        value = anonymize_ip(fixed_key, 4, bytes([i, 0, 0, 1]))
        assert 0 <= value < 1 << 64


def test_key_must_be_32_bytes():
    with pytest.raises(ValueError):
        AnonKey(b"short")
    with pytest.raises(TypeError):
        AnonKey("not bytes" * 4)


def test_zero_key_id_matches_independent_hash(zero_key):
    assert zero_key.key_id == ZERO_KEY_ID
    assert zero_key.key_id == hashlib.sha256(bytes(32)).digest()[:8]


def test_generate_key_produces_distinct_keys():
    a, b = generate_key(), generate_key()
    assert a.key_bytes != b.key_bytes
    assert len(a.key_bytes) == 32


def test_no_os_entropy_raises_and_genkey_writes_no_key(tmp_path, monkeypatch, capsys):
    def urandom(n):
        raise OSError("no entropy source")

    monkeypatch.setattr(os, "urandom", urandom)
    with pytest.raises(EntropyUnavailable, match="no entropy source"):
        generate_key()
    out = tmp_path / "new.key"
    assert cli.main(["genkey", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "cannot read OS entropy" in err and "Traceback" not in err
    assert not out.exists()


def test_key_file_round_trip():
    key = generate_key()
    buf = io.BytesIO()
    save_key(key, buf)
    assert buf.tell() == KEY_FILE_LEN
    buf.seek(0)
    loaded = load_key(buf)
    assert loaded.key_bytes == key.key_bytes
    assert loaded.key_id == key.key_id


def test_key_file_layout(fixed_key):
    buf = io.BytesIO()
    save_key(fixed_key, buf)
    raw = buf.getvalue()
    assert raw[:4] == b"ANK1"
    assert raw[4] == 1
    assert raw[5:8] == b"\x00\x00\x00"
    assert raw[8:] == bytes(range(32))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda raw: raw[:-1],                      # too short
        lambda raw: raw + b"\x00",                 # too long
        lambda raw: b"XXXX" + raw[4:],             # bad magic
        lambda raw: raw[:4] + b"\x02" + raw[5:],   # unknown version
        lambda raw: raw[:5] + b"\x01" + raw[6:],   # reserved byte set
        lambda raw: b"",                           # empty
    ],
)
def test_damaged_key_files_are_rejected(fixed_key, mutate):
    buf = io.BytesIO()
    save_key(fixed_key, buf)
    with pytest.raises(KeyFileError):
        load_key(io.BytesIO(mutate(buf.getvalue())))


def test_unknown_key_file_version_is_named(fixed_key):
    buf = io.BytesIO()
    save_key(fixed_key, buf)
    raw = buf.getvalue()
    with pytest.raises(KeyFileError, match="unknown key file version 2$"):
        load_key(io.BytesIO(raw[:4] + b"\x02" + raw[5:]))
