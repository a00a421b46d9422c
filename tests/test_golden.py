"""The behavioural contract, pinned: the same capture and key give the same
`.tmf` bytes, and `analyze` prints the same report, from one version to the
next.

Each capture is made from a fixed seed and converted with a fixed key at two
window sizes; every capture, `.tmf` file and stdout is checked against a
SHA-256 written below. A capture digest that moves means the input
generator changed; a `.tmf`, `convert` or `analyze` digest that moves means
the contract broke, and the edit to the digest must say why.

Deflate runs at a pinned level, but another zlib build (zlib-ng, for one)
may still choose other bytes, so a failure names the zlib in use.
"""

import hashlib
import io
import os
import random
import zlib
from contextlib import redirect_stdout

import pytest

from tmsensor import cli
from tmsensor.anon import AnonKey, save_key
from tmsensor.synth import SynthSpec, synthesize

from conftest import eth_frame, ipv4_packet, ipv6_packet, pcap_header, pcap_record

WINDOWS = (1024, 131_072)
PACKETS = 20_000


def synth_capture(seed: int) -> bytes:
    out = io.BytesIO()
    synthesize(SynthSpec(host_count=300, packet_count=PACKETS, seed=seed), out)
    return out.getvalue()


def mixed_capture(seed: int, max_tags: int = 0) -> bytes:
    """IPv4 and IPv6 frames between a few dozen hosts, as the conftest
    builders write them, each behind up to ``max_tags`` 802.1Q tags."""
    rng = random.Random(seed)
    v4 = [f"10.{i >> 8}.{i & 255}.{rng.randrange(1, 255)}" for i in range(60)]
    v6 = [f"fd00::{rng.randrange(1 << 16):x}:{i:x}" for i in range(30)]
    out = bytearray(pcap_header())
    ts = 1_700_000_000_000_000
    for _ in range(PACKETS):
        ts += rng.randrange(1, 5000)
        payload = bytes(rng.randrange(0, 80))
        vlans = rng.randrange(max_tags + 1) if max_tags else 0
        if rng.random() < 0.7:
            frame = eth_frame(ipv4_packet(rng.choice(v4), rng.choice(v4), payload), vlans=vlans)
        else:
            frame = eth_frame(ipv6_packet(rng.choice(v6), rng.choice(v6), payload),
                              ethertype=0x86DD, vlans=vlans)
        out += pcap_record(frame, ts_sec=ts // 1_000_000, ts_frac=ts % 1_000_000)
    return bytes(out)


CAPTURES = {
    "synth-v4": lambda: synth_capture(11),
    "mixed-v4-v6": lambda: mixed_capture(12),
    "cut-mid-record": lambda: synth_capture(13)[:-7],  # the last record loses 7 bytes
    "tagged-0-3": lambda: mixed_capture(14, max_tags=3),
}

GOLDEN = {
    "synth-v4": {
        "capture": "91e3363a4918f3914948bfb24bd96266c1295aa4bff34352674aed225dba97ff",
        "1024/convert": "fde7549d22fcbd17e26c1cecffd9e5538a659cdf9195c2c251073367de8e3673",
        "1024/tmf": "e8376fcd0bfe9da5ba0ad5b732220577b02a5e2ce420f67b2f6ee8f6dd2d8d31",
        "1024/analyze-text": "d862c68d4de1a512d727d8deda6dc10dddee0ecdea48ab5551b0d1384ff4bac4",
        "1024/analyze-json": "e0a1e9e1c4271d699439032ac02b649a6955b5731898188dee68eb9e0e18589d",
        "131072/convert": "cef7395e46a70de27b947bd2e0acbce36936c55d6f0837ef2edc1f18223ddc99",
        "131072/tmf": "59eebcaf1d5431afbfe273b26e8cddf720a0f3e828442e94c20015d786fb16f7",
        "131072/analyze-text": "e3ea34180fbde0e6407862859232d4bacc6404b406b456a06ca4b64995357727",
        "131072/analyze-json": "628a158530e075e98ca1ea41875795cfab361cefdf9fca661e610103c203c8d1",
    },
    "mixed-v4-v6": {
        "capture": "17481cf93fef6db15158ba13ffee276be964126d4f00b96ed9c68d491f78e575",
        "1024/convert": "880d67e84c53e7383d8aaba5600a431c807e02fa58669ad61cfe412a5173bfae",
        "1024/tmf": "e39799b5cd977d9dbdb13d18b9a3dc79dd23257e1ca8d1cfcd5aaf9a09a048c6",
        "1024/analyze-text": "27c4be89f837435c012d66698a9e5c93d2ecd9dfdd65bf288d9a5979379f071b",
        "1024/analyze-json": "fb2d7efa2eeaadca5aa6955b4d8384c967163827e02847c2fcf447702bee9205",
        "131072/convert": "3d0fb4e100eac222577b4220aa189f085fb5e0b8ff0d41df76c9c7781950d2c9",
        "131072/tmf": "cff6630dbb7fd7fc22949695867143d43084f977d960ada2d54d8f37736de0fb",
        "131072/analyze-text": "b3bbc804c9beae54a92025c64e91931d47e594eecbe03afd15b8cf3ff51ea2b0",
        "131072/analyze-json": "c39a400695d496f686dfaa044ac89c482d5d8f08ab48ad0d872b8bd48e526a97",
    },
    "cut-mid-record": {
        "capture": "082e3436e60c91f24c604cbd65d591a67f4851edfc0fa969ba115a4b7f7e2268",
        "1024/convert": "0fbae76868afadab890dc000baac9fa9f93a3f23992855cebc6e76799f4277c9",
        "1024/tmf": "b7c10aab69097f69feba44a13863b7c3b13d1f816c44d507b1efd77acb9b5598",
        "1024/analyze-text": "7d98a9ad92c6e15563f3eb4c9a5ae10c3770d196fe6328871ab3e7840d8996e6",
        "1024/analyze-json": "7c2b9fd025630b85a954ed3ec5a6eab2be5f23fd4264f858fe670a4186fa5cf2",
        "131072/convert": "77302825ceafa2c4ec85331e4253aea1337e23b7e66910be38974864c1044af7",
        "131072/tmf": "9e9417036d0679412f4b3f925420ec62502a0904d0949874335cdbe371e7b8ec",
        "131072/analyze-text": "384f252490353e067f6eaf547699b340b865e796f4658e77df90c64b9b4ec238",
        "131072/analyze-json": "ad0dbd2100a89c74ede39313ba44d14fa96a15f7578fb5129650d89eacaa1006",
    },
    "tagged-0-3": {
        "capture": "d2c72cbfc1dfef786e715eb58d504596113fc8464e1381b34c92c15ad8d2ec41",
        "1024/convert": "4cf1c56ba251f0a4160a55107f3040b492744af4c6c82c69d9f1137990ba2b63",
        "1024/tmf": "3a79abc13c89c1061b32062bb471245ea196b654ca921252a67279881cd81971",
        "1024/analyze-text": "70f638dd5af30ab88e0948a6d946e5c199ab8bd38884166db9835e3ea2fc67a9",
        "1024/analyze-json": "f46af2a1795c43f7d31ae3340010a10ddf3025ebe00bd4f1c7ec7a372147be37",
        "131072/convert": "63c08467cad4290b69b591f2f4cf9fc566d402ca9196e8d33a92067a020acd67",
        "131072/tmf": "203a228a066e25b2f525b1bdf4e84752ae096ef5828df727aca4bc93f1cdc3a3",
        "131072/analyze-text": "6e16e1502f7b084fbf3dffa60d669d31ed84154b64b8294e4dc20042c5b09d5e",
        "131072/analyze-json": "8355b7475e23d8d08ad2a16a6e63c388c12ff1c96d95e5ca31a7eb0e4f2ff38e",
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(*argv: str) -> bytes:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue().encode()


def digests(capture: bytes) -> dict[str, str]:
    """Digest of the capture, and per window size of its `.tmf`, the
    `convert` stdout and the `analyze` stdout in both formats. Run in a
    fresh directory: the printed paths are relative, so they are the same
    on every machine."""
    with open("key", "wb") as f:
        save_key(AnonKey(bytes(range(32))), f)
    with open("capture.pcap", "wb") as f:
        f.write(capture)
    found = {"capture": sha256(capture)}
    for window in WINDOWS:
        out_dir = f"w{window}"
        os.mkdir(out_dir)
        found[f"{window}/convert"] = sha256(run(
            "convert", "capture.pcap", "--key", "key", "--out-dir", out_dir,
            "--window-size", str(window)))
        (tmf,) = os.listdir(out_dir)
        tmf = f"{out_dir}/{tmf}"
        with open(tmf, "rb") as f:
            found[f"{window}/tmf"] = sha256(f.read())
        for form in ("text", "json"):
            found[f"{window}/analyze-{form}"] = sha256(
                run("analyze", "--format", form, tmf))
    return found


@pytest.mark.parametrize("name", CAPTURES)
def test_outputs_match_their_pinned_digests(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    found = digests(CAPTURES[name]())
    moved = {k: v for k, v in found.items() if GOLDEN[name].get(k) != v}
    assert not moved, (
        f"{name}: digests moved under zlib {zlib.ZLIB_RUNTIME_VERSION}: {moved}")
