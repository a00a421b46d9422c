"""Self-test of the benchmark's output checks; needs numpy, not tmsensor.

Usage: python3 bench/selftest.py

Each check gets a correct output, which it must accept, and wrong outputs
(one count off, one window dropped, one report field changed, bytes that
differ between passes, a bad journal), each of which it must reject.
Exits 0 when every case behaves, 1 otherwise.
"""

import copy
import dataclasses
import hashlib
import json
import sys

import numpy as np

import inputs
import oracle
from oracle import CheckFailed

WINDOW = 32
KEY = inputs.key_bytes(7)
KID = oracle.key_id(KEY)


def small_capture(index: int) -> inputs.Packets:
    rng = inputs.rng_for("hicard", 7, index)
    hosts = inputs.host_pool(rng, 12)
    return inputs.zipf_packets(rng, hosts, 150, 1.0, (0, 16),
                               inputs.BASE_TIME_US + index * inputs.CAPTURE_SPACING_US)


def with_count_off(windows, i=1):
    bad = copy.deepcopy(windows)
    bad[i].counts[0] += 1
    return bad


def main() -> int:
    windows = oracle.expected_windows(small_capture(0), KEY, WINDOW)
    other = oracle.expected_windows(small_capture(1), KEY, WINDOW)
    good = oracle.encode_tmf(windows, WINDOW, KID)
    good_other = oracle.encode_tmf(other, WINDOW, KID)
    packets = sum(w.packets for w in windows)

    # Window 0 with its last count written as the two-byte varint 0x81 0x00.
    w0 = windows[0]
    raw = oracle.varints(dataclasses.replace(w0, rows=w0.rows[:-1], cols=w0.cols[:-1],
                                             counts=w0.counts[:-1]))
    tail = oracle.uleb128(np.array([w0.rows[-1] - w0.rows[-2], w0.cols[-1]], np.uint64))
    padded = (oracle.encode_block(w0, raw + tail + b"\x81\x00", WINDOW, KID)
              + oracle.encode_tmf(windows[1:], WINDOW, KID))

    def hicard(data, valid=packets):
        return lambda: oracle.check_hicard(data, windows, WINDOW, KID, valid)

    digests = {"a.pcap": hashlib.sha256(b"a").hexdigest(),
               "b.pcap": hashlib.sha256(b"b").hexdigest()}
    expected_spool = {"a.pcap": windows, "b.pcap": other}

    def spool(outputs):
        return lambda: oracle.check_spool(outputs, expected_spool, WINDOW, KID)

    def journal(text):
        return lambda: oracle.check_journal(text, digests)

    doc = oracle.expected_analyze([("a.tmf", windows), ("b.tmf", other)])
    changed_field = copy.deepcopy(doc)
    changed_field["merged"]["max_source_fanout"] += 1
    changed_hist = copy.deepcopy(doc)
    changed_hist["windows"][2]["report"]["fanin_histogram"]["1"] += 1
    dropped_report = copy.deepcopy(doc)
    del dropped_report["windows"][-1]

    def analyze(report):
        return lambda: oracle.check_report(json.dumps(report, indent=2), doc)

    accept = {
        "hicard: correct output": hicard(good),
        "spool: correct outputs, names not matching captures": spool(
            {"tm-1-000.tmf": good_other, "tm-1-001.tmf": good}),
        "journal: each capture once": journal(
            "".join(f"{d} {n}\n" for n, d in digests.items())),
        "analyze: correct report": analyze(doc),
        "passes: identical bytes": lambda: oracle.check_identical(
            [{"x": good}, {"y": good}], "hicard"),
    }
    reject = {
        "hicard: one count off": hicard(oracle.encode_tmf(with_count_off(windows), WINDOW,
                                                          KID)),
        "hicard: one window dropped": hicard(oracle.encode_tmf(windows[:-1], WINDOW, KID)),
        "hicard: file cut short": hicard(good[:-3]),
        "hicard: non-canonical varint": hicard(padded),
        "hicard: counts do not sum to the valid packets": hicard(good, packets + 1),
        "passes: bytes differ between passes": lambda: oracle.check_identical(
            [{"x": good}, {"x": good_other}], "hicard"),
        "spool: one count off": spool(
            {"o1": good, "o2": oracle.encode_tmf(with_count_off(other), WINDOW, KID)}),
        "spool: one window dropped": spool(
            {"o1": oracle.encode_tmf(windows[1:], WINDOW, KID), "o2": good_other}),
        "spool: one output missing": spool({"o1": good}),
        "spool: one capture converted twice": spool({"o1": good, "o2": good}),
        "journal: capture missing": journal(f"{digests['a.pcap']} a.pcap\n"),
        "journal: capture recorded twice": journal(
            "".join(f"{d} {n}\n" for n, d in digests.items()) + f"{digests['a.pcap']} a.pcap\n"),
        "journal: wrong digest": journal(
            f"{digests['b.pcap']} a.pcap\n{digests['b.pcap']} b.pcap\n"),
        "analyze: merged field changed": analyze(changed_field),
        "analyze: histogram entry changed": analyze(changed_hist),
        "analyze: one window report dropped": analyze(dropped_report),
    }

    bad = 0
    for name, case in accept.items():
        try:
            case()
            print(f"ok      accepts  {name}")
        except CheckFailed as exc:
            bad += 1
            print(f"FAILED  rejected {name}: {exc}")
    for name, case in reject.items():
        try:
            case()
            bad += 1
            print(f"FAILED  accepted {name}")
        except CheckFailed as exc:
            print(f"ok      rejects  {name}: {exc}")
    print(f"selftest: {len(accept) + len(reject) - bad} of {len(accept) + len(reject)} cases ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
