"""Analytics: exact fields, the merged-report rule, report formatting."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmsensor.analytics import (
    AnalysisReport,
    analyze,
    analyze_many,
    format_report_text,
    report_to_dict,
)
from tmsensor.errors import InvariantViolation, KeyMismatch, WindowSizeMismatch
from tmsensor.matrix import TrafficMatrix, merge

from conftest import random_entries

KEY_ID = b"\x0c" * 8


def matrix_of(entries, window=1024):
    total = sum(entries.values())
    times = (0, 0) if total == 0 else (100, 200)
    return TrafficMatrix.from_entries(window, total, *times, KEY_ID, entries)


def brute_force_report(pairs) -> AnalysisReport:
    """Direct hash-map recount from the raw (src_id, dst_id) packet list."""
    links: dict = {}
    for pair in pairs:
        links[pair] = links.get(pair, 0) + 1
    row_pk: dict = {}
    col_pk: dict = {}
    row_fo: dict = {}
    col_fi: dict = {}
    for (s, d), c in links.items():
        row_pk[s] = row_pk.get(s, 0) + c
        col_pk[d] = col_pk.get(d, 0) + c
        row_fo[s] = row_fo.get(s, 0) + 1
        col_fi[d] = col_fi.get(d, 0) + 1
    fo_hist: dict = {}
    for deg in row_fo.values():
        fo_hist[deg] = fo_hist.get(deg, 0) + 1
    fi_hist: dict = {}
    for deg in col_fi.values():
        fi_hist[deg] = fi_hist.get(deg, 0) + 1
    return AnalysisReport(
        valid_packets=sum(links.values()),
        unique_links=len(links),
        unique_sources=len(row_pk),
        unique_destinations=len(col_pk),
        max_link_packets=max(links.values(), default=0),
        max_source_packets=max(row_pk.values(), default=0),
        max_source_fanout=max(row_fo.values(), default=0),
        max_destination_packets=max(col_pk.values(), default=0),
        max_destination_fanin=max(col_fi.values(), default=0),
        fanout_histogram=fo_hist,
        fanin_histogram=fi_hist,
    )


def test_empty_matrix_gives_all_zero_report():
    report = analyze(matrix_of({}))
    assert report == AnalysisReport()
    assert report.fanout_histogram == {} and report.fanin_histogram == {}


def test_hand_counted_example():
    report = analyze(matrix_of({(1, 2): 3, (1, 4): 1, (5, 2): 2}))
    assert report.valid_packets == 6
    assert report.unique_links == 3
    assert report.unique_sources == 2
    assert report.unique_destinations == 2
    assert report.max_link_packets == 3
    assert report.max_source_packets == 4
    assert report.max_source_fanout == 2
    assert report.max_destination_packets == 5
    assert report.max_destination_fanin == 2
    assert report.fanout_histogram == {1: 1, 2: 1}
    assert report.fanin_histogram == {1: 1, 2: 1}


def test_matches_brute_force_on_random_packet_lists():
    rng = random.Random(42)
    for _ in range(20):
        pairs = [
            (rng.randrange(40), rng.randrange(40)) for _ in range(rng.randrange(800))
        ]
        entries: dict = {}
        for pair in pairs:
            entries[pair] = entries.get(pair, 0) + 1
        report = analyze(matrix_of(entries))
        assert report == brute_force_report(pairs)


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 1 << 20), st.integers(0, 1 << 20)),
        st.integers(1, 50),
        max_size=40,
    )
)
def test_structural_invariants(entries):
    report = analyze(matrix_of(entries))
    assert report.unique_sources == sum(report.fanout_histogram.values())
    assert report.unique_destinations == sum(report.fanin_histogram.values())
    assert report.unique_links == sum(
        deg * n for deg, n in report.fanout_histogram.items()
    )
    assert report.unique_links == sum(
        deg * n for deg, n in report.fanin_histogram.items()
    )
    assert report.valid_packets == sum(entries.values())


def test_determinism():
    rng = random.Random(8)
    m = matrix_of(random_entries(rng, 50))
    assert analyze(m) == analyze(m)


def test_analyze_many_empty_sequence():
    reports, merged = analyze_many([])
    assert reports == []
    assert merged == AnalysisReport()


def test_single_matrix_merged_equals_per_window():
    m = matrix_of({(1, 2): 3, (4, 5): 1})
    reports, merged = analyze_many([m])
    assert reports == [merged]


def test_disjoint_hosts_sum_unique_counts():
    a = matrix_of({(1, 2): 3, (3, 4): 1})
    b = matrix_of({(10, 20): 2, (30, 40): 2})
    reports, merged = analyze_many([a, b])
    assert merged.unique_sources == sum(r.unique_sources for r in reports)
    assert merged.unique_destinations == sum(r.unique_destinations for r in reports)
    assert merged.unique_links == sum(r.unique_links for r in reports)


def test_identical_matrices_double_mass_not_support():
    m = matrix_of({(1, 2): 3, (3, 2): 1})
    reports, merged = analyze_many([m, m])
    assert merged.valid_packets == 2 * reports[0].valid_packets
    assert merged.unique_links == reports[0].unique_links
    assert merged.max_link_packets == 2 * reports[0].max_link_packets


def test_merged_report_is_merge_then_analyze_not_field_sums():
    # Overlapping hosts make summed per-window fields wrong.
    a = matrix_of({(1, 2): 3})
    b = matrix_of({(1, 9): 5})
    reports, merged = analyze_many([a, b])
    assert merged == analyze(merge(a, b))
    assert merged.unique_sources == 1  # a naive sum would say 2
    assert merged.max_source_fanout == 2


# Blocks drawn from a few hosts, so they share cells; empty ones are empty windows.
_block_entries = st.dictionaries(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                                 st.integers(1, 1000), max_size=15)


@st.composite
def block_lists(draw):
    """Blocks with empty windows, repeats and one block larger than all before it."""
    blocks = [matrix_of(e) for e in draw(st.lists(_block_entries, max_size=10))]
    for _ in range(draw(st.integers(0, 3)) if blocks else 0):
        again = blocks[draw(st.integers(0, len(blocks) - 1))]
        blocks.insert(draw(st.integers(0, len(blocks))), again)
    at = draw(st.integers(0, len(blocks)))
    size = sum(len(b.counts) for b in blocks[:at]) + draw(st.integers(1, 20))
    blocks.insert(at, matrix_of({(k % 30, k // 30): 1 + k for k in range(size)}))
    return blocks


@settings(max_examples=200, deadline=None)
@given(block_lists())
def test_analyze_many_folds_to_one_merge(blocks):
    reports, merged = analyze_many(iter(blocks))
    assert reports == [analyze(b) for b in blocks]
    assert merged == analyze(merge(*blocks))


@settings(max_examples=100, deadline=None)
@given(block_lists(), st.sampled_from([KeyMismatch, WindowSizeMismatch, InvariantViolation]),
       st.sampled_from(["first", "middle", "last"]))
def test_analyze_many_raises_a_mismatch_wherever_it_is(blocks, error, place):
    if error is KeyMismatch:
        bad = TrafficMatrix.from_entries(1024, 1, 100, 200, b"\x0d" * 8, {(1, 2): 1})
    elif error is WindowSizeMismatch:
        bad = matrix_of({(1, 2): 1}, window=2048)
    else:  # with any other packet, the merged count passes 2**64
        bad = matrix_of({(1, 2): (1 << 64) - 1})
    at = {"first": 0, "middle": len(blocks) // 2, "last": len(blocks)}[place]
    blocks.insert(at, bad)
    with pytest.raises(error):
        merge(*blocks)
    with pytest.raises(error):
        analyze_many(iter(blocks))


def test_merge_mass_additivity_property():
    rng = random.Random(13)
    for _ in range(25):
        a = matrix_of(random_entries(rng))
        b = matrix_of(random_entries(rng))
        combined = analyze(merge(a, b))
        assert combined.valid_packets == (
            analyze(a).valid_packets + analyze(b).valid_packets
        )
        assert combined.unique_links <= (
            analyze(a).unique_links + analyze(b).unique_links
        )


def test_text_format_field_names_and_histograms():
    report = analyze(matrix_of({(1, 2): 3, (1, 4): 1, (5, 2): 2}))
    text = format_report_text(report)
    lines = text.splitlines()
    assert lines[0] == "valid_packets=6"
    assert "unique_links=3" in lines
    assert "unique_sources=2" in lines
    assert "unique_destinations=2" in lines
    assert "max_link_packets=3" in lines
    assert "max_source_packets=4" in lines
    assert "max_source_fanout=2" in lines
    assert "max_destination_packets=5" in lines
    assert "max_destination_fanin=2" in lines
    assert "fanout[1]=1" in lines and "fanout[2]=1" in lines
    assert "fanin[1]=1" in lines and "fanin[2]=1" in lines


def test_json_format_round_trips_exact_fields():
    report = analyze(matrix_of({(1, 2): 3, (5, 2): 2}))
    doc = json.loads(json.dumps(report_to_dict(report), indent=2))
    assert doc["valid_packets"] == 5
    assert doc["max_destination_fanin"] == 2
    assert doc["fanin_histogram"] == {"2": 1}  # JSON keys are strings
    assert set(doc) == set(report_to_dict(report))


def test_report_to_dict_keeps_integer_histogram_keys():
    report = analyze(matrix_of({(1, 2): 1}))
    assert report_to_dict(report)["fanout_histogram"] == {1: 1}
