"""Network quantities computed from traffic matrices.

All values are exact counts derived in a single pass over the entries plus
a transposed accumulation, with memory proportional to the number of
distinct sources and destinations. No statistical fitting happens here;
reports are deterministic and directly comparable across windows.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Sequence

from .matrix import TrafficMatrix, merge


@dataclass
class AnalysisReport:
    """Exact traffic-matrix statistics for one window (or a merged range).

    Fan-out of a source is the number of distinct destinations it contacts;
    fan-in of a destination is the number of distinct sources contacting it.
    The histograms map degree to the number of hosts with that degree.
    """

    valid_packets: int = 0
    unique_links: int = 0
    unique_sources: int = 0
    unique_destinations: int = 0
    max_link_packets: int = 0
    max_source_packets: int = 0
    max_source_fanout: int = 0
    max_destination_packets: int = 0
    max_destination_fanin: int = 0
    fanout_histogram: dict[int, int] = field(default_factory=dict)
    fanin_histogram: dict[int, int] = field(default_factory=dict)


def analyze(m: TrafficMatrix) -> AnalysisReport:
    """Compute the full report for one matrix."""
    row_packets: dict[int, int] = {}
    row_fanout: dict[int, int] = {}
    col_packets: dict[int, int] = {}
    col_fanin: dict[int, int] = {}
    total = 0
    max_link = 0

    for (row, col), count in m.entries.items():
        total += count
        if count > max_link:
            max_link = count
        row_packets[row] = row_packets.get(row, 0) + count
        row_fanout[row] = row_fanout.get(row, 0) + 1
        col_packets[col] = col_packets.get(col, 0) + count
        col_fanin[col] = col_fanin.get(col, 0) + 1

    return AnalysisReport(
        valid_packets=total,
        unique_links=len(m.entries),
        unique_sources=len(row_packets),
        unique_destinations=len(col_packets),
        max_link_packets=max_link,
        max_source_packets=max(row_packets.values(), default=0),
        max_source_fanout=max(row_fanout.values(), default=0),
        max_destination_packets=max(col_packets.values(), default=0),
        max_destination_fanin=max(col_fanin.values(), default=0),
        fanout_histogram=dict(Counter(row_fanout.values())),
        fanin_histogram=dict(Counter(col_fanin.values())),
    )


def analyze_many(
    ms: Sequence[TrafficMatrix],
) -> tuple[list[AnalysisReport], AnalysisReport]:
    """Per-window reports plus the report of the merged whole.

    The merged report comes from merging the matrices and analyzing the
    result; max- and unique-type fields do not sum across windows, so
    summing per-window reports would be wrong.
    """
    reports = [analyze(m) for m in ms]
    if not ms:
        return reports, AnalysisReport()
    return reports, analyze(merge(*ms))


def report_to_dict(report: AnalysisReport) -> dict:
    """Report as a plain dict in field order, histograms sorted by degree."""
    doc = {}
    for f in fields(AnalysisReport):
        value = getattr(report, f.name)
        doc[f.name] = dict(sorted(value.items())) if isinstance(value, dict) else value
    return doc


def format_report_text(report: AnalysisReport) -> str:
    """Flat name=value text form, histograms as fanout[d]=n / fanin[d]=n."""
    lines = []
    for name, value in report_to_dict(report).items():
        if name.endswith("_histogram"):
            prefix = name.removesuffix("_histogram")
            lines.extend(f"{prefix}[{degree}]={n}" for degree, n in value.items())
        else:
            lines.append(f"{name}={value}")
    return "\n".join(lines)
