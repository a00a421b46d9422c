"""Network quantities computed from traffic matrices.

All values are exact counts: ``np.unique`` groups a matrix's cells by source
and by destination, and per-host packets are summed in ``uint64``. No
statistical fitting happens here; reports are deterministic and directly
comparable across windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterable

import numpy as np

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
    """Compute the full report for one (valid) matrix."""
    src_packets, fanout = _per_host(m.rows, m.counts)
    dst_packets, fanin = _per_host(m.cols, m.counts)
    return AnalysisReport(
        valid_packets=int(m.counts.sum()),
        unique_links=len(m.counts),
        unique_sources=len(fanout),
        unique_destinations=len(fanin),
        max_link_packets=int(m.counts.max(initial=0)),
        max_source_packets=int(src_packets.max(initial=0)),
        max_source_fanout=int(fanout.max(initial=0)),
        max_destination_packets=int(dst_packets.max(initial=0)),
        max_destination_fanin=int(fanin.max(initial=0)),
        fanout_histogram=_histogram(fanout),
        fanin_histogram=_histogram(fanin),
    )


def _per_host(ids: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Packets and degree (distinct peers) of each distinct host in ids."""
    _, host, degree = np.unique(ids, return_inverse=True, return_counts=True)
    packets = np.zeros(len(degree), np.uint64)
    np.add.at(packets, host, counts)  # exact, unlike bincount's float weights
    return packets, degree


def _histogram(degree: np.ndarray) -> dict[int, int]:
    values, hosts = np.unique(degree, return_counts=True)
    return dict(zip(values.tolist(), hosts.tolist()))


def analyze_many(
    ms: Iterable[TrafficMatrix],
) -> tuple[list[AnalysisReport], AnalysisReport]:
    """Per-window reports plus the report of the merged whole.

    The merged report comes from merging the matrices and analyzing the
    result; max- and unique-type fields do not sum across windows, so
    summing per-window reports would be wrong.

    ``ms`` is read once, in order, and may be any iterable. Matrices wait
    until their cells outnumber the merged matrix's cells; then each waiting
    one is reported and all are folded into the merged matrix. So memory
    holds the merged cells, at most about as many waiting cells and the
    reports, not every matrix. Reporting a run of matrices at a time, not
    each as it is read, keeps reading and analysis in separate loops, which
    is faster. A key, window-size or packet-count mismatch raises when the
    mismatching matrix is folded in.
    """
    reports: list[AnalysisReport] = []
    merged: list[TrafficMatrix] = []  # the merged matrix, once there is one
    waiting: list[TrafficMatrix] = []
    merged_cells = waiting_cells = 0
    for m in ms:
        waiting.append(m)
        waiting_cells += len(m.counts)
        if waiting_cells > merged_cells:
            reports += map(analyze, waiting)
            merged = [merge(*merged, *waiting)]
            waiting, merged_cells, waiting_cells = [], len(merged[0].counts), 0
    reports += map(analyze, waiting)
    parts = merged + waiting
    if not parts:
        return reports, AnalysisReport()
    return reports, analyze(parts[0] if len(parts) == 1 else merge(*parts))


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
