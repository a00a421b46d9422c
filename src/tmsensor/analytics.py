"""Network quantities computed from traffic matrices.

All values are exact counts: a matrix's cells are grouped by source in their
(row, col) order and by destination after one sort of the columns, per-host
packets are summed in ``uint64``, and ``np.bincount`` counts the hosts of
each degree. No statistical fitting happens here; reports are deterministic
and directly comparable across windows.

``analyze_many`` hands each window's report on as soon as it exists, and
``format_report_text`` and ``format_report_json`` render one report on its
own, so a caller can write reports out one at a time and keep none.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Iterable

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
    src_packets, fanout = _per_host(m.rows, m.counts)  # cells come in row order
    by_col = np.argsort(m.cols)
    dst_packets, fanin = _per_host(m.cols[by_col], m.counts[by_col])
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
    """Packets and degree (distinct peers) of each distinct host in ``ids``,
    which are sorted, so that each host's cells are one run."""
    first = np.ones(len(ids), bool)
    np.not_equal(ids[1:], ids[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    # uint64 sums are exact, unlike bincount's float weights
    packets = np.add.reduceat(counts, starts)
    degree = np.empty_like(starts)
    degree[:-1] = starts[1:]
    degree[-1:] = len(ids)  # a slice, so that no hosts give no degrees
    degree -= starts
    return packets, degree


def _histogram(degree: np.ndarray) -> dict[int, int]:
    hosts = np.bincount(degree)
    values = np.flatnonzero(hosts)  # ascending
    return dict(zip(values.tolist(), hosts[values].tolist()))


def analyze_many(
    ms: Iterable[TrafficMatrix], emit: Callable[[AnalysisReport], None]
) -> AnalysisReport:
    """Hand each window's report to ``emit`` as soon as it exists, in input
    order, keeping none, and return the report of the merged whole.

    The merged report comes from merging the matrices and analyzing the
    result; max- and unique-type fields do not sum across windows, so
    summing per-window reports would be wrong.

    ``ms`` is read once, in order, and may be any iterable. Matrices wait
    until their cells outnumber the merged matrix's cells; then each waiting
    one is reported and all are folded into the merged matrix by one
    ``merge``, which copies each input into one sort key and drops it, and
    no reference to them is kept. So memory holds the merged cells and at
    most about as many waiting cells, not every matrix, and a fold peaks at
    about 48 bytes per cell folded. Reporting a run of matrices at a time,
    not each as it is read, keeps reading and analysis in separate loops,
    which is faster. A key, window-size or packet-count mismatch raises when
    the mismatching matrix is folded in.
    """
    merged: list[TrafficMatrix] = []  # the merged matrix, once there is one
    waiting: list[TrafficMatrix] = []
    merged_cells = waiting_cells = 0
    for m in ms:
        waiting.append(m)
        waiting_cells += len(m.counts)
        del m
        if waiting_cells > merged_cells:
            for report in map(analyze, waiting):
                emit(report)
            merged += waiting
            waiting.clear()
            merged.append(merge(merged))
            merged_cells, waiting_cells = len(merged[0].counts), 0
    for report in map(analyze, waiting):
        emit(report)
    merged += waiting
    waiting.clear()
    if not merged:
        return AnalysisReport()
    return analyze(merged[0] if len(merged) == 1 else merge(merged))


_FIELD_NAMES = [f.name for f in fields(AnalysisReport)]


def format_report_json(report: AnalysisReport, depth: int = 0) -> str:
    """The report as ``json.dumps(dataclasses.asdict(report), indent=2)``
    writes it, histograms sorted by degree, nested ``depth`` levels deep:
    each line after the first is indented by ``2 * depth`` more spaces."""
    pad = "\n" + "  " * (depth + 1)  # before each field
    inner = pad + "  "  # before each histogram entry
    items = []
    for name in _FIELD_NAMES:
        value = getattr(report, name)
        if isinstance(value, dict):
            entries = [f'"{degree}": {n}' for degree, n in sorted(value.items())]
            value = "{" + inner + ("," + inner).join(entries) + pad + "}" if entries else "{}"
        items.append(f'"{name}": {value}')
    return "{" + pad + ("," + pad).join(items) + pad[:-2] + "}"


def format_report_text(report: AnalysisReport) -> str:
    """Flat name=value text form, histograms as fanout[d]=n / fanin[d]=n."""
    lines = []
    for name in _FIELD_NAMES:
        value = getattr(report, name)
        if isinstance(value, dict):
            prefix = name.removesuffix("_histogram")
            lines.extend(f"{prefix}[{degree}]={n}" for degree, n in sorted(value.items()))
        else:
            lines.append(f"{name}={value}")
    return "\n".join(lines)
