"""Anonymizing network sensor toolkit.

Parses classic PCAP captures, replaces addresses with keyed pseudonyms,
accumulates sparse traffic matrices over fixed-size packet windows, and
stores them in a compact compressed file format with exact analytics on
top. Includes a synthetic traffic generator for end-to-end testing.
"""

from .analytics import AnalysisReport, analyze, analyze_many
from .anon import AnonKey, anonymize_ip, generate_key, load_key, save_key
from .errors import SensorError
from .matrix import (
    DEFAULT_WINDOW_SIZE,
    TrafficMatrix,
    build_windows,
    merge,
)
from .pcap import CaptureStats, PacketBatch, parse_pcap
from .synth import SynthSpec, read_ground_truth, synthesize, write_ground_truth
from .tmf import iter_tmf, read_tmf, write_tmf

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "AnonKey",
    "CaptureStats",
    "DEFAULT_WINDOW_SIZE",
    "PacketBatch",
    "SensorError",
    "SynthSpec",
    "TrafficMatrix",
    "analyze",
    "analyze_many",
    "anonymize_ip",
    "build_windows",
    "generate_key",
    "iter_tmf",
    "load_key",
    "merge",
    "parse_pcap",
    "read_ground_truth",
    "read_tmf",
    "save_key",
    "synthesize",
    "write_ground_truth",
    "write_tmf",
    "__version__",
]
