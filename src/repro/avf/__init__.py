"""AVF engine: ACE tracking, page aggregation, and proxy heuristics."""

from repro.avf.tracker import line_ace_times
from repro.avf.page import PageStats, profile_intervals, profile_trace
from repro.avf.heuristics import (
    WriteRatioHistogram,
    hotness_avf_correlation,
    pearson,
    risk_from_write_ratio,
    top_hot_pages,
    write_ratio_avf_correlation,
    write_ratio_histogram,
)

__all__ = [
    "line_ace_times",
    "PageStats",
    "profile_trace",
    "profile_intervals",
    "pearson",
    "hotness_avf_correlation",
    "write_ratio_avf_correlation",
    "top_hot_pages",
    "write_ratio_histogram",
    "WriteRatioHistogram",
    "risk_from_write_ratio",
]
