"""Diagnostic reader-study statistics.

Computes per-reader diagnostic performance against a gold standard,
pooled-variance unpaired t-tests between modalities, and the equivalence
sample size for two binomial proportions (TOST, normal approximation, no
continuity correction). The positive class is "neoplastic".
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass, fields

from scipy import special, stats

from .harness import _csv_text

__all__ = [
    "ReadRecord",
    "DiagnosticSummary",
    "NOT_DEFINED",
    "parse_records",
    "summarize",
    "unpaired_t_test",
    "equivalence_sample_size",
    "study_report",
]

MODALITIES = ("HR", "SR")
CALLS = ("neoplastic", "non_neoplastic")
CONFIDENCES = ("high", "low")
POSITIVE = "neoplastic"

#: marker for ratios whose denominator is zero (never reported as 0)
NOT_DEFINED = float("nan")


@dataclass(frozen=True)
class ReadRecord:
    image_id: str
    reader_id: str
    modality: str  # HR | SR
    call: str  # neoplastic | non_neoplastic
    confidence: str  # high | low
    truth: str  # neoplastic | non_neoplastic

    def __post_init__(self) -> None:
        if self.modality not in MODALITIES:
            raise ValueError(f"unknown modality {self.modality!r}")
        if self.call not in CALLS or self.truth not in CALLS:
            raise ValueError(f"unknown class value {self.call!r}/{self.truth!r}")
        if self.confidence not in CONFIDENCES:
            raise ValueError(f"unknown confidence {self.confidence!r}")


@dataclass(frozen=True)
class DiagnosticSummary:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @property
    def sensitivity(self) -> float:
        pos = self.tp + self.fn
        return self.tp / pos if pos else NOT_DEFINED

    @property
    def specificity(self) -> float:
        neg = self.tn + self.fp
        return self.tn / neg if neg else NOT_DEFINED

    @property
    def accuracy(self) -> float:
        return (self.tp + self.tn) / self.total if self.total else NOT_DEFINED

    @property
    def prevalence(self) -> float:
        return (self.tp + self.fn) / self.total if self.total else NOT_DEFINED


READS_HEADER = [f.name for f in fields(ReadRecord)]


def parse_records(text: str) -> list[ReadRecord]:
    """Strict CSV parse; header required, unknown enum values rejected,
    duplicate (image_id, reader_id, modality) keys rejected."""
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != READS_HEADER:
        raise ValueError(f"expected header {','.join(READS_HEADER)}")
    records: list[ReadRecord] = []
    seen: set[tuple[str, str, str]] = set()
    for row in reader:
        if None in row.values() or None in row:
            raise ValueError("ragged CSV row")
        rec = ReadRecord(**row)
        key = (rec.image_id, rec.reader_id, rec.modality)
        if key in seen:
            raise ValueError(f"duplicate read {key}")
        seen.add(key)
        records.append(rec)
    return records


def summarize(
    records: list[ReadRecord],
    modality: str | None = None,
    confidence: str | None = None,
    reader_id: str | None = None,
) -> DiagnosticSummary:
    """Confusion counts over the filtered records."""
    counts = Counter(
        (r.call == POSITIVE, r.truth == POSITIVE) for r in records
        if modality in (None, r.modality) and confidence in (None, r.confidence)
        and reader_id in (None, r.reader_id))
    if not counts:
        raise ValueError("no records match the filter")
    return DiagnosticSummary(tp=counts[True, True], fp=counts[True, False],
                             fn=counts[False, True], tn=counts[False, False])


@dataclass(frozen=True)
class TTestResult:
    t: float
    p: float
    df: int
    degenerate_variance: bool = False


def unpaired_t_test(group_a: list[float], group_b: list[float]) -> TTestResult:
    """Two-sample pooled-variance Student t-test.

    The two-sided p-value comes from the regularized incomplete beta
    function: p = I_{df/(df+t^2)}(df/2, 1/2).
    """
    na, nb = len(group_a), len(group_b)
    if na < 2 or nb < 2:
        raise ValueError("each group needs at least 2 values")
    mean_a = sum(group_a) / na
    mean_b = sum(group_b) / nb
    var_a = sum((x - mean_a) ** 2 for x in group_a) / (na - 1)
    var_b = sum((x - mean_b) ** 2 for x in group_b) / (nb - 1)
    df = na + nb - 2
    pooled = ((na - 1) * var_a + (nb - 1) * var_b) / df
    if pooled == 0.0:
        if mean_a == mean_b:
            return TTestResult(t=0.0, p=1.0, df=df, degenerate_variance=True)
        t = math.copysign(math.inf, mean_a - mean_b)
        return TTestResult(t=t, p=0.0, df=df, degenerate_variance=True)
    t = (mean_a - mean_b) / math.sqrt(pooled * (1.0 / na + 1.0 / nb))
    p = float(special.betainc(df / 2.0, 0.5, df / (df + t * t)))
    return TTestResult(t=t, p=p, df=df)


def _tost_power(n: int, p_assumed: float, limit: float, alpha: float) -> float:
    """Power of the proportion TOST at zero true difference, sample size n
    per arm, binary-data variance p(1-p) and no continuity correction."""
    se = math.sqrt(2.0 * p_assumed * (1.0 - p_assumed) / n)
    z_alpha = stats.norm.ppf(1.0 - alpha)
    return max(0.0, 2.0 * stats.norm.cdf(limit / se - z_alpha) - 1.0)


def equivalence_sample_size(
    power: float, alpha: float, equivalence_limit: float, p_assumed: float
) -> int:
    """Smallest per-arm n whose TOST power at zero difference reaches the
    requested power (monotone in n; verified by direct scan around the
    closed-form start point)."""
    for name, value in (
        ("power", power),
        ("alpha", alpha),
        ("p_assumed", p_assumed),
        ("equivalence_limit", equivalence_limit),
    ):
        if not (0.0 < value < 1.0):
            raise ValueError(f"{name} must lie strictly between 0 and 1")

    z_alpha = stats.norm.ppf(1.0 - alpha)
    z_power = stats.norm.ppf((1.0 + power) / 2.0)
    variance = 2.0 * p_assumed * (1.0 - p_assumed)
    n = max(2, math.ceil(variance * (z_alpha + z_power) ** 2 / equivalence_limit**2))
    while 2 < n <= 10**9 and (
            _tost_power(n - 1, p_assumed, equivalence_limit, alpha) >= power):
        n -= 1
    while n <= 10**9 and _tost_power(n, p_assumed, equivalence_limit, alpha) < power:
        n += 1
    if n > 10**9:
        raise ValueError("equivalence limit too small; required n exceeds 1e9")
    return n


METRIC_NAMES = ("accuracy", "sensitivity", "specificity")


def study_report(records: list[ReadRecord]) -> dict:
    """Per-reader HR/SR summaries, confidence-stratified summaries,
    confidence rates and HR-vs-SR t-tests across readers."""
    readers = sorted({r.reader_id for r in records})
    modalities = sorted({r.modality for r in records})
    if len(readers) < 2 or len(modalities) < 2:
        raise ValueError("study needs at least 2 readers and both modalities")

    per_reader: dict[tuple[str, str, str], DiagnosticSummary] = {}
    strata = ("all", "high", "low")
    for reader in readers:
        for modality in MODALITIES:
            for stratum in strata:
                try:
                    s = summarize(records, modality=modality, reader_id=reader,
                                  confidence=None if stratum == "all" else stratum)
                except ValueError:
                    continue
                per_reader[(reader, modality, stratum)] = s

    high = {key[:2]: s.total for key, s in per_reader.items() if key[2] == "high"}
    confidence_rates = {key[:2]: high.get(key[:2], 0) / s.total
                        for key, s in per_reader.items() if key[2] == "all"}

    tests = {}
    for stratum in strata:
        hr, sr = ([per_reader.get((reader, modality, stratum)) for reader in readers]
                  for modality in MODALITIES)
        if None in hr + sr:
            continue  # stratum empty for some reader/modality cell
        for metric in METRIC_NAMES:
            a = [getattr(s, metric) for s in hr]
            b = [getattr(s, metric) for s in sr]
            if any(math.isnan(v) for v in a + b):
                continue  # a NOT_DEFINED ratio cannot enter a t-test
            tests[(stratum, metric)] = unpaired_t_test(a, b)
    tests[("all", "high_confidence_rate")] = unpaired_t_test(
        [confidence_rates[(r, "HR")] for r in readers],
        [confidence_rates[(r, "SR")] for r in readers],
    )

    return {
        "readers": readers,
        "per_reader": per_reader,
        "confidence_rates": confidence_rates,
        "tests": tests,
    }


def _fmt(x: float) -> str:
    return "NOT_DEFINED" if math.isnan(x) else f"{x:.6f}"


def report_csv_tables(report: dict) -> dict[str, str]:
    """Serialize a study report as named CSV tables. Reader ids come from
    the reads file and may hold commas, so rows go through CSV quoting."""
    return {
        "per_reader.csv": _csv_text(
            ["reader_id", "modality", "stratum", "tp", "fp", "fn", "tn",
             "sensitivity", "specificity", "accuracy"],
            ([reader, modality, stratum, s.tp, s.fp, s.fn, s.tn,
              _fmt(s.sensitivity), _fmt(s.specificity), _fmt(s.accuracy)]
             for (reader, modality, stratum), s in sorted(report["per_reader"].items()))),
        "confidence_rates.csv": _csv_text(
            ["reader_id", "modality", "high_confidence_rate"],
            ([reader, modality, _fmt(rate)]
             for (reader, modality), rate in sorted(report["confidence_rates"].items()))),
        "t_tests.csv": _csv_text(
            ["stratum", "metric", "t", "p", "df", "degenerate_variance"],
            ([stratum, metric, _fmt(res.t), _fmt(res.p), res.df, int(res.degenerate_variance)]
             for (stratum, metric), res in sorted(report["tests"].items()))),
    }
