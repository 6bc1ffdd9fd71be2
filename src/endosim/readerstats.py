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
from dataclasses import dataclass

from scipy import special, stats

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


READS_HEADER = ["image_id", "reader_id", "modality", "call", "confidence", "truth"]


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
        rec = ReadRecord(**{k: row[k] for k in READS_HEADER})
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
    tp = fp = fn = tn = 0
    for r in records:
        if modality is not None and r.modality != modality:
            continue
        if confidence is not None and r.confidence != confidence:
            continue
        if reader_id is not None and r.reader_id != reader_id:
            continue
        positive_call = r.call == POSITIVE
        positive_truth = r.truth == POSITIVE
        if positive_call and positive_truth:
            tp += 1
        elif positive_call:
            fp += 1
        elif positive_truth:
            fn += 1
        else:
            tn += 1
    if tp + fp + fn + tn == 0:
        raise ValueError("no records match the filter")
    return DiagnosticSummary(tp=tp, fp=fp, fn=fn, tn=tn)


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
        return _degenerate_t(mean_a, mean_b, df)
    t = (mean_a - mean_b) / math.sqrt(pooled * (1.0 / na + 1.0 / nb))
    p = float(special.betainc(df / 2.0, 0.5, df / (df + t * t)))
    return TTestResult(t=t, p=p, df=df)


def _degenerate_t(mean_a: float, mean_b: float, df: int) -> TTestResult:
    if mean_a == mean_b:
        return TTestResult(t=0.0, p=1.0, df=df, degenerate_variance=True)
    sign = 1.0 if mean_a > mean_b else -1.0
    return TTestResult(t=sign * math.inf, p=0.0, df=df, degenerate_variance=True)


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
    if n > 10**9:
        raise ValueError("equivalence limit too small; required n exceeds 1e9")
    while n > 2 and _tost_power(n - 1, p_assumed, equivalence_limit, alpha) >= power:
        n -= 1
    while _tost_power(n, p_assumed, equivalence_limit, alpha) < power:
        n += 1
        if n > 10**9:
            raise ValueError("equivalence limit too small; required n exceeds 1e9")
    return n


METRIC_NAMES = ("accuracy", "sensitivity", "specificity")


def _reader_metric(records: list[ReadRecord], reader: str, modality: str,
                   confidence: str | None, metric: str) -> float:
    s = summarize(records, modality=modality, confidence=confidence, reader_id=reader)
    return getattr(s, metric)


def study_report(records: list[ReadRecord]) -> dict:
    """Per-reader HR/SR summaries, confidence-stratified summaries,
    confidence rates and HR-vs-SR t-tests across readers."""
    readers = sorted({r.reader_id for r in records})
    modalities = sorted({r.modality for r in records})
    if len(readers) < 2 or len(modalities) < 2:
        raise ValueError("study needs at least 2 readers and both modalities")

    per_reader: dict[tuple[str, str, str], DiagnosticSummary] = {}
    strata: list[str | None] = [None, "high", "low"]
    for reader in readers:
        for modality in MODALITIES:
            for conf in strata:
                try:
                    s = summarize(records, modality=modality, confidence=conf,
                                  reader_id=reader)
                except ValueError:
                    continue
                per_reader[(reader, modality, conf or "all")] = s

    confidence_rates = {}
    for reader in readers:
        for modality in MODALITIES:
            reads = [r for r in records
                     if r.reader_id == reader and r.modality == modality]
            if reads:
                high = sum(1 for r in reads if r.confidence == "high")
                confidence_rates[(reader, modality)] = high / len(reads)

    tests = {}
    for conf in strata:
        for metric in METRIC_NAMES:
            try:
                groups = {
                    modality: [
                        _reader_metric(records, reader, modality, conf, metric)
                        for reader in readers
                    ]
                    for modality in MODALITIES
                }
            except ValueError:
                continue  # stratum empty for some reader/modality cell
            if any(math.isnan(v) for g in groups.values() for v in g):
                continue  # a NOT_DEFINED ratio cannot enter a t-test
            tests[(conf or "all", metric)] = unpaired_t_test(
                groups["HR"], groups["SR"]
            )
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
    """Serialize a study report as named CSV tables."""
    out: dict[str, str] = {}

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["reader_id", "modality", "stratum", "tp", "fp", "fn", "tn",
                "sensitivity", "specificity", "accuracy"])
    for (reader, modality, stratum), s in sorted(report["per_reader"].items()):
        w.writerow([reader, modality, stratum, s.tp, s.fp, s.fn, s.tn,
                    _fmt(s.sensitivity), _fmt(s.specificity), _fmt(s.accuracy)])
    out["per_reader.csv"] = buf.getvalue()

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["reader_id", "modality", "high_confidence_rate"])
    for (reader, modality), rate in sorted(report["confidence_rates"].items()):
        w.writerow([reader, modality, _fmt(rate)])
    out["confidence_rates.csv"] = buf.getvalue()

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["stratum", "metric", "t", "p", "df", "degenerate_variance"])
    for (stratum, metric), res in sorted(report["tests"].items()):
        w.writerow([stratum, metric, _fmt(res.t), _fmt(res.p), res.df,
                    int(res.degenerate_variance)])
    out["t_tests.csv"] = buf.getvalue()
    return out
