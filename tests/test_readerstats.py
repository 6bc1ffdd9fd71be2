import math

import numpy as np
import pytest
from scipy import stats

from endosim.readerstats import (
    ReadRecord,
    _tost_power,
    equivalence_sample_size,
    parse_records,
    report_csv_tables,
    study_report,
    summarize,
    unpaired_t_test,
)


def rec(image_id, reader="r1", modality="HR", call="neoplastic",
        confidence="high", truth="neoplastic"):
    return ReadRecord(image_id=image_id, reader_id=reader, modality=modality,
                      call=call, confidence=confidence, truth=truth)


class TestReadRecord:
    def test_enum_validation(self):
        with pytest.raises(ValueError):
            rec("i1", modality="LR")
        with pytest.raises(ValueError):
            rec("i1", call="maybe")
        with pytest.raises(ValueError):
            rec("i1", confidence="medium")


class TestParseRecords:
    CSV = (
        "image_id,reader_id,modality,call,confidence,truth\n"
        "i1,r1,HR,neoplastic,high,neoplastic\n"
        "i1,r1,SR,non_neoplastic,low,neoplastic\n"
    )

    def test_parse(self):
        records = parse_records(self.CSV)
        assert len(records) == 2
        assert records[1].modality == "SR"

    def test_header_required(self):
        with pytest.raises(ValueError):
            parse_records("a,b,c\n1,2,3\n")

    def test_ragged_row_rejected(self):
        with pytest.raises(ValueError, match="ragged CSV row"):
            parse_records(self.CSV + "i2,r1,HR\n")

    def test_duplicate_key_rejected(self):
        dup = self.CSV + "i1,r1,HR,neoplastic,low,neoplastic\n"
        with pytest.raises(ValueError, match="duplicate"):
            parse_records(dup)

    def test_unknown_enum_rejected(self):
        bad = self.CSV.replace("non_neoplastic", "benign")
        with pytest.raises(ValueError):
            parse_records(bad)

    @pytest.mark.parametrize("field", ["r\r1", '"' + "r" * 200_000 + '"'])
    def test_csv_reader_error_is_value_error(self, field):
        # the csv module raises its own csv.Error, which is no ValueError
        with pytest.raises(ValueError, match="malformed CSV"):
            parse_records(self.CSV.replace("r1", field, 1))


class TestSummarize:
    def test_study_class_split_all_correct(self):
        records = [
            rec(f"p{i}", call="neoplastic", truth="neoplastic") for i in range(78)
        ] + [
            rec(f"n{i}", call="non_neoplastic", truth="non_neoplastic")
            for i in range(42)
        ]
        s = summarize(records)
        assert s.total == 120
        assert s.accuracy == 1.0
        assert s.prevalence == 78 / 120 == 0.65

    def test_degenerate_caller(self):
        records = [rec("a", truth="neoplastic"), rec("b", truth="non_neoplastic")]
        s = summarize(records)
        assert s.sensitivity == 1.0 and s.specificity == 0.0

    def test_hand_counted_cells(self):
        records = (
            [rec(f"tp{i}") for i in range(3)]
            + [rec(f"fp{i}", truth="non_neoplastic") for i in range(2)]
            + [rec("fn0", call="non_neoplastic")]
            + [rec(f"tn{i}", call="non_neoplastic", truth="non_neoplastic")
               for i in range(4)]
        )
        s = summarize(records)
        assert (s.tp, s.fp, s.fn, s.tn) == (3, 2, 1, 4)
        assert s.sensitivity == 0.75
        assert abs(s.specificity - 2 / 3) <= 1e-15
        assert s.accuracy == 0.7

    def test_counts_partition_filtered_records(self):
        records = [rec(f"x{i}", truth="neoplastic" if i % 2 else "non_neoplastic")
                   for i in range(17)]
        s = summarize(records)
        assert s.total == 17

    def test_not_defined_marker(self):
        records = [rec("a", call="non_neoplastic", truth="non_neoplastic")]
        s = summarize(records)
        assert math.isnan(s.sensitivity)

    def test_duplication_invariance(self):
        records = [rec("a"), rec("b", call="non_neoplastic", truth="non_neoplastic")]
        doubled = records + [rec("a2"), rec("b2", call="non_neoplastic",
                                            truth="non_neoplastic")]
        assert summarize(records).sensitivity == summarize(doubled).sensitivity
        assert summarize(doubled).total == 2 * summarize(records).total

    def test_empty_filter_rejected(self):
        with pytest.raises(ValueError):
            summarize([rec("a")], modality="SR")


class TestUnpairedTTest:
    def test_identical_groups(self):
        res = unpaired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert res.t == 0.0 and res.p == 1.0

    def test_swap_symmetry(self):
        a, b = [1.0, 2.0, 4.0], [2.0, 5.0, 6.0]
        r1 = unpaired_t_test(a, b)
        r2 = unpaired_t_test(b, a)
        assert abs(r1.t + r2.t) <= 1e-12
        assert abs(r1.p - r2.p) <= 1e-12

    def test_matches_reference_and_permutation(self):
        a = [1.0, 2.0, 3.0, 4.0]
        b = [2.0, 3.0, 4.0, 5.0]
        res = unpaired_t_test(a, b)
        ref = stats.ttest_ind(a, b, equal_var=True)
        assert abs(res.t - ref.statistic) <= 1e-9
        assert abs(res.p - ref.pvalue) <= 1e-6

        # exhaustive permutation oracle (t statistic, mid-p for ties)
        from itertools import combinations

        def t_stat(ga, gb):
            na, nb = len(ga), len(gb)
            va = np.var(ga, ddof=1)
            vb = np.var(gb, ddof=1)
            sp = ((na - 1) * va + (nb - 1) * vb) / (na + nb - 2)
            if sp == 0:
                return 0.0 if np.mean(ga) == np.mean(gb) else np.inf
            return (np.mean(ga) - np.mean(gb)) / np.sqrt(sp * (1 / na + 1 / nb))

        pooled = a + b
        observed = abs(t_stat(a, b))
        ge = gt = total = 0
        for idx in combinations(range(8), 4):
            ga = [pooled[i] for i in idx]
            gb = [pooled[i] for i in range(8) if i not in idx]
            t = abs(t_stat(ga, gb))
            ge += t >= observed - 1e-9
            gt += t > observed + 1e-9
            total += 1
        mid_p = (ge + gt) / (2 * total)
        assert abs(res.p - mid_p) <= 0.08

    def test_zero_variance_equal_means(self):
        res = unpaired_t_test([2.0, 2.0], [2.0, 2.0])
        assert res.t == 0.0 and res.p == 1.0 and res.degenerate_variance

    def test_zero_variance_unequal_means(self):
        res = unpaired_t_test([2.0, 2.0], [3.0, 3.0])
        assert res.p == 0.0 and res.degenerate_variance

    def test_shift_and_scale_invariance(self):
        rng = np.random.default_rng(0)
        a = list(rng.normal(0, 1, 6))
        b = list(rng.normal(0.5, 1, 7))
        p0 = unpaired_t_test(a, b).p
        p_shift = unpaired_t_test([x + 5 for x in a], [x + 5 for x in b]).p
        p_scale = unpaired_t_test([3 * x for x in a], [3 * x for x in b]).p
        assert abs(p0 - p_shift) <= 1e-12
        assert abs(p0 - p_scale) <= 1e-12

    def test_small_group_rejected(self):
        with pytest.raises(ValueError):
            unpaired_t_test([1.0], [1.0, 2.0])


class TestEquivalenceSampleSize:
    def test_monotone_in_limit(self):
        n_small = equivalence_sample_size(0.8, 0.05, 0.15, 0.7)
        n_large = equivalence_sample_size(0.8, 0.05, 0.30, 0.7)
        assert n_large < n_small
        assert n_large <= n_small / 3  # roughly 1/limit^2 scaling

    def test_monotone_in_alpha_and_power(self):
        base = equivalence_sample_size(0.8, 0.05, 0.15, 0.7)
        assert equivalence_sample_size(0.8, 0.10, 0.15, 0.7) <= base
        assert equivalence_sample_size(0.9, 0.05, 0.15, 0.7) >= base

    def test_half_maximizes_n(self):
        fixed = dict(power=0.8, alpha=0.05, equivalence_limit=0.15)
        ns = {p: equivalence_sample_size(p_assumed=p, **fixed)
              for p in np.arange(0.1, 0.95, 0.1)}
        assert max(ns, key=ns.get) == pytest.approx(0.5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            equivalence_sample_size(0.8, 0.05, 1.5, 0.7)
        with pytest.raises(ValueError):
            equivalence_sample_size(0.8, 0.0, 0.15, 0.7)

    @pytest.mark.parametrize("power, alpha, limit, p_assumed", [
        (0.8, 0.05, 0.4, 0.5), (0.9, 0.05, 0.5, 0.7), (0.8, 0.2, 0.45, 0.1),
        (0.95, 0.01, 0.6, 0.5), (0.5, 0.3, 0.3, 0.4), (0.8, 0.05, 0.9, 0.5),
    ])
    def test_first_n_reaching_the_power(self, power, alpha, limit, p_assumed):
        # a scan up from n = 2 stops at the same n: it reaches the power and
        # n - 1 does not
        n = equivalence_sample_size(power, alpha, limit, p_assumed)
        first = next(m for m in range(2, 100)
                     if _tost_power(m, p_assumed, limit, alpha) >= power)
        assert n == first > 2

    def test_required_n_above_1e9_rejected(self):
        with pytest.raises(ValueError, match="exceeds 1e9"):
            equivalence_sample_size(0.8, 0.05, 1e-6, 0.5)

    def test_subnormal_p_does_not_divide_by_zero(self):
        # 2 p (1 - p) / n underflows to 0 from n = 4 at p = 5e-324; the
        # power must not divide by that standard error
        assert equivalence_sample_size(0.8, 0.05, 0.1, 5e-324) == 2
        with pytest.raises(ValueError, match="exceeds 1e9"):
            equivalence_sample_size(1e-300, 0.4998, 1e-300, 5e-324)

    def test_nonpositive_z_sum_needs_the_minimum_n(self):
        # z_alpha + z_power < 0: every n reaches the power, so the closed form
        # z^2 * variance / limit^2 is no bound and must not start the scan
        assert stats.norm.ppf(1 - 0.9) + stats.norm.ppf((1 + 0.1) / 2) < 0
        assert equivalence_sample_size(0.1, 0.9, 1e-5, 0.5) == 2


def synthetic_study(rng, readers=4, images=20, identical=False):
    records = []
    for r in range(readers):
        for i in range(images):
            truth = "neoplastic" if i % 2 else "non_neoplastic"
            for modality in ("HR", "SR"):
                if identical:
                    correct = (i + r) % 3 != 0
                else:
                    correct = rng.random() < 0.7
                call = truth if correct else (
                    "non_neoplastic" if truth == "neoplastic" else "neoplastic"
                )
                conf = "high" if (identical or rng.random() < 0.5) else "low"
                records.append(ReadRecord(
                    image_id=f"img{i}", reader_id=f"reader{r}",
                    modality=modality, call=call, confidence=conf, truth=truth,
                ))
    return records


class TestStudyReport:
    def test_identical_performance_gives_p_one(self):
        records = synthetic_study(np.random.default_rng(1), identical=True)
        report = study_report(records)
        for (stratum, metric), res in report["tests"].items():
            assert res.p == 1.0, (stratum, metric)

    def test_all_high_confidence_rate(self):
        records = synthetic_study(np.random.default_rng(2), identical=True)
        report = study_report(records)
        assert all(v == 1.0 for v in report["confidence_rates"].values())

    def test_recomputation_oracle(self):
        records = synthetic_study(np.random.default_rng(3))
        report = study_report(records)
        readers = report["readers"]
        for metric in ("accuracy", "sensitivity", "specificity"):
            hr = [getattr(summarize(records, modality="HR", reader_id=r), metric)
                  for r in readers]
            sr = [getattr(summarize(records, modality="SR", reader_id=r), metric)
                  for r in readers]
            expected = unpaired_t_test(hr, sr)
            got = report["tests"][("all", metric)]
            assert abs(got.t - expected.t) <= 1e-12
            assert abs(got.p - expected.p) <= 1e-12

    def test_requires_two_readers(self):
        records = [r for r in synthetic_study(np.random.default_rng(4))
                   if r.reader_id == "reader0"]
        with pytest.raises(ValueError):
            study_report(records)

    def test_csv_table_bytes(self):
        # two readers with identical HR reads and SR reads that differ in one
        # image: the low stratum holds only a positive image (specificity
        # NOT_DEFINED) and SR specificity has zero variance (t = inf)
        truth = {"img0": "neoplastic", "img1": "neoplastic",
                 "img2": "non_neoplastic", "img3": "non_neoplastic"}
        flip = {"neoplastic": "non_neoplastic", "non_neoplastic": "neoplastic"}
        records = []
        for reader in ("r1", "r2"):
            for image, t in truth.items():
                for modality in ("HR", "SR"):
                    wrong = modality == "SR" and (
                        image == "img3" or (image == "img1" and reader == "r1"))
                    records.append(rec(
                        image, reader=reader, modality=modality,
                        call=flip[t] if wrong else t,
                        confidence="low" if image == "img0" else "high", truth=t,
                    ))
        tables = report_csv_tables(study_report(records))
        assert tables["per_reader.csv"] == (
            "reader_id,modality,stratum,tp,fp,fn,tn,sensitivity,specificity,accuracy\n"
            "r1,HR,all,2,0,0,2,1.000000,1.000000,1.000000\n"
            "r1,HR,high,1,0,0,2,1.000000,1.000000,1.000000\n"
            "r1,HR,low,1,0,0,0,1.000000,NOT_DEFINED,1.000000\n"
            "r1,SR,all,1,1,1,1,0.500000,0.500000,0.500000\n"
            "r1,SR,high,0,1,1,1,0.000000,0.500000,0.333333\n"
            "r1,SR,low,1,0,0,0,1.000000,NOT_DEFINED,1.000000\n"
            "r2,HR,all,2,0,0,2,1.000000,1.000000,1.000000\n"
            "r2,HR,high,1,0,0,2,1.000000,1.000000,1.000000\n"
            "r2,HR,low,1,0,0,0,1.000000,NOT_DEFINED,1.000000\n"
            "r2,SR,all,2,1,0,1,1.000000,0.500000,0.750000\n"
            "r2,SR,high,1,1,0,1,1.000000,0.500000,0.666667\n"
            "r2,SR,low,1,0,0,0,1.000000,NOT_DEFINED,1.000000\n"
        )
        assert tables["confidence_rates.csv"] == (
            "reader_id,modality,high_confidence_rate\n"
            "r1,HR,0.750000\nr1,SR,0.750000\nr2,HR,0.750000\nr2,SR,0.750000\n"
        )
        assert tables["t_tests.csv"] == (
            "stratum,metric,t,p,df,degenerate_variance\n"
            "all,accuracy,3.000000,0.095466,2,0\n"
            "all,high_confidence_rate,0.000000,1.000000,2,1\n"
            "all,sensitivity,1.000000,0.422650,2,0\n"
            "all,specificity,inf,0.000000,2,1\n"
            "high,accuracy,3.000000,0.095466,2,0\n"
            "high,sensitivity,1.000000,0.422650,2,0\n"
            "high,specificity,inf,0.000000,2,1\n"
            "low,accuracy,0.000000,1.000000,2,1\n"
            "low,sensitivity,0.000000,1.000000,2,1\n"
        )

    def test_csv_tables_emitted(self):
        records = synthetic_study(np.random.default_rng(5))
        tables = report_csv_tables(study_report(records))
        assert set(tables) == {"per_reader.csv", "confidence_rates.csv",
                               "t_tests.csv"}
        assert tables["per_reader.csv"].startswith("reader_id,modality,stratum")
