import pytest
from scipy import stats as sps

from oalsim.errors import DegenerateVarianceError
from oalsim.seeding import stream
from oalsim.stats import (
    betainc,
    one_sample_t_test,
    one_sided_p_greater,
    student_t_two_sided_p,
    welch_t_test,
)


class TestWelch:
    def test_worked_example(self):
        res = welch_t_test([1, 2, 3, 4], [2, 4, 6, 8])
        assert res.t == pytest.approx(-1.7321, abs=1e-4)
        assert res.df == pytest.approx(4.41, abs=0.01)

    def test_identical_samples(self):
        res = welch_t_test([1, 2, 3], [1, 2, 3])
        assert res.t == 0.0
        assert res.p_two_sided == 1.0

    def test_zero_variance_equal_means(self):
        res = welch_t_test([2, 2, 2], [2, 2, 2])
        assert res.p_two_sided == 1.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("a, b", [([1, 1, 1], [0, 0, 0]), ([2, 2, 2], [3, 3, 3])])
    def test_zero_variance_unequal_means_is_scipy_s_answer(self, a, b):
        # t = +-inf and p = 0 for both tests; the one-sample test of a against b's mean
        for mine, ref in ((welch_t_test(a, b), sps.ttest_ind(a, b, equal_var=False)),
                          (one_sample_t_test(a, b[0]), sps.ttest_1samp(a, b[0]))):
            assert mine.t == ref.statistic and abs(mine.t) == float("inf")
            assert mine.p_two_sided == ref.pvalue == 0.0

    def test_tiny_samples_rejected(self):
        with pytest.raises(DegenerateVarianceError):
            welch_t_test([1], [1, 2])

    def test_matches_scipy_on_random_pairs(self):
        rng = stream(12, "welch")
        for _ in range(50):
            na, nb = int(rng.integers(2, 40)), int(rng.integers(2, 40))
            a = rng.normal(loc=rng.uniform(-2, 2), scale=rng.uniform(0.5, 3), size=na)
            b = rng.normal(loc=rng.uniform(-2, 2), scale=rng.uniform(0.5, 3), size=nb)
            mine = welch_t_test(a.tolist(), b.tolist())
            ref = sps.ttest_ind(a, b, equal_var=False)
            assert mine.t == pytest.approx(ref.statistic, abs=1e-9)
            assert mine.p_two_sided == pytest.approx(ref.pvalue, abs=1e-6)


class TestStudentT:
    def test_matches_scipy_tails(self):
        rng = stream(13, "t")
        for _ in range(100):
            t = float(rng.uniform(-6, 6))
            df = float(rng.uniform(1.2, 60))
            mine = student_t_two_sided_p(t, df)
            ref = 2 * sps.t.sf(abs(t), df)
            assert mine == pytest.approx(ref, abs=1e-8)

    def test_betainc_matches_scipy(self):
        from scipy.special import betainc as sbetainc

        rng = stream(14, "b")
        for _ in range(100):
            a = float(rng.uniform(0.2, 20))
            b = float(rng.uniform(0.2, 20))
            x = float(rng.uniform(0, 1))
            assert betainc(a, b, x) == pytest.approx(sbetainc(a, b, x), abs=1e-10)


class TestOneSample:
    def test_matches_scipy(self):
        rng = stream(15, "one")
        for _ in range(30):
            n = int(rng.integers(3, 50))
            sample = rng.normal(loc=0.4, scale=0.5, size=n)
            mine = one_sample_t_test(sample.tolist(), 0.25)
            ref = sps.ttest_1samp(sample, 0.25)
            assert mine.t == pytest.approx(ref.statistic, abs=1e-9)
            assert mine.p_two_sided == pytest.approx(ref.pvalue, abs=1e-8)

    def test_one_sided_direction(self):
        res = one_sample_t_test([0.9, 0.8, 1.0, 0.7], 0.25)
        assert one_sided_p_greater(res) == pytest.approx(res.p_two_sided / 2)
        res_lo = one_sample_t_test([0.1, 0.0, 0.2, 0.15], 0.25)
        assert one_sided_p_greater(res_lo) > 0.5
