"""Energy score, CRPS-Sum, and the window-level score report."""
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scorecast import (
    crps_empirical_cdf,
    crps_quantile,
    crps_sample_estimate,
    crps_matrix,
    crps_sum,
    crps_sum_series,
    energy_score,
    energy_series,
    multivariate,
    score_report,
)
from scorecast.cli import build_parser
from scorecast.crps import ESTIMATORS, _crps_batch
from scorecast.multivariate import ScoreReport, _bands, _energy_batch

from conftest import BAD_BETA_OPTIONS, BAD_ESTIMATOR_OPTIONS, BAD_SCORING_OPTIONS, fail_on_read


# ---------------------------------------------------------------------------
# energy score
# ---------------------------------------------------------------------------

def test_energy_score_two_diagonal_samples():
    """Enumerated by hand: E||X-x|| = sqrt(2), half mean pair distance sqrt(2)/2."""
    samples = np.array([[0.0, 0.0], [2.0, 2.0]])
    obs = np.array([1.0, 1.0])
    assert energy_score(samples, obs) == pytest.approx(0.7071067811865476, rel=1e-13)


def test_energy_score_general_exponent():
    samples = np.array([[0.0, 0.0], [2.0, 2.0]])
    obs = np.array([1.0, 1.0])
    assert energy_score(samples, obs, beta=1.5) == pytest.approx(
        0.492585715504708, rel=1e-13
    )


def test_energy_score_perfect_point_forecast_is_zero():
    samples = np.array([[1.0, -2.0], [1.0, -2.0], [1.0, -2.0]])
    assert energy_score(samples, np.array([1.0, -2.0])) == 0.0


def test_energy_univariate_reduces_to_crps(rng):
    """With beta = 1 in one dimension the two scores are the same statistic."""
    for _ in range(25):
        s = rng.standard_normal((rng.integers(2, 40), 1))
        x = rng.standard_normal(1)
        assert energy_score(s, x) == pytest.approx(
            crps_sample_estimate(s[:, 0], float(x[0])), rel=1e-13, abs=1e-15
        )


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    S=st.integers(2, 300),
    D=st.integers(1, 9),
    beta=st.sampled_from([1.0, 1.5]),
    seed=st.integers(0, 2**32 - 1),
    shift=st.floats(-100.0, 100.0),
    c=st.floats(1e-3, 1e3),
)
def test_energy_score_identities(S, D, beta, seed, shift, c):
    """Translation leaves ES unchanged, scaling by c scales it by c**beta, and
    at D = 1, beta = 1 it is the sample CRPS."""
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((S, D))
    y = gen.standard_normal(D)
    es = energy_score(x, y, beta)
    t = shift * gen.standard_normal(D)
    assert energy_score(x + t, y + t, beta) == pytest.approx(es, rel=1e-12)
    assert energy_score(c * x, c * y, beta) == pytest.approx(c**beta * es, rel=1e-12)
    if D == 1 and beta == 1.0:
        assert es == pytest.approx(crps_sample_estimate(x[:, 0], y[0]), rel=1e-12)


def test_energy_score_beta_domain():
    samples = np.zeros((3, 2))
    obs = np.zeros(2)
    for bad in (0.0, 2.0, -1.0, 2.5):
        with pytest.raises(ValueError):
            energy_score(samples, obs, beta=bad)
    # interior values are fine
    energy_score(samples, obs, beta=0.1)
    energy_score(samples, obs, beta=1.999)


def test_energy_score_sample_order_invariant(rng):
    s = rng.standard_normal((30, 4))
    x = rng.standard_normal(4)
    shuffled = s[rng.permutation(30)]
    assert energy_score(shuffled, x) == pytest.approx(energy_score(s, x), rel=1e-12)


def test_energy_score_coordinate_permutation_invariant(rng):
    s = rng.standard_normal((25, 5))
    x = rng.standard_normal(5)
    perm = rng.permutation(5)
    assert energy_score(s[:, perm], x[perm]) == pytest.approx(
        energy_score(s, x), rel=1e-12
    )


def test_energy_score_shape_validation():
    with pytest.raises(ValueError):
        energy_score(np.zeros((3, 2)), np.zeros(3))  # obs dim mismatch
    with pytest.raises(ValueError):
        energy_score(np.zeros((1, 2)), np.zeros(2))  # single sample
    with pytest.raises(ValueError):
        energy_score(np.array([[0.0, np.nan], [1.0, 2.0]]), np.zeros(2))


@pytest.mark.parametrize("call, args", [
    (energy_series, ((3, 0, 2), (0, 2))),
    (crps_sum, ((3, 0, 2), (0, 2))),
    (score_report, ((3, 0, 2), (0, 2))),
    (crps_sum, ((3, 2, 0), (2, 0))),
    (score_report, ((3, 2, 0), (2, 0))),
    (energy_score, ((3, 0), (0,))),
], ids=["es-window-H0", "crps-sum-H0", "report-H0", "crps-sum-D0", "report-D0", "es-D0"])
def test_empty_forecast_rejected(call, args):
    """No horizon step or no dimension is an error, not a NaN with a
    RuntimeWarning or a score of 0."""
    ens_shape, obs_shape = args
    with pytest.raises(ValueError, match="need at least 1 (horizon step|dimension), got 0"):
        call(np.zeros(ens_shape), np.zeros(obs_shape))


def _energy_direct(samples, obs, beta=1.0):
    """Reference ES: norms over the whole (S, S, D) array of pair differences."""
    obs_dist = np.linalg.norm(samples - obs, axis=1)
    pair_dist = np.linalg.norm(samples[:, None, :] - samples[None, :, :], axis=2)
    if beta != 1.0:
        obs_dist = obs_dist**beta
        pair_dist = pair_dist**beta
    return max(0.0, float(obs_dist.mean() - pair_dist.sum() / (2.0 * samples.shape[0] ** 2)))


def _energy_three_ways(ens, obs, beta):
    """energy_score per step, energy_series and the batch kernel on (S, H, D)."""
    return (
        np.array([energy_score(ens[:, t], obs[t], beta) for t in range(obs.shape[0])]),
        energy_series(ens, obs, beta),
        _energy_batch(np.ascontiguousarray(ens.transpose(1, 0, 2)), obs, beta),
    )


# Every window takes the Gram form, its upper triangle in bands of
# ``_bands(S)[0]`` rows (8 up to 128 members, S // 16 up to 512, then
# 65536 // S).  The cases include a w = 8 window, windows on
# the lines x2 = +x1 and x2 = -x1 (data correlation +-1), the paper's 512
# members (4 blocks of 128), 257 members (a last block of 2 x 2) and 1000
# members (16 blocks, the last one short).  Largest relative deviation from
# the direct form over these cases: 7.5e-16.
_ES_CASES = [
    (2, 1, 1.0, 0), (21, 2, 1.0, 0), (256, 2, 1.5, 0), (257, 2, 1.0, 0), (64, 3, 1.5, 0),
    (600, 2, 1.0, 0), (600, 7, 1.5, 0), (400, 8, 1.0, 0), (600, 9, 1.5, 0), (50, 16, 1.0, 0),
    (8, 2, 1.0, 0), (128, 2, 1.0, 1), (128, 2, 1.5, -1),
    (512, 2, 1.0, 0), (257, 8, 1.0, 0), (1000, 3, 1.5, 0), (600, 2, 1.0, -1),
]


@pytest.mark.parametrize(
    "S, D, beta, line", _ES_CASES,
    ids=[f"{S}-{D}-{b}" + (f"-line{l:+d}" if l else "") for S, D, b, l in _ES_CASES],
)
def test_energy_kernel_matches_direct_form(S, D, beta, line):
    """Within 1e-13 relative of the (S, S, D) difference form."""
    gen = np.random.default_rng(S * 100 + D)
    ens = gen.standard_normal((S, 3, D))
    if line:
        ens[..., 1] = line * ens[..., 0]
    obs = gen.standard_normal((3, D))
    want = np.array([_energy_direct(ens[:, t], obs[t], beta) for t in range(3)])
    for got in _energy_three_ways(ens, obs, beta):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("beta", [1.0, 1.5])
@pytest.mark.parametrize("D", [1, 2, 8])
@pytest.mark.parametrize("w", [2, 3, 8, 128, 129, 256, 257, 400])
def test_energy_stacks_match_direct_form(w, D, beta):
    """A batch of a few more windows than one stack holds, given as the
    strided (n, w, D) view of an (w, n, D) ensemble, as ``energy_series``
    passes it: every window within 1e-13 of the difference form, relative
    to its observation term, and the view scored as its C-order copy, bit
    for bit.  The scale is the observation term, not the score: a window
    with two members 2.6e-4 apart (w = 8, D = 1, window 558) is 1.2e-13
    off relative to its score of 0.27, as the Gram form of one window alone
    always was, since the root of a near-zero Gram distance carries an
    error of ~eps * |a|**2 over the members' gap."""
    n = _bands(w)[1] + 3
    gen = np.random.default_rng(w * 10 + D)
    ens = gen.standard_normal((w, n, D))
    obs = gen.standard_normal((n, D))
    view = ens.transpose(1, 0, 2)
    got = _energy_batch(view, obs, beta)
    want = np.array([_energy_direct(ens[:, i], obs[i], beta) for i in range(n)])
    scale = (np.linalg.norm(view - obs[:, None], axis=2) ** beta).mean(axis=1)
    assert np.all(np.abs(got - want) <= 1e-13 * scale)
    assert np.array_equal(got, _energy_batch(np.ascontiguousarray(view), obs, beta))


@pytest.mark.parametrize("D", [2, 3, 8])
def test_energy_point_mass_at_observation_is_exactly_zero(D):
    obs = np.linspace(-3.0, 5.0, 2 * D).reshape(2, D)
    ens = np.broadcast_to(obs, (600, 2, D)).copy()
    for got in _energy_three_ways(ens, obs, 1.0):
        assert np.array_equal(got, [0.0, 0.0])


@pytest.mark.parametrize("S", [50, 600])
@pytest.mark.parametrize("D", [3, 8])
def test_energy_constant_ensemble_has_zero_pair_term(S, D):
    """A point mass away from the observation scores its distance to it: the
    Gram form gives a pair term of exactly 0, as the direct form does."""
    gen = np.random.default_rng(S + D)
    centre = 1.5 + 0.1 * gen.standard_normal((2, D))
    obs = gen.standard_normal((2, D)) - 2.0
    ens = np.broadcast_to(centre, (S, 2, D)).copy()
    want = np.array([_energy_direct(ens[:, t], obs[t]) for t in range(2)])
    assert np.all(want > 1.0)
    for got in _energy_three_ways(ens, obs, 1.0):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("w", [128, 400])
@pytest.mark.parametrize("beta", [1.0, 1.5])
def test_point_mass_window_scores_the_same_in_a_mixed_stack(w, beta):
    """A stack of point masses skips the pair bands; a point mass in a stack
    with spread windows goes through them.  Both give the same bits, and a
    pair term of +0.0."""
    gen = np.random.default_rng(w)
    n = _bands(w)[1] + 1  # one full stack and a short one
    samples = 1.5 + 1e-3 * gen.standard_normal((n, w, 8))
    obs = gen.standard_normal((n, 8))
    for i in (0, n - 1):  # in the full stack, and alone in the short one
        samples[i] = samples[i, 0]
    mixed = _energy_batch(samples, obs, beta)
    for i in (0, n - 1):
        alone = _energy_batch(samples[i : i + 1], obs[i : i + 1], beta)
        assert np.array_equal(mixed[i : i + 1], alone)
        pair = multivariate._pair_gram(samples[i : i + 1], beta)
        assert np.array_equal(pair, [0.0]) and not np.signbit(pair[0])
    assert np.array_equal(multivariate._pair_gram(samples[:2], beta)[:1], [0.0])


def test_power_at_beta_one_is_the_root_and_a_copy():
    """The kernel raises its squared pair distances to ``0.5 * beta`` and its
    observation distances to ``beta`` for every beta; at beta = 1 numpy's
    in-place power gives the bits of ``np.sqrt`` and leaves the array as it
    was."""
    gen = np.random.default_rng(5)
    a = np.concatenate([gen.random(4000) * np.logspace(-300, 300, 4000),
                        [0.0, 5e-324, 1.0, 2.0, np.inf]])
    root = a.copy()
    root **= 0.5
    assert np.array_equal(root, np.sqrt(a))
    same = a.copy()
    same **= 1.0
    assert np.array_equal(same, a)


def test_energy_gram_form_resolves_a_tiny_spread():
    """(ES(sigma) - ES(c)) / sigma at sigma = 1e-12 around c ~ 1.5 matches the
    direct form: the Gram form subtracts a member, whose differences to the
    others are exact, and not the observation, which is ~1.5 away."""
    gen = np.random.default_rng(12)
    centre = 1.5 + 0.1 * gen.standard_normal(8)
    z = gen.standard_normal((400, 8))
    obs = np.zeros(8)
    sigma = 1e-12
    point = np.broadcast_to(centre, (400, 8)).copy()
    spread = centre + sigma * z

    def slope(es):
        return (es(spread, obs) - es(point, obs)) / sigma

    assert slope(energy_score) == pytest.approx(slope(_energy_direct), rel=0.01)


def test_energy_overflow_is_nan_not_zero():
    """Both terms overflow (D = 2, 3; S = 2 and 300), or only the pair term
    does (1e154 members: distances 1e154 from 0, 2e154 between them)."""
    cases = [
        np.array([[1e200, 0.0], [-1e200, 0.0]]),
        np.array([[1e200, 0.0, 0.0], [-1e200, 0.0, 0.0]]),
        np.repeat([[1e200, 0.0], [-1e200, 0.0]], 150, axis=0),
        np.array([[1e154], [-1e154]]),
        np.array([[1e154, 0.0, 0.0], [-1e154, 0.0, 0.0]]),
    ]
    for samples in cases:
        D = samples.shape[1]
        with np.errstate(over="ignore", invalid="ignore"):
            es = energy_score(samples, np.zeros(D))
            series = energy_series(samples[:, None, :], np.zeros((1, D)))
        assert np.isnan(es)
        assert np.array_equal(series, [es], equal_nan=True)


@pytest.mark.parametrize("shape", [(1, 3000, 2), (1, 3000, 3), (1, 3000, 8), (2000, 128, 2),
                                   (4096, 128, 2), (64, 512, 2)])
def test_energy_kernel_memory_is_bounded(shape):
    """A 3000-member window is scored in row blocks of at most _TILE doubles,
    never through its 72 MB (w, w) distance matrix, and a batch of many
    windows in chunks, never through temporaries the size of the batch."""
    samples = np.random.default_rng(shape[2]).standard_normal(shape)
    obs = np.zeros((shape[0], shape[2]))
    tracemalloc.start()
    try:
        _energy_batch(samples, obs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_energy_kernel_reuses_its_workspace():
    """A second call at the same shape takes its tile and stacks from the
    process's kept scratch: it allocates less than one tile."""
    gen = np.random.default_rng(3)
    samples, obs = gen.standard_normal((64, 128, 2)), gen.standard_normal((64, 2))
    first = _energy_batch(samples, obs)
    tracemalloc.start()
    try:
        second = _energy_batch(samples, obs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < multivariate._TILE * 8
    assert np.array_equal(first, second)


def test_energy_series_in_concurrent_threads_equals_serial():
    """Threads that score at the same time share no scratch: one holds the
    kept buffer, the others allocate their own, and every result is its
    serial result bit for bit."""
    gen = np.random.default_rng(4)
    inputs = [(gen.standard_normal((150, 24, d)), gen.standard_normal((24, d)))
              for d in (1, 2, 3, 8)]
    serial = [energy_series(ens, obs) for ens, obs in inputs]
    start = threading.Barrier(len(inputs))
    mismatches = []

    def score(i):
        start.wait()
        for _ in range(30):
            if not np.array_equal(energy_series(*inputs[i]), serial[i]):
                mismatches.append(i)

    threads = [threading.Thread(target=score, args=(i,)) for i in range(len(inputs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


# ---------------------------------------------------------------------------
# window-level scores
# ---------------------------------------------------------------------------

@pytest.fixture
def window_case(rng):
    ens = rng.standard_normal((64, 5, 3))
    obs = rng.standard_normal((5, 3))
    return ens, obs


def test_energy_series_matches_per_step_scores(window_case):
    """``energy_score`` of a step's strided view is that step of the series,
    bit for bit."""
    ens, obs = window_case
    for beta in (1.0, 1.5):
        series = energy_series(ens, obs, beta)
        assert series.shape == (5,)
        for t in range(5):
            assert series[t] == energy_score(ens[:, t, :], obs[t], beta)


def test_energy_window_mean_vs_flatten(window_case):
    """A window's ES, as the raw report gives it, is the horizon mean of the
    per-step series, bit for bit."""
    ens, obs = window_case
    rep = score_report(ens, obs, normalization="raw")
    assert rep.energy_score == float(energy_series(ens, obs).mean())


def test_crps_matrix_matches_univariate_calls(window_case):
    ens, obs = window_case
    public = {
        "ecdf": lambda s, x: crps_empirical_cdf(s, x),
        "quantile": lambda s, x: crps_quantile(s, x, 20),
        "sample": lambda s, x: crps_sample_estimate(s, x),
    }
    for name in ESTIMATORS:
        mat = crps_matrix(ens, obs, estimator=name)
        assert mat.shape == (5, 3)
        want = [[public[name](ens[:, t, d], obs[t, d]) for d in range(3)] for t in range(5)]
        assert np.array_equal(mat, want)
        assert np.all(mat >= 0.0)


def test_crps_per_dimension_aggregation(window_case):
    """The raw report's per-dimension CRPS and its aggregate are the means of
    the pointwise matrix over the horizon and over every cell, bit for bit."""
    ens, obs = window_case
    rep = score_report(ens, obs, estimator="sample", normalization="raw")
    mat = crps_matrix(ens, obs, estimator="sample")
    assert np.array_equal(rep.crps_per_dim, mat.mean(axis=0))
    assert rep.crps_aggregate == float(mat.mean())


def test_unknown_estimator_rejected(window_case):
    ens, obs = window_case
    with pytest.raises(ValueError, match="estimator"):
        crps_matrix(ens, obs, estimator="parametric")


def test_quantile_count_checked_only_for_quantile_estimator(window_case):
    ens, obs = window_case
    for fn in (crps_matrix, crps_sum_series, crps_sum, score_report):
        with pytest.raises(ValueError, match="n_quantiles"):
            fn(ens, obs, "quantile", 0)
        # the other estimators take no quantile count and ignore it
        fn(ens, obs, "ecdf", 0)
        fn(ens, obs, "sample", 0)


@pytest.mark.parametrize("estimator", ["ecdf", "quantile", "sample"])
def test_crps_scores_do_not_depend_on_memory_layout(rng, estimator):
    """Fortran order and transposed views score bit-for-bit as a C copy."""
    ens = rng.standard_normal((40, 6, 9)) + 1e3
    obs = rng.standard_normal((6, 9)) + 1e3
    views = [
        (np.asfortranarray(ens), np.asfortranarray(obs)),
        (np.ascontiguousarray(ens.transpose(2, 1, 0)).transpose(2, 1, 0),
         np.ascontiguousarray(obs.T).T),
    ]
    want_mat = crps_matrix(ens, obs, estimator)
    want_cs = crps_sum_series(ens, obs, estimator)
    for e, o in views:
        assert not e.flags.c_contiguous
        assert np.array_equal(crps_matrix(e, o, estimator), want_mat)
        assert np.array_equal(crps_sum_series(e, o, estimator), want_cs)


# ---------------------------------------------------------------------------
# CRPS-Sum
# ---------------------------------------------------------------------------

def test_crps_sum_composition_oracle():
    """Frozen expected values computed with a hand-rolled summed-signal scorer."""
    gen = np.random.default_rng(19)
    ens = gen.normal(size=(512, 4, 3))
    obs = gen.normal(size=(4, 3))
    series = crps_sum_series(ens, obs, estimator="quantile", n_quantiles=20)
    np.testing.assert_allclose(
        series,
        [0.5536118068224933, 0.937370495413577, 0.747735750544275, 1.0779241970768814],
        rtol=1e-12,
    )
    assert crps_sum(ens, obs) == pytest.approx(0.8291605624643066, rel=1e-12)


def test_crps_sum_is_score_of_summed_signal(window_case):
    ens, obs = window_case
    series = crps_sum_series(ens, obs, estimator="sample")
    for t in range(obs.shape[0]):
        want = crps_sample_estimate(ens[:, t, :].sum(axis=1), obs[t].sum())
        assert series[t] == pytest.approx(want, rel=1e-13)


def test_crps_sum_cancellation_on_anticorrelated_pairs(rng):
    """Mirrored dimensions sum to exactly zero, so the summed signal carries
    no information and CRPS-Sum vanishes even for a poor per-dim forecast."""
    base_obs = rng.standard_normal(6)
    obs = np.stack([base_obs, -base_obs], axis=1)  # (H, 2), rows sum to 0
    base_samples = rng.standard_normal((40, 6)) + 3.0  # clearly biased
    ens = np.stack([base_samples, -base_samples], axis=2)  # (S, H, 2)

    assert crps_sum(ens, obs, estimator="sample") == 0.0
    assert crps_sum(ens, obs, estimator="quantile") == 0.0
    per_dim = crps_matrix(ens, obs, estimator="sample").mean(axis=0)
    assert np.all(per_dim > 0.1)


# ---------------------------------------------------------------------------
# score report and normalization
# ---------------------------------------------------------------------------

def test_score_report_raw_aggregation(window_case):
    ens, obs = window_case
    rep = score_report(ens, obs, estimator="sample", normalization="raw")
    mat = crps_matrix(ens, obs, estimator="sample")
    assert rep.crps_aggregate == pytest.approx(mat.mean(), rel=1e-13)
    assert rep.crps_sum == pytest.approx(
        crps_sum_series(ens, obs, estimator="sample").mean(), rel=1e-13
    )
    assert rep.energy_score == pytest.approx(energy_series(ens, obs).mean(), rel=1e-13)
    assert rep.normalization_mode == "raw"
    np.testing.assert_allclose(rep.crps_per_dim, mat.mean(axis=0), rtol=1e-13)


def test_score_report_target_normalization(window_case):
    """Target mode divides accumulated score by accumulated |target|."""
    ens, obs = window_case
    rep = score_report(ens, obs, estimator="sample", normalization="target")
    mat = crps_matrix(ens, obs, estimator="sample")
    cs = crps_sum_series(ens, obs, estimator="sample")
    es = energy_series(ens, obs)

    assert rep.crps_aggregate == pytest.approx(mat.sum() / np.abs(obs).sum(), rel=1e-13)
    assert rep.crps_sum == pytest.approx(
        cs.sum() / np.abs(obs.sum(axis=1)).sum(), rel=1e-13
    )
    assert rep.energy_score == pytest.approx(es.sum() / np.abs(obs).sum(), rel=1e-13)
    np.testing.assert_allclose(
        rep.crps_per_dim, mat.sum(axis=0) / np.abs(obs).sum(axis=0), rtol=1e-13
    )
    assert rep.normalization_mode == "target-normalized"


def test_target_normalization_rejects_zero_magnitude_targets():
    ens = np.random.default_rng(5).standard_normal((8, 2, 2))
    with pytest.raises(ValueError, match="normalization"):
        score_report(ens, np.zeros((2, 2)), normalization="target")


def test_target_normalization_of_an_all_zero_dimension():
    """A dimension observed as all zeros has no scale: its per-dimension
    value is NaN, with no warning (the suite turns warnings into errors);
    the other dimensions keep their values."""
    rng = np.random.default_rng(8)
    ens = rng.standard_normal((20, 3, 2)) + 1.0
    obs = rng.standard_normal((3, 2)) + 1.0
    obs[:, 1] = 0.0
    rep = score_report(ens, obs, normalization="target")
    mat = crps_matrix(ens, obs)
    assert np.isnan(rep.crps_per_dim[1])
    assert rep.crps_per_dim[0] == mat.sum(axis=0)[0] / np.abs(obs).sum(axis=0)[0]


def test_score_report_checks_normalization_before_scoring(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("scored before checking normalization")

    monkeypatch.setattr(multivariate, "_energy_batch", unreachable)
    ens = np.random.default_rng(6).standard_normal((8, 3, 2))
    with pytest.raises(ValueError, match="normalization"):
        score_report(ens, np.zeros((3, 2)), normalization="bogus")


@pytest.mark.parametrize("beta", [0.0, 2.0, 3.0])
def test_score_report_checks_beta_before_scoring(monkeypatch, beta):
    def unreachable(*args, **kwargs):
        raise AssertionError("scored before checking beta")

    monkeypatch.setattr(multivariate, "_crps_batch", unreachable)
    ens = np.random.default_rng(6).standard_normal((8, 3, 2))
    with pytest.raises(ValueError, match="beta"):
        score_report(ens, np.zeros((3, 2)), beta=beta)


@pytest.mark.parametrize("options, match", BAD_SCORING_OPTIONS)
def test_score_report_checks_every_option_before_reading_arrays(monkeypatch, options, match):
    """Normalization, beta, estimator and quantile count are rejected before
    the ensemble is read, even one of the wrong shape."""
    monkeypatch.setattr(multivariate, "_as_ensemble", fail_on_read)
    with pytest.raises(ValueError, match=match):
        score_report(np.zeros(3), np.zeros(3), **options)


@pytest.mark.parametrize("score, options, match", [
    pytest.param(score, *param.values, id=f"{score.__name__}-{param.id}")
    for score, params in [
        (energy_score, BAD_BETA_OPTIONS),
        (energy_series, BAD_BETA_OPTIONS),
        (crps_matrix, BAD_ESTIMATOR_OPTIONS),
        (crps_sum_series, BAD_ESTIMATOR_OPTIONS),
        (crps_sum, BAD_ESTIMATOR_OPTIONS),
    ]
    for param in params
])
def test_public_scores_check_their_options_before_reading_arrays(monkeypatch, score, options,
                                                                 match):
    """Beta, the estimator and the quantile count are rejected before the
    arrays are read, even ones of the wrong shape."""
    monkeypatch.setattr(multivariate, "_as_ensemble", fail_on_read)
    with pytest.raises(ValueError, match=match):
        score(np.zeros(3), np.zeros(3), **options)


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_score_report_validates_once_and_matches_the_public_scores(window_case, monkeypatch,
                                                                     estimator):
    """One check of the ensemble, and the scores of the public functions bit for bit."""
    ens, obs = window_case
    want = (crps_matrix(ens, obs, estimator), crps_sum_series(ens, obs, estimator),
            energy_series(ens, obs))
    checked = []
    as_ensemble = multivariate._as_ensemble

    def spy(ensemble):
        checked.append(1)
        return as_ensemble(ensemble)

    monkeypatch.setattr(multivariate, "_as_ensemble", spy)
    rep = score_report(ens, obs, estimator=estimator)
    assert len(checked) == 1
    assert rep.crps_aggregate == want[0].mean()
    assert rep.crps_sum == want[1].mean()
    assert rep.energy_score == want[2].mean()
    assert np.array_equal(rep.crps_per_dim, want[0].mean(axis=0))


def test_score_report_perfect_forecast_all_zero():
    obs = np.array([[1.0, 2.0], [3.0, -1.0]])
    ens = np.broadcast_to(obs, (16, 2, 2)).copy()
    for mode in ("raw", "target"):
        rep = score_report(ens, obs, estimator="sample", normalization=mode)
        assert rep.crps_aggregate == 0.0
        assert rep.crps_sum == 0.0
        assert rep.energy_score == 0.0
        assert np.all(rep.crps_per_dim == 0.0)


def test_score_report_round_trips_metadata(window_case):
    ens, obs = window_case
    rep = score_report(ens, obs, estimator="quantile", n_quantiles=17, seed=42)
    assert rep.estimator == "quantile"
    assert rep.n_quantiles == 17
    assert rep.seed == 42
    row = rep.csv_row()
    assert len(row) == len(ScoreReport.CSV_COLUMNS)
    assert row[0] == rep.crps_sum and row[1] == rep.crps_aggregate
    d = rep.to_dict()
    assert d["crps"] == rep.crps_aggregate
    assert d["crps_per_dim"] == [float(v) for v in rep.crps_per_dim]


def test_estimator_registry_consistent(rng):
    """The ESTIMATORS names drive the CLI choices, and the batched kernel of
    each name is its public scalar estimator bit-for-bit."""
    assert ESTIMATORS == ("ecdf", "quantile", "sample")
    parser = build_parser()
    subcommands = next(a for a in parser._actions if a.dest == "command").choices
    for command in ("exchange-eval", "sigma-sweep", "score"):
        option = next(a for a in subcommands[command]._actions if a.dest == "estimator")
        assert tuple(option.choices) == ESTIMATORS

    s = rng.standard_normal((4, 50))
    x = rng.standard_normal(4)
    public = {
        "ecdf": lambda s, x: crps_empirical_cdf(s, x),
        "quantile": lambda s, x: crps_quantile(s, x, 17),
        "sample": lambda s, x: crps_sample_estimate(s, x),
    }
    for name in ESTIMATORS:
        want = [public[name](s[i], x[i]) for i in range(4)]
        assert np.array_equal(_crps_batch(s, x, name, 17), want)


def test_ensemble_shape_validation(rng):
    with pytest.raises(ValueError):
        score_report(rng.standard_normal((8, 3)), rng.standard_normal((3, 2)))
    with pytest.raises(ValueError):
        score_report(rng.standard_normal((8, 3, 2)), rng.standard_normal((4, 2)))
    with pytest.raises(ValueError):
        score_report(rng.standard_normal((8, 3, 2)), rng.standard_normal((3, 5)))
