import numpy as np
import pytest

from reslearn.baselines import (
    SgdConfig,
    expected_sample_bound,
    sgd_batch_gradients,
    sgd_train,
    vanilla_lr,
)
from reslearn.model import (
    GaussianIid,
    WEIGHT_STD,
    ResidualUnit,
    SampleSet,
    forward_batch,
    make_rng,
    sample,
)

A_REF = np.array([[1.0, 1.0], [1.0, 2.0]])
B_REF = np.array([[1.0, 0.5], [0.0, 1.0]])


def gaussian_samples(a, b, n, seed=0, sigma=0.0):
    unit = ResidualUnit(a=a, b=b)
    return unit, sample(unit, GaussianIid(dim=unit.d), n, sigma, seed=seed)


class TestVanillaLr:
    def test_d1_exact(self):
        unit, s = gaussian_samples([[1.5]], [[2.0]], 200, seed=1)
        res = vanilla_lr(s)
        assert res.success
        assert res.a_hat[0, 0] == pytest.approx(1.5, abs=1e-9)
        assert res.b_hat[0, 0] == pytest.approx(2.0, abs=1e-9)

    def test_d2_exact(self):
        unit, s = gaussian_samples(A_REF, B_REF, 2000, seed=2)
        res = vanilla_lr(s)
        assert res.success
        np.testing.assert_allclose(res.a_hat, A_REF, atol=1e-8)
        np.testing.assert_allclose(res.b_hat, B_REF, atol=1e-8)

    def test_orthant_counts(self):
        unit, s = gaussian_samples(A_REF, B_REF, 400, seed=3)
        res = vanilla_lr(s)
        assert 0 < res.n_neg_used <= 200
        assert 0 < res.n_pos_used <= 200

    def test_no_negative_orthant_fails(self):
        # folded Gaussian inputs never reach the all-negative orthant
        xs = np.abs(make_rng(4).normal(0.0, 1.0, size=(400, 2)))
        s = SampleSet(xs=xs, ys=forward_batch(A_REF, B_REF, xs))
        res = vanilla_lr(s)
        assert not res.success
        assert res.a_hat is None and res.b_hat is None
        assert res.n_neg_used == 0

    def test_tall_second_layer(self):
        b_tall = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        unit, s = gaussian_samples(A_REF, b_tall, 3000, seed=5)
        res = vanilla_lr(s)
        assert res.success
        np.testing.assert_allclose(res.a_hat, A_REF, atol=1e-8)
        np.testing.assert_allclose(res.b_hat, b_tall, atol=1e-8)


class TestExpectedSampleBound:
    def test_hand_values(self):
        assert expected_sample_bound(1) == 4
        assert expected_sample_bound(2) == 16
        assert expected_sample_bound(3) == 48
        assert expected_sample_bound(4) == 128
        assert expected_sample_bound(10) == 20480

    def test_exact_integer_at_large_d(self):
        assert expected_sample_bound(40) == 40 * 2**41

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            expected_sample_bound(0)


class TestSgdGradients:
    def test_loss_matches_direct_computation(self):
        g = make_rng(6)
        a = np.abs(g.standard_normal((3, 3)))
        b = g.standard_normal((3, 3))
        xb = g.standard_normal((8, 3))
        yb = g.standard_normal((8, 3))
        loss, _, _ = sgd_batch_gradients(a, b, xb, yb)
        pred = (np.maximum(xb @ a.T, 0.0) + xb) @ b.T
        expect = 0.5 * np.sum((pred - yb) ** 2) / 8
        assert loss == pytest.approx(expect, rel=1e-12)

    def test_gradients_match_finite_differences(self):
        g = make_rng(7)
        a = np.abs(g.standard_normal((2, 2))) + 0.1
        b = g.standard_normal((2, 2))
        xb = g.standard_normal((16, 2))
        yb = g.standard_normal((16, 2))
        _, ga, gb = sgd_batch_gradients(a, b, xb, yb)
        h = 1e-6

        def loss_at(am, bm):
            return sgd_batch_gradients(am, bm, xb, yb)[0]

        for mat, grad in ((a, ga), (b, gb)):
            for i in range(2):
                for j in range(2):
                    up = mat.copy(); up[i, j] += h
                    dn = mat.copy(); dn[i, j] -= h
                    if mat is a:
                        num = (loss_at(up, b) - loss_at(dn, b)) / (2 * h)
                    else:
                        num = (loss_at(a, up) - loss_at(a, dn)) / (2 * h)
                    assert num == pytest.approx(grad[i, j], rel=1e-5, abs=1e-8)


def reference_sgd(samples, cfg):
    """The plain SGD loop: one ``sgd_batch_gradients`` call per batch."""
    xs, ys = samples.xs, samples.ys
    n, d = xs.shape
    rng = make_rng(cfg.seed)
    a = np.maximum(rng.normal(0.0, WEIGHT_STD, size=(d, d)), 0.0)
    b = rng.normal(0.0, WEIGHT_STD, size=(ys.shape[1], d))
    trace = []
    for epoch in range(cfg.epochs):
        eta = cfg.eta0 / (1.0 + cfg.gamma * epoch)
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, grad_a, grad_b = sgd_batch_gradients(a, b, xs[idx], ys[idx])
            a -= eta * grad_a
            b -= eta * grad_b
            losses.append(loss)
        trace.append((epoch, float(np.mean(losses)), eta))
    return a, b, np.array(trace)


class TestSgdTrain:
    # 100 and 97 leave a short last batch, 97 one of a single row
    @pytest.mark.parametrize("d, n", [(3, 128), (4, 100), (3, 97)])
    def test_trajectory_is_the_plain_loop_bit_for_bit(self, d, n):
        unit, s = gaussian_samples(np.abs(make_rng(d).normal(size=(d, d))),
                                   make_rng(n).normal(size=(d, d)), n, seed=19, sigma=0.1)
        cfg = SgdConfig(epochs=12, seed=20)
        res = sgd_train(s, cfg)
        a, b, trace = reference_sgd(s, cfg)
        np.testing.assert_array_equal(res.a_hat, a)
        np.testing.assert_array_equal(res.b_hat, b)
        np.testing.assert_array_equal(res.loss_trace, trace)

    def test_deterministic(self):
        unit, s = gaussian_samples(A_REF, B_REF, 128, seed=8)
        cfg = SgdConfig(epochs=20, seed=9)
        r1 = sgd_train(s, cfg)
        r2 = sgd_train(s, cfg)
        np.testing.assert_array_equal(r1.a_hat, r2.a_hat)
        np.testing.assert_array_equal(r1.b_hat, r2.b_hat)
        np.testing.assert_array_equal(r1.loss_trace, r2.loss_trace)

    def test_teacher_init_is_stationary_noiseless(self):
        # the teacher is a global minimum of the noiseless loss: zero loss
        # and zero gradients, so SGD started there would never move
        unit, s = gaussian_samples(A_REF, B_REF, 128, seed=10)
        loss, grad_a, grad_b = sgd_batch_gradients(A_REF, B_REF, s.xs, s.ys)
        assert loss == 0.0
        np.testing.assert_array_equal(grad_a, 0.0)
        np.testing.assert_array_equal(grad_b, 0.0)

    def test_trace_schedule(self):
        unit, s = gaussian_samples(A_REF, B_REF, 64, seed=12)
        cfg = SgdConfig(epochs=5, eta0=1e-3, gamma=1e-5, seed=13)
        res = sgd_train(s, cfg)
        assert res.loss_trace.shape == (5, 3)
        for ep in range(5):
            assert res.loss_trace[ep, 0] == ep
            assert res.loss_trace[ep, 2] == pytest.approx(1e-3 / (1 + 1e-5 * ep))

    def test_loss_decreases(self):
        unit, s = gaussian_samples(A_REF, B_REF, 256, seed=14)
        res = sgd_train(s, SgdConfig(epochs=60, seed=15))
        assert res.loss_trace[-1, 1] < res.loss_trace[0, 1]
        assert not res.diverged

    def test_divergence_flagged(self):
        unit, s = gaussian_samples(A_REF, B_REF, 128, seed=16)
        res = sgd_train(s, SgdConfig(epochs=40, eta0=10.0, seed=17))
        assert res.diverged

    def test_not_enough_for_one_batch(self):
        unit, s = gaussian_samples(A_REF, B_REF, 16, seed=18)
        with pytest.raises(ValueError):
            sgd_train(s, SgdConfig(batch_size=32))
