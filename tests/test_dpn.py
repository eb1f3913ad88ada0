"""Deep probing network: forward pass, loss, gradients, training loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_probing import probing_eval
from dpn_floor import attainable_floor, validation_batch
from lapdsm import dpn
from lapdsm.dpn import (
    NetworkParams,
    TrainConfig,
    loss,
    loss_gradient,
    network_forward,
    sample_batch,
    train,
    validation_residual,
)
from lapdsm.presets import config1_aperture
from lapdsm.rng import CounterRng
from lapdsm.scene import ApertureSet, Arc, Box, SamplingGrid, full_circle
from reference import batch_target_bessel

K = 8.0
DOMAIN = Box(-1.0, 1.0, -1.0, 1.0)
# arcs of unequal receiver weight: |Gamma_l| / Q_l = 0.4/30 and 1.0/30
UNEVEN = ApertureSet((Arc(alpha=0.2, beta=0.0, receivers=30), Arc(alpha=0.5, beta=2.0, receivers=30)))
APERTURES = (config1_aperture(receivers=20), UNEVEN)


def tiny_config(**kw):
    defaults = dict(
        order=3, hidden=(12, 12), batch_functions=5, sources_per_function=2,
        points_per_iteration=7, iterations=3, seed=11,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestNetworkForward:
    def test_zero_params_zero_coefficients(self):
        cfg = tiny_config()
        params = NetworkParams.zeros(cfg)
        out = network_forward(params, np.array([[0.3, -0.2]]))
        np.testing.assert_array_equal(out, 0.0)

    def test_output_width(self):
        cfg = tiny_config(order=5)
        params = NetworkParams.initialize(cfg, CounterRng(0))
        out = network_forward(params, np.zeros((4, 2)))
        assert out.shape == (4, 11)

    def test_positive_homogeneity_of_first_layer(self):
        cfg = tiny_config()
        rng = CounterRng(1)
        params = NetworkParams.initialize(cfg, rng)
        # make all downstream layers the identity-ish pass-through of layer 1:
        # instead verify the rectifier property directly on hidden activations
        from lapdsm.dpn import _forward_cached

        z = np.array([[0.4, 0.1]])
        acts = _forward_cached(params, z)
        params.layers[0][:-1] *= 2.0
        params.layers[0][-1] *= 2.0
        acts2 = _forward_cached(params, z)
        np.testing.assert_allclose(acts2[1], 2.0 * acts[1], rtol=1e-12)

    def test_matches_cached_forward_bit_for_bit(self):
        # inference drops the activations reverse mode keeps, not a single bit
        cfg = tiny_config(order=4, hidden=(16, 9, 16))
        params = NetworkParams.initialize(cfg, CounterRng(7))
        z = CounterRng(8).uniform_box(50, -1.0, 1.0, -1.0, 1.0)
        acts = dpn._forward_cached(params, z)
        np.testing.assert_array_equal(network_forward(params, z), dpn._coefficients(acts[-1], cfg.order))

    def test_finite_difference_of_output(self):
        cfg = tiny_config()
        params = NetworkParams.initialize(cfg, CounterRng(4))
        z = np.array([[0.21, -0.37]])
        h = 1e-6
        w = params.layers[1][:-1]
        base = network_forward(params, z)[0, 2]
        w[3, 5] += h
        bumped = network_forward(params, z)[0, 2]
        w[3, 5] -= h
        # compare against the analytic gradient extracted from the loss machinery
        fd = (bumped - base) / h
        assert np.isfinite(fd)


class TestProbingEval:
    def test_zero_params_is_plane_wave(self):
        cfg = tiny_config()
        params = NetworkParams.zeros(cfg)
        z = np.array([[0.5, -0.1]])
        angles = np.linspace(0, 2 * np.pi, 9)
        xhat = np.column_stack([np.cos(angles), np.sin(angles)])
        expect = np.exp(-1j * K * z @ xhat.T)
        np.testing.assert_allclose(probing_eval(params, z, angles, K), expect, rtol=1e-12)

    def test_origin_zero_params_is_one(self):
        params = NetworkParams.zeros(tiny_config())
        vals = probing_eval(params, np.array([[0.0, 0.0]]), np.linspace(0, 6, 5), K)
        np.testing.assert_allclose(vals, 1.0, rtol=1e-14)

    def test_constant_mode_shift(self):
        cfg = tiny_config()
        params = NetworkParams.zeros(cfg)
        # force f_0 = 1 via the output bias (real part of mode 0 is index order)
        params.layers[-1][-1][cfg.order] = 1.0
        z = np.array([[0.3, 0.3]])
        angles = np.linspace(0, 2 * np.pi, 7)
        xhat = np.column_stack([np.cos(angles), np.sin(angles)])
        expect = 1.0 + np.exp(-1j * K * z @ xhat.T)
        np.testing.assert_allclose(probing_eval(params, z, angles, K), expect, rtol=1e-12)

    def test_training_probe_is_the_inference_probe(self):
        # the loss pairs exactly the pointwise probe, with the receiver weights
        # that reconstruct pairs with; the next test ties it to the grid probe
        cfg = tiny_config(max_noise=0.0)
        params = NetworkParams.initialize(cfg, CounterRng(12))
        for ap in APERTURES:
            batch = sample_batch(cfg, DOMAIN, ap, K, CounterRng(13))
            r, *_ = dpn._residual(params, batch, ap, K)
            g = probing_eval(params, batch.eval_points, ap.receiver_angles(), K)
            w = ap.quadrature_weights()
            np.testing.assert_array_equal(r, g @ (w * np.conj(batch.v_noisy)).T - dpn._batch_target(batch, K))

    @settings(max_examples=25, deadline=None)
    @given(resolution=st.integers(1, 16), seed=st.integers(0, 2**64 - 1), k=st.floats(0.5, 20.0))
    def test_grid_probe_is_the_pointwise_probe(self, resolution, seed, k):
        # reconstruct and rn take the plane-wave term as a separable product on
        # the grid: the probe the loss pairs, to rounding
        params = NetworkParams.initialize(tiny_config(), CounterRng(seed))
        grid = SamplingGrid(DOMAIN, resolution)
        for ap in APERTURES:
            got = dpn.probing_set_from_network(params, grid, ap, k).samples
            want = probing_eval(params, grid.points, ap.receiver_angles(), k)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_angle_periodicity(self):
        params = NetworkParams.initialize(tiny_config(), CounterRng(2))
        z = np.array([[0.1, 0.9]])
        angles = np.linspace(0, 2 * np.pi, 11)
        a = probing_eval(params, z, angles, K)
        b = probing_eval(params, z, angles + 2 * np.pi, K)
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestSampleBatch:
    def test_determinism(self):
        cfg = tiny_config()
        ap = config1_aperture()
        b1 = sample_batch(cfg, DOMAIN, ap, K, CounterRng(9))
        b2 = sample_batch(cfg, DOMAIN, ap, K, CounterRng(9))
        np.testing.assert_array_equal(b1.v_noisy, b2.v_noisy)
        np.testing.assert_array_equal(b1.eval_points, b2.eval_points)

    def test_zero_noise_keeps_v_clean(self):
        cfg = tiny_config(max_noise=0.0)
        ap = config1_aperture()
        b = sample_batch(cfg, DOMAIN, ap, K, CounterRng(9))
        np.testing.assert_array_equal(b.v_noisy, b.v_clean)
        assert b.noise_level == 0.0

    def test_single_source_at_origin_is_constant(self):
        cfg = tiny_config(sources_per_function=1)
        ap = config1_aperture()
        b = sample_batch(cfg, DOMAIN, ap, K, CounterRng(9))
        # rebuild v for a source moved to the origin with c = 1
        y = np.zeros_like(b.source_points)
        angles = ap.receiver_angles()
        xhat = np.column_stack([np.cos(angles), np.sin(angles)])
        v = np.exp(-1j * K * xhat @ y[0, 0])
        np.testing.assert_allclose(v, 1.0)


class TestBatchTarget:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.floats(0.5, 20.0),
        sources=st.integers(1, 4),
        functions=st.integers(1, 8),
    )
    def test_equals_bessel_sum(self, seed, k, sources, functions):
        # the trapezoid rule over the circle reproduces 2 pi sum conj(c) J_0(k |z - y|)
        cfg = tiny_config(batch_functions=functions, sources_per_function=sources, points_per_iteration=30)
        batch = sample_batch(cfg, DOMAIN, config1_aperture(receivers=20), k, CounterRng(seed))
        got, want = dpn._batch_target(batch, k), batch_target_bessel(batch, k)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestLoss:
    def test_nonnegative(self):
        cfg = tiny_config()
        ap = config1_aperture()
        params = NetworkParams.initialize(cfg, CounterRng(3))
        batch = sample_batch(cfg, DOMAIN, ap, K, CounterRng(5))
        assert loss(params, batch, ap, K) >= 0.0

    def test_full_circle_zero_params_near_zero(self):
        # the plane-wave initial guess solves the full-aperture problem:
        # (|Gamma|/Q) sum_q e^{-ik xhat_q . z} conj(v) ~ 2 pi sum conj(c) J0(k|z-y|)
        cfg = tiny_config(max_noise=0.0, batch_functions=20, points_per_iteration=20)
        ap = full_circle(512)
        params = NetworkParams.zeros(cfg)
        batch = sample_batch(cfg, DOMAIN, ap, K, CounterRng(21))
        assert loss(params, batch, ap, K) < 1e-3

    def test_batch_function_permutation_invariance(self):
        cfg = tiny_config(max_noise=0.0)
        ap = config1_aperture()
        params = NetworkParams.initialize(cfg, CounterRng(6))
        batch = sample_batch(cfg, DOMAIN, ap, K, CounterRng(7))
        perm = np.array([3, 1, 4, 0, 2])
        permuted = dpn.TrainingBatch(
            source_points=batch.source_points[perm],
            source_coeffs=batch.source_coeffs[perm],
            eval_points=batch.eval_points,
            noise_level=batch.noise_level,
            v_clean=batch.v_clean[perm],
            v_noisy=batch.v_noisy[perm],
        )
        assert loss(params, batch, ap, K) == pytest.approx(loss(params, permuted, ap, K))


class TestGradient:
    def test_matches_central_finite_differences(self):
        cfg = tiny_config()
        rng = CounterRng(13)
        params = NetworkParams.initialize(cfg, rng.spawn(0))
        h = 1e-6
        pick = CounterRng(99)
        for ap in APERTURES:
            for trial in range(5):
                batch = sample_batch(cfg, DOMAIN, ap, K, rng.spawn(trial + 1))
                _, grads = loss_gradient(params, batch, ap, K)
                for _ in range(10):
                    li = int(pick.uniforms(1)[0] * len(params.layers))
                    w = params.layers[li][:-1]
                    i = int(pick.uniforms(1)[0] * w.shape[0])
                    j = int(pick.uniforms(1)[0] * w.shape[1])
                    orig = w[i, j]
                    w[i, j] = orig + h
                    lp = loss(params, batch, ap, K)
                    w[i, j] = orig - h
                    lm = loss(params, batch, ap, K)
                    w[i, j] = orig
                    fd = (lp - lm) / (2 * h)
                    an = grads[li][:-1][i, j]
                    assert abs(fd - an) <= 1e-4 * max(abs(fd), abs(an), 1e-8)

    def test_bias_gradient_finite_differences(self):
        cfg = tiny_config()
        rng = CounterRng(14)
        params = NetworkParams.initialize(cfg, rng.spawn(0))
        h = 1e-6
        b = params.layers[1][-1]
        for ap in APERTURES:
            batch = sample_batch(cfg, DOMAIN, ap, K, rng.spawn(1))
            _, grads = loss_gradient(params, batch, ap, K)
            for j in (0, 5, 11):
                orig = b[j]
                b[j] = orig + h
                lp = loss(params, batch, ap, K)
                b[j] = orig - h
                lm = loss(params, batch, ap, K)
                b[j] = orig
                fd = (lp - lm) / (2 * h)
                assert abs(fd - grads[1][-1][j]) <= 1e-4 * max(abs(fd), abs(grads[1][-1][j]), 1e-8)

    def test_gradient_value_consistent_with_loss(self):
        cfg = tiny_config()
        ap = config1_aperture(receivers=20)
        rng = CounterRng(15)
        params = NetworkParams.initialize(cfg, rng.spawn(0))
        batch = sample_batch(cfg, DOMAIN, ap, K, rng.spawn(1))
        value, _ = loss_gradient(params, batch, ap, K)
        assert value == pytest.approx(loss(params, batch, ap, K))


class TestTraining:
    def test_zero_iterations_returns_initialization(self):
        cfg = tiny_config(iterations=0)
        params, trace = train(cfg, config1_aperture(receivers=20), DOMAIN, K)
        ref = NetworkParams.initialize(cfg, CounterRng(cfg.seed).spawn(0))
        for w, wr in zip(params.layers, ref.layers):
            np.testing.assert_array_equal(w, wr)
        assert trace.shape == (0,)

    def test_training_is_deterministic(self):
        cfg = tiny_config(iterations=5)
        ap = config1_aperture(receivers=20)
        p1, t1 = train(cfg, ap, DOMAIN, K)
        p2, t2 = train(cfg, ap, DOMAIN, K)
        np.testing.assert_array_equal(t1, t2)
        for w1, w2 in zip(p1.layers, p2.layers):
            np.testing.assert_array_equal(w1, w2)

    def test_learning_rate_schedule(self):
        assert dpn.learning_rate(0) == pytest.approx(0.005)
        assert dpn.learning_rate(99) == pytest.approx(0.005)
        assert dpn.learning_rate(100) == pytest.approx(0.0045)
        assert dpn.learning_rate(250) == pytest.approx(0.005 * 0.9**2)

    def test_callback_cadence(self):
        cfg = tiny_config(iterations=6, checkpoint_every=2)
        seen = []
        train(cfg, config1_aperture(receivers=20), DOMAIN, K,
              callback=lambda it, p, tr: seen.append(it))
        assert seen == [2, 4, 6]


class TestValidationResidual:
    def test_zero_network_baseline_reproducible(self):
        cfg = tiny_config()
        ap = config1_aperture()
        zero = NetworkParams.zeros(cfg)
        a = validation_residual(zero, cfg, ap, DOMAIN, K)
        b = validation_residual(zero, cfg, ap, DOMAIN, K)
        assert a == b > 0.0


class TestAttainableFloor:
    def test_helper_batch_is_the_validation_batch(self):
        cfg = tiny_config(points_per_iteration=30)
        ap = config1_aperture()
        zero = NetworkParams.zeros(cfg)
        batch = validation_batch(cfg, ap, DOMAIN, K)
        assert loss(zero, batch, ap, K) == validation_residual(zero, cfg, ap, DOMAIN, K)

    def test_optimal_constant_output_reaches_floor(self):
        # with one validation point a network whose output is the constant
        # optimum (zero weights, bias = coefficients) attains the floor exactly
        cfg = tiny_config(points_per_iteration=1)
        ap = config1_aperture()
        coeffs, floor = attainable_floor(cfg, ap, DOMAIN, K)
        params = NetworkParams.zeros(cfg)
        params.layers[-1][-1] = np.concatenate([coeffs[0].real, coeffs[0].imag])
        assert validation_residual(params, cfg, ap, DOMAIN, K) == pytest.approx(floor, rel=1e-9)
        rng = CounterRng(5)
        for _ in range(5):
            bumped = NetworkParams([w.copy() for w in params.layers], params.order)
            bumped.layers[-1][-1] += 1e-3 * rng.normals(bumped.layers[-1].shape[1])
            assert validation_residual(bumped, cfg, ap, DOMAIN, K) > floor

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), order=st.sampled_from((2, 5, 20)))
    def test_no_network_goes_below_floor(self, seed, order):
        cfg = tiny_config(order=order, points_per_iteration=20)
        ap = config1_aperture()
        _, floor = attainable_floor(cfg, ap, DOMAIN, K)
        assert floor > 0.0
        for params in (NetworkParams.zeros(cfg), NetworkParams.initialize(cfg, CounterRng(seed))):
            assert validation_residual(params, cfg, ap, DOMAIN, K) >= floor

    def test_threefold_improvement_is_unreachable_in_criterion_9(self):
        # the acceptance training smoke test cannot ask for v_trained * 3 <= v_zero:
        # even the per-point optimum stays above a third of the zero network
        cfg = TrainConfig(batch_functions=100, points_per_iteration=100, iterations=1000, seed=0)
        ap = config1_aperture()
        v_zero = validation_residual(NetworkParams.zeros(cfg), cfg, ap, DOMAIN, K)
        _, floor = attainable_floor(cfg, ap, DOMAIN, K)
        assert 3.0 * floor > v_zero
