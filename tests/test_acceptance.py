"""Acceptance suite: one test per published property, printed pass/fail lines.

Each test prints `ACCEPTANCE <n> <name>: PASS` (or FAIL) so the whole gate
can be read off a verbose run.  Tolerances are part of the contract and are
not to be loosened.
"""

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

from dense_probing import ffsm_rhs_dense, fssm_rhs_dense
from dpn_floor import attainable_floor
from lapdsm import dpn
from lapdsm.cli import main as cli_main
from lapdsm.dsm import (
    average_and_normalize,
    green_norm_on_aperture,
    index_classical,
    kernel_gamma,
)
from lapdsm.finite_space import ffsm_matrix, fssm_matrix, reconstruct_finite_space, source_lattice
from lapdsm.forward import contrast_grid, far_field, solve_scattering, synthesize_far_field
from lapdsm.numerics import arc_norm, gauss_arc_nodes
from lapdsm.presets import DOMAIN, WAVENUMBER, config1_aperture, config2_aperture, preset_scene
from lapdsm.rng import CounterRng
from lapdsm.scene import ApertureSet, Arc, FarFieldData, SamplingGrid, add_noise, full_circle
from reference import bessel_j0_kernel, born_far_field, disk_far_field_series, dominant_peaks, green_far_field, true_centers

K = WAVENUMBER


def report(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {verdict}" + (f"  [{detail}]" if detail else ""))
    return ok


# ---------------------------------------------------------------- criterion 1
def test_criterion_01_kernel_identity():
    t0 = time.time()
    circle = full_circle(8)
    rng = CounterRng(1)
    za = rng.uniform_box(100, -1, 1, -1, 1)
    ya = rng.uniform_box(100, -1, 1, -1, 1)
    worst = 0.0
    for z, y in zip(za, ya):
        expect = bessel_j0_kernel(K, np.hypot(*(z - y)))
        worst = max(worst, abs(kernel_gamma(z, y, circle, K) - expect))
    elapsed = time.time() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    assert report(1, "kernel-identity", ok, f"max err {worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------- criterion 2
def test_criterion_02_kernel_coincident_limit():
    t0 = time.time()
    worst = 0.0
    for alpha in (np.pi / 8, np.pi / 3, 2 * np.pi / 5):
        ap = ApertureSet((Arc(alpha=alpha, beta=0.0, receivers=8),))
        v = abs(kernel_gamma((0.13, -0.44), (0.13, -0.44), ap, K))
        worst = max(worst, abs(v - alpha / (4 * K * np.pi)))
    ap = ApertureSet((Arc(alpha=np.pi / 3, beta=0.0, receivers=8),))
    third = abs(kernel_gamma((0.0, 0.0), (0.0, 0.0), ap, K))
    elapsed = time.time() - t0
    ok = worst < 1e-8 and abs(third - 1.0 / 96.0) < 1e-8 and elapsed < 1.0
    assert report(2, "kernel-coincident-limit", ok, f"max err {worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------- criterion 3
def test_criterion_03_decay_curves(tmp_path):
    t0 = time.time()
    out = str(tmp_path / "decay")
    code = cli_main(
        ["kernel", "--alpha", str(np.pi / 3), "--k", "8",
         "--beta-list", f"0,{np.pi/4},{np.pi/2}", "--r-max", "2.0", "--r-steps", "101",
         "--quad-points", "256", "--out", out]
    )
    assert code == 0
    rows = np.loadtxt(tmp_path / "decay.csv", delimiter=",", skiprows=1)
    radii, cols = rows[:, 0], rows[:, 1:]
    max_at_zero = all(np.argmax(cols[:, j]) == 0 for j in range(3))
    at_one = np.argmin(np.abs(radii - 1.0))
    slower_along_zero = cols[at_one, 0] > cols[at_one, 2]
    elapsed = time.time() - t0
    ok = max_at_zero and slower_along_zero and elapsed < 5.0
    assert report(3, "decay-curve-reproduction", ok, f"{elapsed:.2f}s")


# ---------------------------------------------------------------- criterion 4
def test_criterion_04_matrix_oracles():
    t0 = time.time()
    order = 20
    ns = np.arange(-order, order + 1)
    worst_a = 0.0
    for ap in (config1_aperture(), config2_aperture()):
        a = ffsm_matrix(ap, order)
        angles, weights = gauss_arc_nodes(ap, 4096)
        basis = np.exp(1j * np.outer(ns, angles))
        oracle = (basis.conj() * weights) @ basis.T / (2 * np.pi)  # <e^{im}, e^{in}>/2pi
        worst_a = max(worst_a, np.max(np.abs(a - oracle)))

    ap = config1_aperture()
    sources = source_lattice(DOMAIN, 20)
    a_f = fssm_matrix(ap, order, sources, K)
    angles, weights = gauss_arc_nodes(ap, 4096)
    basis = np.exp(1j * np.outer(ns, angles))  # (2P+1, nodes)
    g = np.array([green_far_field(y, angles, K) for y in sources])  # (S, nodes)
    oracle_f = (np.conj(g) * weights) @ basis.T / np.sqrt(2 * np.pi)
    worst_f = np.max(np.abs(a_f - oracle_f))

    rng = CounterRng(404)
    zs = rng.uniform_box(50, -1, 1, -1, 1)
    circle_angles, circle_weights = gauss_arc_nodes(full_circle(8), 4096)
    cbasis = np.exp(-1j * np.outer(ns, circle_angles))
    worst_b = 0.0
    for z in zs:
        b = ffsm_rhs_dense(z[None, :], order, K)[0]
        gz = green_far_field(z, circle_angles, K)
        oracle_b = (cbasis * circle_weights) @ gz / np.sqrt(2 * np.pi)
        worst_b = max(worst_b, np.max(np.abs(b - oracle_b)))
    b_f = fssm_rhs_dense(zs, sources, K)
    oracle_bf = np.empty_like(b_f)
    for i, z in enumerate(zs):
        gz = green_far_field(z, circle_angles, K)
        for j, y in enumerate(sources):
            gy = green_far_field(y, circle_angles, K)
            oracle_bf[i, j] = np.sum(gz * np.conj(gy) * circle_weights)
    worst_bf = np.max(np.abs(b_f - oracle_bf))

    elapsed = time.time() - t0
    ok = worst_a < 1e-8 and worst_f < 1e-8 and worst_b < 1e-9 and worst_bf < 1e-9 and elapsed < 30.0
    assert report(
        4, "closed-form-matrix-oracles", ok,
        f"A {worst_a:.1e}, A_src {worst_f:.1e}, B {worst_b:.1e}/{worst_bf:.1e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------- criterion 5
def test_criterion_05_stability_bound():
    t0 = time.time()
    circle = full_circle(256)
    scene = dataclasses.replace(preset_scene("ex1_1"), aperture=circle)
    data = synthesize_far_field(scene, 120)
    u = data.samples[0]
    grid = SamplingGrid(DOMAIN, 32)
    base = index_classical(data, None, grid, k=K)
    rng = CounterRng(777)
    constant = 1.0 / (2.0 * np.sqrt(K))
    assert abs(green_norm_on_aperture(circle, K) - constant) < 1e-12
    violations = 0
    for _ in range(100):
        pert = u + 0.05 * (rng.normals(256) + 1j * rng.normals(256)) * np.abs(u).mean()
        pdata = FarFieldData(pert[None, :], circle)
        field = index_classical(pdata, None, grid, k=K)
        bound = constant * arc_norm(u - pert, circle)
        if np.max(np.abs(base.values - field.values)) > bound + 1e-12:
            violations += 1
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 10.0
    assert report(5, "index-stability-bound", ok, f"{violations} violations, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 6
def test_criterion_06_forward_solver_oracles():
    t0 = time.time()
    from lapdsm.scene import Box, Disk, Scene

    sc = Scene(K, DOMAIN, (Disk((0.0, 0.0), 0.15, 2.0),), ((1.0, 0.0),), full_circle(128))
    data = synthesize_far_field(sc, 120)
    series = disk_far_field_series(K, 0.15, 2.0, (1.0, 0.0), sc.aperture.receiver_angles())
    err_series = np.linalg.norm(data.samples[0] - series) / np.linalg.norm(series)

    weak = Scene(K, DOMAIN, (Disk((0.0, 0.0), 0.2, 1.01),), ((1.0, 0.0),), full_circle(128))
    g = contrast_grid(weak, 120)
    sol = solve_scattering(weak, 0, g)
    angles = weak.aperture.receiver_angles()
    full = far_field(sol, angles, K)
    born = born_far_field(weak, 0, angles, g)
    err_born = np.linalg.norm(full - born) / np.linalg.norm(full)

    elapsed = time.time() - t0
    ok = err_series < 0.01 and err_born < 0.02 and elapsed < 60.0
    assert report(
        6, "forward-solver-oracles", ok,
        f"series {err_series:.4f}, weak-contrast {err_born:.4f}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------- criterion 7
def _localizes(field, centers, tol=0.25):
    """Top-3 separated maxima match the 3 distinct centers bijectively."""
    peaks = dominant_peaks(field, min_separation=0.3, threshold=0.5)
    if len(peaks) < 3:
        return False
    used = set()
    for x, y, _ in peaks[:3]:
        dists = [np.hypot(x - cx, y - cy) for cx, cy in centers]
        j = int(np.argmin(dists))
        if dists[j] > tol or j in used:
            return False
        used.add(j)
    return True


def test_criterion_07_end_to_end_localization():
    t0 = time.time()
    centers = true_centers("ex1_1")
    grid = SamplingGrid(DOMAIN, 128)

    full_scene = dataclasses.replace(preset_scene("ex1_1"), aperture=full_circle(512))
    full_noisy = add_noise(synthesize_far_field(full_scene, 120), 0.01, 7)
    f_full = average_and_normalize(
        [index_classical(full_noisy, None, grid, k=K)]
    )
    full_ok = _localizes(f_full, centers)

    scene = preset_scene("ex1_1")
    noisy = add_noise(synthesize_far_field(scene, 120), 0.01, 7)
    f_part = average_and_normalize([index_classical(noisy, None, grid, k=K)])
    partial_fails = not _localizes(f_part, centers)

    (f_ffsm,) = reconstruct_finite_space(noisy, "ffsm", 20, [0.1**8], grid, K)
    ffsm_ok = _localizes(f_ffsm, centers)
    sources = source_lattice(DOMAIN, 20)
    (f_fssm,) = reconstruct_finite_space(noisy, "fssm", 20, [0.1**4], grid, K, sources=sources)
    fssm_ok = _localizes(f_fssm, centers)

    elapsed = time.time() - t0
    ok = full_ok and partial_fails and ffsm_ok and fssm_ok and elapsed < 120.0
    assert report(
        7, "end-to-end-localization", ok,
        f"full {full_ok}, partial-fails {partial_fails}, "
        f"constructed {ffsm_ok}/{fssm_ok}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------- criterion 8
def test_criterion_08_gradient_correctness():
    t0 = time.time()
    cfg = dpn.TrainConfig(
        order=4, hidden=(16, 16), batch_functions=6, sources_per_function=2,
        points_per_iteration=8, iterations=1, seed=42,
    )
    ap = config1_aperture(receivers=24)
    rng = CounterRng(42)
    params = dpn.NetworkParams.initialize(cfg, rng.spawn(0))
    pick = CounterRng(4242)
    h = 1e-6
    checked, worst = 0, 0.0
    for trial in range(5):
        batch = dpn.sample_batch(cfg, DOMAIN, ap, K, rng.spawn(trial + 1))
        _, grads = dpn.loss_gradient(params, batch, ap, K)
        for _ in range(10):
            li = int(pick.uniforms(1)[0] * len(params.layers))
            w = params.layers[li][:-1]
            i = int(pick.uniforms(1)[0] * w.shape[0])
            j = int(pick.uniforms(1)[0] * w.shape[1])
            orig = w[i, j]
            w[i, j] = orig + h
            lp = dpn.loss(params, batch, ap, K)
            w[i, j] = orig - h
            lm = dpn.loss(params, batch, ap, K)
            w[i, j] = orig
            fd = (lp - lm) / (2 * h)
            an = grads[li][:-1][i, j]
            rel = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
            worst = max(worst, rel)
            checked += 1
    elapsed = time.time() - t0
    ok = checked == 50 and worst < 1e-4 and elapsed < 30.0
    assert report(8, "network-gradient-correctness", ok, f"max rel {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 9
def test_criterion_09_training_smoke():
    """Training learns a probe that generalizes beyond the plane-wave guess.

    The trained network must beat the untrained (zero) network on fresh
    validation functions.  A fixed ratio such as v_trained * 3 <= v_zero is
    not asked for: the per-point least-squares floor, a lower bound for every
    network of this order, lies above v_zero / 3 here (see dpn_floor).
    """
    t0 = time.time()
    ap = config1_aperture()
    decreased, improved, details = [], [], []
    for seed in (0, 1, 2):
        cfg = dpn.TrainConfig(
            batch_functions=100, points_per_iteration=100, iterations=1000, seed=seed
        )
        params, trace = dpn.train(cfg, ap, DOMAIN, K)
        smoothed_end = trace[-100:].mean()
        decreased.append(smoothed_end < 0.5 * trace[0])
        zero = dpn.NetworkParams.zeros(cfg)
        v_trained = dpn.validation_residual(params, cfg, ap, DOMAIN, K)
        v_zero = dpn.validation_residual(zero, cfg, ap, DOMAIN, K)
        _, floor = attainable_floor(cfg, ap, DOMAIN, K)
        improved.append(v_trained < v_zero)
        details.append(
            f"seed {seed}: loss {trace[0]:.2f}->{smoothed_end:.2f}, "
            f"val {v_zero:.2f}->{v_trained:.2f} (floor {floor:.2f}, "
            f"{(v_zero - v_trained) / (v_zero - floor):.0%} of the gap closed)"
        )
    elapsed = time.time() - t0
    ok = all(decreased) and all(improved) and elapsed < 900.0
    assert report(
        9, "training-smoke", ok, "; ".join(details) + f", {elapsed:.0f}s"
    )


# --------------------------------------------------------------- criterion 10
def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.time()

    def run_twice(args, names):
        pairs = []
        for tag in ("x", "y"):
            out = str(tmp_path / f"{tag}_{names[0]}")
            assert cli_main(args + ["--out", out]) == 0
            pairs.append([Path(f"{out}{s}").read_bytes() for s in names[1]])
        return all(a == b for a, b in zip(*pairs))

    sim = str(tmp_path / "sim")
    assert cli_main(
        ["simulate", "--preset", "ex2_1", "--noise", "0.05", "--seed", "11",
         "--forward-grid", "80", "--out", sim]
    ) == 0

    same = [
        run_twice(
            ["simulate", "--preset", "ex2_1", "--noise", "0.05", "--seed", "11",
             "--forward-grid", "80"],
            ("sim", [".noiseless.csv", ".noisy.csv"]),
        ),
        run_twice(
            ["reconstruct", "--data", f"{sim}.noisy.csv", "--method", "ffsm",
             "--sigma-exp", "6", "--grid", "32"],
            ("rec", [".csv", ".pgm"]),
        ),
        run_twice(
            ["train-dpn", "--config", "2", "--iterations", "3", "--batch-functions", "10",
             "--points", "10", "--seed", "2"],
            ("net", [".ckpt", ".loss.csv"]),
        ),
        run_twice(
            ["kernel", "--r-steps", "21", "--quad-points", "128"],
            ("ker", [".csv"]),
        ),
        run_twice(
            ["rn", "--method", "ffsm", "--config", "2", "--sigma-exp", "6", "--grid", "16"],
            ("rn", [".csv", ".pgm"]),
        ),
    ]
    elapsed = time.time() - t0
    ok = all(same) and elapsed < 120.0
    assert report(10, "cli-determinism", ok, f"{sum(same)}/5 commands, {elapsed:.0f}s")


# ------------------------------------------------------- optional long run
@pytest.mark.longrun
def test_longrun_trained_network_localization():
    """Full-scale training and the localization check with the learned probe."""
    ap = config1_aperture()
    cfg = dpn.TrainConfig(iterations=5000, seed=0)
    params, _ = dpn.train(cfg, ap, DOMAIN, K)
    scene = preset_scene("ex1_1")
    noisy = add_noise(synthesize_far_field(scene, 120), 0.01, 7)
    grid = SamplingGrid(DOMAIN, 128)
    probing = dpn.probing_set_from_network(params, grid, ap, K)
    field = average_and_normalize([index_classical(noisy, probing, grid)])
    ok = _localizes(field, true_centers("ex1_1"))
    assert report("L", "trained-network-localization", ok)
