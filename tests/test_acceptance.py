"""End-to-end acceptance runs, one test per promised behavior.

Each test prints one PASS/FAIL line in the terminal summary (via conftest)
and asserts the same condition, so ``pytest -v`` shows a line per criterion
either way. The runs that involve random teachers draw them from frozen
seed streams; nothing here depends on execution order.

Several properties hold only where the noiseless layer-2 program has a
unique solution (a square second layer and no scale-transformation rows is
necessary, but a finite sample must also witness every coupling). Those
tests condition their instance streams on measured uniqueness: a per-
coordinate sweep of the feasible polytope must collapse to a point. The
sweep uses an external LP routine so that the filter is independent of the
solvers under test.

Measured wall time for this file is about 34 s on a 2-core x86_64 machine
(numpy 2.4 with OpenBLAS at 2 threads); the d=16 table (criterion 2) takes
about 19 s, the noise-robustness trend (criterion 6) about 7 s, the qp/lp
agreement (criterion 5) about 4 s, and the solver suite (criterion 8) under
a second.
"""

import time

import numpy as np
from scipy.optimize import linprog

from conftest import record_acceptance, split_ls_on_assembled
from reslearn.baselines import expected_sample_bound
from reslearn.evaluation import cell_seed, full_pipeline, relative_errors, run_trial, success_rate
from reslearn.layer2 import learn_layer2
from reslearn.model import (
    GaussianIid,
    NetworkGenSpec,
    ResidualUnit,
    derive_seed,
    generate_unit,
    make_rng,
    sample,
    standard_mixture,
)
from reslearn.solver import LpProblem, SolveStatus, row_lp, row_slack_lp, solve_lp


def solution_is_unique(samples, tol=1e-7):
    """True iff the layer-2 feasible set collapses to a single point.

    Sweeps every coordinate of every row's polytope {c : Y c >= x_j} to its
    minimum and maximum; the instance counts as unique only when all ranges
    vanish. Unbounded or numerically failed sweeps count as non-unique.
    """
    n, m = samples.ys.shape
    for j in range(samples.xs.shape[1]):
        for k in range(m):
            vals = []
            for sign in (1.0, -1.0):
                c = np.zeros(m)
                c[k] = sign
                res = linprog(
                    c,
                    A_ub=-samples.ys,
                    b_ub=-samples.xs[:, j],
                    bounds=[(None, None)] * m,
                    method="highs",
                )
                if res.status != 0:
                    return False
                vals.append(float(res.x[k]))
            if abs(vals[1] - vals[0]) > tol * max(1.0, abs(vals[0])):
                return False
    return True


def test_criterion_1():
    # 20 random identifiable teachers, d in {2, 4}: the LP pipeline recovers
    # both layers from 100*d noiseless mixture samples, 10 s per teacher
    worst_l1 = worst_l2 = worst_dt = 0.0
    kept_total = 0
    for d in (2, 4):
        kept = 0
        for i in range(200):
            if kept == 10:
                break
            unit = generate_unit(NetworkGenSpec(
                d=d, m=d, seed=derive_seed(101, "c1-teacher", d, i),
                require_non_scale_transform=True,
            ))
            train = sample(unit, standard_mixture(d), 100 * d, 0.0,
                           seed=derive_seed(101, "c1-samples", d, i))
            if not solution_is_unique(train):
                continue
            kept += 1
            t0 = time.time()
            est1, est2 = full_pipeline(train, "lp")
            worst_dt = max(worst_dt, time.time() - t0)
            test = sample(unit, standard_mixture(d), 1000, 0.0,
                          seed=derive_seed(101, "c1-test", d, i))
            rep = relative_errors(est1.a_hat, est2.b_hat, unit, test, method="lp")
            worst_l1 = max(worst_l1, rep.layer1_rel)
            worst_l2 = max(worst_l2, rep.layer2_rel)
        kept_total += kept
    ok = (kept_total == 20 and worst_l2 <= 1e-4 and worst_l1 <= 1e-2
          and worst_dt <= 10.0)
    record_acceptance(1, ok, (
        f"noiseless LP recovery on {kept_total} teachers: worst layer1 "
        f"{worst_l1:.2e} (<=1e-2), worst layer2 {worst_l2:.2e} (<=1e-4), "
        f"slowest fit {worst_dt:.2f}s (<=10s)"
    ))
    assert ok


def test_criterion_2():
    # d=16, n=512, 32 teachers x 4 trials: convex pipeline vs plain SGD
    t0 = time.time()
    means = {}
    for method in ("qp", "sgd"):
        rows = []
        for i in range(32):
            unit = generate_unit(NetworkGenSpec(
                d=16, m=16, seed=derive_seed(7, "c2-teacher", i)))
            for t in range(4):
                rows.append(run_trial(
                    unit, 512, 0.0, method, derive_seed(7, "c2", method, i, t)))
        means[method] = tuple(
            float(np.mean([getattr(r, f) for r in rows]))
            for f in ("layer1_rel", "layer2_rel", "output_rel")
        )
    elapsed = time.time() - t0
    l1, l2, out = means["qp"]
    sgd_out = means["sgd"][2]
    ok = (l2 <= 1e-3 and 0.01 <= l1 <= 0.08 and 0.02 <= out <= 0.10
          and sgd_out >= 0.25 and elapsed <= 1800)
    record_acceptance(2, ok, (
        f"d=16 table: qp layer2 {l2:.2e} (<=1e-3), layer1 {l1:.4f} "
        f"(in [0.01,0.08]), output {out:.4f} (in [0.02,0.10]); sgd output "
        f"{sgd_out:.4f} (>=0.25); {elapsed:.0f}s (<=1800s)"
    ))
    assert ok


def test_criterion_3():
    # two-orthant regression success rates, 300 trials per cell
    t0 = time.time()
    rates = {
        (d, n): success_rate(d, n, 300, base_seed=0)["rate"]
        for d, n in ((4, 500), (4, 100), (6, 1000))
    }
    elapsed = time.time() - t0
    ok = (rates[(4, 500)] >= 0.95
          and 0.05 <= rates[(4, 100)] <= 0.25
          and 0.45 <= rates[(6, 1000)] <= 0.80
          and elapsed <= 300)
    record_acceptance(3, ok, (
        f"vanilla LR rates: (4,500) {rates[(4,500)]:.3f} (>=0.95), "
        f"(4,100) {rates[(4,100)]:.3f} (in [0.05,0.25]), "
        f"(6,1000) {rates[(6,1000)]:.3f} (in [0.45,0.80]); "
        f"{elapsed:.0f}s (<=300s)"
    ))
    assert ok


def test_criterion_4():
    bad = [d for d in range(1, 21) if expected_sample_bound(d) != d * 2 ** (d + 1)]
    ok = not bad
    record_acceptance(4, ok, f"sample bound formula exact for d=1..20 (mismatches: {bad})")
    assert ok


def test_criterion_5():
    # 50 noiseless unique-solution instances: the QP and LP layer-2 routes
    # land in each other's constraint sets and agree on the second layer
    dg = np.random.default_rng(123)
    kept = 0
    worst_viol = worst_bdiff = 0.0
    for i in range(300):
        if kept == 50:
            break
        d = int(dg.integers(2, 5))
        unit = generate_unit(NetworkGenSpec(
            d=d, m=d, seed=derive_seed(900, i), require_non_scale_transform=True))
        s = sample(unit, standard_mixture(d), 200, 0.0, seed=derive_seed(901, i))
        if not solution_is_unique(s):
            continue
        kept += 1
        est_qp = learn_layer2(s, "qp")
        est_lp = learn_layer2(s, "lp")
        for row in range(d):
            for c in (est_qp.c_hat[row], est_lp.c_hat[row]):
                viol = float(np.max(s.xs[:, row] - s.ys @ c, initial=0.0))
                worst_viol = max(worst_viol, viol)
        bdiff = float(np.linalg.norm(est_qp.b_hat - est_lp.b_hat)
                      / np.linalg.norm(est_lp.b_hat))
        worst_bdiff = max(worst_bdiff, bdiff)
    ok = kept == 50 and worst_viol <= 1e-7 and worst_bdiff <= 1e-5
    record_acceptance(5, ok, (
        f"qp/lp agreement on {kept} instances: worst cross-violation "
        f"{worst_viol:.2e} (<=1e-7), worst b_hat gap {worst_bdiff:.2e} (<=1e-5)"
    ))
    assert ok


def test_criterion_6():
    # fixed d=10 teacher, rising label noise: both convex routes degrade
    # monotonically and stay below SGD at every noise level
    unit = generate_unit(NetworkGenSpec(
        d=10, m=10, seed=derive_seed(42, "fixed-teacher", 10)))
    sigmas = (0.0, 0.05, 0.1, 0.2)
    curves = {}
    for method in ("qp", "slack-lp", "sgd"):
        curve = []
        for sigma in sigmas:
            outs = [
                run_trial(unit, 512, sigma, method,
                          cell_seed(42, 10, 512, sigma, method, t)).output_rel
                for t in range(8)
            ]
            curve.append(float(np.mean(outs)))
        curves[method] = curve
    nondecreasing = all(
        curves[m][i] <= curves[m][i + 1]
        for m in ("qp", "slack-lp") for i in range(3)
    )
    below_sgd = all(
        curves[m][i] < curves["sgd"][i] for m in ("qp", "slack-lp") for i in range(4)
    )
    ok = nondecreasing and below_sgd
    fmt = {m: "[" + ", ".join(f"{v:.3f}" for v in c) + "]" for m, c in curves.items()}
    record_acceptance(6, ok, (
        f"noise trend over sigma={list(sigmas)}: qp {fmt['qp']}, "
        f"slack-lp {fmt['slack-lp']}, sgd {fmt['sgd']}; "
        f"monotone={nondecreasing}, below sgd={below_sgd}"
    ))
    assert ok


def test_criterion_7():
    # fixed d=4 teacher: median noiseless error decays as n grows
    unit = generate_unit(NetworkGenSpec(
        d=4, m=4, seed=derive_seed(42, "fixed-teacher", 4)))
    sizes = (64, 128, 256, 512)
    medians = []
    for n in sizes:
        outs = [
            run_trial(unit, n, 0.0, "qp", cell_seed(42, 4, n, 0.0, "qp", t)).output_rel
            for t in range(20)
        ]
        medians.append(float(np.median(outs)))
    violations = [
        (i, medians[i + 1] / medians[i])
        for i in range(len(sizes) - 1) if medians[i + 1] >= medians[i]
    ]
    ok = len(violations) <= 1 and all(r <= 1.2 for _, r in violations)
    fmt = "[" + ", ".join(f"{v:.4f}" for v in medians) + "]"
    record_acceptance(7, ok, (
        f"consistency: median output error over n={list(sizes)} is {fmt}; "
        f"increases: {violations} (at most one, <=20%)"
    ))
    assert ok


def test_criterion_8():
    # solver guarantees: psd assemblies solved through the eliminated form
    # the learners use, with the assembled KKT conditions and an external
    # BVLS optimum as the check; honest infeasibility certificates; zero
    # slack objective on clean data
    rng = np.random.default_rng(0)
    worst = {"sign": 0.0, "complementarity": 0.0, "stationarity": 0.0, "bvls_gap": 0.0}
    all_psd = True
    n_qps = 0
    for i in range(50):
        d = int(rng.integers(2, 5))
        unit = generate_unit(NetworkGenSpec(d=d, m=d, seed=derive_seed(800, "c8", i)))
        s = sample(unit, standard_mixture(d), int(rng.integers(20, 41)), 0.0,
                   seed=derive_seed(800, "c8s", i))
        row = int(rng.integers(0, d))
        hs = np.maximum(s.xs @ unit.a.T, 0.0)
        # (layer design, target, the learner's back weight)
        for design, target, back_weight in (
            (-s.ys, -s.xs[:, row], 1e-10),
            (s.xs, hs[:, row], 1e-6),
        ):
            got = split_ls_on_assembled(design, target, back_weight)
            all_psd = all_psd and got["psd"]
            for key in worst:
                worst[key] = max(worst[key], abs(got[key]))
            n_qps += 1

    detected = 0
    certs_ok = True
    gen = np.random.default_rng(1)
    for i in range(50):
        k = int(gen.integers(1, 6))
        u = gen.standard_normal(k)
        extra = gen.standard_normal((int(gen.integers(0, 4)), k))
        lhs = np.vstack([u, -u, extra])
        # u.v >= 1 and -u.v >= 0 can never both hold; extras stay satisfiable
        rhs = np.concatenate(
            [[1.0, 0.0], -np.abs(gen.standard_normal(extra.shape[0])) - 5.0])
        rep = solve_lp(LpProblem(ineq_lhs=lhs, ineq_rhs=rhs))
        if rep.status is SolveStatus.INFEASIBLE:
            detected += 1
            lam = rep.certificate
            certs_ok = certs_ok and lam is not None and lam.min() >= -1e-9 \
                and float(rhs @ lam) > 0 \
                and float(np.abs(lhs.T @ lam).max()) <= 1e-6 * max(1.0, float(np.abs(lam).max()))

    worst_slack = 0.0
    for i in range(10):
        d = int(np.random.default_rng(2 + i).integers(2, 5))
        unit = generate_unit(NetworkGenSpec(d=d, m=d, seed=derive_seed(801, i)))
        s = sample(unit, standard_mixture(d), 50, 0.0, seed=derive_seed(802, i))
        hs = np.maximum(s.xs @ unit.a.T, 0.0)
        for row in range(d):
            for prob in (row_slack_lp(-s.ys, -s.xs[:, row]), row_slack_lp(s.xs, hs[:, row])):
                rep = solve_lp(prob)
                if rep.status is not SolveStatus.OPTIMAL:
                    worst_slack = np.inf
                    continue
                worst_slack = max(worst_slack, abs(rep.objective_value))

    qp_ok = (worst["sign"] <= 1e-12 and worst["complementarity"] <= 1e-6
             and worst["stationarity"] <= 1e-5 and worst["bvls_gap"] <= 1e-9)
    ok = (all_psd and n_qps == 100 and qp_ok
          and detected == 50 and certs_ok and worst_slack <= 1e-9)
    record_acceptance(8, ok, (
        f"solver suite: {n_qps} assembled QPs psd={all_psd}, split-LS worst "
        f"complementary slackness {worst['complementarity']:.2e} (<=1e-6), "
        f"stationarity/max(1,|q|) {worst['stationarity']:.2e} (<=1e-5), bounded "
        f"gradient sign {worst['sign']:.2e} (<=1e-12), BVLS objective gap "
        f"{worst['bvls_gap']:.2e} (<=1e-9); infeasible "
        f"detected {detected}/50 (certificates valid: {certs_ok}); worst "
        f"noiseless slack objective {worst_slack:.2e} (<=1e-9)"
    ))
    assert ok


def test_criterion_9():
    # d=1 teachers: the feasible interval for c, swept to both ends by HiGHS,
    # matches both a brute-force membership scan and the closed form
    # [1/(1+a), 1] / b, and the package's own feasibility run lands in it
    g = make_rng(77)
    worst_gap = 0.0
    inside = True
    checked = 0
    for i in range(5):
        a = float(np.abs(g.standard_normal())) + 0.05
        b = float(np.abs(g.standard_normal())) + 0.3
        unit = ResidualUnit(a=[[a]], b=[[b]])
        s = sample(unit, GaussianIid(dim=1), 60, 0.0, seed=derive_seed(803, i))
        ends = []
        for sign in (1.0, -1.0):
            res = linprog([sign], A_ub=-s.ys, b_ub=-s.xs[:, 0], bounds=[(None, None)],
                          method="highs")
            assert res.status == 0
            ends.append(float(res.x[0]))
        lo_lp, hi_lp = ends
        grid = np.arange(0.0, 2.0 / b, 1e-4)
        member = np.min(grid[None, :] * s.ys - s.xs[:, :1], axis=0) >= -1e-9
        lo_scan, hi_scan = grid[member][0], grid[member][-1]
        lo_th, hi_th = 1.0 / ((1.0 + a) * b), 1.0 / b
        rep = solve_lp(row_lp(-s.ys, -s.xs[:, 0]))
        inside = inside and rep.status is SolveStatus.OPTIMAL and (
            lo_th * (1.0 - 1e-12) <= rep.point[0] <= hi_th * (1.0 + 1e-12))
        worst_gap = max(
            worst_gap,
            abs(lo_lp - lo_scan), abs(hi_lp - hi_scan),
            abs(lo_lp - lo_th), abs(hi_lp - hi_th),
        )
        checked += 1
    ok = checked == 5 and worst_gap <= 1e-3 and inside
    record_acceptance(9, ok, (
        f"scale interval: {checked} d=1 teachers, worst endpoint gap between "
        f"solver, scan, and closed form {worst_gap:.2e} (<=1e-3)"
    ))
    assert ok
