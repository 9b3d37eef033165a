"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line.  A1-A4 reproduce the US crime study at paper scale; V1-V4 are the toy
replication suites validating the estimator and variance formulas.

Run with `pytest tests/test_acceptance.py -v -s`.  Expected runtime is a few
minutes for the A-criteria (two full paper-scale runs) plus ~2-3 minutes for
the V-criteria.
"""

import math
import time

import numpy as np
import pytest

from priorsweep.blvs import BlvsFamily, ingest_csv
from priorsweep.families import ChainSpec
from priorsweep.ratio import build_log_weight_matrix, estimate_ratios
from priorsweep.surface import Stage2Workspace, surface
from priorsweep.validate import (suite_v1_ratio_calibration,
                                 suite_v2_variance_validation,
                                 suite_v3_exact_identities,
                                 suite_v4_cv_reduction)
from priorsweep.config import make_grid

from per_point import bf_cv_hat, spectral_lrv

BASELINE = (0.5, 15.0)
SKELETON_1 = [(w, g) for w in (0.3, 0.5, 0.6, 0.8) for g in (15.0, 50.0, 100.0, 225.0)]
SKELETON_2 = [(w, g) for w in (0.5, 0.7, 0.8, 0.9) for g in (10.0, 15.0, 50.0, 100.0)]
GRID = make_grid({"w": {"min": 0.1, "max": 0.91, "step": 0.03},
                  "g": {"min": 4, "max": 100, "step": 3}}, ("w", "g"))

TABLE_1 = {
    (0.65, 20.0): [0.93, 0.39, 0.99, 0.70, 0.51, 0.34, 0.35, 0.52,
                   0.83, 0.40, 0.76, 0.55, 1.00, 0.96, 0.55],
    (0.50, 20.0): [0.85, 0.29, 0.97, 0.67, 0.45, 0.22, 0.22, 0.38,
                   0.70, 0.27, 0.62, 0.38, 1.00, 0.90, 0.39],
}

STAGE1_LENGTH = 10_000
STAGE2_LENGTH = 1_000
BURN_IN = 200


def _report(name, passed, detail):
    print(f"\n{'PASS' if passed else 'FAIL'}: {name} -- {detail}")
    return passed


def _cv_variance_max(surf):
    """Largest total variance of the control-variate estimator and where."""
    totals = surf.total[:, 1]
    imax = int(np.argmax(totals))
    return {"max_total": totals[imax], "argmax_h": surf.h[imax].tolist()}


@pytest.fixture(scope="module")
def crime(uscrime_path):
    family = BlvsFamily(ingest_csv(uscrime_path, "y", ["S"]))
    # reorder so the baseline h1 = (0.5, 15) is first, as in the study
    skeleton = [BASELINE] + [h for h in SKELETON_1 if h != BASELINE]
    return family, skeleton


def run_two_stage(family, skeleton, seed1, seed2):
    specs1 = [ChainSpec(h=h, length=STAGE1_LENGTH, burn_in=BURN_IN,
                        seed=int(np.random.SeedSequence((seed1, i)).generate_state(1)[0]))
              for i, h in enumerate(skeleton)]
    chains1 = family.sample_chains(specs1)
    W1 = build_log_weight_matrix(family, skeleton, chains1)
    est = estimate_ratios(W1)
    specs2 = [ChainSpec(h=h, length=STAGE2_LENGTH, burn_in=BURN_IN,
                        seed=int(np.random.SeedSequence((seed2, i)).generate_state(1)[0]))
              for i, h in enumerate(skeleton)]
    chains2 = family.sample_chains(specs2)
    W2 = build_log_weight_matrix(family, skeleton, chains2)
    return est, Stage2Workspace(W2, est.d_hat)


@pytest.fixture(scope="module")
def paper_run(crime):
    family, skeleton = crime
    est, ws = run_two_stage(family, skeleton, seed1=202011, seed2=918273)
    return family, est, ws


@pytest.fixture(scope="module")
def refined_run(crime):
    family, _ = crime
    skeleton = [BASELINE] + [h for h in SKELETON_2 if h != BASELINE]
    est, ws = run_two_stage(family, skeleton, seed1=472011, seed2=55660)
    return family, est, ws


@pytest.fixture(scope="module")
def exact_bf_surface(crime):
    family, _ = crime
    enum = family.enumeration()
    log_m1 = enum.log_marginal(BASELINE)
    return np.array([math.exp(enum.log_marginal(h) - log_m1) for h in GRID])


class TestOracleAgainstPaper:
    """The exact enumeration oracle must reproduce the paper's own numbers;
    these pin down the dataset and the marginal-likelihood conventions."""

    def test_enumeration_matches_table1(self, crime):
        family, _ = crime
        enum = family.enumeration()
        worst = 0.0
        for h, expected in TABLE_1.items():
            probs = enum.evaluate([h])[1][0]
            worst = max(worst, float(np.max(np.abs(probs - np.array(expected)))))
        assert _report("oracle/Table-1", worst <= 0.011,
                       f"max |inclusion - table| = {worst:.4f} (tol 0.011)"), worst

    def test_exact_surface_argmax_and_g225_bound(self, crime, exact_bf_surface):
        family, _ = crime
        enum = family.enumeration()
        imax = int(np.argmax(exact_bf_surface))
        w_at, g_at = GRID[imax]
        ok_argmax = 0.56 <= w_at <= 0.74 and 10 <= g_at <= 31
        log_ref = enum.log_marginal((0.65, 20.0))
        bound = max(math.exp(enum.log_marginal((w, 225.0)) - log_ref)
                    for w in sorted({h[0] for h in GRID}))
        ok_bound = bound < 0.008
        assert _report("oracle/surface-shape", ok_argmax and ok_bound,
                       f"exact argmax at {(w_at, g_at)}, max B((w,225),(0.65,20)) = {bound:.4f}")


class TestA1:
    def test_cv_rmse_against_enumeration(self, paper_run, exact_bf_surface):
        t0 = time.time()
        _, _, ws = paper_run
        est_cv = np.array([bf_cv_hat(ws, h)[0] for h in GRID])
        rmse = float(np.sqrt(np.mean((est_cv - exact_bf_surface) ** 2)))
        elapsed = time.time() - t0
        assert _report("A1 CV-estimator RMSE over 924-point grid",
                       rmse < 0.06,
                       f"RMSE = {rmse:.4f} (paper < 0.04, tol 0.06; "
                       f"grid pass {elapsed:.0f}s)"), rmse


class TestA2:
    def test_surface_argmax_and_g225_estimates(self, paper_run):
        _, _, ws = paper_run
        est_cv = np.array([bf_cv_hat(ws, h)[0] for h in GRID])
        imax = int(np.argmax(est_cv))
        w_at, g_at = GRID[imax]
        ok_argmax = 0.56 <= w_at <= 0.74 and 10.0 <= g_at <= 31.0
        ref, _ = bf_cv_hat(ws, (0.65, 20.0))
        ws_values = sorted({h[0] for h in GRID})
        worst_ratio = max(bf_cv_hat(ws, (w, 225.0))[0] / ref for w in ws_values)
        ok_bound = worst_ratio < 0.02
        assert _report("A2 estimated argmax and g=225 suppression",
                       ok_argmax and ok_bound,
                       f"argmax at {(w_at, g_at)}; max estimated "
                       f"B((w,225),(0.65,20)) = {worst_ratio:.4f} (tol 0.02)")


class TestA3:
    def test_table1_reproduction_by_mcmc(self, crime):
        family, _ = crime
        enum = family.enumeration()
        worst_table = 0.0
        worst_z = 0.0
        for idx, (h, expected) in enumerate(TABLE_1.items()):
            chain = family.sample_chains([ChainSpec(h=h, length=10_000, burn_in=500,
                                                    seed=777 + idx)])[0]
            incl = chain.astype(float)
            means = incl.mean(axis=0)
            worst_table = max(worst_table,
                              float(np.max(np.abs(means - np.array(expected)))))
            exact = enum.evaluate([h])[1][0]
            for j in range(family.q):
                se = math.sqrt(max(spectral_lrv(incl[:, j]), 1e-12) / len(chain))
                z = abs(means[j] - exact[j]) / max(se, 1e-9)
                worst_z = max(worst_z, z)
        ok = worst_table <= 0.03 and worst_z <= 3.0
        assert _report("A3 Table-1 reproduction by MCMC", ok,
                       f"max |mcmc - table| = {worst_table:.4f} (tol 0.03); "
                       f"max |z| vs enumeration = {worst_z:.2f} (tol 3)")


class TestA4:
    def test_skeleton_refinement_variance_ratio(self, paper_run, refined_run):
        _, est1, ws1 = paper_run
        _, est2, ws2 = refined_run
        q1 = ws1.n / est1.N
        q2 = ws2.n / est2.N
        summary1 = _cv_variance_max(surface(ws1, GRID, np.empty((0, ws1.n)), est1.sigma_hat, q1))
        summary2 = _cv_variance_max(surface(ws2, GRID, np.empty((0, ws2.n)), est2.sigma_hat, q2))
        ratio = summary1["max_total"] / summary2["max_total"]
        assert _report("A4 skeleton refinement variance ratio",
                       6.0 <= ratio <= 12.0,
                       f"max-variance ratio = {ratio:.2f} "
                       f"(paper ~9; accepted 6-12); argmax region before: "
                       f"{summary1['argmax_h']}, after: {summary2['argmax_h']}")



class TestV1:
    def test_ratio_estimator_calibration(self):
        t0 = time.time()
        res = suite_v1_ratio_calibration(reps=200)
        elapsed = time.time() - t0
        assert _report("V1 ratio-estimator calibration",
                       res.passed and elapsed < 120,
                       f"{'; '.join(res.details)}; {elapsed:.0f}s (budget 120s)")


class TestV2:
    def test_variance_validation_iid_and_ar1(self):
        t0 = time.time()
        res_iid = suite_v2_variance_validation("iid", reps=500)
        res_ar1 = suite_v2_variance_validation("ar1", reps=500)
        elapsed = time.time() - t0
        ok = res_iid.passed and res_ar1.passed and elapsed < 900
        detail = " | ".join(res_iid.details + res_ar1.details)
        assert _report("V2 Theorem 1-3 variance validation", ok,
                       f"{detail}; {elapsed:.0f}s (budget 900s)")


class TestV3:
    def test_exact_identities(self):
        res = suite_v3_exact_identities()
        assert _report("V3 exact identities", res.passed,
                       "; ".join(res.details))


class TestV4:
    def test_cv_variance_reduction(self):
        res = suite_v4_cv_reduction(reps=200)
        assert _report("V4 control-variate variance reduction", res.passed,
                       "; ".join(res.details))
