"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with -s to see them, or use scripts/run_acceptance.py)."""

import json
import time

import numpy as np

from conefix.cli import main
from conefix.cone_space import ConeSpec, estimate_normal_constant, verify_cone_axioms, verify_metric_axioms
from conefix.contractions import (
    ClassSpec, all_pairs, check_condition, rate_from_primary_form,
    verify_zamfirescu_reduction, zamfirescu_delta,
)
from conefix.instances import instance_a, instance_b, instance_c, instance_c_grid
from conefix.oracle import (
    cross_validate, enumerate_fixed_points, exhaustive_condition_check,
    exhaustive_promotion_check, exhaustive_reduction_check, generate_tz_corpus,
)
from conefix.solver import CONVERGED, NON_UNIQUE, StoppingRule, geometric_decay_check, picard_iterate, uniqueness_probe

from conftest import TZ_SEED, fixture_doc


def _criterion(num: int, ok: bool, detail: str = ""):
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_axiom_suite(plain_corpus):
    t0 = time.perf_counter()
    count, seed = 10_000, 101
    violations = 0
    for space, _ in (instance_a(), instance_b(), instance_c()):
        violations += len(verify_metric_axioms(space, count, seed).violations)
        violations += len(verify_cone_axioms(space.cone).violations)
    assert len(plain_corpus) == 20
    for fin in plain_corpus:
        space = fin.space
        report = verify_metric_axioms(space, count, seed)
        assert report.sample_count == fin.n ** 2 + fin.n ** 3  # exhaustive for finite
        violations += len(report.violations)
        violations += len(verify_cone_axioms(fin.cone).violations)
    elapsed = time.perf_counter() - t0
    _criterion(
        1, violations == 0 and elapsed < 5.0,
        f"(A, B, C + 20 finite instances, {violations} violations, {elapsed:.2f}s)",
    )


def test_criterion_02_reduction_inequality(tz_corpus):
    assert len(tz_corpus) == 100
    bad = 0
    for g in tz_corpus:
        space, maps = g.fin.space, g.fin.maps
        assert space.cone.slack == 0.0  # zero tolerance on dyadic tables
        report = verify_zamfirescu_reduction(
            space, maps, g.spec.a, g.spec.b, g.spec.c, all_pairs(space)
        )
        if not (report.applicable and report.primary.holds and report.dual.holds):
            bad += 1
            continue
        # independent exact route over the tabulated instance
        exact = exhaustive_reduction_check(g.fin, g.spec.a, g.spec.b, g.spec.c)
        if not exact.holds:
            bad += 1
    _criterion(2, bad == 0, f"(100 TZ instances, both forms, {bad} with violations)")


def test_criterion_03_geometric_convergence():
    space, maps = instance_a()
    trace = picard_iterate(space, maps, 1.0, StoppingRule(max_iter=40))
    g0 = trace.gap_norms[0]
    worst = 0.0
    for n, g in enumerate(trace.gap_norms):
        expected = 2.0 ** (-n) * g0
        worst = max(worst, abs(g - expected) / expected)
    decay = geometric_decay_check(trace, h=0.5, K=1.0)
    ok = worst <= 1e-12 and decay.per_step_ok and decay.cauchy_ok
    _criterion(
        3, ok,
        f"(n <= 40, max rel err {worst:.2e}, per-step {decay.per_step_ok}, "
        f"cauchy {decay.cauchy_ok} on {decay.cauchy_pairs_checked} pairs)",
    )


def test_criterion_04_rate_discrepancy(tz_corpus):
    offenders = 0
    evidence = []
    for g in tz_corpus:
        delta = zamfirescu_delta(g.spec.a, g.spec.b, g.spec.c)
        space, maps = g.fin.space, g.fin.maps
        ratios = []
        for start in g.fin.points:
            trace = picard_iterate(space, maps, start, StoppingRule(max_iter=100))
            ratios.extend(trace.step_ratios())
        if any(r > delta + 1e-9 for r in ratios):
            offenders += 1
        primary = rate_from_primary_form(delta)
        if delta >= 1.0 / 3.0 and ratios and max(ratios) <= delta + 1e-9 and primary > delta:
            evidence.append((delta, max(ratios), primary))
    ok = offenders == 0 and len(evidence) >= 1
    sample = max(evidence, key=lambda e: e[1]) if evidence else None
    _criterion(
        4, ok,
        f"({offenders} instances exceed delta + 1e-9; {len(evidence)} instances with "
        f"delta >= 1/3 show measured ratio <= delta < primary-form rate, e.g. "
        f"delta={sample[0]:.4g} ratio={sample[1]:.4g} primary={sample[2]:.4g})"
        if sample
        else f"({offenders} offenders, no rate evidence found)",
    )


def test_criterion_05_oracle_equivalence(tz_corpus):
    bad = []
    for idx, g in enumerate(tz_corpus):
        assert g.fin.n <= 20
        cv = cross_validate(g.fin, g.spec)
        if not (cv.applicable and len(cv.fixed_points) == 1):
            bad.append((idx, "fixed-point count"))
            continue
        (fp,) = cv.fixed_points
        space, maps = g.fin.space, g.fin.maps
        for start in g.fin.points:
            trace = picard_iterate(space, maps, start, StoppingRule(max_iter=100))
            if trace.stop_reason != CONVERGED or trace.n_final > 20 or trace.last != fp:
                bad.append((idx, start))
                break
    _criterion(5, not bad, f"(100 instances, every orbit <= 20 steps, bitwise agreement; bad: {bad[:3]})")


def test_criterion_06_non_uniqueness_of_weak_contractions():
    fin = instance_c_grid(101)
    space, maps = fin.space, fin.maps
    cond = check_condition(space, maps, ClassSpec.tw(0.5, 0.5), all_pairs(space))
    fps = enumerate_fixed_points(fin)
    verdict = uniqueness_probe(space, maps, [fin.points[20], fin.points[80]])
    ok = cond.holds and len(fps) == 101 and verdict.verdict == NON_UNIQUE
    _criterion(
        6, ok,
        f"(TW(0.5, 0.5) on {cond.pairs_checked} pairs: {cond.holds}; "
        f"{len(fps)} fixed points; probe: {verdict.verdict})",
    )


def test_criterion_07_twu_uniqueness(twu_corpus):
    assert len(twu_corpus) == 20
    bad = 0
    for g in twu_corpus:
        assert exhaustive_condition_check(g.fin, g.spec).holds
        cv = cross_validate(g.fin, g.spec)
        if not (cv.passed and len(cv.fixed_points) == 1 and cv.orbits_ok):
            bad += 1
    _criterion(7, bad == 0, f"(20 TWU instances, unique fixed point and convergent orbits; {bad} bad)")


def test_criterion_08_promotion_soundness(tz_corpus):
    checked = 0
    failures = 0
    for g in tz_corpus:
        sources = [
            ClassSpec.tb(g.spec.a),
            ClassSpec.tk(g.spec.b),
            ClassSpec.tc(g.spec.c),
            g.spec,
        ]
        for source in sources:
            if not exhaustive_condition_check(g.fin, source).holds:
                continue
            checked += 1
            if not exhaustive_promotion_check(g.fin, source).holds:
                failures += 1
    ok = failures == 0 and checked >= 100
    _criterion(8, ok, f"({checked} exhaustive source classes promoted, {failures} violations)")


def test_criterion_09_normal_constant():
    results = {}
    for norm in ("max", "euclidean"):
        est = estimate_normal_constant(ConeSpec.orthant(2, norm_kind=norm), n=100_000, seed=9)
        results[norm] = est.value
    ok = all(abs(v - 1.0) <= 1e-9 for v in results.values())
    _criterion(9, ok, f"(orthant: max {results['max']!r}, euclidean {results['euclidean']!r})")


def test_criterion_10_determinism(tmp_path, tz_corpus):
    # corpus regeneration is bit-identical
    regen = generate_tz_corpus(100, seed=TZ_SEED)
    corpus_same = all(
        np.array_equal(a.fin.metric_table, b.fin.metric_table)
        and np.array_equal(a.fin.s_table, b.fin.s_table)
        and a.spec == b.spec
        for a, b in zip(tz_corpus, regen)
    )
    # CLI artifacts are byte-identical across repeated runs
    a_path = tmp_path / "a.json"
    a_path.write_text(json.dumps(fixture_doc("instance_a")), encoding="utf-8")
    d_path = tmp_path / "d.json"
    d_path.write_text(json.dumps(fixture_doc("instance_d")), encoding="utf-8")
    blobs = []
    for tag in ("one", "two"):
        v = tmp_path / f"verify_{tag}.json"
        s = tmp_path / f"solve_{tag}.csv"
        o = tmp_path / f"oracle_{tag}.json"
        assert main(["verify", "--instance", str(a_path), "--seed", "7", "--out", str(v)]) == 0
        assert main(["solve", "--instance", str(a_path), "--out", str(s)]) == 0
        main(["oracle", "--instance", str(d_path), "--out", str(o)])
        blobs.append((v.read_bytes(), s.read_bytes(), o.read_bytes()))
    cli_same = blobs[0] == blobs[1]
    _criterion(10, corpus_same and cli_same, f"(corpus bitwise: {corpus_same}, artifacts bytewise: {cli_same})")
