"""Column folds over a short last axis, and the P3 probe pass, held bit for
bit against the numpy reductions and the per-probe loop they replace."""

import numpy as np
import pytest

from conefix.cone_space import (
    AxiomReport, AxiomViolation, ConeSpec, SamplingPlan, _dedupe, _nullspace, all_last, any_last,
    norm_last, verify_cone_axioms,
)


def _bits(x):
    """A comparable form that tells -0.0 from 0.0 and keeps dtype and shape."""
    if isinstance(x, np.ndarray) or isinstance(x, np.generic):
        x = np.asarray(x)
        return ("array", x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, (tuple, list)):
        return tuple(_bits(v) for v in x)
    if isinstance(x, float):
        return ("float", np.float64(x).tobytes())
    return x


def _rows(rng: np.random.Generator, m: int) -> np.ndarray:
    """300 rows of m columns over many magnitudes, with signed zeros, inf
    and NaN rows, a zero row and a row of negative zeros."""
    v = rng.standard_normal((300, m)) * np.exp(rng.normal(0.0, 8.0, (300, 1)))
    v[rng.random((300, m)) < 0.2] = 0.0
    v[rng.random((300, m)) < 0.1] = -0.0
    v[1] = 0.0
    v[2] = -0.0
    v[3, 0] = np.inf
    v[4, -1] = -np.inf
    v[5, 0] = np.nan
    v[6] = np.nan
    v[7, 0], v[7, -1] = np.inf, np.nan
    return v


def _shapes(v: np.ndarray) -> list[np.ndarray]:
    """(k, m), (n, n, m), a broadcast view, a strided view, Fortran order
    and single rows, as 2-d and as 1-d arrays."""
    m = v.shape[-1]
    return [
        v,
        v[:289].reshape(17, 17, m),
        np.broadcast_to(v[10], (40, m)),
        np.broadcast_to(v[:12, None, :], (12, 5, m)),
        v[::-3],
        np.asfortranarray(v),
        v[:1],
        v[0],
        v[6],
        np.zeros((0, m)),
    ]


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("m", range(1, 10))
def test_norm_folds_match_numpy_bit_for_bit(m):
    rng = np.random.default_rng(m)
    for vs in _shapes(_rows(rng, m)):
        with np.errstate(invalid="ignore", over="ignore"):
            _same_bits(norm_last(vs, "max"), np.max(np.abs(vs), axis=-1))
            _same_bits(norm_last(vs, "euclidean"), np.linalg.norm(vs, axis=-1))
            for kind in ("max", "euclidean"):
                cone = ConeSpec.orthant(m, norm_kind=kind)
                _same_bits(cone.norm_rows(vs), norm_last(vs, kind))


@pytest.mark.parametrize("m", range(1, 10))
def test_logical_folds_match_numpy(m):
    rng = np.random.default_rng(100 + m)
    for vs in _shapes(_rows(rng, m)):
        for mask in (vs > 0.0, vs == 0.0, np.isfinite(vs), np.signbit(vs)):
            _same_bits(all_last(mask), np.all(mask, axis=-1))
            _same_bits(any_last(mask), np.any(mask, axis=-1))


def test_logical_folds_over_no_columns():
    mask = np.zeros((4, 0), dtype=bool)
    _same_bits(all_last(mask), np.all(mask, axis=-1))
    _same_bits(any_last(mask), np.any(mask, axis=-1))


def test_euclidean_fold_hands_over_at_eight_terms():
    # the sequential fold and numpy's pairwise sum differ from 8 terms on
    rng = np.random.default_rng(0)
    vs = rng.standard_normal((2000, 8)) * np.exp(rng.normal(0.0, 3.0, (2000, 8)))
    sequential = np.sqrt(np.cumsum(vs * vs, axis=-1)[:, -1])
    assert not np.array_equal(sequential, np.linalg.norm(vs, axis=-1))
    _same_bits(norm_last(vs, "euclidean"), np.linalg.norm(vs, axis=-1))


# ---------------------------------------------------------------------------
# P3 as one array pass
# ---------------------------------------------------------------------------

def _reference_cone_axioms(cone: ConeSpec, plan: SamplingPlan) -> AxiomReport:
    """verify_cone_axioms as it was with numpy's axis reductions and one
    probe at a time: the reference the array pass must reproduce."""
    rng = plan.rng()
    m = cone.dimension
    violations = []
    if not cone.contains(np.zeros(m)):
        violations.append(AxiomViolation("P1-zero", (np.zeros(m),), None))
    ip = cone.interior_point()
    if ip is None:
        violations.append(AxiomViolation("P1-interior-nonempty", (), None))
    elif not cone.contains(ip, "interior"):
        violations.append(AxiomViolation("P1-interior-nonempty", (ip,), cone.inequality_values(ip)))
    xs = cone.sample(rng, plan.count)
    ys = cone.sample(rng, plan.count)
    k = min(len(xs), len(ys))
    if k:
        coeff = rng.uniform(0.0, 10.0, size=(k, 2))
        combos = coeff[:, :1] * xs[:k] + coeff[:, 1:] * ys[:k]
        vals = combos @ cone.ineq_matrix.T
        norms = np.max(np.abs(combos), axis=-1) if cone.norm_kind == "max" else np.linalg.norm(combos, axis=-1)
        ok = np.all(vals >= -(cone.slack * norms)[:, None], axis=-1)
        for idx in np.flatnonzero(~ok):
            violations.append(AxiomViolation(
                "P2-combination", (coeff[idx, 0], coeff[idx, 1], xs[idx], ys[idx]),
                cone.inequality_values(combos[idx])))
    for v in _nullspace(cone.ineq_matrix):
        violations.append(AxiomViolation("P3-pointed", (v,), cone.inequality_values(v)))
    probes = [np.eye(m)[i] * s for i in range(m) for s in (1.0, -1.0)]
    probes.append(np.ones(m))
    probes.append(-np.ones(m))
    if k:
        probes.extend(xs[: min(k, 64)])
    seen = set()
    for v in probes:
        key = tuple(np.round(v / max(cone.norm(v), 1e-300), 12))
        if key in seen or cone.norm(v) == 0.0:
            continue
        seen.add(key)
        if cone.contains(v) and cone.contains(-v):
            violations.append(AxiomViolation("P3-pointed", (v,), cone.inequality_values(v)))
    return AxiomReport(["P1", "P2", "P3"], _dedupe(violations), k)


def _report_bits(report: AxiomReport):
    return (report.axioms_checked, report.sample_count,
            [(v.axiom, _bits(v.witness), _bits(v.residual)) for v in report.violations])


P3_CONES = {
    "orthant": ConeSpec.orthant(2),
    "orthant-3d-euclidean": ConeSpec.orthant(3, norm_kind="euclidean"),
    "scaled-orthant-zero-weight": ConeSpec.scaled_orthant([2.0, 0.0]),
    "wide-wedge": ConeSpec.polyhedral([[1.0, -0.5], [-0.25, 1.0]]),
    "thin-wedge": ConeSpec.polyhedral([[1.0, -100.0], [-1.0, 101.0]]),
    "half-plane": ConeSpec.polyhedral([[1.0, 0.0]]),
    "half-plane-euclidean": ConeSpec.polyhedral([[1.0, 0.0]], norm_kind="euclidean"),
    "half-space-3d": ConeSpec.polyhedral([[1.0, 1.0, 0.0]]),
}


@pytest.mark.parametrize("name", sorted(P3_CONES))
@pytest.mark.parametrize("count, seed", [(10_000, 0), (500, 7), (40, 3), (0, 0)])
def test_cone_axioms_match_the_per_probe_loop(name, count, seed):
    cone, plan = P3_CONES[name], SamplingPlan(count=count, seed=seed)
    report = verify_cone_axioms(cone, plan)
    assert _report_bits(report) == _report_bits(_reference_cone_axioms(cone, plan))
    if name.startswith("half-"):
        assert any(v.axiom == "P3-pointed" for v in report.violations)


def test_repeated_probe_directions_merge_as_tuples(monkeypatch):
    # Sampled probes along e_2 and -e_2 repeat the unit probes' directions,
    # some with a negative zero (the same tuple key), and (2, 1e-13) rounds
    # onto e_1; zero rows are skipped.  The reference loop keeps none of them.
    rows = np.array([[0.0, 2.0], [-0.0, 5.0], [0.0, 0.0], [-0.0, -0.0],
                     [0.0, -3.0], [-0.0, -7.0], [1.0, 0.0], [2.0, 1e-13], [3.0, 1.0]])
    monkeypatch.setattr(ConeSpec, "sample", lambda self, rng, size: rows.copy())
    cone = ConeSpec.polyhedral([[1.0, 0.0]])
    report = verify_cone_axioms(cone, SamplingPlan(count=9, seed=0))
    assert _report_bits(report) == _report_bits(_reference_cone_axioms(cone, SamplingPlan(count=9, seed=0)))
    p3 = [tuple(v.witness[0].tolist()) for v in report.violations if v.axiom == "P3-pointed"]
    assert set(p3) == {(0.0, 1.0), (0.0, -1.0)}         # only e_2 and -e_2, each once per source
    assert len(p3) <= 3


def test_p3_pass_costs_one_membership_matmul(monkeypatch):
    calls = []
    real = ConeSpec.contains
    monkeypatch.setattr(ConeSpec, "contains", lambda self, *a, **kw: calls.append(a) or real(self, *a, **kw))
    verify_cone_axioms(ConeSpec.orthant(2), SamplingPlan(count=1000, seed=0))
    assert len(calls) == 2      # P1's zero and interior tests only
