import math
from typing import Mapping

import numpy as np
import pytest

import gcb.bme
from gcb.bme import BmeResult, _split_variable_check, bme_completion, induced_bethe_entropy
from gcb.bethe import bethe_terms
from gcb.coding import ParityCheckMatrix, nfg_from_parity_check
from gcb.covers import PseudoMarginals
from gcb.errors import GcbError, InconsistentBeta, InfeasibleOmega, NonBinaryAlphabet, ShapeMismatch
from gcb.ldpc_curves import h_curve, omega_of_s
from gcb.nfg import Nfg

from conftest import EXAMPLE3_ROWS


@pytest.fixture(scope="module")
def code36():
    return nfg_from_parity_check(ParityCheckMatrix(EXAMPLE3_ROWS))


def test_all_zero_omega_gives_point_mass(code36):
    res = bme_completion(code36, {e: 0 for e in code36.half_edge_order})
    assert res.h_induced == pytest.approx(0.0, abs=1e-12)
    for f, d in res.beta.factor_dists.items():
        (key,) = d
        assert all(s == 0 for s in key)
        assert d[key] == pytest.approx(1.0)
    # every edge is forced: no check has a dual or adds a Newton iteration
    assert res.iterations == 0
    assert all(duals == {} for duals in res.check_duals.values())


def test_all_one_omega_on_repetition_code():
    # length-2 repetition code: both all-zeros and all-ones are codewords
    h = ParityCheckMatrix([[1, 1]])
    nfg = nfg_from_parity_check(h)
    res = bme_completion(nfg, {e: 1 for e in nfg.half_edge_order})
    assert res.h_induced == pytest.approx(0.0, abs=1e-12)


def test_diagonal_identity_with_closed_form(code36):
    n = 10
    for s in (-1.5, -1.0, -0.5, 0.0, 0.5):
        w = omega_of_s(6, s)
        res = bme_completion(code36, {e: w for e in code36.half_edge_order})
        want = n * h_curve(3, 6, s).h_nats
        assert res.h_induced == pytest.approx(want, abs=1e-6)


def test_duals_collapse_to_common_tilt(code36):
    s = -0.75
    w = omega_of_s(6, s)
    res = bme_completion(code36, {e: w for e in code36.half_edge_order})
    all_duals = [v for d in res.check_duals.values() for v in d.values()]
    assert max(all_duals) - min(all_duals) <= 1e-9
    assert all(abs(v - s) <= 1e-8 for v in all_duals)


def test_mixed_omega_feasible(code36):
    rng = np.random.default_rng(4)
    omega = {e: float(w) for e, w in zip(code36.half_edge_order, rng.uniform(0.3, 0.7, 10))}
    res = bme_completion(code36, omega)
    # completion respects the requested half-edge marginals exactly
    for e, w in omega.items():
        assert float(res.beta.edge_weight(e, 1)) == pytest.approx(w, abs=1e-12)
    ev = bethe_terms(code36, res.beta, tol=1e-8)
    assert ev.h_bethe == pytest.approx(res.h_induced, abs=1e-12)


def test_entropy_is_maximal_over_completions(code36):
    """Any other consistent completion at the same omega has lower entropy."""
    s = 0.4
    w = omega_of_s(6, s)
    res = bme_completion(code36, {e: w for e in code36.half_edge_order})
    # tilt each check block toward one codeword, renormalizing at fixed marginals
    # instead: compare against the degree-matching product completion through a
    # different tilt value; project by rescaling rows with first-edge symbol
    import itertools
    from gcb.covers import PseudoMarginals

    beta = res.beta
    perturbed = {}
    for f, d in beta.factor_dists.items():
        if f.startswith("v"):
            perturbed[f] = dict(d)
            continue
        fac = code36.factors[f]
        # reshuffle within the fiber of each marginal-preserving pair swap
        rows = sorted(d)
        moved = dict(d)
        done = False
        for a, b in itertools.combinations(rows, 2):
            if done:
                break
            for c, e in itertools.combinations(rows, 2):
                if {a, b} & {c, e}:
                    continue
                va = np.array(a) + np.array(b)
                vb = np.array(c) + np.array(e)
                if np.array_equal(va, vb):
                    eps = 0.2 * min(moved[a], moved[b], moved[c], moved[e])
                    if eps <= 0:
                        continue
                    moved[a] += eps
                    moved[b] += eps
                    moved[c] -= eps
                    moved[e] -= eps
                    done = True
                    break
        perturbed[f] = moved
    other = PseudoMarginals(perturbed, beta.edge_dists)
    ev = bethe_terms(code36, other, tol=1e-7)
    assert ev.h_bethe < res.h_induced + 1e-12


def test_omega_shape_checked(code36):
    with pytest.raises(ShapeMismatch):
        bme_completion(code36, {"x01": 0.5})


def test_infeasible_omega_raises():
    # single parity check of degree 2: codewords 00, 11; omega (0, 1) infeasible
    h = ParityCheckMatrix([[1, 1]])
    nfg = nfg_from_parity_check(h)
    half = nfg.half_edge_order
    with pytest.raises((InfeasibleOmega, GcbError)):
        bme_completion(nfg, {half[0]: 0.0, half[1]: 1.0})


def test_infeasible_interior_omega_detected_by_dual_divergence(code36):
    # one symbol far heavier than its check partners: violates the parity
    # polytope constraint w_i <= sum of the other w_j at every check on x01
    omega = {e: 0.005 for e in code36.half_edge_order}
    omega["x01"] = 0.9
    with pytest.raises(InfeasibleOmega):
        bme_completion(code36, omega)


def test_non_parity_structure_rejected(fig1):
    with pytest.raises(GcbError):
        bme_completion(fig1, {e: 0.5 for e in fig1.half_edge_order})


def test_induced_entropy_helper(code36):
    w = omega_of_s(6, 0.0)
    a = induced_bethe_entropy(code36, {e: w for e in code36.half_edge_order})
    assert a == pytest.approx(10 * h_curve(3, 6, 0.0).h_nats, abs=1e-6)


# -- the per-block solver and completion, kept as the oracle ------------------
#
# The stacked solve must give what one damped Newton per check block gave:
# these are that solver and that completion, with its dict-based guard
# (``bethe_terms``), unchanged but for their names, the Newton start and
# the minimum-norm duals.


class TiltResultOracle:
    __slots__ = ("dist", "duals", "value", "iterations", "converged")

    def __init__(self, dist, duals, value, iterations, converged):
        self.dist = dist
        self.duals = duals
        self.value = value
        self.iterations = iterations
        self.converged = converged


def tilt_factor_block_oracle(
    rows,
    log_w,
    edge_positions,
    targets,
    tol: float = 1e-12,
    max_iters: int = 200,
):
    """Minimize <(-log w), beta> - H(beta) over the simplex with marginal targets.

    ``rows`` are the factor's support assignments, ``log_w`` their log
    weights, ``edge_positions`` maps edge -> position, and ``targets`` maps
    edge -> target distribution (array over the edge's alphabet).  The
    optimum is an exponential-family tilt beta(a) ∝ w(a) exp(sum_e
    lambda_{e, a_e}); the duals are found by damped Newton on the
    marginal-matching conditions (symbol 0 of each edge is gauge-fixed).

    Returns a TiltResult with dist over rows, duals per (edge, symbol), the
    optimal objective value, and a convergence flag.
    """
    rows = list(rows)
    n_rows = len(rows)
    edges = sorted(edge_positions)
    var_index = {}
    for e in edges:
        size = len(targets[e])
        for s in range(1, size):
            var_index[(e, s)] = len(var_index)
    n_vars = len(var_index)
    log_w = np.asarray(log_w, dtype=float)

    features = np.zeros((n_rows, n_vars))
    for r, row in enumerate(rows):
        for e in edges:
            s = row[edge_positions[e]]
            if s != 0:
                features[r, var_index[(e, s)]] = 1.0
    target_vec, base_vec = np.zeros(n_vars), np.zeros(n_vars)
    for (e, s), j in var_index.items():
        target_vec[j], base_vec[j] = float(targets[e][s]), float(targets[e][0])

    # the independent-symbol start log(t_s / t_0), as the stacked solve starts
    lam = np.log(target_vec / base_vec)

    def dist_of(lam):
        scores = log_w + features @ lam
        scores -= scores.max()
        p = np.exp(scores)
        p /= p.sum()
        return p

    def dual_value(lam):
        scores = log_w + features @ lam
        mx = scores.max()
        return float(lam @ target_vec - (mx + math.log(np.exp(scores - mx).sum())))

    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        p = dist_of(lam)
        marg = features.T @ p
        grad = target_vec - marg
        if np.max(np.abs(grad)) <= tol:
            converged = True
            break
        cov = features.T @ (features * p[:, None]) - np.outer(marg, marg)
        cov += 1e-12 * np.eye(n_vars)
        try:
            step = np.linalg.solve(cov, grad)
        except np.linalg.LinAlgError:
            step = grad
        if np.max(np.abs(grad)) <= 1e-6:
            # quadratic convergence zone: the dual's gain is below float
            # rounding, so backtracking would stall; take the full step
            lam = lam + step
            continue
        base = dual_value(lam)
        t = 1.0
        for _ in range(60):
            cand = lam + t * step
            if dual_value(cand) > base - 1e-18:
                break
            t *= 0.5
        lam = lam + t * step

    p = dist_of(lam)
    # the minimum-norm duals: the least-squares solution along the rows'
    # differences, on which the distribution depends
    centred = features - features[0]
    lam = np.linalg.lstsq(centred, centred @ lam, rcond=None)[0]
    duals = {key: lam[j] for key, j in var_index.items()}
    for e in edges:
        duals.setdefault((e, 0), 0.0)
    value = float(-np.sum(p * log_w) + np.sum(p[p > 0] * np.log(p[p > 0])))
    return TiltResultOracle({tuple(r): p[i] for i, r in enumerate(rows)}, duals, value, iterations, converged)


def bme_completion_oracle(nfg: Nfg, omega: Mapping[str, object], tol: float = 1e-12, max_iters: int = 200) -> BmeResult:
    """argmax of the Bethe entropy over completions matching the half-edge marginals.

    ``omega`` maps each half-edge to its probability of symbol one.  Check
    blocks are solved by damped Newton on the marginal-matching conditions
    of the entropy tilt; an unmatchable marginal vector raises
    InfeasibleOmega.
    """
    for e in nfg.alphabet_sizes:
        if nfg.alphabet_sizes[e] != 2:
            raise NonBinaryAlphabet(f"edge {e} has alphabet size {nfg.alphabet_sizes[e]}")
    if set(omega) != set(nfg.half_edges):
        raise ShapeMismatch("omega must assign exactly the half-edges")
    for e, w in omega.items():
        if not 0 <= float(w) <= 1:
            raise InfeasibleOmega(f"omega[{e}] = {w} outside [0, 1]")

    variable, checks = _split_variable_check(nfg)
    edge_target = {}
    factor_dists = {}
    edge_dists = {}
    for fid, half in variable.items():
        w = float(omega[half])
        fac = nfg.factors[fid]
        arity = len(fac.edges)
        block = {}
        if w < 1:
            block[(0,) * arity] = 1 - w
        if w > 0:
            block[(1,) * arity] = w
        factor_dists[fid] = block
        for e in fac.edges:
            edge_target[e] = w
            edge_dists[e] = {s: v for s, v in ((0, 1 - w), (1, w)) if v > 0}

    check_duals = {}
    iterations = 0
    for fid in checks:
        fac = nfg.factors[fid]
        forced = {}
        free_edges = []
        for pos, e in enumerate(fac.edges):
            w = edge_target[e]
            if w == 0.0:
                forced[pos] = 0
            elif w == 1.0:
                forced[pos] = 1
            else:
                free_edges.append(e)
        rows = [
            row
            for row in fac.support
            if all(row[pos] == s for pos, s in forced.items())
        ]
        if not rows:
            raise InfeasibleOmega(f"check {fid}: no support row matches the forced symbols")
        if not free_edges:
            if len(rows) != 1:
                raise GcbError(f"check {fid}: forced symbols leave {len(rows)} rows")
            factor_dists[fid] = {rows[0]: 1.0}
            check_duals[fid] = {}
            continue
        positions = {e: fac.edges.index(e) for e in free_edges}
        targets = {
            e: np.array([1 - edge_target[e], edge_target[e]]) for e in free_edges
        }
        log_w = np.array([math.log(fac.table[row]) for row in rows])
        res = tilt_factor_block_oracle(rows, log_w, positions, targets, tol=tol, max_iters=max_iters)
        iterations = max(iterations, res.iterations)
        if not res.converged:
            raise InfeasibleOmega(
                f"check {fid}: marginal matching did not converge; omega is outside "
                "the fundamental polytope or at its boundary"
            )
        factor_dists[fid] = {k: v for k, v in res.dist.items() if v > 0}
        check_duals[fid] = {e: res.duals[(e, 1)] for e in free_edges}

    beta = PseudoMarginals(factor_dists, edge_dists)
    h_induced = bethe_terms(nfg, beta, tol=1e-8).h_bethe
    return BmeResult(beta, h_induced, check_duals, iterations)


# irregular: check degrees 3, 3, 4 and 4, so the blocks fall into two shapes
IRREGULAR_ROWS = [
    [1, 1, 0, 1, 0, 0, 0],
    [0, 1, 1, 0, 1, 0, 0],
    [1, 0, 1, 0, 0, 1, 1],
    [0, 0, 1, 1, 1, 1, 0],
]

# checks c1 and c3 of degree 3, c2 and c4 of degree 2: the plan groups
# interleave check ids, and a degree-2 block's rows 00 and 11 leave its
# duals a flat direction even with no edge forced
CHAIN_ROWS = [
    [1, 1, 1, 0, 0, 0, 0],
    [0, 0, 1, 1, 0, 0, 0],
    [0, 0, 0, 1, 1, 1, 0],
    [0, 0, 0, 0, 0, 1, 1],
]


def _codeword_omega(h, rng, keep=lambda c: True):
    """omega of a random mixture of the codewords that ``keep`` accepts: a
    point of the codeword polytope, with symbols forced wherever those
    codewords agree."""
    words = np.array([c for c in h.codewords() if keep(c)], dtype=float)
    mix = rng.lognormal(size=len(words))
    # a symbol all those codewords share is set exactly: the mixture can
    # round it to 1 - 2e-16, where the tilt's duals are ill-conditioned
    omega = np.where(words.min(axis=0) == words.max(axis=0), words[0], mix @ words / mix.sum())
    return dict(zip(nfg_from_parity_check(h).half_edge_order, omega.tolist()))


def _omega_cases():
    example3, irregular, chain = (ParityCheckMatrix(rows) for rows in (EXAMPLE3_ROWS, IRREGULAR_ROWS, CHAIN_ROWS))
    check1 = [i for i, bit in enumerate(EXAMPLE3_ROWS[0]) if bit]
    cases = []
    for seed in range(6):
        rng = np.random.default_rng(seed)
        ref = example3.codewords()[3 + seed]
        cases += [
            (f"example3-interior-{seed}", example3, _codeword_omega(example3, rng)),
            (f"irregular-interior-{seed}", irregular, _codeword_omega(irregular, rng)),
            (f"example3-forced-{seed}", example3, _codeword_omega(example3, rng, lambda c: c[seed] == 0 and c[9 - seed] == 1)),
            (f"irregular-forced-{seed}", irregular, _codeword_omega(irregular, rng, lambda c: c[seed] == 1)),
            # every edge of check 1 forced: its block is a point mass
            (f"example3-check1-forced-{seed}", example3, _codeword_omega(example3, rng, lambda c: all(c[i] == ref[i] for i in check1))),
            (f"chain-interior-{seed}", chain, _codeword_omega(chain, rng)),
        ]
    return cases


OMEGA_CASES = _omega_cases()


@pytest.mark.parametrize("name, h, omega", OMEGA_CASES, ids=[c[0] for c in OMEGA_CASES])
def test_stacked_completion_matches_per_block_oracle(name, h, omega):
    nfg = nfg_from_parity_check(h)
    got = bme_completion(nfg, omega)
    want = bme_completion_oracle(nfg, omega)
    assert abs(got.h_induced - want.h_induced) <= 1e-12
    for mine, theirs in ((got.beta.factor_dists, want.beta.factor_dists), (got.beta.edge_dists, want.beta.edge_dists)):
        assert mine.keys() == theirs.keys()
        for block in theirs:
            for key in mine[block].keys() | theirs[block].keys():
                assert abs(mine[block].get(key, 0) - theirs[block].get(key, 0)) <= 1e-12
    assert got.check_duals.keys() == want.check_duals.keys()
    for f, duals in want.check_duals.items():
        assert got.check_duals[f].keys() == duals.keys()
        assert all(abs(got.check_duals[f][e] - v) <= 1e-9 for e, v in duals.items())
    assert got.iterations == want.iterations


def test_interior_completions_start_at_the_independent_bit_duals(code36, monkeypatch):
    """Newton starts each check at lambda_e = log(w_e / (1 - w_e)): on 200
    seeded interior omegas a completion takes about 3 iterations, against
    about 4.9 from zero duals.  An interior omega forces no edge, so once
    the plan is built no completion decomposes a block to project its
    duals."""
    bme_completion(code36, {e: 0.5 for e in code36.half_edge_order})
    monkeypatch.setattr(np.linalg, "pinv", None)
    h = ParityCheckMatrix(EXAMPLE3_ROWS)
    rng = np.random.default_rng(0)
    iterations = [bme_completion(code36, _codeword_omega(h, rng)).iterations for _ in range(200)]
    assert np.mean(iterations) <= 4


def test_stacked_tilt_matches_per_block_oracle():
    """Each block of a stack is solved as if alone: the third needs its
    line search (a row of weight e^-25 makes the first Newton step
    overshoot), the first two take full steps, and no block's damping or
    freezing changes another's iterations."""
    from gcb.bethe import tilt_factor_block

    rows = [(0, 0), (0, 1), (1, 0), (1, 1)]
    blocks = [
        ([0.0, -30.0, -1.0, 0.5], [0.5, 0.4]),
        ([0.0, 0.0, 0.0, 0.0], [0.3, 0.6]),
        ([-2.0, 0.0, -25.0, 1.0], [0.2, 0.5]),
    ]
    res = tilt_factor_block(
        np.array([rows] * len(blocks), dtype=float),
        np.array([lw for lw, _ in blocks]),
        np.array([tg for _, tg in blocks]),
    )
    assert res.converged.all()
    assert res.iterations == sum(res.steps)
    for b, (lw, (wa, wb)) in enumerate(blocks):
        want = tilt_factor_block_oracle(
            rows, lw, {"a": 0, "b": 1}, {"a": np.array([1 - wa, wa]), "b": np.array([1 - wb, wb])}
        )
        assert want.converged and res.steps[b] == want.iterations
        assert all(abs(res.dist[b, i] - want.dist[r]) <= 1e-12 for i, r in enumerate(rows))
        assert abs(res.duals[b, 0] - want.duals["a", 1]) <= 1e-9
        assert abs(res.duals[b, 1] - want.duals["b", 1]) <= 1e-9


def test_blocks_freeze_early_late_or_not_at_all(monkeypatch):
    """In one stack the first block is solved at its start (1 iteration),
    the third after a line search (6), and the second, whose rows 01 and
    10 weigh e^-40 and whose target 1e-6 needs 17, runs out of
    ``TILT_ITERS`` = 10 between them.  Each keeps the distribution of its
    own duals, the one it froze with or, unsolved, the one after its last
    step, and the oracle's iteration count."""
    import gcb.bethe

    monkeypatch.setattr(gcb.bethe, "TILT_ITERS", 10)
    rows = [(0, 0), (0, 1), (1, 0), (1, 1)]
    blocks = [
        ([0.0, 0.0, 0.0, 0.0], [0.5, 0.5], 1),
        ([0.0, -40.0, -40.0, 0.0], [1e-6, 0.5], 10),
        ([-2.0, 0.0, -25.0, 1.0], [0.2, 0.5], 6),
    ]
    features = np.array([rows] * len(blocks), dtype=float)
    log_w = np.array([lw for lw, _, _ in blocks])
    res = gcb.bethe.tilt_factor_block(features, log_w, np.array([tg for _, tg, _ in blocks]))
    assert res.steps.tolist() == [steps for _, _, steps in blocks]
    assert res.converged.tolist() == [True, False, True]
    assert res.iterations == 17
    for b, (lw, (wa, wb), _) in enumerate(blocks):
        scores = np.array(lw) + features[b] @ res.duals[b]
        softmax = np.exp(scores - scores.max()) / np.exp(scores - scores.max()).sum()
        assert np.abs(res.dist[b] - softmax).max() <= 1e-15
        want = tilt_factor_block_oracle(
            rows, lw, {"a": 0, "b": 1}, {"a": np.array([1 - wa, wa]), "b": np.array([1 - wb, wb])}, max_iters=10
        )
        assert (res.steps[b], res.converged[b]) == (want.iterations, want.converged)
        assert np.abs(res.duals[b] - [want.duals["a", 1], want.duals["b", 1]]).max() <= 1e-9


def test_singular_covariance_steps_along_its_gradient():
    """A block whose covariance is all zeros makes the batched solve raise;
    that block then steps along its gradient, and every other block takes
    its own solve."""
    from gcb.bethe import _newton_steps

    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 4, 4))
    cov = a @ a.transpose(0, 2, 1) + np.eye(4)
    cov[1] = 0.0
    grad = rng.normal(size=(3, 4))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(cov, grad[:, :, None])
    steps = _newton_steps(cov, grad)
    assert np.array_equal(steps[1], grad[1])
    for b in (0, 2):
        assert np.array_equal(steps[b], np.linalg.solve(cov[b], grad[b]))


def test_oracle_cases_reach_forced_and_mixed_shapes():
    """The cases above cover what they claim: forced symbols, an all-forced
    check, and several shapes of tilt block in one completion."""
    by_name = {name: (h, omega) for name, h, omega in OMEGA_CASES}
    h, omega = by_name["example3-check1-forced-0"]
    assert bme_completion(nfg_from_parity_check(h), omega).check_duals["c1"] == {}
    h, omega = by_name["example3-forced-0"]
    assert {omega["x01"], omega["x10"]} == {0.0, 1.0}
    h, omega = by_name["irregular-interior-0"]
    assert {len(row) for row in bme_completion(nfg_from_parity_check(h), omega).check_duals.values()} == {3, 4}


@pytest.mark.parametrize("rows, omega", [
    ([[1, 1]], {"x1": 0.0, "x2": 1.0}),  # the forced symbols match neither 00 nor 11
    (EXAMPLE3_ROWS, dict({f"x{i:02d}": 0.005 for i in range(1, 11)}, x01=0.9)),  # duals diverge
])
def test_infeasible_omega_raises_like_the_oracle(rows, omega):
    nfg = nfg_from_parity_check(ParityCheckMatrix(rows))
    assert set(omega) == set(nfg.half_edges)
    with pytest.raises(InfeasibleOmega):
        bme_completion_oracle(nfg, omega)
    with pytest.raises(InfeasibleOmega):
        bme_completion(nfg, omega)


def test_unmatched_checks_raise_the_smallest_id_before_any_tilt(monkeypatch):
    """The plan groups interleave check ids ([c1, c3] of degree 3, [c2, c4]
    of degree 2), and no row of c3 or of c2 matches the forced symbols:
    the error names c2, the smallest, though c3's group comes first, and
    no tilt runs."""
    nfg = nfg_from_parity_check(ParityCheckMatrix(CHAIN_ROWS))
    assert [g.fids for g in nfg.derived(gcb.bme._Plan, gcb.bme._Plan).groups] == [["c1", "c3"], ["c2", "c4"]]
    # c2 sees (x3, x4) = (1, 0) and c3 sees (x4, x5, x6) = (0, 0, 1): odd parity
    omega = dict(zip(nfg.half_edge_order, [0.5, 0.5, 1.0, 0.0, 0.0, 1.0, 0.5]))
    calls = []
    monkeypatch.setattr(gcb.bme, "tilt_factor_block", lambda *args: calls.append(args))
    with pytest.raises(InfeasibleOmega, match=r"^check c2: no support row matches"):
        bme_completion(nfg, omega)
    assert calls == []


def test_tilt_solve_is_visible_through_the_bme_binding(code36, monkeypatch):
    """Tracing counts Newton iterations by wrapping ``gcb.bme.tilt_factor_block``;
    a rename or a solve that bypasses that binding must fail here."""
    real = gcb.bme.tilt_factor_block
    seen = []

    def counted(*args, **kwargs):
        res = real(*args, **kwargs)
        seen.append(res)
        return res

    monkeypatch.setattr(gcb.bme, "tilt_factor_block", counted)
    res = bme_completion(code36, {e: 0.3 for e in code36.half_edge_order})
    assert seen
    assert all(type(r.iterations) is int and r.iterations > 0 for r in seen)
    assert sum(r.iterations for r in seen) == sum(int(r.steps.sum()) for r in seen)
    assert res.iterations == max(int(r.steps.max()) for r in seen) > 0


def test_completion_off_the_polytope_is_refused(code36, monkeypatch):
    real = gcb.bme.tilt_factor_block

    def off_by_a_little(*args, **kwargs):
        res = real(*args, **kwargs)
        res.dist[0, 0] += 1e-6  # one check row: its factor no longer sums to 1
        return res

    monkeypatch.setattr(gcb.bme, "tilt_factor_block", off_by_a_little)
    with pytest.raises(InconsistentBeta):
        bme_completion(code36, {e: 0.3 for e in code36.half_edge_order})


def test_bad_graph_raises_on_every_call():
    """The per-graph plan keeps no failure: a graph that cannot be planned
    raises each time it is asked."""
    from gcb.nfg import Factor

    nfg = Nfg({"a": 3}, ["a"], [Factor("v", ("a",), {(0,): 1, (1,): 1})])
    for _ in range(2):
        with pytest.raises(NonBinaryAlphabet):
            bme_completion(nfg, {"a": 0.5})


def test_plan_cache_lets_the_graph_go(monkeypatch):
    """The graph keeps its plan (``Nfg.derived``): it is built once per
    graph, a graph that fails to plan keeps nothing and raises on every
    call, and the plan does not keep its graph alive."""
    import gc
    import weakref

    built = []
    plan_init = gcb.bme._Plan.__init__

    def counting(self, nfg):
        built.append(nfg)
        plan_init(self, nfg)

    monkeypatch.setattr(gcb.bme._Plan, "__init__", counting)
    nfg = nfg_from_parity_check(ParityCheckMatrix(EXAMPLE3_ROWS))
    for w in (0.3, 0.4):
        bme_completion(nfg, {e: w for e in nfg.half_edge_order})
    other = nfg_from_parity_check(ParityCheckMatrix(EXAMPLE3_ROWS))
    bme_completion(other, {e: 0.3 for e in other.half_edge_order})
    assert built == [nfg, other]

    from gcb.nfg import Factor

    bad = Nfg({"a": 3}, ["a"], [Factor("v", ("a",), {(0,): 1, (1,): 1})])
    for _ in range(2):
        with pytest.raises(NonBinaryAlphabet):
            bme_completion(bad, {"a": 0.5})
    assert built[2:] == [bad, bad]

    graph = weakref.ref(nfg)
    del nfg, built
    gc.collect()
    assert graph() is None
