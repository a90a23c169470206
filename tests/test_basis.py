"""The verdict in a dense integer basis.

An instance moved along a change of basis P of its carrier is isomorphic to
the original, so its verdict, base dimension and Galois ranks are the same.
In such a basis the structure constants are dense rationals, which is where
exact arithmetic costs most.
"""

import json
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_hopf import composed_conv_operator

from weakhopf import cli, exactmat, hopf
from weakhopf import tensorexpr as tx
from weakhopf import instances as inst
from weakhopf.bimonad import WeakBraidedBimonad
from weakhopf.exactmat import Mat, rank, solve
from weakhopf.pipeline import Pipeline
from weakhopf.tensorexpr import compose, hmap, lift, tensor, transpose


def random_basis(n, seed):
    """A seeded invertible integer n x n matrix, entries from {0, 0, 1, -1, 2}."""
    rng = random.Random(seed)
    while True:
        p = Mat(n, n, [[rng.choice((0, 0, 1, -1, 2)) for _ in range(n)]
                       for _ in range(n)])
        if rank(p) == n:
            return p


def change_basis(bim, p):
    """The instance with P as its new basis: m' = P^-1 . m . (P (x) P),
    delta' = (P^-1 (x) P^-1) . delta . P, and likewise e, eps, tau and
    tau_prime."""
    n = bim.n
    _, inverse = solve(p, Mat.identity(n))
    fwd, back = hmap(n, 1, 1, p), hmap(n, 1, 1, inverse)
    fwd2, back2 = tensor(fwd, fwd), tensor(back, back)
    tau = compose([fwd2, bim.tau, back2])
    tau_prime = None if bim.tau_prime is bim.tau \
        else compose([fwd2, bim.tau_prime, back2])
    return WeakBraidedBimonad(
        compose([fwd2, bim.m, back]), compose([bim.e, back]),
        compose([fwd, bim.delta, back2]), compose([fwd, bim.eps]),
        tau, tau_prime, name=f"{bim.name}@P")


def invariants(pipe):
    v = pipe.verdict
    return v.hopf, pipe.base.r, v.gamma_rank, v.gamma_prime_rank, v.linear_status


@pytest.mark.parametrize("make", [
    lambda: inst.group_algebra(inst.cyclic_group_table(4), name="Z4"),
    inst.g2,
    inst.sl,
    lambda: inst.dual_instance(inst.g2()),
], ids=["z4", "g2", "sl", "dual-g2"])
@pytest.mark.parametrize("seed", [1, 2])
def test_change_of_basis_keeps_the_verdict(make, seed):
    bim = make()
    moved = change_basis(bim, random_basis(bim.n, seed))
    assert moved.m != bim.m
    pipe = Pipeline(moved)
    assert pipe.failed_axioms == []
    assert invariants(pipe) == invariants(Pipeline(bim))


@pytest.mark.parametrize("dense", [False, True], ids=["g2", "dense-g2"])
def test_the_antipode_eliminates_gamma_beside_n_columns(dense, monkeypatch):
    # gamma^-1 is needed only on the n columns of pbar . (id (x) e)
    bim = inst.g2()
    if dense:
        bim = change_basis(bim, random_basis(bim.n, 1))
    seen = []
    rref = exactmat.rref

    def recording(m):
        seen.append(m)
        return rref(m)

    monkeypatch.setattr(exactmat, "rref", recording)
    pipe = Pipeline(bim)
    assert pipe.antipode is not None
    gamma = pipe.galois.gamma.mat
    widths = [m.cols for m in seen if m.rows == gamma.rows
              and m.cols >= gamma.cols
              and m.column_mat(range(gamma.cols)) == gamma]
    assert widths and max(widths) <= gamma.cols + bim.n


def test_conv_operator_in_a_dense_basis():
    moved = change_basis(inst.g2(), random_basis(4, 1))
    assert moved.m.mat.den > 1
    for side in ("left", "right"):
        assert hopf._conv_operator(moved, side) == \
            composed_conv_operator(moved, side)


def test_g3_in_a_dense_basis_is_decided_in_seconds():
    bim = inst.groupoid_algebra(inst.full_groupoid(3), name="G3")
    moved = change_basis(bim, random_basis(bim.n, 1))
    start = time.perf_counter()
    pipe = Pipeline(moved)
    verdict = pipe.verdict
    elapsed = time.perf_counter() - start
    assert verdict.hopf and verdict.gamma_rank == 27
    assert verdict.linear_status == "found"
    assert pipe.linear.map == verdict.antipode.map
    # about 6 s on a shared 2-vCPU VM; with Fraction entries it took 110 s
    assert elapsed < 20, f"{elapsed:.1f} s"


def test_antipode_command_in_a_dense_basis(tmp_path, capsys):
    moved = change_basis(inst.g2(), random_basis(4, 1))
    inst.save(moved, tmp_path / "g2.instance")
    out = tmp_path / "antipode.json"
    assert cli.main(["antipode", str(tmp_path / "g2.instance"),
                     "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["verdicts"]["linear_status"] == "found"
    assert report["antipode_linear"]["entries"] == report["antipode"]["entries"]


@settings(max_examples=10, deadline=None)
@given(name=st.sampled_from(["z2", "sl", "nz", "g2"]),
       seed=st.integers(0, 2 ** 16))
def test_linear_antipode_in_any_basis(name, seed):
    bim = inst.BUILTINS[name]()
    pipe = Pipeline(change_basis(bim, random_basis(bim.n, seed)))
    verdict = pipe.verdict
    assert (verdict.linear_status == "found") == verdict.hopf
    if verdict.hopf:
        assert pipe.linear.map == verdict.antipode.map


def wide_chains(bim):
    """The wbb5, wbb6 and wbb7 chains that pass through H^4, uncomposed:
    wbb7's are wbb6's on the transposed structure maps."""
    def counit_chains(m, delta, eps, tp):
        return [[lift(delta, 1, 1), tensor(m, m), tensor(eps, eps)],
                [lift(delta, 1, 1), lift(tp, 1, 1), tensor(m, m),
                 tensor(eps, eps)]]

    t = transpose
    return ([[tensor(bim.delta, bim.delta), lift(bim.tau, 1, 1),
              tensor(bim.m, bim.m)]]
            + counit_chains(bim.m, bim.delta, bim.eps, bim.tau_prime)
            + counit_chains(t(bim.delta), t(bim.m), t(bim.e),
                            t(bim.tau_prime)))


@pytest.mark.parametrize("name", sorted(inst.BUILTINS))
@pytest.mark.parametrize("seed", [None, 1])
def test_network_and_running_product_agree_on_the_wide_axioms(name, seed):
    bim = inst.BUILTINS[name]()
    if seed is not None:
        bim = change_basis(bim, random_basis(bim.n, seed))
    for chain in wide_chains(bim):
        steps = [s for f in chain for s in f.steps]
        dom, cod = chain[0].dom, chain[-1].cod
        network = tx._network(dom, steps)
        assert network == tx._running(math.prod(dom), math.prod(cod), steps)
        assert network == compose(chain).mat
