"""Exact rotation and mirror symmetry of moment tables, Cholesky and spectrum.

A support that z -> exp(2 pi i / m) z maps onto itself has mu_ab = 0
unless a = b (mod m). The table records m as its stride and stores the
other entries as exact zeros; the Cholesky and the eigen-solve split into
its residue classes. Splitting must not move a bit: with the symmetry helper
forced to 1, the whole table is computed, factored and solved as one
block, and the results are compared bit for bit.

A single disc or annulus off 0 is turned onto the real axis, where
z -> conj(z) maps it onto itself; its table, Cholesky, level-q block and
eigen-solve are real. The turn is exact, so supports that turn to the same
one give the same bits, and the real arithmetic gives the complex one's
bits on the same real input.

A polygon that the rotation maps onto itself has a rule of one block of
the rotation, its first k/m edges, and its table sums that block m times.
The literal rule must be m exact rotated copies of that block; the table
moves in its last bits only, and the log norms and spectra built on it not
at all. Every test that needs the literal rule or the whole table patches
the one symmetry record, _symmetry.
"""

import hashlib
import importlib.util
import json
import math
import random
import sys
from pathlib import Path

import pytest
from mpmath import libmp, mp

import landaucap.landau as landau
import landaucap.weight as weight_module
from landaucap._mp import FIXED_GUARD_BITS, hermitian_cholesky, raw_parts, round_shift, to_fixed
from landaucap.errors import DegenerateMomentError
from landaucap.landau import LevelBlock, level_q_matrix, spectrum, toeplitz_spectrum
from landaucap.orthopoly import monic_orthogonalize
from landaucap.region import Annulus, Disc, Polygon, UnionRegion, region_from_config
from landaucap.weight import Constant, Power, Weight, mixed_moments

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up
    spec.loader.exec_module(module)
    return module


def square_support(seed):
    """The benchmark's rotated unit square for seed, read back from JSON as
    the command line reads it."""
    cfg = json.loads(json.dumps(load_workloads().square_config(seed)))
    return region_from_config(cfg["weight"]["support"])


def level_block(rows, stride, p):
    """The LevelBlock of the Hermitian matrix whose lower triangle is rows
    (mp or Python numbers, diagonal imaginary parts ignored), as
    level_q_matrix rounds its own: each residue class of stride rounded
    once to nearest onto its grid 2^(top - out), top the top bit of its
    largest part and out = 2p + FIXED_GUARD_BITS."""
    out = 2 * p + FIXED_GUARD_BITS

    def on_grid(x, e):
        sign, man, exp, _ = x
        return round_shift(-man if sign else man, e - exp)

    classes = []
    for c in range(min(stride, len(rows))):
        idx = range(c, len(rows), stride)
        parts = [[raw_parts(rows[k][j]) for j in idx if j <= k] for k in idx]
        e = max(x[2] + x[3] for row in parts for z in row for x in z if x[1]) - out
        classes.append(([[on_grid(z[0], e) for z in row] for row in parts],
                        [[on_grid(z[1], e) for z in row[:-1]] for row in parts], e))
    return LevelBlock(stride, tuple(classes))


CENTRED_SQUARE = Polygon((-0.5 - 0.5j, 0.5 - 0.5j, 0.5 + 0.5j, -0.5 + 0.5j))
RECTANGLE = Polygon((-1 - 0.5j, 1 - 0.5j, 1 + 0.5j, -1 + 0.5j))
SYMMETRIC = {"rotated-square-seed1": (square_support(1), 4), "rectangle-2x1": (RECTANGLE, 2)}


# ---------------------------------------------------------------- detection

@pytest.mark.parametrize("seed", range(1, 8))
def test_benchmark_squares_are_exactly_four_fold(seed):
    assert weight_module._rotation_order(square_support(seed)) == 4


@pytest.mark.parametrize("support, m", [
    (CENTRED_SQUARE, 4),
    (RECTANGLE, 2),
    # a vertex one ulp off breaks every rotation
    (Polygon((-0.5 - 0.5j, 0.5 - 0.5j, complex(math.nextafter(0.5, 1), 0.5), -0.5 + 0.5j)), 1),
    (UnionRegion((Disc(1 + 0j, 0.1), Disc(-1 + 0j, 0.1))), 2),
    (UnionRegion((Disc(0.5 + 0j, 0.1), Disc(0.5j, 0.1), Disc(-0.5 + 0j, 0.1), Disc(-0.5j, 0.1))),
     4),
    (UnionRegion((Disc(0.5 + 0j, 0.1), Disc(0.5j, 0.1), Disc(-0.5 + 0j, 0.1))), 1),
    (Disc(0.7 + 0j, 1.0), 1),
    (Polygon((0j, 1 + 0j, 1 + 1j, 1j)), 1),
])
def test_rotation_order_is_exact(support, m):
    assert weight_module._rotation_order(support) == m


@pytest.mark.parametrize("kind", ["plain", "gaussian"])
def test_entries_off_class_are_exact_zeros(kind):
    table = mixed_moments(Weight(square_support(1), Power(2)), kind, 9, 128)
    assert table.path == "boundary" and table.stride == 4
    for a in range(10):
        for b in range(10):
            if (a - b) % 4:
                assert table.entry(a, b) == 0 and not table.entry(a, b), (a, b)
            else:
                assert table.entry(a, b), (a, b)


def test_radial_stride_exceeds_the_table():
    table = mixed_moments(Weight(Disc(0j, 1.0), Constant(1.0)), "plain", 6, 64)
    assert table.path == "radial" and table.stride == 7


# -------------------------------------------------- bit identity of the split

def whole_table(monkeypatch):
    """Make every polygon look asymmetric, so tables are computed whole on
    the literal rule."""
    monkeypatch.setattr(weight_module, "_symmetry", lambda support: (1, 1, None))


@pytest.mark.parametrize("name", SYMMETRIC)
def test_class_split_log_pivots_are_bit_identical(name, monkeypatch):
    support, m = SYMMETRIC[name]
    w = Weight(support, Constant(1.0))
    split = monic_orthogonalize(mixed_moments(w, "plain", 24, 128))
    assert split.source.stride == m
    whole_table(monkeypatch)
    whole = monic_orthogonalize(mixed_moments(w, "plain", 24, 128))
    assert whole.source.stride == 1
    # the whole table's off-class entries are rounding noise, not zeros, and
    # its Cholesky reads them all
    rows = whole.source.rows
    assert any(rows[a][b] for a in range(25) for b in range(a) if (a - b) % m)
    assert split.log_norms == whole.log_norms


@pytest.mark.parametrize("q", [0, 1, 2])
@pytest.mark.parametrize("name", SYMMETRIC)
def test_class_split_spectrum_is_bit_identical(name, q, monkeypatch):
    support, m = SYMMETRIC[name]
    w = Weight(support, Constant(1.0))
    split = toeplitz_spectrum(w, q, 2.0, 24, 128)
    whole_table(monkeypatch)
    whole = toeplitz_spectrum(w, q, 2.0, 24, 128)
    assert split.eigs == whole.eigs
    assert split.log_eigs == whole.log_eigs
    assert split.trusted_count == whole.trusted_count
    assert split.eigen_solve == whole.eigen_solve == "householder-ql"
    assert split.matrix_residual <= 1e-30


def test_level_q_block_splits_into_the_classes():
    # the rectangle's stride 2 gives the even and the odd indices, and no
    # assembled entry of either class is zero
    T = level_q_matrix(Weight(RECTANGLE, Constant(1.0)), 1, 2.0, 8, 64)
    assert T.stride == 2
    assert [len(re) for re, _, _ in T.classes] == [5, 4]
    for re, im, _ in T.classes:
        assert all(x for row in re for x in row)
        assert all(x or y for xs, ys in zip(re, im) for x, y in zip(xs, ys))


# --------------------------------------------------------- block primitives

def test_blocked_cholesky_names_the_least_failing_degree():
    # block {0, 2} fails at degree 2 and block {1, 3} at degree 3; rows
    # are taken in order, so the error names 2
    one = mp.mpf(1)
    rows = [[one], [0, one], [one, 0, one], [0, one, 0, one]]
    with pytest.raises(DegenerateMomentError, match="degree 2;"):
        hermitian_cholesky(rows, 64, 2)
    rows[2][0] = mp.mpf(0.5)
    with pytest.raises(DegenerateMomentError, match="degree 3;"):
        hermitian_cholesky(rows, 64, 2)


def test_cholesky_by_class_matches_the_whole_on_exact_zeros():
    # a random positive definite table, zeroed exactly between the classes
    # of its stride: factored one class at a time or as one block, every
    # log pivot agrees bit for bit
    rng = random.Random(19)
    for stride in (2, 3, 4):
        with mp.workprec(160):
            n = 13
            rows = [[mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) / 4 * ((j - k) % stride == 0)
                     for k in range(j)] + [mp.mpf(n)] for j in range(n)]
        split = hermitian_cholesky(rows, 128, stride)
        assert [x._mpf_ for x in split] == [x._mpf_ for x in hermitian_cholesky(rows, 128, 1)]


def test_spectrum_of_a_direct_sum_matches_eighe():
    # two interleaved 3x3 classes of stride 2, each reduced on its own, and
    # the merged spectrum sorted; index 3 couples to nothing in its class
    p = 128
    with mp.workprec(p):
        rows = [[mp.mpf(3)],
                [0, mp.mpf(2)],
                [mp.mpc(0.25, 0.5), 0, mp.mpf(1)],
                [0, 0, 0, mp.mpf(7) / 3],
                [mp.mpc(0, 0.125), 0, mp.mpf(0.5), 0, mp.mpf(0.75)],
                [0, mp.mpc(0.5, -0.25), 0, 0, 0, mp.mpf(5)]]
    block = level_block(rows, 2, p)
    assert [len(re) for re, _, _ in block.classes] == [3, 3]
    sp = spectrum(block, p)
    assert sp.eigen_solve == "householder-ql"
    assert sp.matrix_residual <= 1e-35
    with mp.workprec(p + 128):
        full = mp.matrix(6, 6)
        for j, row in enumerate(rows):
            for k, x in enumerate(row):
                full[j, k] = x
                full[k, j] = mp.conj(x)
        ref = sorted(mp.eighe(full, eigvals_only=True), reverse=True)
        for got, want in zip(sp.eigenvalues(), ref):
            assert abs(got - want) <= mp.mpf(2) ** (1 - p) * abs(want)


# ------------------------------------------------------------------ mirrors

TWO_DISCS = UnionRegion((Disc(-1.2 + 0j, 1.0), Disc(1.2 + 0.3j, 0.8)))
ANNULUS = Annulus(0.3j, 0.4, 1.0)


@pytest.mark.parametrize("support, record", [
    (Disc(0.7 + 0j, 1.0), (1, 1, 0.7)),
    (Disc(-0.7j, 1.0), (1, 1, -0.7j)),
    (ANNULUS, (1, 1, 0.3j)),
    (Disc(0j, 1.0), (4, 1, 1)),
    # polygons and unions keep the complex path, mirrored or not; only a
    # single polygon folds
    (CENTRED_SQUARE, (4, 4, None)),
    (RECTANGLE, (2, 2, None)),
    (square_support(1), (4, 4, None)),
    (TWO_DISCS, (1, 1, None)),
    (UnionRegion((Disc(0.5 + 0j, 0.1), Disc(0.5j, 0.1), Disc(-0.5j, 0.1))), (1, 1, None)),
    (UnionRegion((Disc(0.5 + 0j, 0.1), Disc(0.5j, 0.1), Disc(-0.5 + 0j, 0.1), Disc(-0.5j, 0.1))),
     (4, 1, None)),
])
def test_symmetry_is_exact(support, record):
    # (stride, fold, turn), read by the rule and the table alike
    assert weight_module._symmetry(support) == record
    rule = weight_module._build_rule(support, 4, 64)
    assert (rule.stride, rule.fold, rule.turn) == record


@pytest.mark.parametrize("q", [0, 1])
def test_turned_discs_give_the_same_bits(q):
    # Disc(+-0.7) and Disc(+-0.7i) all turn to Disc(0.7): the turned centre
    # is |c| from the double c, so the four give one table, one block and
    # one spectrum, bit for bit
    runs = [toeplitz_spectrum(Weight(Disc(c, 1.0), Constant(1.0)), q, 2.0, 24, 128)
            for c in (0.7 + 0j, -0.7 + 0j, 0.7j, -0.7j)]
    for sp in runs:
        assert [x._mpf_ for x in sp.eigs] == [x._mpf_ for x in runs[0].eigs]
        assert sp.log_eigs == runs[0].log_eigs and sp.eigen_solve == "householder-ql"
    norms = [monic_orthogonalize(mixed_moments(Weight(Disc(c, 1.0), Constant(1.0)), "plain",
                                               24, 128)).log_norms
             for c in (0.7 + 0j, -0.7 + 0j, 0.7j, -0.7j)]
    assert all([x._mpf_ for x in n] == [x._mpf_ for x in norms[0]] for n in norms)


# sha256 over the mpf tuples of the q = 0 and q = 1 spectra and of the plain
# log norms at N = 24 and 128 bits, as computed before the mirror path
# existed: a polygon or union keeps its bits
COMPLEX_PATH_DIGESTS = {"square-predict-seed1": (square_support(1), "0ab9dcf2af855aeb"),
                        "two-discs": (TWO_DISCS, "2c0f3b9b4edee88e")}


@pytest.mark.parametrize("name", COMPLEX_PATH_DIGESTS)
def test_no_mirror_keeps_the_complex_path(name):
    support, digest = COMPLEX_PATH_DIGESTS[name]
    w = Weight(support, Constant(1.0))
    table = mixed_moments(w, "gaussian", 24, 128)
    assert table.turn is None and any(hasattr(x, "_mpc_") for row in table.rows for x in row)
    assert all(im is not None for _, im, _ in level_q_matrix(w, 0, 2.0, 24, 128).classes)
    h = hashlib.sha256()
    for q in (0, 1):
        h.update(repr([x._mpf_ for x in toeplitz_spectrum(w, q, 2.0, 24, 128).eigs]).encode())
    h.update(repr([x._mpf_ for x in
                   monic_orthogonalize(mixed_moments(w, "plain", 24, 128)).log_norms]).encode())
    assert h.hexdigest()[:16] == digest


@pytest.mark.parametrize("support", [Disc(0.7 + 0j, 1.0), Disc(-0.5 + 0.6j, 0.8), ANNULUS])
def test_real_cholesky_is_the_complex_one_bit_for_bit(support):
    # the real table's entries as mpc with zero imaginary parts take the
    # complex arithmetic; its log pivots are the real arithmetic's
    table = mixed_moments(Weight(support, Constant(1.0)), "gaussian", 24, 128)
    assert table.turn is not None
    as_mpc = [[mp.make_mpc((raw_parts(x)[0], libmp.fzero)) for x in row] for row in table.rows]
    real = hermitian_cholesky(table.rows, 128, table.stride, real=True)
    complex_ = hermitian_cholesky(as_mpc, 128, table.stride)
    assert [x._mpf_ for x in real] == [x._mpf_ for x in complex_]


@pytest.mark.parametrize("support, q", [(Disc(0.7 + 0j, 1.0), 0), (Disc(0.7 + 0j, 1.0), 2),
                                        (Disc(-0.5 + 0.6j, 0.8), 1), (ANNULUS, 0)])
def test_real_householder_is_the_complex_one_bit_for_bit(support, q):
    # a real class read with zero imaginary parts takes the complex
    # reflections; they give the real reduction's diagonal and squared
    # sub-diagonal exactly
    p = 128
    bits = 2 * p + FIXED_GUARD_BITS
    for re, im, e in level_q_matrix(Weight(support, Constant(1.0)), q, 2.0, 24, p).classes:
        assert im is None
        zeros = [[0] * t for t in range(len(re))]
        cre, cim, ce = landau._class_columns(re, None, e, bits)
        assert cim is None
        zre, zim, ze = landau._class_columns(re, zeros, e, bits)
        assert (cre, ce) == (zre, ze) and not any(x for col in zim for x in col)
        assert (landau._householder_tridiagonal(cre, None, bits)
                == landau._householder_tridiagonal(zre, zim, bits))


# ------------------------------------------------- one block of the rotation

_H = math.sqrt(0.5)
OCTAGON = Polygon((1 + 0j, _H + _H * 1j, 1j, -_H + _H * 1j,
                   -1 + 0j, -_H - _H * 1j, -1j, _H - _H * 1j))
SIDE3_SQUARE = Polygon((-1.5 - 1.5j, 1.5 - 1.5j, 1.5 + 1.5j, -1.5 + 1.5j))
# a non-convex four-point star, a square with its edge midpoints as vertices,
# and a hexagon that only z -> -z maps onto itself
STAR = Polygon((1 + 0j, 0.3 + 0.3j, 1j, -0.3 + 0.3j, -1 + 0j, -0.3 - 0.3j, -1j, 0.3 - 0.3j))
MIDPOINT_SQUARE = Polygon((-0.5 - 0.5j, -0.5j, 0.5 - 0.5j, 0.5 + 0j,
                           0.5 + 0.5j, 0.5j, -0.5 + 0.5j, -0.5 + 0j))
HEXAGON = Polygon((1 + 0j, 0.5 + 1j, -0.5 + 0.8j, -1 + 0j, -0.5 - 1j, 0.5 - 0.8j))
_T = math.sqrt(3) / 2
CENTRED_TRIANGLE = Polygon(tuple(v - (1.5 + _T * 1j) / 3 for v in (0j, 1 + 0j, 0.5 + _T * 1j)))
CORNER_SQUARE = Polygon((0j, 1 + 0j, 1 + 1j, 1j))
# two squares that z -> -z swaps: the union keeps its whole rule
SWAPPED_SQUARES = UnionRegion((Polygon((1 + 0j, 2 + 0j, 2 + 1j, 1 + 1j)),
                               Polygon((-2 - 1j, -1 - 1j, -1 + 0j, -2 + 0j))))
FOLDED = {"square-seed1": (square_support(1), 4), "square-seed3": (square_support(3), 4),
          "square-seed7": (square_support(7), 4), "unit-square": (CENTRED_SQUARE, 4),
          "side3-square": (SIDE3_SQUARE, 4), "rectangle-2x1": (RECTANGLE, 2),
          "octagon": (OCTAGON, 4), "star": (STAR, 4), "midpoint-square": (MIDPOINT_SQUARE, 4),
          "hexagon": (HEXAGON, 2)}
UNFOLDED = {"corner-square": CORNER_SQUARE, "centred-triangle": CENTRED_TRIANGLE,
            "two-discs": TWO_DISCS, "swapped-squares": SWAPPED_SQUARES}


def times_i(z, q):
    """The parts of i^q z for an mpc z, exactly: z's parts swapped and negated."""
    re, im = z._mpc_
    neg = libmp.mpf_neg
    return ((re, im), (neg(im), re), (neg(re), neg(im)), (im, neg(re)))[q % 4]


@pytest.mark.parametrize("beta", [0, 1.0], ids=["plain", "gaussian"])
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("name", FOLDED)
def test_rule_is_block_zero_of_the_literal_rule(name, k, beta, monkeypatch):
    # the fold's premise: the literal rule, every edge computed from its own
    # end points, splits into m blocks, block r is exactly block 0 times
    # i^(4r/m), node for node and step for step, and the rule holds block 0
    support, m = FOLDED[name]
    rule = weight_module._build_rule(support, 24, 128, k, beta)
    assert (rule.stride, rule.fold) == (m, m)
    monkeypatch.setattr(weight_module, "_symmetry", lambda support: (m, 1, None))
    literal = weight_module._build_rule(support, 24, 128, k, beta)
    assert literal.fold == 1 and len(literal.nodes) == len(literal.steps) == m * len(rule.nodes)
    size = len(rule.nodes)
    for whole, block in ((literal.nodes, rule.nodes), (literal.steps, rule.steps)):
        assert [z._mpc_ for z in whole[:size]] == [z._mpc_ for z in block]
        for r in range(1, m):
            assert ([z._mpc_ for z in whole[r * size:(r + 1) * size]]
                    == [times_i(z, 4 * r // m) for z in block]), r


@pytest.mark.parametrize("name", UNFOLDED)
def test_unfolded_supports_keep_fold_one(name):
    assert weight_module._build_rule(UNFOLDED[name], 12, 128, 0, 1.0).fold == 1


def unfolded(monkeypatch):
    """Make every rule literal, so tables sum every node at the same stride."""
    symmetry = weight_module._symmetry
    monkeypatch.setattr(weight_module, "_symmetry",
                        lambda support: (symmetry(support)[0], 1, symmetry(support)[2]))


@pytest.mark.parametrize("maxdeg, p", [(24, 128), (48, 256)])
@pytest.mark.parametrize("kind", ["plain", "gaussian"])
@pytest.mark.parametrize("support, density", [
    (square_support(1), Constant(1.0)), (square_support(7), Constant(1.0)),
    (RECTANGLE, Constant(1.0)), (SIDE3_SQUARE, Power(2))], ids=["seed1", "seed7", "rect", "side3"])
def test_folded_table_matches_the_whole_sum(support, density, kind, maxdeg, p, monkeypatch):
    # every entry within 1e-9 units of 2^-p sqrt(G_aa G_bb) of the sum over
    # every node (2.7e-10 measured): the two differ only in the integer
    # powers u^a, rounded down on each node or rotated from the first block
    w = Weight(support, density)
    folded = mixed_moments(w, kind, maxdeg, p)
    unfolded(monkeypatch)
    whole = mixed_moments(w, kind, maxdeg, p)
    assert folded.stride == whole.stride > 1
    with mp.workprec(p + 64):
        unit = mp.mpf(10) ** -9 * mp.mpf(2) ** -p
        for a in range(maxdeg + 1):
            for b in range(a + 1):
                x, y = folded.rows[a][b], whole.rows[a][b]
                if (a - b) % folded.stride:
                    assert not x and not y
                scale = mp.sqrt(whole.rows[a][a] * whole.rows[b][b])
                assert abs(x - y) <= unit * scale, (a, b)


@pytest.mark.parametrize("support", [square_support(1), square_support(3), square_support(7),
                                     RECTANGLE, STAR, MIDPOINT_SQUARE, HEXAGON],
                         ids=["seed1", "seed3", "seed7", "rect", "star", "midpoint", "hexagon"])
def test_fold_keeps_log_norms_and_spectra(support, monkeypatch):
    w = Weight(support, Constant(1.0))
    runs = []
    for _ in range(2):
        norms = monic_orthogonalize(mixed_moments(w, "plain", 24, 128)).log_norms
        runs.append(([x._mpf_ for x in norms],
                     [x._mpf_ for x in toeplitz_spectrum(w, 0, 2.0, 24, 128).eigs]))
        unfolded(monkeypatch)
    assert runs[0] == runs[1]


@pytest.mark.parametrize("support, count", [(square_support(1), 25), (RECTANGLE, 50),
                                            (CORNER_SQUARE, 100)])
def test_kernel_sums_one_block_of_the_orbit(support, count, monkeypatch):
    # the node values and powers go to integers once, for the rule's
    # nodes, one block of the rotation
    lengths = []

    def spy(parts, bits):
        lengths.append({len(p) for p in parts})
        return to_fixed(parts, bits)

    monkeypatch.setattr(weight_module, "to_fixed", spy)
    table = mixed_moments(Weight(support, Constant(1.0)), "plain", 24, 128)
    rule = weight_module._build_rule(support, 24, 128)
    assert rule.fold * len(rule.nodes) == 100 and len(rule.nodes) == count
    assert lengths == [{count}, {count}] and table.stride == 100 // count
