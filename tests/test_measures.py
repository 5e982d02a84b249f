import math

import numpy as np
import pytest

from lapcov import (
    AtomicMeasure,
    NumericOverflow,
    Semigroup,
    Symbol,
    SymbolUndefinedAtAtom,
    ZeroWeightAtom,
    apply_symbol,
    polar_density,
    sup_norm,
    total_mass,
    total_variation,
)
from lapcov.measures import MERGE_TOL, Columns, _point_distance, _point_sort_key
from lapcov.toeplitz import DiscMeasure

SG1 = Semigroup.nat_add(1)


def measure(*atoms):
    return AtomicMeasure(SG1, tuple(((complex(p),), complex(w)) for p, w in atoms))


def test_total_mass_examples():
    assert total_mass(measure((0.5, 3))) == 3
    assert total_mass(measure((1, 1), (-1, -1))) == 0
    assert total_mass(measure((1, 0.5), (-1, 0.5))) == 1


def test_total_variation_examples():
    tv = total_variation(measure((1, 1), (-1, -1)))
    assert dict(tv.atoms) == {(1 + 0j,): 1, (-1 + 0j,): 1}
    assert dict(total_variation(measure((0.5, 3j))).atoms) == {(0.5 + 0j,): 3}
    tv = total_variation(measure((0.2, -2), (0.7, 0)))
    assert dict(tv.atoms) == {(0.2 + 0j,): 2}


def test_total_variation_of_zero_measure_fails():
    with pytest.raises(ValueError):
        total_variation(measure((0.2, 0)))


def test_polar_density_examples():
    assert polar_density(measure((0.5, 3j)))[(0.5 + 0j,)] == 1j
    assert polar_density(measure((1, -2)))[(1 + 0j,)] == -1
    h = polar_density(measure((0.3, 1 + 1j)))[(0.3 + 0j,)]
    assert abs(h - (1 + 1j) / math.sqrt(2)) < 1e-15


def test_polar_density_rejects_zero_weight():
    with pytest.raises(ZeroWeightAtom):
        polar_density(measure((0.2, 0), (0.5, 1)))


def test_apply_symbol_examples():
    mu = measure((0.5, 2), (-0.25, 1j))
    assert apply_symbol(mu, Symbol.constant(1)).atoms == mu.atoms

    z = Symbol.polynomial({(1,): 1})
    out = apply_symbol(measure((0.5, 2)), z, mode="f")
    assert dict(out.atoms) == {(0.5 + 0j,): 1}

    out = apply_symbol(measure((2j, 1)), z, mode="abs_f_sq")
    assert dict(out.atoms) == {(2j,): 4}


def test_apply_symbol_mode_composition():
    # |F|^2-weighting equals weighting by F and then by conj F, atomwise
    mu = measure((0.5, 2 - 1j), (-0.3, 0.7j), (1j, 1))
    f = Symbol.polynomial({(0,): 0.5j, (1,): 1, (2,): -0.25})
    once = apply_symbol(mu, f, mode="abs_f_sq")
    twice = apply_symbol(apply_symbol(mu, f, mode="f"), f, mode="conj_f")
    for (p1, w1), (p2, w2) in zip(once.atoms, twice.atoms):
        assert p1 == p2
        assert abs(w1 - w2) < 1e-14


def test_apply_symbol_keeps_zero_weight_atoms():
    # F vanishes at 0: the atom stays in the support with weight 0
    f = Symbol.polynomial({(1,): 1})
    out = apply_symbol(measure((0, 3), (0.5, 1)), f)
    assert dict(out.atoms) == {(0j,): 0, (0.5 + 0j,): 0.5}


def test_apply_symbol_overflow_is_a_numeric_overflow():
    # F = 1e200 is finite, the |F|^2 weight is not
    with pytest.raises(NumericOverflow):
        apply_symbol(measure((0.5, 1)), Symbol.constant(1e200), mode="abs_f_sq")
    with pytest.raises(ValueError, match="unknown symbol mode"):
        apply_symbol(measure((0.5, 1)), Symbol.constant(1), mode="g")


def test_table_symbol_must_cover_atoms():
    f = Symbol.table({(0.5 + 0j,): 2.0})
    mu = measure((0.5, 1), (0.6, 1))
    with pytest.raises(SymbolUndefinedAtAtom):
        apply_symbol(mu, f)


def test_sup_norm_examples():
    assert sup_norm(measure((0.5, 1)), (2,)) == 0.25
    assert sup_norm(measure((1, 1), (-2, 1)), (1,)) == 2
    assert sup_norm(measure((0.7j, 5), (-0.2, 1)), (0,)) == 1


def test_sup_norm_counts_zero_weight_atoms():
    # support bookkeeping: the null atom at 2 still dominates the sup
    mu = measure((2, 0), (0.5, 1))
    assert sup_norm(mu, (1,)) == 2


def test_variation_mass_dominates_mass(rng):
    for _ in range(20):
        atoms = [
            (rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal())
            for _ in range(int(rng.integers(1, 6)))
        ]
        mu = measure(*atoms)
        assert total_mass(total_variation(mu)).real >= abs(total_mass(mu)) - 1e-12


def test_merge_is_idempotent():
    mu = measure((0.5, 1), (0.5 + 1e-14, 2), (-0.5, 1j))
    again = AtomicMeasure(SG1, mu.atoms)
    assert again.atoms == mu.atoms
    assert len(mu.atoms) == 2


def test_merge_sums_weights():
    mu = measure((0.25, 1.5), (0.25, 2.5))
    assert dict(mu.atoms) == {(0.25 + 0j,): 4}


def test_merge_chain_is_greedy_in_input_order():
    # each atom joins the first kept point within MERGE_TOL, so a chain of
    # atoms 0.8e-12 apart merges into two atoms, not one
    a, b, c = 0.3, 0.3 + 0.8e-12, 0.3 + 1.6e-12
    assert measure((a, 1), (b, 2), (c, 4)).atoms == (((a + 0j,), 3), ((c + 0j,), 4))
    assert measure((c, 4), (b, 2), (a, 1)).atoms == (((a + 0j,), 1), ((c + 0j,), 6))


def merge_loop(atoms):
    # the merge rule as a plain O(k^2) scan: each atom joins the first kept point within MERGE_TOL
    kept, weights = [], []
    for point, weight in atoms:
        for i, q in enumerate(kept):
            if _point_distance(point, q) <= MERGE_TOL:
                weights[i] += weight
                break
        else:
            kept.append(point)
            weights.append(weight)
    return tuple(sorted(zip(kept, weights), key=lambda atom: _point_sort_key(atom[0])))


def random_point(rng, dim, scale=1.0):
    return tuple(complex(*rng.normal(size=2)) * scale for _ in range(dim))


def jittered_atoms(rng, dim, scale):
    """Copies of a few centers, each moved by up to 1.5 * MERGE_TOL, and some exact copies."""
    centers = [random_point(rng, dim, scale) for _ in range(int(rng.integers(1, 6)))]
    atoms = []
    for _ in range(int(rng.integers(1, 40))):
        if atoms and rng.random() < 0.1:
            atoms.append((atoms[int(rng.integers(len(atoms)))][0], complex(*rng.normal(size=2))))
            continue
        center = centers[int(rng.integers(len(centers)))]
        jitter = rng.uniform(0.0, 1.5 * MERGE_TOL) / 2
        point = tuple(z + complex(*rng.normal(size=2)) * jitter for z in center)
        atoms.append((point, complex(*rng.normal(size=2))))
    return atoms


def disc_atoms(atoms):
    """(position, weight) atoms of 1-point atoms that lie in the disc."""
    return [(p[0], w) for p, w in atoms if abs(p[0]) <= 0.5]


def assert_both_merge_like_the_scan(semigroup, atoms):
    # repr, so that -0.0 and 0.0 differ
    assert repr(AtomicMeasure(semigroup, tuple(atoms)).atoms) == repr(merge_loop(atoms))
    if semigroup.point_dim == 1:
        disc = disc_atoms(atoms)
        want = tuple((p[0], w) for p, w in merge_loop([((a,), w) for a, w in disc]))
        assert repr(DiscMeasure(tuple(disc)).atoms) == repr(want)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_merge_matches_the_pairwise_scan(rng, dim):
    sg = Semigroup.nat_add(dim)
    for trial in range(300):
        scale = (1.0, 1e-11, 1e3, 1e8, 0.1, 1e150)[trial % 6]
        assert_both_merge_like_the_scan(sg, jittered_atoms(rng, dim, scale))
    chain = [((0.3 + i * 0.8e-12 + 0j,) + (0.5j,) * (dim - 1), complex(i + 1)) for i in range(7)]
    # spaced just under the tolerance, and at distances within rounding of it
    tight = [((0.1 + i * 0.999999e-12 + 0j,) + (0.25 + 0j,) * (dim - 1), complex(1, i)) for i in range(6)]
    edge = [((complex(x),) + (0j,) * (dim - 1), complex(i + 1)) for i, x in enumerate((0.0, 1e-12, 2e-12, 3e-12))]
    edge += [((complex(0.2 + x),) + (0j,) * (dim - 1), complex(0.5)) for x in (0.0, 1e-12, -1e-12, 2e-12)]
    distinct = [(random_point(rng, dim), complex(*rng.normal(size=2))) for _ in range(100)]
    for atoms in (chain, chain[::-1], tight, tight[::-1], edge, edge[::-1], distinct, distinct + distinct[::-1]):
        assert_both_merge_like_the_scan(sg, atoms)


def test_columns_of_unequal_length_are_refused():
    points = np.array([[0.25 + 0j], [0.5 + 0j], [0.75 + 0j]])
    with pytest.raises(ValueError, match="^columns must have one length$"):
        AtomicMeasure(Semigroup.nat_add(1), Columns(points, [1.0, 2.0]))
    assert len(Columns(points, [1.0, 2.0, 3.0])) == 3


NON_FINITE = (complex(math.nan, 0.0), complex(-math.inf, 1.0), complex(0.0, math.inf), complex(math.nan, math.nan))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_non_finite_atoms_are_refused_where_they_enter(dim):
    sg = Semigroup.nat_add(dim)
    good = (complex(0.25, 0.1),) * dim
    for bad in NON_FINITE:
        for at in range(dim):
            point = good[:at] + (bad,) + good[at + 1:]
            for atoms in ([(good, 1.0), (point, 2.0)], Columns(np.array([good, point]), [1.0, 2.0])):
                with pytest.raises(ValueError, match="^character point coordinates must be finite"):
                    AtomicMeasure(sg, atoms)
        for atoms in ([(good, 1.0), ((0.5,) * dim, bad)], Columns(np.array([good]), np.array([bad]))):
            with pytest.raises(ValueError, match="^atom weights must be finite"):
                AtomicMeasure(sg, atoms)
        if dim == 1:
            with pytest.raises(ValueError, match="^character point coordinates must be finite"):
                AtomicMeasure(Semigroup.half_line(), [((bad,), 1.0)])
            with pytest.raises(ValueError, match="lies outside radius 0.5$"):
                DiscMeasure(((0.1, 1.0), (bad, 2.0)))
            with pytest.raises(ValueError, match="^disc atom weights must be finite"):
                DiscMeasure(((0.1, 1.0), (0.2, bad)))
    # finite weights whose merged sum overflows
    with pytest.raises(ValueError, match="^atom weights must be finite, also once coincident atoms are summed$"):
        AtomicMeasure(sg, [(good, 1e308), (good, 1e308)])
    with pytest.raises(ValueError, match="^disc atom weights must be finite"):
        DiscMeasure(((0.1, 1e308), (0.1, 1e308)))


def test_signed_zeros_merge_into_the_first_atom():
    zeros = [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    for order in (zeros, zeros[::-1]):
        atoms = [((z,), complex(i + 1)) for i, z in enumerate(order)]
        merged = AtomicMeasure(SG1, tuple(atoms)).atoms
        assert len(merged) == 1 and repr(merged[0][0]) == repr((order[0],))
        assert_both_merge_like_the_scan(SG1, atoms)


def test_atoms_whose_distance_overflows_stay_apart():
    # the same first real coordinate, so the scalar window search measured them: (2e200)**2 raised OverflowError
    mu = AtomicMeasure(SG1, (((1e200j,), 1.0), ((-1e200j,), 2.0)))
    assert mu.atoms == (((-1e200j,), 2), ((1e200j,), 1))


def test_half_line_points_at_the_boundary():
    sg = Semigroup.half_line()
    inside = [((complex(-1e-12, 0.3),), 1.0), ((complex(-1e-12, 0.3 + 1e-13),), 2.0), ((1j,), 0.5)]
    want = merge_loop([(p, complex(w)) for p, w in inside])
    assert repr(AtomicMeasure(sg, tuple(inside)).atoms) == repr(want)
    with pytest.raises(ValueError, match=r"^half-line character points need Re z >= 0$"):
        AtomicMeasure(sg, inside + [((complex(-1.0000001e-12, 0.0),), 1.0)])


def test_bare_real_and_integer_coordinates_read_as_complex():
    atoms = [(0.5, 1), ((1,), 2.0), ((0.5 + 0j,), 1j), (True, 1), (-2, 0.25)]
    want = merge_loop([((complex(p if not isinstance(p, tuple) else p[0]),), complex(w)) for p, w in atoms])
    assert repr(AtomicMeasure(SG1, tuple(atoms)).atoms) == repr(want)
    two = [((1, 0.5), 1), ((True, 0.5 + 0j), 2), ((2.0, False), 3)]
    want = merge_loop([(tuple(complex(z) for z in p), complex(w)) for p, w in two])
    assert repr(AtomicMeasure(Semigroup.nat_add(2), tuple(two)).atoms) == repr(want)


@pytest.mark.parametrize(
    "semigroup,atoms,error,message",
    [
        (SG1, (), ValueError, "a measure needs at least one atom"),
        (SG1, (((0.5, 0.5), 1),), ValueError, "expected character point of length 1, got 2"),
        (Semigroup.nat_add(2), (((0.5, 0.5), 1), ((0.5,), 1)), ValueError,
         "expected character point of length 2, got 1"),
        (Semigroup.half_line(), (((0.5,), 1), ((-0.5,), 1)), ValueError, "half-line character points need Re z >= 0"),
        (SG1, (((0.5,), 1), ((None,), 1)), TypeError,
         "complex() first argument must be a string or a number, not 'NoneType'"),
        (SG1, (((0.5,), 1), (("x",), 1)), ValueError, "complex() arg is a malformed string"),
        (SG1, (((0.5,), None),), TypeError,
         "complex() first argument must be a string or a number, not 'NoneType'"),
        (SG1, (((0.5,), 1), ((0.25,),)), ValueError, "not enough values to unpack (expected 2, got 1)"),
    ],
)
def test_atomic_measure_errors_keep_their_text(semigroup, atoms, error, message):
    with pytest.raises(error) as caught:
        AtomicMeasure(semigroup, atoms)
    assert str(caught.value) == message


def test_half_line_accepts_boundary_points():
    sg = Semigroup.half_line()
    mu = AtomicMeasure(sg, (((1j,), 1.0),))
    assert abs(sup_norm(mu, 1.0) - 1.0) < 1e-15
