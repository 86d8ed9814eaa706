"""The package's value records: construction, defaults, equality, hashing,
frozen-ness and repr, as the plain record classes of landaucap._record give
them, and an import of the command line that needs no dataclasses."""

import os
import subprocess
import sys

import pytest

from landaucap import (
    Annulus,
    CapacityEstimate,
    CheckResult,
    Chord,
    Constant,
    Disc,
    LandauBasisSpec,
    LevelBlock,
    MomentTable,
    MonicOrthoBasis,
    Polygon,
    Power,
    RhoEstimate,
    ToeplitzSpectrum,
    UnionRegion,
    Weight,
)
from landaucap._record import FrozenRecordError
from landaucap.weight import _Rule

SQUARE = Polygon((0j, 1 + 0j, 1 + 1j, 1j))
TABLE = MomentTable(4, 128, 1.0, [[1.0]], "radial", "const:1.0", -1)

# every record with its fields in order and one instance
FROZEN = {
    Disc: (("center", "radius"), Disc(0j, 1.0)),
    Annulus: (("center", "inner", "outer"), Annulus(0j, 0.5, 1.0)),
    Polygon: (("vertices",), SQUARE),
    UnionRegion: (("parts",), UnionRegion((Disc(0j, 1.0), SQUARE))),
    Constant: (("c",), Constant(2.0)),
    Power: (("k",), Power(2)),
    Chord: (("R",), Chord(1.0)),
    Weight: (("support", "density"), Weight(Disc(0j, 1.0), Chord(1.0))),
    LandauBasisSpec: (("q", "b0", "N"), LandauBasisSpec(1, 2.0, 6)),
    LevelBlock: (("stride", "classes"), LevelBlock(1, ())),
    CapacityEstimate: (("extrapolated", "error_bound", "panels", "values", "masses",
                        "region_key"),
                       CapacityEstimate(1.0, 0.0, (2, 4), (1.0, 1.0), (0.5, 0.5))),
}
MUTABLE = {
    _Rule: (("nodes", "steps", "design_degree", "stride", "fold", "turn"),
            _Rule([], [], -1, 1, 1, None)),
    MomentTable: (("maxdeg", "precision_bits", "scale_radius", "rows", "path",
                   "weight_key", "design_degree", "stride", "turn"), TABLE),
    ToeplitzSpectrum: (("log_eigs", "matrix_residual", "trusted_count", "eigen_solve",
                        "eigs"), ToeplitzSpectrum((), 0.0, 0, "diagonal", ())),
    MonicOrthoBasis: (("maxdeg", "log_norms", "source"), MonicOrthoBasis(4, [], TABLE)),
    RhoEstimate: (("sequence", "rho_plus_hat", "rho_minus_hat", "extrapolated", "window",
                   "weight_key"), RhoEstimate([], 1.0, 1.0, 1.0, (1, 4))),
    CheckResult: (("name", "passed", "measured", "expected"),
                  CheckResult("disc", True, "1.0", "1.0")),
}
RECORDS = {**FROZEN, **MUTABLE}


def _copy(rec, **changes):
    """A new record of rec's class from its fields, positionally."""
    values = {n: getattr(rec, n) for n in type(rec)._fields}
    values.update(changes)
    return type(rec)(*values.values())


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_fields_in_declaration_order(cls):
    names, rec = RECORDS[cls]
    assert cls._fields == names
    assert list(vars(rec)) == list(names)


def test_keyword_and_positional_construction_agree():
    assert Disc(center=1j, radius=2.0) == Disc(1j, radius=2.0) == Disc(1j, 2.0)
    assert Weight(density=Constant(), support=SQUARE) == Weight(SQUARE, Constant(1.0))
    est = CapacityEstimate(extrapolated=1.0, error_bound=0.0, panels=(2, 4),
                           values=(1.0, 1.0), masses=(0.5, 0.5), region_key="k")
    assert est == CapacityEstimate(1.0, 0.0, (2, 4), (1.0, 1.0), (0.5, 0.5), "k")
    assert est.region_key == "k"


def test_defaults():
    assert Constant().c == 1.0 and Constant() == Constant(1.0)
    assert MomentTable.stride == 1 and MomentTable.turn is None
    assert (TABLE.stride, TABLE.turn) == (1, None)
    assert MomentTable(4, 128, 1.0, [], "boundary", "k", 9, 4, 1j).stride == 4
    assert FROZEN[CapacityEstimate][1].region_key is None
    assert MUTABLE[RhoEstimate][1].weight_key is None
    assert RhoEstimate([], 1.0, 1.0, 1.0, (1, 4), weight_key="w").weight_key == "w"


@pytest.mark.parametrize("make", [
    lambda: Disc(0j),                                   # a field missing
    lambda: Disc(radius=1.0),
    lambda: Power(),
    lambda: Disc(0j, 1.0, colour="red"),                # an unknown keyword
    lambda: Constant(1.0, 2.0),                         # one argument too many
    lambda: Disc(0j, 1.0, center=0j),                   # a field given twice
    lambda: MomentTable(4, 128, 1.0, [], "radial", "k"),
])
def test_missing_unknown_or_repeated_fields_raise_type_error(make):
    with pytest.raises(TypeError):
        make()


def test_post_init_still_runs():
    with pytest.raises(ValueError, match="radius must be positive"):
        Disc(0j, -1.0)
    with pytest.raises(ValueError, match="positive"):
        Weight(SQUARE, Constant(0.0))
    with pytest.raises(ValueError):
        LandauBasisSpec(3, 2.0, 2)
    clockwise = Polygon((0j, 1j, 1 + 1j, 1 + 0j))
    assert clockwise.vertices == (1 + 0j, 1 + 1j, 1j, 0j)   # normalised counterclockwise
    assert Polygon([0, 1, 1j]).vertices == (0j, 1 + 0j, 1j)
    nested = UnionRegion((UnionRegion((Disc(0j, 1.0),)), SQUARE))
    assert nested.parts == (Disc(0j, 1.0), SQUARE)


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_frozen_records_compare_hash_and_refuse_assignment(cls):
    names, rec = FROZEN[cls]
    twin = _copy(rec)
    assert twin is not rec and twin == rec and not twin != rec
    assert hash(twin) == hash(rec) and len({rec, twin}) == 1
    assert rec != names and rec != None  # noqa: E711 - other types compare unequal
    for name in names:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
        with pytest.raises(FrozenRecordError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert _copy(rec) == rec


def test_frozen_records_differ_by_any_field():
    assert Disc(0j, 1.0) != Disc(0j, 2.0) and Disc(0j, 1.0) != Disc(1j, 1.0)
    assert Power(2) != Power(3) and Constant(1.0) != Chord(1.0)
    assert Annulus(0j, 0.5, 1.0) != Annulus(0j, 0.25, 1.0)
    assert issubclass(FrozenRecordError, AttributeError)


@pytest.mark.parametrize("cls", MUTABLE, ids=lambda c: c.__name__)
def test_mutable_records_are_unhashable_and_assignable(cls):
    names, rec = MUTABLE[cls]
    assert cls.__hash__ is None
    with pytest.raises(TypeError):
        hash(rec)
    twin = _copy(rec)
    assert twin == rec
    setattr(twin, names[0], "changed")
    assert getattr(twin, names[0]) == "changed" and twin != rec


def test_moment_table_fields_stay_assignable():
    table = MomentTable(4, 128, 1.0, [[1.0]], "radial", "k", -1, 6, 1)
    table.stride = 1
    table.turn = None
    assert (table.stride, table.turn) == (1, None)


def test_repr_names_the_fields():
    assert repr(Disc(0j, 1.0)) == "Disc(center=0j, radius=1.0)"
    assert repr(Constant()) == "Constant(c=1.0)"
    assert repr(CheckResult("disc", True, "1.0", "< 2")) == (
        "CheckResult(name='disc', passed=True, measured='1.0', expected='< 2')")
    assert repr(Weight(SQUARE, Power(1))) == (
        f"Weight(support={SQUARE!r}, density=Power(k=1))")


def test_command_line_imports_without_dataclasses():
    code = ("import sys\n"
            "import landaucap.cli\n"
            "assert 'dataclasses' not in sys.modules, 'dataclasses was imported'\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)
