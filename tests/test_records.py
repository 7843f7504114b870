"""The contract every public record keeps: read-only fields, field order and
defaults, constructor checks, Step equality without the line number, the
Ledger sort and LinExpr arithmetic and order."""

import pytest

from blowdown import hirzebruch, homcalc, mcg, scenario, swledger as sw
from blowdown.swledger import Entry, LinExpr
from test_scenario import MINIMAL


def public_records():
    """One instance of each public record, built the way the package builds it."""
    steps = scenario.parse_scenario(MINIMAL, name="minimal")
    report = scenario.run_scenario(steps)
    cfg = homcalc.add_curve(homcalc.new_config("X", 4, 0, (), ("S",)),
                            homcalc.Curve("c", {"S": 1}))
    ledger = sw.knot_surgery_ledger([sw.alexander_twist()], label="E(2)_K")
    result = sw.rational_blowdown_ledger(ledger, (-4,), [(2,)], (True, True))
    twists = mcg.standard_factorizations()["I7"]
    return {  # name: (record, one of its fields)
        "LinExpr": (LinExpr(1, 2), "c0"),
        "Entry": (ledger.entries.base[0], "value"),
        "Ledger": (ledger, "entries"),
        "BlowdownResult": (result, "ledger"),
        "Curve": (cfg.curve("c"), "cls"),
        "CurveConfig": (cfg, "curves"),
        "Twist": (twists[0], "multiplicity"),
        "FibrationReport": (mcg.verify_fibration(twists, 12), "is_identity"),
        "ChainData": (hirzebruch.chain_data((-4,)), "target"),
        "Step": (steps.directives[0], "lineno"),
        "Scenario": (steps, "directives"),
        "Report": (report, "records"),
        "AssertionRecord": (report.records[0], "passed"),
    }


@pytest.mark.parametrize("name", sorted(public_records()))
def test_record_fields_are_read_only(name):
    record, field = public_records()[name]
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 0


# Field order and defaults, as the package declares them: `Entry(cls, *base[i][1:])`,
# `new_config` and the `_KINDS` entries build records by position.
FIELDS = {
    "LinExpr": (("c0", "c1"), {"c0": 0, "c1": 0}),
    "Entry": (("cls", "value", "square", "verified"), {"verified": True}),
    "Ledger": (("label", "e", "sigma", "basis", "entries"), {}),
    "BlowdownResult": (("ledger", "base_restrictions", "chambered"), {}),
    "Curve": (("name", "cls", "genus", "double_points"), {"genus": 0, "double_points": 0}),
    "CurveConfig": (("gram", "curves", "e", "sigma", "label", "flags"), {"flags": frozenset()}),
    "Twist": (("cycle", "conjugator", "multiplicity"), {"conjugator": (), "multiplicity": 1}),
    "FibrationReport": (("is_identity", "twist_count", "expected_twists", "cycles", "word"),
                        {"word": ()}),
    "ChainData": (("p", "q", "coeffs", "parity", "target"), {}),
    "Step": (("kind", "args", "lineno"), {"lineno": 0}),
    "Scenario": (("name", "directives"), {}),
    "Report": (("scenario", "records"), {}),
    "AssertionRecord": (("description", "expected", "actual", "passed"), {}),
}


@pytest.mark.parametrize("name", sorted(public_records()))
def test_record_fields_keep_their_order_and_defaults(name):
    record = type(public_records()[name][0])
    assert (record._fields, record._field_defaults) == FIELDS[name]


def test_step_equality_and_hash_ignore_the_line_number():
    a = scenario.Step("ambient", ("X", 4, 0, (), ("S",)), 1)
    b = scenario.Step("ambient", ("X", 4, 0, (), ("S",)), 7)
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != scenario.Step("ambient", ("Y", 4, 0, (), ("S",)), 1)


def test_twist_rejects_a_bad_cycle_or_multiplicity():
    with pytest.raises(ValueError, match="twist cycle must be 'a' or 'b', got 'c'"):
        mcg.Twist("c")
    with pytest.raises(ValueError, match="twist multiplicity must be >= 1"):
        mcg.Twist("a", (), 0)


def test_replace_goes_through_the_constructor_checks():
    twist = mcg.Twist("a")
    with pytest.raises(ValueError, match="twist multiplicity must be >= 1"):
        twist._replace(multiplicity=0)
    with pytest.raises(ValueError, match="twist cycle must be 'a' or 'b', got 'c'"):
        mcg.Twist._make(("c", (), 1))
    entries = [Entry((j,), LinExpr(j, 0), 0) for j in range(-3, 4)]
    ledger = sw.Ledger("L", 12, -8, ("T",), entries=entries[:1])._replace(entries=entries[::-1])
    assert isinstance(ledger.entries, sw.Entries) and list(ledger.entries) == entries


def test_ledger_sorts_written_out_entries():
    entries = [Entry((j,), LinExpr(j, 0), 0) for j in range(-3, 4)]
    ledger = sw.Ledger("L", 12, -8, ("T",), entries=list(reversed(entries)))
    assert ledger.entries.m == 0
    assert list(ledger.entries) == entries


def test_linexpr_order_and_sum():
    values = [LinExpr(1, 0), LinExpr(0, 5), LinExpr(1, -1), LinExpr(-2, 3)]
    assert sorted(values) == sorted(values, key=lambda v: (v.c0, v.c1))
    assert LinExpr(1, 2) + LinExpr(3, 4) == LinExpr(4, 6)
