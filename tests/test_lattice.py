"""Lattice grammar: parsing, serialization, monitor splitting, segment plans."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polytrack.lattice import (LatticeError, Segment, parse_lattice, plan_segments,
                               serialize_lattice, split_at_monitors)

from conftest import (FODO12_TEXT, FODO_MONITORED_TEXT, LINEAR_RING_TEXT, SEXTUPOLE_RING_TEXT,
                      achromat_text, cell_ring_text, perfbench_lattices, resonant_ring_text,
                      transfer_line_text)


BASIC = "d1: drift, l=1.0;\nqf: quadrupole, l=0.5, k1=1.2;\nring: sequence = (qf, d1);"


def test_parse_basic():
    doc = parse_lattice(BASIC)
    assert set(doc.definitions) == {"d1", "qf"}
    assert doc.sequence == ["qf", "d1"]
    assert not doc.ring
    assert doc.total_length() == 1.5


def test_parse_ring_flag_and_comments():
    doc = parse_lattice("# a ring\nd: drift, l=2.0;\nr: sequence, ring=true = (d);")
    assert doc.ring and doc.name == "r"


def test_negative_length_cites_element_and_attribute():
    with pytest.raises(LatticeError) as exc:
        parse_lattice("qf: quadrupole, l=-1;")
    assert "qf" in str(exc.value) and "l" in str(exc.value)


def test_syntax_error_has_position():
    with pytest.raises(LatticeError) as exc:
        parse_lattice("d1: drift l=1.0;")
    assert exc.value.line == 1 and exc.value.col is not None


def test_unresolved_reference_names_identifier():
    with pytest.raises(LatticeError, match="nosuch"):
        parse_lattice("d: drift, l=1;\ns: sequence = (d, nosuch);")


def test_duplicate_names_rejected():
    with pytest.raises(LatticeError):
        parse_lattice("d: drift, l=1;\nd: drift, l=2;\ns: sequence = (d);")


def test_unknown_attribute_rejected():
    with pytest.raises(LatticeError):
        parse_lattice("d: drift, l=1, banana=3;\ns: sequence = (d);")


def test_unknown_kind_rejected():
    with pytest.raises(LatticeError):
        parse_lattice("w: wiggler, l=1;\ns: sequence = (w);")


def test_roundtrip_structural_equality():
    for text in (BASIC, FODO12_TEXT, FODO_MONITORED_TEXT):
        doc = parse_lattice(text)
        again = parse_lattice(serialize_lattice(doc))
        assert again.sequence == doc.sequence
        assert again.ring == doc.ring
        assert set(again.definitions) == set(doc.definitions)
        for name, spec in doc.definitions.items():
            other = again.definitions[name]
            assert other.kind == spec.kind
            assert other.length == spec.length
            assert other.k1 == spec.k1 and other.k2 == spec.k2


def test_roundtrip_is_idempotent():
    doc = parse_lattice(FODO12_TEXT)
    once = serialize_lattice(doc)
    twice = serialize_lattice(parse_lattice(once))
    assert once == twice


# -- monitor splitting -------------------------------------------------------

def test_split_monitor_at_drift_midpoint():
    text = "d: drift, l=2.0;\nm: monitor, at=1.0;\ns: sequence = (d, m);"
    doc = split_at_monitors(parse_lattice(text))
    lengths = [doc.definitions[n].length for n in doc.sequence]
    kinds = [doc.definitions[n].kind for n in doc.sequence]
    assert kinds == ["drift", "monitor", "drift"]
    assert lengths == [1.0, 0.0, 1.0]


def test_split_preserves_total_length():
    text = "d: drift, l=2.0;\nm: monitor, at=0.7;\ns: sequence = (d, m);"
    doc = parse_lattice(text)
    split = split_at_monitors(doc)
    assert abs(split.total_length() - doc.total_length()) <= 1e-15


def test_monitor_between_elements_is_unchanged():
    text = "d: drift, l=1.0;\nm: monitor;\ns: sequence = (d, m, d);"
    doc = split_at_monitors(parse_lattice(text))
    assert [doc.definitions[n].kind for n in doc.sequence] == \
        ["drift", "monitor", "drift"]
    assert doc.total_length() == 2.0


def test_monitor_offset_inside_non_drift_rejected():
    text = "q: quadrupole, l=1.0, k1=1.0;\nm: monitor, at=0.5;\ns: sequence = (q, m);"
    with pytest.raises(LatticeError):
        split_at_monitors(parse_lattice(text))


# -- segment planning --------------------------------------------------------

def test_fodo_per_element_has_12_segments():
    doc = split_at_monitors(parse_lattice(FODO12_TEXT))
    plan = plan_segments(doc, "per_element")
    assert len(plan) == 12


def test_minimal_ring_three_bpms_three_segments():
    text = ("d: drift, l=1.0;\nm1: monitor;\nm2: monitor;\nm3: monitor;\n"
            "r: sequence, ring=true = (d, m1, d, m2, d, m3);")
    plan = plan_segments(split_at_monitors(parse_lattice(text)), "minimal")
    assert len(plan) == 3
    assert all(s.tap for s in plan)
    assert [s.label for s in plan] == ["m1", "m2", "m3"]


def test_minimal_isolates_correctors():
    text = ("d: drift, l=1.0;\nc: hcorrector, kick=0.0;\nm: monitor;\n"
            "r: sequence = (d, c, d, m);")
    plan = plan_segments(split_at_monitors(parse_lattice(text)), "minimal")
    kinds = [s.kind for s in plan]
    assert kinds == ["map", "hcorrector", "map"]
    assert plan[1].trainable
    assert plan[-1].tap


def test_segments_cover_sequence_in_order():
    doc = split_at_monitors(parse_lattice(FODO_MONITORED_TEXT))
    for policy in ("minimal", "per_element"):
        plan = plan_segments(doc, policy)
        flattened = [n for s in plan for n in s.element_names]
        assert flattened == doc.sequence


def _reference_per_element(doc):
    """The separate per-element loop of `plan_segments` before both policies shared one walk."""
    segs = []
    for name in doc.sequence:
        spec = doc.definitions[name]
        seg = Segment([name], label=name)
        if spec.kind == "monitor":
            seg.tap = True
        elif spec.kind in ("hcorrector", "vcorrector"):
            seg.trainable = True
            seg.kind = spec.kind
        elif spec.parametric:
            seg.kind = "parametric"
        segs.append(seg)
    return segs


EVERY_KIND_TEXT = ("d: drift, l=1.0;\nq: quadrupole, l=0.5, k1=0.8, parametric=true;\n"
                   "hc: hcorrector;\nvc: vcorrector, kick=1e-4;\nmk: marker;\n"
                   "sx: sextupole, l=0.2, k2=2.0;\nb: sbend, l=1.0, angle=0.1;\n"
                   "m1: monitor, at=0.4;\nm2: monitor;\n"
                   "s: sequence = (q, d, m1, hc, vc, mk, sx, d, q, q, b, m2, d);")


def test_per_element_plan_equals_the_reference_loop():
    texts = [FODO12_TEXT, FODO_MONITORED_TEXT, SEXTUPOLE_RING_TEXT, LINEAR_RING_TEXT,
             resonant_ring_text(2.0), cell_ring_text(20, parametric_cell=7, detuned_cell=3),
             achromat_text({i: (-1) ** i * 1e-4 for i in range(1, 11)}),
             transfer_line_text(bad_dx=8e-3), EVERY_KIND_TEXT]
    for text in texts + [text for text, _ in perfbench_lattices()]:
        doc = split_at_monitors(parse_lattice(text))
        assert plan_segments(doc, "per_element") == _reference_per_element(doc)


# -- fuzzing ------------------------------------------------------------------

@given(data=st.text(alphabet="dqmslk:;,=()0123456789.-+e \n#_", max_size=200))
@settings(max_examples=300, deadline=None)
def test_parser_total_on_fuzzed_text(data):
    try:
        parse_lattice(data)
    except LatticeError:
        pass  # positioned error is the contract; crashes are not


def test_parser_total_on_mutated_valid_text(rng):
    base = FODO_MONITORED_TEXT
    for _ in range(500):
        chars = list(base)
        for _ in range(rng.integers(1, 6)):
            op = rng.integers(3)
            pos = int(rng.integers(len(chars))) if chars else 0
            if op == 0 and chars:
                del chars[pos]
            elif op == 1:
                chars.insert(pos, chr(rng.integers(32, 127)))
            elif chars:
                chars[pos] = chr(rng.integers(32, 127))
        try:
            parse_lattice("".join(chars))
        except LatticeError:
            pass
