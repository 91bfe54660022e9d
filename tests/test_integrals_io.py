"""Plain-text integral files: round trips and diagnostics."""

import numpy as np
import pytest

from ccroots.model import (
    IntegralFormatError,
    _h1_key,
    _h2_key,
    assemble_hamiltonian,
    build_hubbard,
    build_pairing,
    load_integrals,
    save_integrals,
)


def h1_element(table, p, q):
    """h1[p, q] through the table's symmetry folding; 0 where absent."""
    return table.h1.get(_h1_key(p, q), 0.0)


def h2_element(table, p, q, r, s):
    """(pq|rs) through the table's symmetry folding; 0 where absent."""
    return table.h2.get(_h2_key(p, q, r, s), 0.0)


def test_roundtrip_pairing(tmp_path):
    model = build_pairing(4, 1.0 / 3.0, 0.3333333333333333, 2)
    path = tmp_path / "pairing.ints"
    save_integrals(model, path)
    again = load_integrals(path)
    assert again.n_up == 2 and again.n_dn == 2
    assert again.reference == model.reference
    assert again.integrals.h1 == model.integrals.h1      # 17 digits: exact
    assert again.integrals.h2 == model.integrals.h2
    np.testing.assert_allclose(assemble_hamiltonian(again).toarray(),
                               assemble_hamiltonian(model).toarray(), atol=0)


def test_roundtrip_hubbard_with_core(tmp_path):
    model = build_hubbard(3, 1.0, 4.0, 2, 1)
    model = type(model)(
        type(model.integrals)(model.integrals.n_spatial, model.integrals.h1,
                              model.integrals.h2, core_energy=-0.725),
        model.n_up, model.n_dn, model.reference, label=model.label)
    path = tmp_path / "hub.ints"
    save_integrals(model, path)
    again = load_integrals(path)
    assert again.integrals.core_energy == -0.725
    h = assemble_hamiltonian(again).toarray()
    np.testing.assert_allclose(np.diag(h).real.min(), np.diag(
        assemble_hamiltonian(model).toarray()).real.min(), atol=0)


def test_sector_override_on_load(tmp_path):
    model = build_hubbard(2, 1.0, 4.0, 1, 1)
    path = tmp_path / "dimer.ints"
    save_integrals(model, path)
    other = load_integrals(path, n_up=2, n_dn=0)
    assert (other.n_up, other.n_dn) == (2, 0)
    assert other.reference == 0b0101  # both up electrons


def test_comments_and_blank_lines(tmp_path):
    path = tmp_path / "f.ints"
    path.write_text(
        "# a comment\n"
        "\n"
        "norb=2 nup=1 ndn=1 core=0.5\n"
        "  # indented comment\n"
        "-1 1 2 0 0   # hopping\n"
        "4 1 1 1 1\n")
    model = load_integrals(path)
    assert h1_element(model.integrals, 0, 1) == -1.0
    assert h2_element(model.integrals, 0, 0, 0, 0) == 4.0
    assert model.integrals.core_energy == 0.5


def test_one_electron_marker_rows(tmp_path):
    # 'v p q 0 0' is one-electron; anything else is (pq|rs)
    path = tmp_path / "f.ints"
    path.write_text("norb=2 nup=1 ndn=1 core=0\n0.25 1 2 1 2\n")
    model = load_integrals(path)
    assert model.integrals.h1 == {}
    assert h2_element(model.integrals, 0, 1, 0, 1) == 0.25


@pytest.mark.parametrize("body, lineno", [
    ("nonsense\n", 1),
    ("norb=2 nup=1 ndn=1 core=0\n1.0 1 2 0\n", 2),
    ("norb=2 nup=1 ndn=1 core=0\n\n1.0 one 2 0 0\n", 3),
    ("norb=2 nup=1 ndn=1 core=0\n1.0 0 2 0 0\n", 2),
    ("norb=2 nup=1 ndn=1 core=0\n1.0 1 2 3 0\n", 2),
])
def test_parse_errors_carry_line_numbers(tmp_path, body, lineno):
    path = tmp_path / "bad.ints"
    path.write_text(body)
    with pytest.raises(IntegralFormatError) as err:
        load_integrals(path)
    assert f":{lineno}:" in str(err.value)


def test_empty_file(tmp_path):
    path = tmp_path / "empty.ints"
    path.write_text("# nothing here\n")
    with pytest.raises(IntegralFormatError):
        load_integrals(path)


def test_out_of_range_orbital(tmp_path):
    path = tmp_path / "range.ints"
    path.write_text("norb=2 nup=1 ndn=1 core=0\n1.0 1 3 0 0\n")
    with pytest.raises(Exception) as err:
        load_integrals(path)
    assert "range.ints" in str(err.value)


@pytest.mark.parametrize("body", [
    "norb=2 nup=1 ndn=1 core=0\nnan 1 2 0 0\n",
    "norb=2 nup=1 ndn=1 core=inf\n1.0 1 2 0 0\n",
], ids=["entry-nan", "core-inf"])
def test_non_finite_integral_rejected_with_path(tmp_path, body):
    path = tmp_path / "nan.ints"
    path.write_text(body)
    with pytest.raises(ValueError, match="not finite") as err:
        load_integrals(path)
    assert "nan.ints" in str(err.value)
