"""`PolynomialSystem.to_json` writes the bytes of `json.dumps(to_dict(), indent=2)`.

The oracle is the standard library's indenting encoder itself; every
finite system must also read back through `from_json` to the same values.
"""

import json
import math
from pathlib import Path

import pytest

from ccroots.ccpoly import Polynomial, PolynomialSystem, cc_system_for_rank, quadratize
from ccroots.excitations import full_rank
from ccroots.model import load_integrals

MODELS_DIR = Path(__file__).resolve().parents[1] / "demos" / "models"


def assert_writes_json_dumps(system, round_trip=True):
    text = system.to_json()
    assert text == json.dumps(system.to_dict(), indent=2)
    if round_trip:
        # equal values: the reader sums each term from 0j, so -0.0 reads back as 0.0
        assert PolynomialSystem.from_json(text).to_dict() == json.loads(text)
    return text


@pytest.mark.parametrize("name", ["hubbard_dimer.ints", "pairing_2level.ints"])
def test_cc_and_quadratized_systems_on_bundled_integrals(name):
    model = load_integrals(MODELS_DIR / name)
    cc = cc_system_for_rank(model, full_rank(model))
    assert set(cc.graph.rank_counts()) == {1, 2}
    assert_writes_json_dumps(cc.polynomials)
    assert_writes_json_dumps(quadratize(cc))


def test_special_floats_and_constant_terms():
    eq = Polynomial({(): complex(-0.0, 5e-324),          # the constant term writes {}
                     ((0, 1),): complex(1e300, -0.0),
                     ((0, 2), (1, 1)): complex(3.0, 2.0),
                     ((1, 3),): complex(-1e-300, 1e16),
                     ((0, 1), (1, 1)): 7 + 0j})
    system = PolynomialSystem([eq, Polynomial({(): 1.0 + 0j})], ["a", "b"],
                              {"note": "x", "scale": 2.5})
    text = assert_writes_json_dumps(system)
    assert "-0.0" in text and "5e-324" in text and "1e+300" in text
    assert '        {}\n' in text


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_coefficients_fall_back_to_the_encoder(value):
    system = PolynomialSystem([Polynomial({((0, 1),): complex(value, 1.0),
                                           (): complex(0.0, value)})], ["x"])
    text = assert_writes_json_dumps(system, round_trip=False)
    # the reader refuses non-finite coefficients, as before
    with pytest.raises(ValueError, match="non-finite coefficient"):
        PolynomialSystem.from_json(text)


def test_variable_names_are_escaped_as_the_encoder_does():
    names = ['q"uote', "back\\slash", "é∂λ", "tab\tnew\nline", "😀"]
    eq = Polynomial({tuple((v, 1) for v in range(len(names))): 1.5 + 0j})
    system = PolynomialSystem([eq] * len(names), names, {names[2]: names[4]})
    assert_writes_json_dumps(system)


def test_empty_equation_and_empty_metadata():
    assert_writes_json_dumps(PolynomialSystem([Polynomial(), Polynomial({(): 2.0 + 0j})],
                                              ["x", "y"]))
    assert_writes_json_dumps(PolynomialSystem([], [], {}))
