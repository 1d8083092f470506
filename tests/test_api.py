"""The package's public names, and the test-only checks that left it."""

import dataclasses

import qshift
from qshift import cli, gf2poly, simulator, symplectic, synthesis

PUBLIC = [
    "CatastrophicCode", "D", "FiniteSection", "Gate", "LaurentPoly",
    "NotDualContaining", "ONE", "ParseError", "PauliStream", "Placement",
    "RationalTransfer", "ShiftRegisterCircuit", "StabilizerMatrix",
    "SympMatrix", "SynthesisError", "ZERO", "build_from_gate", "cascade",
    "circuit_from_text", "circuit_to_text", "circuit_transfer",
    "compile_sequence", "constraint_lengths", "css_encoder", "format_sequence",
    "gate_matrix", "identity_circuit", "impulse_response", "parse_gate",
    "parse_poly", "parse_sequence", "poly_divmod", "ratio",
    "recommended_horizon", "reduce_memory", "reset_state", "row_space_equiv",
    "run", "sequence_transfer", "series_expand", "smith_normal_form", "step",
    "typeII_memory_bound", "unencoded_stabilizer",
]

# names that only the tests read now live in tests/oracles.py; the others
# had no reader at all
GONE = [
    (gf2poly, "poly_gcd"),
    (symplectic, "lam"),
    (symplectic, "pairing"),
    (symplectic, "dual_containing"),
    (symplectic.SympMatrix, "is_symplectic"),
    (symplectic.SympMatrix, "transpose_subst_inv"),
    (symplectic.StabilizerMatrix, "commutation_ok"),
    (simulator, "symplectic_product"),
    (simulator.PauliStream, "frame"),
    (synthesis.SmithDecomposition, "a"),
    (synthesis.SmithDecomposition, "b"),
    (cli, "_load_circuit"),
]


def test_public_api():
    assert sorted(qshift.__all__) == PUBLIC
    for name in qshift.__all__:
        assert hasattr(qshift, name), name
    for owner, name in GONE:
        assert not hasattr(owner, name), f"{owner.__name__}.{name}"
        assert not hasattr(qshift, name), name
    # the Smith form keeps its column record only: no row_ops field
    assert [f.name for f in dataclasses.fields(synthesis.SmithDecomposition)] == ["s", "col_ops"]

