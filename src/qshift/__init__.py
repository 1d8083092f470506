"""Quantum shift register circuits for quantum convolutional codes.

Exact GF(2)[D, D^-1] transfer algebra, closed-form symplectic matrices
for the shift-invariant Clifford gates, a clocked bit-exact simulator,
CSS encoder synthesis via Smith decomposition, and a memory-reduction
pass that commutes gates through memory.
"""

from .gf2poly import (
    D,
    LaurentPoly,
    ONE,
    ParseError,
    RationalTransfer,
    ZERO,
    parse_poly,
    poly_divmod,
    poly_gcd,
    ratio,
    series_expand,
)
from .symplectic import (
    Gate,
    StabilizerMatrix,
    SympMatrix,
    dual_containing,
    gate_matrix,
    lam,
    parse_gate,
    row_space_equiv,
)
from .circuit import (
    FeedbackNode,
    FiniteSection,
    Placement,
    ShiftRegisterCircuit,
    build_from_gate,
    cascade,
    circuit_from_text,
    circuit_to_text,
    circuit_transfer,
    identity_circuit,
)
from .simulator import (
    PauliStream,
    SimState,
    impulse_response,
    recommended_horizon,
    reset_state,
    run,
    step,
    symplectic_product,
)
from .synthesis import (
    CatastrophicCode,
    ElemOp,
    EncoderPlan,
    NotDualContaining,
    SmithDecomposition,
    SynthesisError,
    compile_sequence,
    constraint_lengths,
    css_encoder,
    format_sequence,
    parse_sequence,
    reduce_memory,
    sequence_transfer,
    smith_normal_form,
    typeII_memory_bound,
    unencoded_stabilizer,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
