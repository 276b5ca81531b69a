"""Exact column-stabilizer toolkit for 3x3 matrix groups over polynomial and
Laurent polynomial rings."""

from .matrix import (
    Mat,
    NotAUnitError,
    ShapeError,
    identity,
    mat_from_document,
    mat_to_document,
    promote,
    transvection,
)
from .ring import (
    CAdicDecomposition,
    Coeff,
    ColstabError,
    DescriptorMismatchError,
    ExponentRangeError,
    Mode,
    NotDivisibleError,
    NotInIdealError,
    ParseError,
    RingDescriptor,
    RingElement,
    c_adic_decompose,
    delta_split_linear,
    delta_split_quadratic,
    format_element,
    in_delta,
    parse_element,
)
from .stab import (
    CongruenceMatrix,
    NotInSchemeError,
    NotStabilizingError,
    PreimageReport,
    RelationFailedError,
    ResidueQuadruple,
    StabMatrix,
    annihilator_block,
    check_stab,
    column,
    compose_residues,
    in_H,
    in_scheme,
    preimage,
    r_decompose,
    reduce,
    residues,
    residues_closed_form,
    rho,
)
from .tame import (
    Letter,
    NotInStab2Error,
    TameWord,
    cohn_matrix,
    eval_word,
    gen_S,
    gen_T,
    prop2_check,
    sample_tame,
    stab2,
    stab2_param,
)

__version__ = "0.1.0"
