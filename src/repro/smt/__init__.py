"""QF_BV SMT solver substrate (terms, bit-blasting, CDCL SAT, intervals).

The paper's system sits on an off-the-shelf SMT solver; this package is the
offline substitute (see DESIGN.md §2): a self-contained bitvector solver
with hash-consed terms, construction-time simplification, Tseitin
bit-blasting and a CDCL SAT core.
"""

from .terms import (  # noqa: F401
    FALSE,
    TRUE,
    SmtError,
    Term,
    TermPool,
    WidthError,
    add,
    and_,
    ashr,
    bv,
    concat,
    concat_many,
    configure,
    conjoin,
    disjoin,
    eq,
    evaluate,
    extract,
    get_pool,
    implies,
    is_false,
    is_true,
    ite,
    lshr,
    mask,
    mul,
    ne,
    neg,
    not_,
    or_,
    pool_stats,
    rotl,
    rotr,
    sdiv,
    set_pool,
    sext,
    sge,
    sgt,
    shl,
    sle,
    slt,
    srem,
    sub,
    term_size,
    to_signed,
    udiv,
    uge,
    ugt,
    ule,
    ult,
    urem,
    var,
    variables,
    xor,
    zext,
)
from .bitblast import BitBlaster  # noqa: F401
from .sat import SAT, UNSAT, SatSolver  # noqa: F401
from .solver import Solver, SolverStats  # noqa: F401
