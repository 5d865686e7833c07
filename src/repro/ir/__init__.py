"""Register-transfer IR: the retargeting interface between ADL and engines."""

from . import nodes  # noqa: F401
from .interp import MachineContext, Outcome, eval_expr, exec_block  # noqa: F401
from .printer import count_nodes, format_block, format_expr  # noqa: F401
from .validate import IrError, validate_block, validate_expr  # noqa: F401
