"""Query executors: JIT (generated code) and static (interpreted)."""

from .engine import JITExecutor
from .runtime import ExecStats, QueryRuntime
from .static_engine import StaticExecutor, eval_expr

__all__ = ["ExecStats", "JITExecutor", "QueryRuntime", "StaticExecutor",
           "eval_expr"]
