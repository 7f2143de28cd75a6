"""Contract-level structural indicators for the general-purpose analysis.

Counts and ratios summarizing external-call usage, unnamed functions, and
bot-management functions, plus whether unnamed functions move funds. Ratios
use the only denominators derivable from the forest: behavior-node count for
calls, function count for function-level ratios, and 0 when the denominator
is 0.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from . import behavior as bh
from .forest import BEHAVIOR, ContractForest
from .reachability import egress_label

_CALL_KINDS = (bh.EXTERNAL_CALL, bh.DELEGATE_CALL)
_TRANSFER_SEGMENTS = frozenset({"transfer", "transferfrom"})


@dataclass(frozen=True)
class Indicators:
    external_call_count: int
    external_call_ratio: float
    unknown_fn_count: int
    unknown_fn_ratio: float
    bot_fn_count: int
    bot_fn_ratio: float
    transfers_in_unknown_fns: bool

    def to_json(self) -> dict:
        return asdict(self)


def is_unknown_function(name: str) -> bool:
    return name.startswith("unknown")


def is_bot_function(name: str) -> bool:
    return "bot" in name.lower()


def _moves_funds(node) -> bool:
    """Whether a behavior node moves funds; its ``behavior`` is set."""
    parsed = node.behavior
    if parsed.kind == bh.TRANSFER:
        return True
    if parsed.kind in _CALL_KINDS:
        return egress_label(parsed.fields["callee"]) in _TRANSFER_SEGMENTS
    return False


def compute_indicators(forest: ContractForest) -> Indicators:
    behavior_nodes = forest.behavior_nodes()
    external_calls = [n for n in behavior_nodes if n.behavior.kind in _CALL_KINDS]

    function_names = [chunk.name for chunk in forest.functions]
    unknown_fns = [n for n in function_names if is_unknown_function(n)]
    bot_fns = [n for n in function_names if is_bot_function(n)]

    transfers_in_unknown = False
    for root_id, name in zip(forest.roots, function_names):
        if not is_unknown_function(name):
            continue
        for node in forest.iter_tree(root_id):
            if node.kind == BEHAVIOR and _moves_funds(node):
                transfers_in_unknown = True
                break
        if transfers_in_unknown:
            break

    n_behaviors = len(behavior_nodes)
    n_functions = len(function_names)
    return Indicators(
        external_call_count=len(external_calls),
        external_call_ratio=len(external_calls) / n_behaviors if n_behaviors else 0.0,
        unknown_fn_count=len(unknown_fns),
        unknown_fn_ratio=len(unknown_fns) / n_functions if n_functions else 0.0,
        bot_fn_count=len(bot_fns),
        bot_fn_ratio=len(bot_fns) / n_functions if n_functions else 0.0,
        transfers_in_unknown_fns=transfers_in_unknown,
    )
