"""Seeded synthetic contract descriptions in the flat-text encoding.

Every contract is drawn from ``random.Random`` seeded with a string built from
the workload, the seed and the contract index, so the same arguments give
byte-identical text in any process and a different seed gives different text.

Sentences follow the lifter's template grammar: assignments, external calls
to egress and non-egress targets, transfers, log emissions, returns,
built-in calls, and ``when`` / ``if`` / ``it is required that`` conditions
nested up to ``MAX_DEPTH``. Adversarial contracts carry one function gated on
a hardcoded ``tx.origin`` hash, which is what the scripted model keys on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ADVERSARIAL = "adversarial"
BENIGN = "benign"

MAX_DEPTH = 6

# the marker the scripted model looks for: an origin check on a hardcoded hash
ORIGIN_GATE = "it is required that (0x268d...4080 == sha3(tx.origin))"

EGRESS_TARGETS = (
    "transfer",
    "transferFrom",
    "approve",
    "deposit",
    "withdraw",
    "flashLoan",
    "swapExactTokensForTokens",
)
OTHER_TARGETS = ("getReserves", "balanceOf", "decimals", "sync", "token0", "price")
VERBS = ("set", "update", "claim", "sweep", "rebase", "skim", "sync", "collect")
NOUNS = ("Fee", "Owner", "Limit", "Reward", "Pool", "Rate", "Vault", "Router")
COMPARATORS = ("==", "!=", ">", "<", ">=")

# ERC-20 style functions copied verbatim into batch contracts, so that their
# stage-I prompts repeat across contracts
BOILERPLATE = {
    "balanceOf": """\
function balanceOf(param1):
it is required that the 1st call argument is a valid address
it returns stor_balances
""",
    "totalSupply": """\
function totalSupply():
it returns stor_supply
""",
    "allowance": """\
function allowance(param1, param2):
it is required that the 1st call argument is a valid address
it is required that the 2nd call argument is a valid address
it returns stor_allowances
""",
    "transfer": """\
function transfer(param1, param2):
it is required that the 1st call argument is a valid address
it is required that (stor_balances >= param2)
  it updates the state variable stor_balances to param2
  it updates the state variable stor_last to param1
  when (stor_fee > 0)
    it updates the state variable stor_fees to param2
    it emits the log event with parameter(s) param1, stor_fees
  it emits the log event with parameter(s) caller, param1, param2
  it returns 1
""",
    "approve": """\
function approve(param1, param2):
it is required that the 1st call argument is a valid address
it updates the state variable stor_allowances to param2
it emits the log event with parameter(s) caller, param1, param2
it returns 1
""",
    "transferFrom": """\
function transferFrom(param1, param2, param3):
it is required that the 1st call argument is a valid address
it is required that the 2nd call argument is a valid address
it is required that (stor_allowances >= param3)
  it updates the state variable stor_allowances to param3
  it is required that (stor_balances >= param3)
    it updates the state variable stor_balances to param3
    it emits the log event with parameter(s) param1, param2, param3
    it returns 1
""",
    "addBot": """\
function addBot(param1):
it is required that (caller == stor_owner)
  it updates the state variable stor_bots to param1
""",
    "delBot": """\
function delBot(param1):
it is required that (caller == stor_owner)
  it updates the state variable stor_bots to 0
""",
    "renounceOwnership": """\
function renounceOwnership():
it is required that (caller == stor_owner)
  it updates the state variable stor_owner to 0
  it emits the log event with parameter(s) caller, 0
""",
    "withdrawFees": """\
function withdrawFees():
it is required that (caller == stor_owner)
  it transfers stor_fees wei to caller
  it updates the state variable stor_fees to 0
""",
}


@dataclass(frozen=True)
class ContractSpec:
    """Shape of one workload's contracts."""

    functions: int
    sentences: int  # mean sentences per generated function
    storage: int  # storage slots shared by the contract's functions
    boilerplate: int = 0  # functions copied from BOILERPLATE


@dataclass(frozen=True)
class Contract:
    contract_id: str
    label: str
    text: str


class _FunctionWriter:
    def __init__(self, rng: random.Random, storage: int, params: list[str]):
        self.rng = rng
        self.storage = [f"stor_{i}" for i in range(storage)]
        self.params = params
        self.locals: list[str] = []
        self.lines: list[str] = []

    def mention(self) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.35 and self.params:
            return rng.choice(self.params)
        if roll < 0.70:
            return rng.choice(self.storage)
        if roll < 0.82 and self.locals:
            return rng.choice(self.locals)
        if roll < 0.90:
            return rng.choice(("caller", "call value"))
        return str(rng.randrange(1, 10**6))

    def condition(self) -> str:
        rng = self.rng
        prefix = rng.choice(("when", "if", "it is required that"))
        return f"{prefix} ({self.mention()} {rng.choice(COMPARATORS)} {self.mention()})"

    def behavior(self) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.40:
            if rng.random() < 0.7:
                target = rng.choice(self.storage)
            else:
                target = f"var{len(self.locals)}"
                self.locals.append(target)
            return f"it updates the state variable {target} to {self.mention()}"
        if roll < 0.60:
            pool = EGRESS_TARGETS if rng.random() < 0.6 else OTHER_TARGETS
            args = ", ".join(self.mention() for _ in range(rng.randint(1, 3)))
            return (
                f"it triggers the external call to "
                f"{rng.choice(self.storage)}.{rng.choice(pool)}({args})"
            )
        if roll < 0.70:
            return f"it transfers {self.mention()} wei to {self.mention()}"
        if roll < 0.82:
            args = ", ".join(self.mention() for _ in range(rng.randint(1, 3)))
            return f"it emits the log event with parameter(s) {args}"
        if roll < 0.90:
            return f"it calls a built-in function sha3({self.mention()})"
        return f"it returns {self.mention()}"

    def body(self, sentences: int, depth: int = 0) -> None:
        """Emit sentences; a condition's body is the following deeper block."""
        rng = self.rng
        while sentences > 0:
            if depth < MAX_DEPTH and sentences > 1 and rng.random() < 0.3:
                self.lines.append("  " * depth + self.condition())
                inner = min(sentences - 1, rng.randint(1, 6))
                self.body(inner, depth + 1)
                sentences -= inner + 1
            else:
                self.lines.append("  " * depth + self.behavior())
                sentences -= 1


def _function_name(rng: random.Random, index: int, unknown: bool) -> str:
    tag = f"{rng.getrandbits(32):08x}{index:02x}"  # the index keeps names unique
    roll = rng.random()
    if unknown or roll < 0.25:
        return f"unknown{tag}"
    if roll < 0.35:
        return f"{rng.choice(('add', 'del', 'is'))}Bot_{tag}"
    return f"{rng.choice(VERBS)}{rng.choice(NOUNS)}{index}_{tag}"


def _generated_function(
    rng: random.Random, name: str, sentences: int, storage: int, gated: bool
) -> str:
    params = [f"param{i}" for i in range(1, rng.randint(1, 3) + 1)]
    writer = _FunctionWriter(rng, storage, params)
    if gated:
        # the adversarial gate guards a flash loan fed by the first parameter
        writer.lines.append(ORIGIN_GATE)
        writer.lines.append(
            "  it triggers the external call to stor_0.flashLoan(param1)"
        )
        sentences -= 2
    writer.body(max(1, sentences))
    return f"function {name}({', '.join(params)}):\n" + "\n".join(writer.lines) + "\n"


def generate(workload: str, seed: int, index: int, spec: ContractSpec) -> Contract:
    """Contract ``index`` of a workload's input stream for ``seed``."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    label = ADVERSARIAL if rng.random() < 0.5 else BENIGN
    contract_id = f"{workload}_{seed}_{index:05d}"
    generated = spec.functions - spec.boilerplate
    gate_at = rng.randrange(generated) if label == ADVERSARIAL else -1

    blocks = [BOILERPLATE[name] for name in rng.sample(sorted(BOILERPLATE), spec.boilerplate)]
    for i in range(generated):
        name = _function_name(rng, i, unknown=i == gate_at)
        sentences = rng.randint(spec.sentences // 2, spec.sentences * 3 // 2)
        blocks.append(
            _generated_function(rng, name, sentences, spec.storage, i == gate_at)
        )
    rng.shuffle(blocks)
    return Contract(contract_id, label, "".join(blocks))
