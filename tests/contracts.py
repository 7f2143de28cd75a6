"""Generated contract descriptions for the static core's property tests.

A contract is a tuple of ``Function``s. Each sentence is kept as a template
and the names that fill its ``{}`` slots, apart from the text, so a test can
lay the same contract out differently, or rename one name in one function,
and know exactly what each text becomes.
"""

from __future__ import annotations

from typing import NamedTuple

from hypothesis import strategies as st

PARAMETERS = ("x", "y", "amt", "p1")  # shared by functions, so scopes must keep them apart
LOCALS = ("t", "u")
STORAGE = ("stor_1", "stor_2")
GLOBALS = STORAGE + ("caller", "msg.sender", "msg.value")  # the last three are ingress
LITERALS = ("0", "7", "0x1234")
CALLEES = ("stor_5.flashLoan", "token.transfer", "oracle.price", "withdraw")
INERT_CALLEES = ("oracle.price",)  # no fund-moving operation
CONDITIONS = ("when ({} > 0)", "if ({} == caller)", "it is required that ({} != 0)")


class Sentence(NamedTuple):
    depth: int
    template: str
    names: tuple[str, ...]


class Function(NamedTuple):
    name: str
    parameters: tuple[str, ...]
    sentences: tuple[Sentence, ...]

    def text(self, renamed: dict[str, str] | None = None) -> str:
        """The function in flat text, with each name in ``renamed`` replaced
        wherever it fills a slot or names a parameter."""
        rename = (renamed or {}).get
        params = ", ".join(rename(p, p) for p in self.parameters)
        lines = [f"function {self.name}({params}):"]
        for depth, template, names in self.sentences:
            lines.append("  " * depth + template.format(*(rename(n, n) for n in names)))
        return "\n".join(lines) + "\n"


def flat_text(functions, renamed_in: str | None = None, renamed=None) -> str:
    """The contract in flat text; ``renamed`` applies in the function named
    ``renamed_in`` only, or in every function when that is None."""
    return "".join(f.text(renamed if renamed_in in (None, f.name) else None) for f in functions)


def _call(callee: str, arity: int) -> str:
    return f"it triggers the external call to {callee}({', '.join(['{}'] * arity)})"


def _sentences(names, inert=False):
    """(template, names) of one sentence, its slots drawn from ``names``, or
    from literals where the grammar allows any mention. An ``inert``
    sentence moves no funds, calls no fund-moving operation and writes no
    global."""
    mentions = st.sampled_from(names) | st.sampled_from(LITERALS)
    written = [n for n in names if n not in GLOBALS] if inert else names

    def words(pool):
        # an assignment's destination is one word, which "call value" is not
        return st.sampled_from([n for n in pool if " " not in n]) | st.sampled_from(LITERALS)

    kinds = [
        st.tuples(st.sampled_from(CONDITIONS), st.tuples(mentions)),
        st.tuples(
            st.just("it updates the state variable {} to {}"),
            st.tuples(words(written), mentions),
        ),
        st.integers(0, 3).flatmap(
            lambda arity: st.tuples(
                st.sampled_from(INERT_CALLEES if inert else CALLEES).map(
                    lambda callee: _call(callee, arity)
                ),
                st.tuples(*[mentions] * arity),
            )
        ),
        st.tuples(
            st.just(
                "it creates a new smart contract with creation code {} and salt {}, "
                "and gets a new address {}"
            ),
            st.tuples(words(names), words(names), words(written)),
        ),
        st.tuples(st.just("it returns {}"), st.tuples(mentions)),
    ]
    if not inert:
        transfer = st.tuples(st.just("it transfers {} wei to {}"), st.tuples(mentions, mentions))
        kinds.insert(2, transfer)
    return st.one_of(kinds)


@st.composite
def _function(
    draw, name: str, max_sentences: int, inert: bool = False, ingress: bool = True
) -> Function:
    if ingress:
        parameters = tuple(draw(st.lists(st.sampled_from(PARAMETERS), unique=True, max_size=3)))
        pairs = _sentences(parameters + LOCALS + GLOBALS, inert)
    else:
        parameters, pairs = (), _sentences(LOCALS + STORAGE, inert)
    sentences, depth = [], -1
    for _ in range(draw(st.integers(0, max_sentences))):
        # at most one level deeper than the sentence before, so nesting is well formed
        depth = min(draw(st.integers(0, 4)), depth + 1)
        template, names = draw(pairs)
        sentences.append(Sentence(depth, template, names))
    return Function(name, parameters, tuple(sentences))


@st.composite
def contracts(draw, max_functions: int = 4, max_sentences: int = 10) -> tuple[Function, ...]:
    """Functions ``f0``, ``f1``, ... in that order."""
    count = draw(st.integers(1, max_functions))
    return tuple(draw(_function(f"f{i}", max_sentences)) for i in range(count))


def inert_function(name: str, max_sentences: int = 10):
    """A function with no route to egress: it moves no funds, calls no
    fund-moving operation and writes no storage, so a flow that enters it
    stays in its own scope. It may read any global."""
    return _function(name, max_sentences, inert=True)


def no_ingress_function(name: str, max_sentences: int = 10):
    """A function with no ingress: it has no parameters and mentions no
    transaction field. It may read and write storage, and call fund-moving
    operations."""
    return _function(name, max_sentences, ingress=False)


def overload(function: Function, max_sentences: int = 10):
    """A function that shares ``function``'s name, with other parameters."""
    return _function(function.name, max_sentences).filter(
        lambda f: f.parameters != function.parameters
    )
