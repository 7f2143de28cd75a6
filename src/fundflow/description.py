"""Semi-structured contract descriptions and the function-level chunker.

A contract description is an ordered list of function chunks, each holding
the sentences of that function's natural-language description together with
an integer nesting depth. Two input encodings are supported: a canonical
JSON document and a flat-text form where depth is carried by 2-space
indentation.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring
from typing import NamedTuple

from .errors import InvalidDescription, NoFunctionsFound

INDENT_WIDTH = 2

# a signature: an identifier, then one parenthesised parameter list
_SIGNATURE_RE = re.compile(r"([A-Za-z_]\w*)\s*\([^)]*\)")


def parse_signature(text: str) -> str | None:
    """``text`` as a normalised signature, ``"name(a, b)"``, or None unless
    it is one line that, stripped, matches ``_SIGNATURE_RE``. Both encodings
    read a signature through this rule, so each can express every signature
    the other accepts."""
    match = text.splitlines() == [text] and _SIGNATURE_RE.fullmatch(text.strip())
    if not match:
        return None
    return "%s(%s)" % (match.group(1), ", ".join(split_signature(match.group())[1]))


def split_signature(signature: str) -> tuple[str, tuple[str, ...]]:
    """``"name(a, b)"`` -> ``("name", ("a", "b"))``; blank parameters drop out."""
    name, _, rest = signature.partition("(")
    inner = rest.rsplit(")", 1)[0]
    return name, tuple([p for p in map(str.strip, inner.split(",")) if p])


class Sentence(NamedTuple):
    text: str
    depth: int


@dataclass(frozen=True)
class FunctionChunk:
    """One function's description: signature plus ordered, depth-tagged sentences."""

    signature: str
    sentences: tuple[Sentence, ...]

    @cached_property
    def name(self) -> str:
        return split_signature(self.signature)[0]

    @cached_property
    def parameters(self) -> tuple[str, ...]:
        return split_signature(self.signature)[1]


def function_scopes(functions: list[FunctionChunk]) -> list[str]:
    """Each function's scope for its locals and operations: its name, or its
    whole signature when another function of the contract shares the name."""
    counts = Counter(chunk.name for chunk in functions)
    return [chunk.signature if counts[chunk.name] > 1 else chunk.name for chunk in functions]


@dataclass
class ContractDescription:
    """A contract id plus its per-function chunks, each signature normalised
    by ``parse_signature``, so every function has a name that scopes its
    locals."""

    contract_id: str
    functions: list[FunctionChunk]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for chunk in self.functions:
            if parse_signature(chunk.signature) != chunk.signature:
                raise InvalidDescription(f"signature {chunk.signature!r} is not 'name(a, b)'")
            if chunk.signature in seen:
                raise InvalidDescription(f"duplicate function signature {chunk.signature!r}")
            seen.add(chunk.signature)


def chunk_flat_text(text: str, contract_id: str = "contract") -> ContractDescription:
    """Split flat text into function chunks, inferring depth from indentation.

    Raises NoFunctionsFound when no line matches ``function <name>(<params>):``,
    and InvalidDescription for a sentence indented with anything but spaces,
    or by a number of spaces that is not a multiple of INDENT_WIDTH.
    """
    if not text.strip():
        raise NoFunctionsFound("empty description text")

    chunks: list[tuple[str, list[Sentence]]] = []  # (signature, sentences)
    sentences: list[Sentence] | None = None  # of the last header's function
    new_sentence = tuple.__new__  # as Sentence(text, depth), without its Python-level __new__
    for lineno, line in enumerate(text.splitlines(), start=1):
        content = line.strip()
        if not content:
            continue
        # a header: "function", whitespace, a signature and a colon
        signature = (
            content.startswith("function")
            and content.endswith(":")
            and content[8].isspace()
            and parse_signature(content[8:-1])
        )
        if signature:
            sentences = []
            chunks.append((signature, sentences))
            continue
        if sentences is None:  # a line before the first header
            continue
        stripped = line.lstrip(" ")
        if stripped[0].isspace():
            raise InvalidDescription(
                f"line {lineno}: indentation must be spaces, not {stripped[0]!r}"
            )
        indent = len(line) - len(stripped)
        if indent % INDENT_WIDTH:
            raise InvalidDescription(
                f"line {lineno}: indentation of {indent} spaces is not "
                f"a multiple of {INDENT_WIDTH}"
            )
        # stripped starts with no whitespace, so its text is the content
        sentences.append(new_sentence(Sentence, (content, indent // INDENT_WIDTH)))

    if not chunks:
        raise NoFunctionsFound("no 'function <name>(<params>):' header line found")

    functions = [FunctionChunk(sig, tuple(sentences)) for sig, sentences in chunks]
    return ContractDescription(contract_id, functions)


def render_function(chunk: FunctionChunk) -> str:
    """One function in the flat-text encoding, every line ending in a newline."""
    lines = [f"function {chunk.signature}:"]
    lines += [" " * (INDENT_WIDTH * depth) + text for text, depth in chunk.sentences]
    lines.append("")
    return "\n".join(lines)


def render_flat_text(desc: ContractDescription) -> str:
    """Render a description back to the flat-text encoding: its functions'
    texts in order, or a newline when there are none."""
    return "".join(map(render_function, desc.functions)) or "\n"


def _require_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise InvalidDescription(f"unknown key(s) {sorted(unknown)} in {where}")


def _require_utf8(value: str, where: str) -> None:
    """Artifacts are UTF-8; a lone surrogate would fail only when written."""
    try:
        value.encode()
    except UnicodeEncodeError as exc:
        raise InvalidDescription(f"{where} is not encodable as UTF-8: {exc}") from exc


def description_from_json(text: str) -> ContractDescription:
    """Parse the canonical JSON input; unknown keys are rejected."""
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InvalidDescription(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidDescription("top-level value must be an object")
    _require_keys(data, {"contract", "functions"}, "document")
    contract = data.get("contract")
    if not isinstance(contract, str) or not contract:
        raise InvalidDescription("'contract' must be a non-empty string")
    _require_utf8(contract, "'contract'")
    raw_functions = data.get("functions")
    if not isinstance(raw_functions, list):
        raise InvalidDescription("'functions' must be a list")

    chunks: list[FunctionChunk] = []
    for i, fn in enumerate(raw_functions):
        if not isinstance(fn, dict):
            raise InvalidDescription(f"functions[{i}] must be an object")
        _require_keys(fn, {"signature", "sentences"}, f"functions[{i}]")
        sig = fn.get("signature")
        signature = parse_signature(sig) if isinstance(sig, str) else None
        if signature is None:
            raise InvalidDescription(f"functions[{i}].signature must be one line, 'name(params)'")
        _require_utf8(sig, f"functions[{i}].signature")
        raw_sentences = fn.get("sentences", [])
        if not isinstance(raw_sentences, list):
            raise InvalidDescription(f"functions[{i}].sentences must be a list")
        sentences = []
        for j, raw in enumerate(raw_sentences):
            if not isinstance(raw, dict):
                raise InvalidDescription(f"functions[{i}].sentences[{j}] must be an object")
            _require_keys(raw, {"text", "depth"}, f"functions[{i}].sentences[{j}]")
            text = raw.get("text")
            depth = raw.get("depth")
            if not isinstance(text, str) or not text:
                raise InvalidDescription(f"functions[{i}].sentences[{j}].text must be a non-empty string")
            _require_utf8(text, f"functions[{i}].sentences[{j}].text")
            if not isinstance(depth, int) or isinstance(depth, bool) or depth < 0:
                raise InvalidDescription(f"functions[{i}].sentences[{j}].depth must be a nonnegative integer")
            sentences.append(Sentence(text, depth))
        chunks.append(FunctionChunk(signature, tuple(sentences)))

    return ContractDescription(contract, chunks)


def description_to_json(desc: ContractDescription) -> str:
    """``description.json`` as compact JSON text (see ``pipeline.write_json``)."""
    functions = ",".join(
        '{"signature":%s,"sentences":[%s]}'
        % (
            encode_basestring(chunk.signature),
            ",".join(
                [
                    '{"text":%s,"depth":%d}' % (encode_basestring(text), depth)
                    for text, depth in chunk.sentences
                ]
            ),
        )
        for chunk in desc.functions
    )
    return '{"contract":%s,"functions":[%s]}' % (encode_basestring(desc.contract_id), functions)


def load_description(path: str) -> ContractDescription:
    """Load a description (after any byte-order mark), sniffing JSON vs text."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            raw = fh.read()
    except UnicodeDecodeError as exc:
        raise InvalidDescription(f"{path}: not UTF-8 text: {exc}") from exc
    if raw.lstrip().startswith("{"):
        return description_from_json(raw)
    from pathlib import Path

    return chunk_flat_text(raw, contract_id=Path(path).stem)
