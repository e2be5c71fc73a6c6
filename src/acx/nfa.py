"""Nondeterministic finite automata with unique-acceptance checking.

The automaton model: states 0..q-1, the initial state is always 0, no
epsilon transitions.  Unique acceptance of a word w means w is accepted
and exactly one walk of length |w| from state 0 ends in a final state.
Walks are counted in the edge multigraph regardless of labels: two
transitions between the same states on different letters are two choices.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

from .errors import AlphabetMismatch, ParseError
from .words import Word


class SatCount(enum.Enum):
    """A walk count saturated at two: zero, one, or many."""

    ZERO = 0
    ONE = 1
    MANY = 2

    @classmethod
    def from_count(cls, count: int) -> "SatCount":
        return cls(min(count, 2))


@dataclass(frozen=True)
class Nfa:
    """An NFA whose initial state is 0."""

    q: int
    k: int
    transitions: frozenset[tuple[int, int, int]]
    finals: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "transitions", frozenset(self.transitions))
        object.__setattr__(self, "finals", frozenset(self.finals))
        if self.q < 1:
            raise ValueError(f"need at least one state, got q={self.q}")
        if self.k < 1:
            raise ValueError(f"alphabet size must be positive, got k={self.k}")
        for p, a, t in self.transitions:
            if not (0 <= p < self.q and 0 <= t < self.q):
                raise ValueError(f"transition ({p},{a},{t}) references a missing state")
            if not 0 <= a < self.k:
                raise ValueError(f"transition ({p},{a},{t}) uses a letter outside [{self.k}]")
        for f in self.finals:
            if not 0 <= f < self.q:
                raise ValueError(f"final state {f} out of range")


def accepts_spelling(m: Nfa, w: Word) -> bool:
    """True iff some path from state 0 spelling w ends in a final state."""
    for a in w.letters:
        if a >= m.k:
            raise AlphabetMismatch(f"letter {a} outside the automaton alphabet [{m.k}]")
    delta: dict[tuple[int, int], list[int]] = {}
    for p, a, t in m.transitions:
        delta.setdefault((p, a), []).append(t)
    current = {0}
    for a in w.letters:
        current = {t for p in current for t in delta.get((p, a), ())}
        if not current:
            return False
    return bool(current & m.finals)


def count_length_n_accepting_paths(m: Nfa, n: int) -> SatCount:
    """Saturating count of length-n walks from state 0 into a final state.

    Dynamic program over (step, state); counts are capped at 2, which is
    all unique-acceptance checking needs.
    """
    if n < 0:
        raise ValueError("walk length must be nonnegative")
    pairs = [(p, t) for p, _, t in m.transitions]
    counts = [0] * m.q
    counts[0] = 1
    for _ in range(n):
        step = [0] * m.q
        for p, t in pairs:
            c = counts[p]
            if c:
                v = step[t] + c
                step[t] = v if v < 2 else 2
        counts = step
    total = 0
    for f in m.finals:
        total += counts[f]
        if total >= 2:
            return SatCount.MANY
    return SatCount.from_count(total)


def uniquely_accepts(m: Nfa, w: Word) -> bool:
    """Accepts w, and the accepting walk of length |w| is unique."""
    return (
        accepts_spelling(m, w)
        and count_length_n_accepting_paths(m, len(w)) is SatCount.ONE
    )


def to_json_dict(m: Nfa) -> dict:
    """Plain-dict form with deterministic ordering (transitions sorted)."""
    return {
        "q": m.q,
        "k": m.k,
        "initial": 0,
        "finals": sorted(m.finals),
        "transitions": [[p, str(a), t] for p, a, t in sorted(m.transitions)],
    }


def to_json(m: Nfa) -> str:
    return json.dumps(to_json_dict(m))


def from_json(text: str) -> Nfa:
    """Parse the JSON form, rejecting out-of-range states and duplicates."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("top level: expected an object")
    for field in ("q", "k", "initial", "finals", "transitions"):
        if field not in data:
            raise ParseError(f"top level: missing field {field!r}")
    q, k, initial = data["q"], data["k"], data["initial"]
    if not isinstance(q, int) or q < 1:
        raise ParseError(f"q: expected a positive integer, got {q!r}")
    if not isinstance(k, int) or k < 1:
        raise ParseError(f"k: expected a positive integer, got {k!r}")
    if initial != 0:
        raise ParseError(f"initial: must be 0, got {initial!r}")
    finals = []
    for i, f in enumerate(data["finals"]):
        if not isinstance(f, int) or not 0 <= f < q:
            raise ParseError(f"finals[{i}]: state {f!r} out of range for q={q}")
        finals.append(f)
    transitions = set()
    for i, triple in enumerate(data["transitions"]):
        if not (isinstance(triple, (list, tuple)) and len(triple) == 3):
            raise ParseError(f"transitions[{i}]: expected [state, letter, state]")
        p, a, t = triple
        if not isinstance(p, int) or not 0 <= p < q:
            raise ParseError(f"transitions[{i}]: source state {p!r} out of range for q={q}")
        if not isinstance(t, int) or not 0 <= t < q:
            raise ParseError(f"transitions[{i}]: target state {t!r} out of range for q={q}")
        if isinstance(a, str) and a.isdigit():
            letter = int(a)
        elif isinstance(a, int):
            letter = a
        else:
            raise ParseError(f"transitions[{i}]: letter {a!r} is not a digit string")
        if not 0 <= letter < k:
            raise ParseError(f"transitions[{i}]: letter {letter} outside alphabet [{k}]")
        key = (p, letter, t)
        if key in transitions:
            raise ParseError(f"transitions[{i}]: duplicate transition {key}")
        transitions.add(key)
    return Nfa(q=q, k=k, transitions=frozenset(transitions), finals=frozenset(finals))


def to_dot(m: Nfa) -> str:
    """Graphviz rendering: arrow into the initial state, doubled finals."""
    lines = [
        "digraph nfa {",
        "  rankdir=LR;",
        '  start [shape=none label=""];',
    ]
    for s in range(m.q):
        shape = "doublecircle" if s in m.finals else "circle"
        lines.append(f"  q{s} [shape={shape}];")
    lines.append("  start -> q0;")
    for p, a, t in sorted(m.transitions):
        lines.append(f'  q{p} -> q{t} [label="{a}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
