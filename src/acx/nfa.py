"""Nondeterministic finite automata with unique-acceptance checking.

The automaton model: states 0..q-1, the initial state is always 0, no
epsilon transitions.  Unique acceptance of a word w means w is accepted
and exactly one walk of length |w| from state 0 ends in a final state.
Walks are counted in the edge multigraph regardless of labels: two
transitions between the same states on different letters are two choices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import Word


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
            raise ValueError(f"letter {a} outside the automaton alphabet [{m.k}]")
    delta: dict[tuple[int, int], list[int]] = {}
    for p, a, t in m.transitions:
        delta.setdefault((p, a), []).append(t)
    current = {0}
    for a in w.letters:
        current = {t for p in current for t in delta.get((p, a), ())}
        if not current:
            return False
    return bool(current & m.finals)


def count_length_n_accepting_paths(m: Nfa, n: int) -> int:
    """Length-n walks from state 0 into a final state, capped at 2.

    Dynamic program over (step, state); 0, 1 or 2 (two or more) is all
    unique-acceptance checking needs.
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
            return 2
    return total


def uniquely_accepts(m: Nfa, w: Word) -> bool:
    """Accepts w, and the accepting walk of length |w| is unique."""
    return (
        accepts_spelling(m, w)
        and count_length_n_accepting_paths(m, len(w)) == 1
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
