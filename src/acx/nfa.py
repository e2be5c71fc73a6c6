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


def uniquely_accepts(m: Nfa, w: Word) -> bool:
    """Accepts w, and the accepting walk of length |w| is unique.

    Both halves run on state bitmasks.  The states that spell each prefix
    of w are one mask.  The walks of each length, of any labels, are
    counted up to two in two masks: the states reached by at least one
    walk, and by at least two.  w is uniquely accepted when its spelled
    states meet the finals and the finals together have one walk.
    """
    letters = w.letters
    for a in letters:
        if a >= m.k:
            raise ValueError(f"letter {a} outside the automaton alphabet [{m.k}]")
    q = m.q
    by_letter = [0] * (q * m.k)
    out_any = [0] * q
    out_multi = [0] * q
    for p, a, t in m.transitions:
        bit = 1 << t
        by_letter[a * q + p] |= bit
        # two letters from p to t are two walks
        out_multi[p] |= out_any[p] & bit
        out_any[p] |= bit
    finals = 0
    for f in m.finals:
        finals |= 1 << f
    current = 1
    for a in letters:
        base = a * q
        reached = 0
        while current:
            low = current & -current
            reached |= by_letter[base + low.bit_length() - 1]
            current ^= low
        if not reached:
            return False
        current = reached
    if not current & finals:
        return False
    m1, m2 = 1, 0
    for _ in letters:
        r1 = r2 = 0
        while m1:
            low = m1 & -m1
            p = low.bit_length() - 1
            targets = out_any[p]
            r2 |= (r1 & targets) | out_multi[p]
            if m2 & low:
                r2 |= targets
            r1 |= targets
            m1 ^= low
        m1, m2 = r1, r2
    once = m1 & finals
    return not m2 & finals and once & (once - 1) == 0


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
