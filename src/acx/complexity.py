"""Exact nondeterministic automatic complexity.

A_N(w) is the least number of states of an NFA that accepts w with exactly
one accepting walk of length |w|.  The search enumerates path-induced
candidates: a minimal witness can be assumed to consist of exactly the
transitions used along the accepting path, with the path endpoint as the
only final state and every state on the path.  Deleting transitions or
final states never increases the walk count, so the reduction is sound;
it is cross-validated against full transition-relation enumeration at
small sizes.

Canonical numbering removes the relabeling symmetry: the path starts at
state 0 and each newly visited state takes the smallest unused index.
Candidates are enumerated depth first, in lexicographic order of the state
sequence when the least witness is wanted, and a prefix is cut as soon as
the committed transitions admit two walks of the prefix length into the
current state, because any such duplicate extends along the committed
path suffix into a second accepting walk.  All comparisons are exact integer arithmetic.

The walk runs compiled: _walk.c, plain C99, beside this file.  Importing
this module builds it once with the C compiler that built Python, into a
shared library under $XDG_CACHE_HOME/acx (by default ~/.cache/acx) named by
the SHA-256 of the source and the compiler command, and loads it through
ctypes; a failed build raises ImportError.  Its reference is the same walk
in Python, ReferenceSearch in tests/oracles.py, which the tests require it
to equal extension for extension.
"""

from __future__ import annotations

import ctypes
import os
import shlex
import subprocess
import sysconfig
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from pathlib import Path
from typing import Optional, Sequence

from .nfa import Nfa, to_json_dict as nfa_json, uniquely_accepts
from .words import Rational, Word, contains_alpha_power

# CPython's own SHA-256, for the library's name: hashlib's would load
# OpenSSL, which adds 3.6 MB to the peak memory of every process
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    from _sha256 import sha256  # Python 3.10 and 3.11


def hyde_bound(n: int) -> int:
    """Universal upper bound floor(n/2) + 1 on A_N for words of length n."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    return n // 2 + 1


@dataclass(frozen=True)
class SearchCertificate:
    """Evidence that every smaller state count was ruled out.

    search_mode ``"path-induced"`` means that one walk from level 1 ruled
    out every level below the value and produced the witness, or, if the
    value is Hyde's bound, that a search of that level alone produced it;
    without a dict, the witness is the least path of the value level, and
    with one it may be another path of that level, found by a walk that
    tries new states first.  ``"factor-bracket"`` means that in
    a sweep (see an_exact) a proved bound ruled out some level, or fixed
    the value, without a search of that level; the witness is then still
    valid but need not be the least one.

    search_nodes is the sum, over the levels that were searched and ruled
    out, of the nodes that the search of that level alone examines (see
    _walk), whatever order the walk tried its targets
    in; a result read from the word's mirror carries the mirror's count.
    """

    states_ruled_out: int
    search_nodes: int
    search_mode: str

    def to_json_dict(self) -> dict:
        return {
            "states_ruled_out": self.states_ruled_out,
            "search_nodes": self.search_nodes,
            "search_mode": self.search_mode,
        }


@dataclass(frozen=True)
class ComplexityResult:
    value: int
    witness: Nfa
    certificate: SearchCertificate

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "witness": nfa_json(self.witness),
            "certificate": self.certificate.to_json_dict(),
        }


def load_walk(command: Sequence[str], cache: Path) -> ctypes.CDLL:
    """The compiled walk of _walk.c, built by ``command`` into ``cache`` once.

    The library's file name is the SHA-256 of the source and the command, so
    each version of either is built once.  A build writes a temporary file
    in ``cache``, made with mode 0700 if missing, and renames it into place,
    so that processes building at once never load a partial file.  A
    failed build raises ImportError with the command and the compiler's
    stderr.
    """
    source = Path(__file__).with_name("_walk.c")
    key = sha256(source.read_bytes())
    key.update("\0".join(command).encode())
    library = cache / f"walk-{key.hexdigest()}.so"
    if not library.exists():
        cache.mkdir(mode=0o700, parents=True, exist_ok=True)
        fd, partial = tempfile.mkstemp(dir=cache, prefix=".walk-", suffix=".so")
        os.close(fd)
        argv = [*command, "-O2", "-shared", "-fPIC", "-o", partial, str(source)]
        try:
            try:
                built = subprocess.run(argv, capture_output=True, text=True)
            except OSError as exc:
                raise ImportError(f"cannot build the search walk: {shlex.join(argv)}: {exc}") from exc
            if built.returncode != 0:
                raise ImportError(
                    f"cannot build the search walk: {shlex.join(argv)} exited with"
                    f" {built.returncode}:\n{built.stderr}"
                )
            os.replace(partial, library)
        finally:
            if os.path.exists(partial):
                os.remove(partial)
    lib = ctypes.CDLL(str(library))
    lib.acx_walk.argtypes = [
        ctypes.POINTER(ctypes.c_int32), ctypes.c_int32, ctypes.c_int32, ctypes.c_int32,
        ctypes.c_int32, ctypes.POINTER(ctypes.c_int32), ctypes.POINTER(ctypes.c_int32),
        ctypes.POINTER(ctypes.c_int64),
    ]
    lib.acx_walk.restype = ctypes.c_int
    return lib


# the compiler that built this Python, and the per-user cache of built walks
_COMPILER = shlex.split(sysconfig.get_config_var("CC") or "cc")
_CACHE = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "acx"
_LIB = load_walk(_COMPILER, _CACHE)


def _walk(
    letters: Sequence[int], lo: int, q: int, least: bool
) -> tuple[Optional[tuple[int, ...]], int, list[int]]:
    """One depth-first walk of canonical path candidates with lo to q states.

    Runs compiled, from _walk.c; ReferenceSearch in tests/oracles.py is the
    same walk in Python, and explains each cut.  Returns the walk's last
    full path or None, its final q and its ``counts``.

    A ``least`` walk tries targets in increasing order; any other tries the
    new state first, then the existing states from the highest down, so
    that q drops sooner.  It prunes only targets >= q.  ``lo`` is a proved
    lower bound on A_N(w), as every caller passes.  Only a full path moves
    q: it sets q = m, its largest state.  A path with lo states, m < lo,
    ends the walk; with more, the walk goes on for a witness with fewer
    states.  With lo = q, the first full path ends the walk, which is one
    level's search.  When the walk ends, every level from lo to the final q
    has been ruled out, and the last path, if any, has q + 1 states.

    ``counts[m]`` is the number of extensions examined whose path then has
    largest state m.  Which are cut does not depend on the window or on
    the order, so the search of level s alone, lo = q = s, examines
    sum(counts[:s]) nodes, for each level s from lo to the final q.
    """
    n = len(letters)
    path = (ctypes.c_int32 * (n + 1))()
    final = ctypes.c_int32()
    counts = (ctypes.c_int64 * q)()
    found = _LIB.acx_walk(
        (ctypes.c_int32 * n)(*letters), n, lo, q, least, path, ctypes.byref(final), counts
    )
    if found < 0:
        raise RuntimeError(f"the search walk of a {n}-letter word could not allocate memory")
    return (tuple(path) if found else None), final.value, list(counts)


def _search_level(
    letters: Sequence[int], lo: int, q: int, least: bool
) -> tuple[Optional[tuple[int, ...]], list[int]]:
    """The one walk over [lo, q] states: its witness path and exhausted levels.

    ``lo`` is a proved lower bound on A_N of the word.  The path is the
    walk's last witness path, with the fewest states of any path-induced
    witness with lo to q states, or None if there is none; with lo = q
    and ``least`` it is the least full path with q states.  Without
    ``least`` the walk tries new states first (see _walk), and its path
    need not be the least.  The list holds the node count of each level
    from lo to the walk's final q, one below the path's state count (q
    itself if there is no path): exactly the nodes that the search of that
    level alone examines.  Each of those levels is exhausted, whatever the
    order.
    """
    path, q, counts = _walk(letters, lo, q, least)
    nodes = [0, *accumulate(counts)]
    return path, nodes[lo : q + 1]


def _witness_from_path(word: Word, seq: tuple[int, ...], q: int) -> Nfa:
    transitions = frozenset(zip(seq, word.letters, seq[1:]))
    return Nfa(q=q, k=word.k, transitions=transitions, finals=frozenset({seq[-1]}))


def _renamed_in_order(letters: Sequence[int]) -> tuple[int, ...]:
    """The letters renamed 0, 1, 2, ... in order of first occurrence."""
    names: dict[int, int] = {}
    return tuple(names.setdefault(a, len(names)) for a in letters)


def _decide(
    searches: dict, letters: tuple[int, ...], least: bool
) -> tuple[int, tuple[int, ...], SearchCertificate]:
    """A word's value, path and certificate, bracketed as an_exact says.

    ``letters`` are renamed in order of first occurrence and not yet a key
    of ``searches``, so the empty word finds no mirror and no factors.  The
    prefix's path plus a new final state has one walk of the word's length
    to its end: the new state has one edge into it, so it adds no walk to
    the prefix's path.
    """
    mirror = searches.get(_renamed_in_order(letters[::-1]))
    if mirror is not None:
        # reversed, the mirror's path is a witness but need not be the least
        q, seq, certificate = mirror
        return q, _renamed_in_order(seq[::-1]), SearchCertificate(
            q - 1, certificate.search_nodes, "factor-bracket"
        )
    lo, hi, path = 1, hyde_bound(len(letters)), None
    prefix = searches.get(letters[:-1])
    suffix = searches.get(_renamed_in_order(letters[1:]))
    if prefix is not None and suffix is not None:
        lo, hi, path = max(prefix[0], suffix[0]), prefix[0] + 1, prefix[1] + (prefix[0],)
    seq, levels = _search_level(letters, lo, hi - 1, least) if lo < hi else (None, [])
    if seq is None and path is None:
        # the value is Hyde's bound, which always admits a witness
        seq = _search_level(letters, hi, hi, least)[0]
        if seq is None:
            raise RuntimeError(f"no witness with at most {hi} states, against Hyde's bound")
    if seq is None:
        q, seq, mode = hi, path, "factor-bracket"
    else:
        # from level 1, every level below the witness was searched
        q, mode = max(seq) + 1, "path-induced" if lo == 1 else "factor-bracket"
    return q, seq, SearchCertificate(q - 1, sum(levels), mode)


# the longest word an_exact searches, a limit the CLI states: the compiled
# walk recurses once per letter on the C stack, and its windows stay below
# hyde_bound(900) = 451 states, masks of at most 8 words; tests also run the
# Python reference walk at this length, under Python's recursion limit of 1000
MAX_LENGTH = 900


def an_exact(
    word: Word,
    *,
    jobs: int = 1,
    searches: Optional[dict] = None,
) -> ComplexityResult:
    """Exact A_N with a uniquely-accepting witness and exhaustion certificate.

    The value is the least state count with a witness; Hyde's bound
    floor(n/2)+1 always admits one.  A word longer than MAX_LENGTH raises
    ValueError.  The search runs in the calling process.  ``jobs`` raises
    ValueError below 1 and changes nothing else: parallelism is across
    words, in survey.

    ``searches`` is a dict that the calls of one sweep share.  It maps a
    word's letters, renamed in order of first occurrence, to its value,
    path and certificate, made once when the key is decided: the search
    compares letters only for equality, so a renaming takes the same path
    with the same node counts.  A word whose key is there takes that
    outcome, certificate included, and a word whose reversal, renamed, is
    there reads that path backwards, with the states renamed in order of
    first occurrence (A_N(reverse w) = A_N(w)).

    Any other word gets a bracket lo <= A_N(w) <= hi.  If both w[:-1] and
    w[1:] are in the dict, lo = max(A_N(w[:-1]), A_N(w[1:])) and
    hi = A_N(w[:-1]) + 1, attained by the prefix's path plus one new final
    state.  Otherwise lo = 1 and hi = hyde_bound(n).  If lo < hi, one walk
    (see _walk) looks for a witness with lo to hi - 1 states: each
    full path it finds lowers the state count it still looks for to one
    below its own, and the walk prunes only state indices at or above
    that count.  The value is the state count of its last witness.  If it
    finds none, the value is hi: a bracket from the factors takes the
    prefix's path, and any other word searches Hyde's level alone for a
    path.  A bracket from the factors has hi <= lo + 1, so its walk is the
    search of level lo alone.

    Without ``searches``, the walks try targets in lexicographic order.
    Until the walk finds a path with the value's state count, it looks for
    one with at least that many, so the first it finds is the
    lexicographically least canonical state sequence of that count, which
    is the witness; so is the least path of Hyde's level.  With
    ``searches``, the walks try the new state first (see
    _walk), which reaches a witness sooner; they exhaust the
    same levels with the same node counts.

    The witness is always built from the word's own letters and re-checked,
    once per call, dict hits included, and the value and certificate of a
    ``"path-induced"`` result equal the ones without a dict.  A result with
    a dict may have a witness other than the least one.  A sweep in order
    of length finds every word's factors; callers that read only the value
    pass a fresh dict.  Pass a fresh dict per sweep, so that it is freed
    when the sweep returns.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if len(word) > MAX_LENGTH:
        raise ValueError(
            f"an_exact searches words of at most {MAX_LENGTH} letters, got {len(word)}"
        )
    least = searches is None
    if least:
        searches = {}
    key = _renamed_in_order(word.letters)
    found = searches.get(key)
    if found is None:
        found = searches[key] = _decide(searches, key, least)
    q, seq, certificate = found
    witness = _witness_from_path(word, seq, q)
    if not uniquely_accepts(witness, word):
        raise RuntimeError(f"search produced a bad witness for {word}")
    return ComplexityResult(value=q, witness=witness, certificate=certificate)


def cyclic_witness(x: Word, alpha: Rational) -> Nfa:
    """The v-state cycle NFA for x = z^alpha with |z| = v = |x|/alpha.

    The cycle digraph has one outgoing edge per state, so it has exactly
    one walk of each length from state 0; placing the final state at
    offset |x| mod v makes it accept x uniquely, giving A_N(x) <= v.
    """
    alpha = Fraction(alpha)
    n = len(x)
    if n == 0:
        raise ValueError("the empty word has no period prefix")
    if alpha < 1:
        raise ValueError(f"exponent must be at least 1, got {alpha}")
    v_exact = Fraction(n) / alpha
    if v_exact.denominator != 1:
        raise ValueError(f"|x|/alpha = {v_exact} is not an integer")
    v = int(v_exact)
    letters = x.letters
    if any(letters[i] != letters[i % v] for i in range(n)):
        raise ValueError(f"{x} is not a {alpha}-power of its {v}-letter prefix")
    transitions = frozenset((i, letters[i], (i + 1) % v) for i in range(v))
    return Nfa(q=v, k=x.k, transitions=transitions, finals=frozenset({n % v}))


@dataclass(frozen=True)
class PowerBound:
    bound: int
    exponent: Fraction
    witness: Nfa

    def to_json_dict(self) -> dict:
        return {
            "bound": self.bound,
            "exponent": str(self.exponent),
            "witness": nfa_json(self.witness),
        }


def power_upper_bound(w: Word) -> PowerBound:
    """Best cyclic upper bound: the least v with w a power of its v-prefix.

    v = |w| always works (exponent 1), so a bound always exists; smaller v
    means a higher exponent and a smaller witness.
    """
    n = len(w)
    if n == 0:
        raise ValueError("the empty word has no period prefix")
    letters = w.letters
    for v in range(1, n + 1):
        if all(letters[i] == letters[i % v] for i in range(v, n)):
            alpha = Fraction(n, v)
            return PowerBound(bound=v, exponent=alpha, witness=cyclic_witness(w, alpha))
    raise AssertionError("unreachable: v = n always matches")


def complexity_exceeds(w: Word, c: int) -> bool:
    """True iff A_N(w) > |w|/c, compared exactly in the integers."""
    if c < 1:
        raise ValueError("the ratio denominator c must be at least 1")
    return an_exact(w, searches={}).value * c > len(w)


def is_an_simple(w: Word) -> bool:
    """True iff A_N(w) is strictly below the universal bound floor(n/2)+1."""
    return an_exact(w, searches={}).value < hyde_bound(len(w))


def power_bound_implication_holds(w: Word, alpha: Rational) -> bool:
    """Check: A_N(w) <= |w|/alpha implies w contains an alpha-power.

    Holds for every integer alpha >= 1; rational alpha are accepted so the
    known counterexamples slightly above 2 can be probed.
    """
    alpha = Fraction(alpha)
    if alpha < 1:
        raise ValueError(f"alpha must be at least 1, got {alpha}")
    if an_exact(w, searches={}).value * alpha <= len(w):
        return contains_alpha_power(w, alpha) is not None
    return True


# the most states full_enumeration_minima enumerates: 2^18 binary transition
# relations at q = 3, and 2^32 at q = 4
ORACLE_Q_MAX = 3


def full_enumeration_minima(k: int, n_max: int) -> dict[Word, int]:
    """Minimum witness sizes by brute force over every transition relation.

    For each state count q up to ORACLE_Q_MAX, every subset of Q x [k] x Q
    is tried.  An automaton whose total accepting-walk count at length n is
    exactly one uniquely accepts exactly one word of length n, namely the
    word the single walk spells, so that word's minimum is recorded.
    Returns a map from each word of length <= n_max to its least q <=
    ORACLE_Q_MAX; words absent from the map need more states.  Hyde's bound
    holds for every word, so the enumeration stops at hyde_bound(n_max)
    states when that is smaller.  Independent of the path-induced search:
    no canonical form, no pruning.
    """
    best: dict[tuple[int, ...], int] = {}
    for q in range(1, min(ORACLE_Q_MAX, hyde_bound(n_max)) + 1):
        edges_all = [(p, a, t) for p in range(q) for a in range(k) for t in range(q)]
        n_edges = len(edges_all)
        for mask in range(1 << n_edges):
            edges = []
            m = mask
            while m:
                low = m & -m
                edges.append(edges_all[low.bit_length() - 1])
                m ^= low
            rows = [[0] * q]
            rows[0][0] = 1
            for _ in range(n_max):
                prev = rows[-1]
                step = [0] * q
                for p, _, t in edges:
                    c = prev[p]
                    if c:
                        v = step[t] + c
                        step[t] = v if v < 2 else 2
                rows.append(step)
            for n in range(n_max + 1):
                row = rows[n]
                for f in range(q):
                    if row[f] != 1:
                        continue
                    spelled = _extract_unique_walk(edges, rows, n, f)
                    if spelled not in best:
                        best[spelled] = q
    return {Word(letters, k): q for letters, q in best.items()}


def _extract_unique_walk(edges, rows, n: int, final: int) -> tuple[int, ...]:
    """Read the labels of the single length-n walk ending at ``final``."""
    letters = []
    state = final
    for step in range(n, 0, -1):
        prev_row = rows[step - 1]
        for p, a, t in edges:
            if t == state and prev_row[p] == 1:
                letters.append(a)
                state = p
                break
        else:
            raise AssertionError("unique walk extraction lost the walk")
    letters.reverse()
    return tuple(letters)
