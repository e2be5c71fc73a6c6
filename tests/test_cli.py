import argparse
import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from acx.cli import build_parser, main

GOLDEN = Path(__file__).resolve().parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_small_word(self, capsys):
        code, out, _ = run(capsys, "compute", "0110", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["value"] == 3
        assert data["certificate"]["states_ruled_out"] == 2
        assert data["witness"]["initial"] == 0

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "compute", "0101")
        assert code == 0
        assert "A_N = 2" in out

    def test_dot_export(self, capsys, tmp_path):
        path = tmp_path / "witness.dot"
        code, _, _ = run(capsys, "compute", "0101", "--dot", str(path))
        assert code == 0
        assert "digraph" in path.read_text()

    def test_byte_identical_json(self, capsys):
        _, first, _ = run(capsys, "compute", "01011", "--json")
        _, second, _ = run(capsys, "compute", "01011", "--json")
        assert first == second

    @pytest.mark.parametrize(
        "word", ["12312301234112341", "001111110100110110", "011000110111010111"]
    )
    def test_json_equals_golden_output(self, capsys, word):
        # recorded when each state count was searched in turn: the same
        # value, least witness, states ruled out, node count and mode
        code, out, _ = run(capsys, "compute", word, "--json")
        assert code == 0
        assert out.encode() == (GOLDEN / f"compute-{word}.json").read_bytes()

    @pytest.mark.parametrize(
        "argv, name",
        [
            (("table", "--max-c", "6", "--max-n", "8", "--json"), "table-max-c6-max-n8.json"),
            (("verify", "--suite", "sandwich", "--n-max", "6"), "verify-sandwich-n-max6.txt"),
            (
                ("survey", "--n", "12", "--samples", "100", "--seed", "7", "--json"),
                "survey-n12-samples100-seed7.json",
            ),
        ],
    )
    def test_sweep_output_equals_golden_output(self, capsys, argv, name):
        # each sweep shares one dict across its words, so these pin the
        # bracket and the dict entries as well as the search
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.encode() == (GOLDEN / name).read_bytes()

    def test_jobs_flag_matches_sequential(self, capsys):
        # the second word used to fan a level out to a process pool
        for word in ("010011010011", "111011111001001110"):
            _, sequential, _ = run(capsys, "compute", word, "--json", "--jobs", "1")
            _, parallel, _ = run(capsys, "compute", word, "--json", "--jobs", "2")
            assert sequential == parallel, word


class TestWordCommands:
    def test_power(self, capsys):
        code, out, _ = run(capsys, "power", "0110", "--exp", "3/2")
        assert code == 0 and out.strip() == "011001"

    def test_power_bad_exponent(self, capsys):
        code, _, err = run(capsys, "power", "011", "--exp", "3/2")
        assert code == 1 and "error" in err

    def test_squarefree(self, capsys):
        code, out, _ = run(capsys, "squarefree", "0102012021012102010212")
        assert code == 0 and out.strip() == "squarefree"
        code, out, _ = run(capsys, "squarefree", "00")
        assert code == 0 and "start=0 period=1 length=2" in out

    def test_overlapfree(self, capsys):
        code, out, _ = run(capsys, "overlapfree", "12312301234112341")
        assert code == 0 and out.strip() == "overlap-free"
        code, out, _ = run(capsys, "overlapfree", "000")
        assert out.strip() == "contains an overlap"

    def test_shuffle(self, capsys):
        code, out, _ = run(capsys, "shuffle", "01", "23")
        assert code == 0 and out.strip() == "0213"

    def test_morphism(self, capsys):
        code, out, _ = run(capsys, "morphism", "0")
        assert code == 0 and out.strip() == "0102012021012102010212"

    def test_classify(self, capsys):
        code, out, _ = run(capsys, "classify", "010", "--c", "3", "--json")
        data = json.loads(out)
        assert code == 0 and data["member"] is True

    def test_simple(self, capsys):
        code, out, _ = run(capsys, "simple", "0", "--json")
        data = json.loads(out)
        assert code == 0 and data["simple"] is False

    def test_bound(self, capsys):
        code, out, _ = run(capsys, "bound", "011001", "--json")
        data = json.loads(out)
        assert code == 0
        assert data["bound"] == 4 and data["exponent"] == "3/2"
        assert data["hyde_bound"] == 4


class TestConstruct:
    def test_remark_example(self, capsys):
        code, out, _ = run(
            capsys,
            "construct",
            "--n", "31",
            "--positions", "3,4,5,7,8,11,20,23,24,26,27,28",
            "--bits", "1,0,1,1,1,0,0,1,1,1,0,1",
            "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["m"] == 14
        assert data["z_template"] == "1??10101111010"
        assert data["bound"] == 14

    def test_bad_positions(self, capsys):
        code, _, err = run(
            capsys, "construct", "--n", "5", "--positions", "3,x", "--bits", "1,0"
        )
        assert code == 1 and "error" in err


class TestTable:
    def test_text_layout(self, capsys):
        code, out, _ = run(capsys, "table", "--max-c", "3", "--max-n", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("c\\n")
        assert len(lines) == 5
        assert "-" in lines[1 + 1]

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "table", "--max-c", "2", "--max-n", "2", "--csv")
        assert code == 0
        assert out.splitlines()[0] == "c/n,0,1,2"


class TestNumberTheory:
    def test_primorial(self, capsys):
        code, out, _ = run(capsys, "primorial", "10")
        assert code == 0 and out.strip() == "210"

    def test_theta(self, capsys):
        code, out, _ = run(capsys, "theta", "10")
        assert code == 0
        assert float(out.strip()) == pytest.approx(5.34710753071747)


class TestGf2:
    def test_or(self, capsys):
        code, out, _ = run(capsys, "gf2", "or", "--vars", "2")
        assert code == 0 and out.strip() == "xy+x+y"

    def test_degree(self, capsys):
        code, out, _ = run(capsys, "gf2", "degree", "--poly", "xy+x+y")
        assert code == 0 and out.strip() == "2"

    def test_degree_zero_poly(self, capsys):
        code, out, _ = run(capsys, "gf2", "degree", "--poly", "0")
        assert code == 0 and out.strip() == "zero polynomial"

    def test_anf(self, capsys):
        code, out, _ = run(capsys, "gf2", "anf", "--table", "0001")
        assert code == 0 and out.strip() == "xy"

    def test_an1(self, capsys):
        code, out, _ = run(capsys, "gf2", "an1", "--vars", "3", "--json")
        data = json.loads(out)
        assert code == 0 and data["degree"] == 2


class TestSurveyAndVerify:
    def test_survey_deterministic_json(self, capsys):
        args = ("survey", "--n", "6", "--samples", "30", "--seed", "9", "--json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second
        data = json.loads(first)
        assert data["samples"] == 30

    def test_survey_on_a_huge_alphabet(self, capsys):
        code, out, err = run(
            capsys, "survey", "--n", "4", "--samples", "3", "--alphabet", "1000000000000", "--json"
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["distribution"] == {"3/2": 1.0}

    def test_verify_paper(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "paper")
        assert code == 0
        data = json.loads(out)
        assert data["reference_word"]["clause_c_exact_value"] == 8
        assert data["shuffle_family"]["ok"]

    def test_verify_sandwich_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "sandwich", "--n-max", "5")
        assert code == 0
        assert json.loads(out)["ok"]


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "01", "--nope"])
        assert exc.value.code == 2

    def test_table_takes_one_output_format(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--csv", "--json"])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_alphabet_too_large(self, capsys):
        code, _, err = run(capsys, "compute", "01", "--alphabet", "11")
        assert code == 1 and "alphabet" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("table", "--max-c", "-1"),
            ("table", "--max-n", "-1"),
            ("classify", "01", "--c", "0"),
            ("compute", "01", "--jobs", "0"),
            ("compute", "01", "--jobs", "-3"),
            ("classify", "01", "--c", "-3"),
            ("classify", "01", "--c", "2", "--alphabet", "0"),
            ("simple", "01", "--alphabet", "0"),
            ("simple", "01", "--alphabet", "-3"),
            ("survey", "--n", "4", "--jobs", "0"),
            ("survey", "--n", "4", "--jobs", "-3"),
            ("verify", "--suite", "sandwich", "--n-max", "-2"),
            ("survey", "--n", "0"),
            ("survey", "--n", "4", "--samples", "0"),
            ("survey", "--n", "4", "--alphabet", "0"),
            ("survey", "--n", "4", "--alphabet", "-1"),
            ("compute", "01", "--alphabet", "0"),
            ("shuffle", "01", "10", "--alphabet", "-1"),
            ("construct", "--n", "4", "--positions", "1", "--bits", "0", "--alphabet", "0"),
        ],
    )
    def test_out_of_range_integer_option(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "must be at least" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("compute", "01", "--jobs", "x"),
            ("survey", "--n", "4,x"),
            # integers are an optional '-' and ASCII digits, which int() alone
            # would widen to other scripts' digits, '_', '+' and spaces
            ("primorial", "\u0661\u0660"),
            ("classify", "0110", "--c", "\u0663"),
            ("theta", "1_0"),
            ("construct", "--n", "+4", "--positions", "1", "--bits", "1"),
            ("gf2", "or", "--vars", " 2"),
            ("gf2", "degree", "--poly", "x", "--vars", "2 "),
            ("survey", "--n", "4", "--seed", "\u0661"),
            ("table", "--max-n", "9" * 5000),
        ],
    )
    def test_non_integer_option(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "expected an integer" in capsys.readouterr().err


class TestFractionOptions:
    @pytest.mark.parametrize(
        "argv",
        [
            ("power", "01", "--exp", "1/0"),
            ("power", "01", "--exp", "x"),
            ("survey", "--n", "4", "--samples", "2", "--eps", "1/0"),
            ("survey", "--n", "4", "--samples", "2", "--eps", "0"),
            ("survey", "--n", "4", "--samples", "2", "--eps", "-1"),
        ],
    )
    def test_malformed_fraction_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "expected a fraction" in capsys.readouterr().err


ROOT = Path(__file__).resolve().parents[1]


def src_env() -> dict:
    """The environment with the checkout's src/ first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def readme_commands() -> list[str]:
    """Every ``acx`` command in README's fenced blocks, with lines continued
    by a backslash joined."""
    commands = []
    fenced = False
    pending = ""
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("```"):
            fenced = not fenced
            continue
        if not fenced:
            continue
        if pending or line.startswith("acx "):
            pending += line.rstrip().removesuffix("\\")
            if not line.rstrip().endswith("\\"):
                commands.append(pending)
                pending = ""
    return commands


class TestReadmeCommands:
    def test_every_command_parses(self):
        commands = readme_commands()
        assert len(commands) >= 20
        parser = build_parser()
        for command in commands:
            argv = shlex.split(command, comments=True)
            assert argv[0] == "acx", command
            try:
                parser.parse_args(argv[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {command}")


class TestModuleEntryPoint:
    """``python -m acx`` runs cli.main and exits with its code."""

    @pytest.mark.parametrize(
        "argv, code",
        [(("table", "--max-c", "2", "--max-n", "3"), 0), (("primorial", "0"), 1)],
    )
    def test_python_m_acx(self, capsys, argv, code):
        done = subprocess.run(
            [sys.executable, "-m", "acx", *argv],
            capture_output=True,
            text=True,
            env=src_env(),
            timeout=60,
        )
        assert (done.returncode, done.stdout) == run(capsys, *argv)[:2]
        assert done.returncode == code

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    @pytest.mark.parametrize(
        "argv", [("verify", "--suite", "sandwich", "--n-max", "5"), ("compute", "0110")]
    )
    def test_closed_stdout_exits_1_without_a_traceback(self, argv, unbuffered):
        # with buffering, the write fails only when stdout is flushed
        process = subprocess.Popen(
            [sys.executable, "-m", "acx", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**src_env(), "PYTHONUNBUFFERED": unbuffered},
        )
        process.stdout.close()
        _, err = process.communicate(timeout=60)
        assert process.returncode == 1
        assert err == b""


class TestDomainErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("primorial", "0"),
            ("theta", "0"),
            ("power", "01", "--exp", "0"),
            ("construct", "--n", "4", "--positions", "3,1", "--bits", "0,1"),
            # the least x whose primorial has more than 4300 digits, and
            # one that the bound on theta rules out before the sieve
            ("primorial", "10007"),
            ("primorial", "20000"),
            # above the prime sieve's cap
            ("primorial", "100000000000000000000"),
            ("theta", "100000000000000000000"),
            # a word with more than 10 letters does not print one digit per
            # letter, whether it is read or built
            ("compute", "01", "--alphabet", "11"),
            ("construct", "--n", "3", "--positions", "0", "--bits", "10", "--alphabet", "11"),
            # the fresh wildcard letter is letter 10
            ("construct", "--n", "3", "--positions", "0", "--bits", "1", "--alphabet", "10",
             "--keep-wildcards"),
            # refused before the variable's 12.5 GB mask is built
            ("gf2", "degree", "--poly", "x99999999999"),
            # digits outside ASCII are not letters: Arabic-Indic 0110, superscript 2
            ("compute", "\u0660\u0661\u0661\u0660"),
            ("squarefree", "\u00b2"),
            # list elements are integers of the same grammar as options
            ("construct", "--n", "4", "--positions", "\u0661", "--bits", "\u0661"),
            ("construct", "--n", "12", "--positions", " 1_0", "--bits", "1"),
            # --dot names a file to write, even an empty path or for an
            # empty word, which has no cycle witness
            ("compute", "01", "--dot", ""),
            ("construct", "--n", "0", "--positions", "", "--bits", "", "--dot", "F"),
            # refused before a word of more than 10**7 letters is built
            ("power", "01", "--exp", "1e400"),
            ("construct", "--n", "1000000000000", "--positions", "0", "--bits", "1"),
        ],
    )
    def test_exit_one_with_error_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")

    def test_primorial_digit_limit(self, capsys):
        code, out, _ = run(capsys, "primorial", "10006")
        assert code == 0 and len(out.strip()) <= 4300
        code, _, err = run(capsys, "primorial", "20000")
        assert code == 1
        assert "4300 digits" in err and "acx theta 20000" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("compute", "0110"),
            ("bound", "0110"),
            ("construct", "--n", "4", "--positions", "1", "--bits", "1"),
        ],
    )
    def test_unwritable_dot_path(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "witness.dot"
        code, out, err = run(capsys, *argv, "--dot", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot write ") and str(path) in err


class TestVerifyNMax:
    def test_zero_checks_the_empty_word_only(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "oracle", "--n-max", "0")
        assert code == 0
        assert json.loads(out)["checked"] == 1

    def test_default_is_six(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "sandwich")
        assert code == 0
        assert json.loads(out)["checked"] == sum(3**n for n in range(7))


def leaf_parsers(parser, path=()):
    """(subcommand, parser) for every parser without subcommands of its own."""
    nested = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not nested:
        yield " ".join(path), parser
    for action in nested:
        for name, child in action.choices.items():
            yield from leaf_parsers(child, path + (name,))


# valid argv that run quickly, per subcommand; "{dot}" is a writable path
CHEAP_ARGV = {
    "compute": [["01", "--alphabet", "3", "--json", "--jobs", "1", "--dot", "{dot}"]],
    "bound": [["0110", "--alphabet", "2", "--json", "--dot", "{dot}"]],
    "classify": [["01", "--c", "2", "--alphabet", "2", "--json"]],
    "simple": [["01", "--alphabet", "2", "--json"]],
    "power": [["01", "--exp", "3/2", "--alphabet", "2", "--json"]],
    "squarefree": [["010", "--alphabet", "2", "--json"]],
    "overlapfree": [["010", "--alphabet", "2", "--json"]],
    "shuffle": [["01", "10", "--alphabet", "2"]],
    "morphism": [["01", "--alphabet", "3"]],
    "construct": [
        ["--n", "6", "--positions", "0,3", "--bits", "1,0", "--prime", "--alphabet", "2",
         "--keep-wildcards", "--json", "--dot", "{dot}"],
    ],
    "table": [["--max-c", "2", "--max-n", "3", "--csv"], ["--json"]],
    "primorial": [["10"]],
    "theta": [["10"]],
    "gf2 or": [["--vars", "2", "--json"]],
    "gf2 an1": [["--vars", "3"]],
    "gf2 degree": [["--poly", "xy+x", "--vars", "2", "--json"]],
    "gf2 anf": [["--table", "0001", "--json"]],
    "survey": [["--n", "4", "--samples", "2", "--seed", "1", "--eps", "1/2",
                "--alphabet", "2", "--jobs", "1", "--json"]],
    "verify": [["--suite", "sandwich", "--n-max", "2"]],
}

# set by argparse itself, not by an option
NOT_OPTIONS = {"help", "func", "command", "operation"}


class TestEveryOptionIsRead:
    """Each option a subcommand defines is read by its handler on some argv.

    This catches an option that no handler looks at.  It does not catch one
    that is read and then ignored.
    """

    def test_every_subcommand_has_argv(self):
        assert {name for name, _ in leaf_parsers(build_parser())} == set(CHEAP_ARGV)

    @pytest.mark.parametrize("name", sorted(CHEAP_ARGV))
    def test_every_dest_is_read(self, capsys, tmp_path, name):
        read = set()

        class Recorder(argparse.Namespace):
            def __getattribute__(self, attr):
                read.add(attr)
                return super().__getattribute__(attr)

        for tail in CHEAP_ARGV[name]:
            argv = name.split() + [a.format(dot=tmp_path / "w.dot") for a in tail]
            args = build_parser().parse_args(argv)
            assert args.func(Recorder(**vars(args))) == 0, argv
        capsys.readouterr()
        parser = dict(leaf_parsers(build_parser()))[name]
        dests = {action.dest for action in parser._actions} - NOT_OPTIONS
        assert dests <= read, f"{name} never reads {sorted(dests - read)}"


def _required(flag, values):
    """``flag`` followed by one of ``values``."""
    return values.map(lambda v: [flag, str(v)])


def _option(flag, values):
    """Either nothing or ``flag`` followed by one of ``values``."""
    return st.one_of(st.just([]), _required(flag, values))


def _flag(flag):
    return st.sampled_from([[], [flag]])


def _argv(*parts):
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


# Words up to length 8, one letter not a digit and one a digit outside ASCII;
# small integers, one far too large and three that int() reads but the
# integer grammar does not; fractions, some with a zero denominator.  The values that set the cost of a run (table, survey and
# verify sizes, construct lengths and power exponents) stay small, and --jobs
# is 1.
_WORDS = st.text(alphabet="0129x\u0661", max_size=8).map(lambda w: [w])
_SMALL = st.one_of(st.integers(-3, 12), st.sampled_from(["\u0663", "1_0", " 3"]))
_INTS = st.one_of(_SMALL, st.just(10**20))
_TINY = st.integers(-2, 4)
_FRACTIONS = st.tuples(st.integers(-3, 6), st.sampled_from([0, 1, 2, 3, 10**20])).map(
    lambda pq: f"{pq[0]}/{pq[1]}"
)
_ALPHABET = _option("--alphabet", st.integers(-1, 12))
_JSON = _flag("--json")
_LISTS = st.lists(st.one_of(_INTS, st.just("x")), max_size=4).map(
    lambda xs: ",".join(map(str, xs))
)


def _word_cmd(name, *extra):
    return _argv(st.just([name]), _WORDS, _ALPHABET, _JSON, *extra)


CLI_ARGV = st.one_of(
    _word_cmd("compute", _option("--jobs", st.just(1))),
    _word_cmd("bound"),
    _word_cmd("classify", _required("--c", _INTS)),
    _word_cmd("simple"),
    _word_cmd("power", _required("--exp", _FRACTIONS)),
    _word_cmd("squarefree"),
    _word_cmd("overlapfree"),
    _argv(st.just(["shuffle"]), _WORDS, _WORDS, _ALPHABET),
    _argv(st.just(["morphism"]), _WORDS, _ALPHABET),
    _argv(st.just(["construct"]), _required("--n", _SMALL), _required("--positions", _LISTS),
          _required("--bits", _LISTS), _flag("--prime"), _ALPHABET, _flag("--keep-wildcards"),
          _JSON),
    _argv(st.just(["table"]), _option("--max-c", _TINY), _option("--max-n", _TINY),
          _flag("--csv"), _JSON),
    _argv(st.sampled_from([["primorial"], ["theta"]]), _INTS.map(lambda x: [str(x)])),
    _argv(st.sampled_from([["gf2", "or"], ["gf2", "an1"]]), _required("--vars", _INTS), _JSON),
    _argv(st.just(["gf2", "degree"]),
          _required("--poly", st.one_of(st.text("xyz01+", max_size=8), st.just("x99999999999"))),
          _option("--vars", _INTS), _JSON),
    _argv(st.just(["gf2", "anf"]), _required("--table", st.text("012", max_size=8)), _JSON),
    _argv(st.just(["survey"]), _required("--n", _TINY), _option("--samples", _TINY),
          _option("--seed", _INTS), _option("--eps", _FRACTIONS), _ALPHABET,
          _option("--jobs", st.just(1)), _JSON),
    _argv(st.just(["verify"]), _required("--suite", st.sampled_from(["paper", "sandwich"])),
          _option("--n-max", _TINY)),
    _argv(st.just(["verify", "--suite", "oracle"]),
          _required("--n-max", st.integers(-2, 3))),
)


class TestCliContract:
    """Exit 0, 1 or 2, never a traceback, and an error or usage line on 1 and 2."""

    @settings(max_examples=300, deadline=None)
    @given(CLI_ARGV)
    def test_exit_code_and_stderr(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        text = err.getvalue()
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in text, argv
        if code:
            assert any(
                line.startswith(("error: ", "usage: ")) for line in text.splitlines()
            ), (argv, text)
