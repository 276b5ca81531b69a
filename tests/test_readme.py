import importlib
import re
import shlex
from pathlib import Path

import colstab.cli
import colstab.verify
from colstab.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", TEXT, re.M | re.S)


def _commands():
    """The argument lists of the ``colstab`` lines of README's ``sh`` blocks;
    a line that leaves a quote open is joined with the next."""
    commands = []
    for block in _blocks("sh"):
        pending = ""
        for line in block.splitlines():
            pending += line + "\n"
            try:
                argv = shlex.split(pending, comments=True)
            except ValueError:  # an open quote: the command goes on
                continue
            pending = ""
            if argv and argv[0] == "colstab":
                commands.append(argv[1:])
        assert not pending, f"unclosed quote in {pending!r}"
    return commands


def test_library_use_block_prints_what_its_comments_say(capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    said = [line.split("#", 1)[1].strip() for line in prints]
    assert printed == said == ["[1, 1; 0, 1]", "SUCCESS", "1"]


def test_command_examples_parse_and_name_every_subcommand():
    parser = build_parser()
    commands = _commands()
    for argv in commands:
        parser.parse_args(argv)
    assert {argv[0] for argv in commands} == parser.subcommands


def test_document_format_example_is_a_certified_stabilizer():
    (doc,) = _blocks("json")
    assert main(["check-stab", "--inline", doc]) == colstab.cli.EXIT_OK


def test_quoted_bounds_are_the_library_constants():
    quoted = re.findall(r"`(?:(\w+)\.)?(MAX_\w+) = (\d+)`", TEXT)
    found = set()
    for module, name, value in quoted:
        owner = importlib.import_module(f"colstab.{module or 'ring'}")
        assert getattr(owner, name) == int(value), name
        found.add(f"{module}.{name}" if module else name)
    assert found == {
        "MAX_EXPONENT",
        "MAX_NVARS",
        "MAX_DEPTH",
        "verify.MAX_TRIALS",
        "tame.MAX_WORD_LENGTH",
        "tame.MAX_COEFF_BOUND",
    }


def test_exit_code_table_lists_the_cli_codes():
    section = TEXT.split("## Command line", 1)[1].split("\n## ", 1)[0]
    codes = [int(c) for c in re.findall(r"^\| `(\d+)` \|", section, re.M)]
    assert codes == [
        colstab.cli.EXIT_OK,
        colstab.cli.EXIT_VIOLATION,
        colstab.cli.EXIT_PARSE,
        colstab.cli.EXIT_DOMAIN,
        colstab.cli.EXIT_INTERNAL,
    ]


def test_listed_suites_are_the_verify_suites():
    (line,) = re.findall(r"^Verification suites: (.*?)\.$", TEXT, re.M | re.S)
    assert re.findall(r"`(\w+)`", line) == list(colstab.verify.SUITES) + ["all"]


def test_backticked_names_are_public():
    prose = re.sub(r"^```.*?^```", "", TEXT, flags=re.M | re.S)
    spans = re.findall(r"`([^`]+)`", prose)
    private = [s for s in spans if re.search(r"(?:^|\.)_\w", s)]
    assert spans and not private
