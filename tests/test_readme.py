from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_prints_what_its_comments_say(capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    said = [line.split("#", 1)[1].strip() for line in prints]
    assert printed == said == ["[1, 1; 0, 1]", "SUCCESS", "1"]
