"""The README against what it describes: the sample config against the
stored reference config, the sample ``place`` line against its golden
stdout, the config-key table against the CLI's key sets and defaults,
every message the README quotes against the package source, and the
Library example by running it."""

import re
from pathlib import Path

from spwt import cli

ROOT = Path(__file__).parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
GOLDEN = Path(__file__).parent / "golden"
SOURCE = "".join(
    path.read_text(encoding="utf-8") for path in (ROOT / "src" / "spwt").glob("*.py")
)


def _config_lines(text: str) -> list[str]:
    lines = (line.strip() for line in text.splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def _key_table() -> list[tuple[list[str], str]]:
    """(keys, required column) of each row of the config-key table."""
    rows = re.findall(r"^\| (`[^|]*) \| ([^|]*) \|", README, re.M)
    assert rows, "README has no config-key table"
    return [(re.findall(r"`([^`]+)`", keys), required) for keys, required in rows]


def test_sample_config_is_the_reference_config():
    block = re.search(r"Sample config[^`]*```\n(.*?)```", README, re.S)
    assert block, "README has no sample config"
    stored = (GOLDEN / "reference.cfg").read_text(encoding="utf-8")
    assert _config_lines(block.group(1)) == _config_lines(stored)


def test_sample_place_line_is_in_the_golden_stdout():
    samples = re.findall(r"```\n(scheme=[^\n]*)\n```", README)
    assert samples, "README has no sample place line"
    stdout = (GOLDEN / "reference" / "place" / "stdout").read_text(encoding="utf-8")
    for line in samples:
        assert line in stdout.splitlines()


def test_key_table_matches_the_cli():
    table = _key_table()
    assert {key for keys, _ in table for key in keys} == cli._KNOWN_KEYS
    required = [key for keys, column in table if column == "yes" for key in keys]
    assert sorted(required) == sorted(cli._REQUIRED_KEYS)
    # "no (default)": the value the CLI fills in when the key is left out
    minimal = {key: 1.0 for key in cli._REQUIRED_KEYS} | {"theta_a_deg": 45.0}
    resolved = cli._resolve_config(minimal, None)
    defaults = [(keys, column) for keys, column in table if column.startswith("no (")]
    assert defaults
    for keys, column in defaults:
        (key,) = keys
        assert float(column[len("no (") : -1]) == resolved[key], key


def _quoted_messages() -> list[str]:
    """Backticked spans that read as messages: three or more words of
    lowercase prose, none an option, an assignment, a path or a file."""
    prose = re.sub(r"```.*?```", "", README, flags=re.S)  # no fenced blocks
    spans = (" ".join(span.split()) for span in re.findall(r"`([^`]+)`", prose))
    return [
        span
        for span in spans
        if len(span.split()) >= 3
        and re.fullmatch(r"[a-z0-9 _:;,'<>\[\]-]+", span)
        and not any(word.startswith("-") for word in span.split())
    ]


def test_quoted_messages_are_in_the_source():
    messages = [m for m in _quoted_messages() if "<" not in m]
    assert "total power must be positive" in messages
    for message in messages:
        # the CLI prints a library error after "error: "
        assert message.removeprefix("error: ") in SOURCE, message


def test_quoted_stderr_formats_match_the_cli(tmp_path, capsys):
    # the quoted lines with a <placeholder>, against a run where every
    # scheme is infeasible
    formats = [m for m in _quoted_messages() if "<" in m]
    assert formats
    config = (GOLDEN / "reference.cfg").read_text(encoding="utf-8")
    (tmp_path / "high.cfg").write_text(config.replace("g_m = 200", "g_m = 10000"))
    assert cli.main(["place", "--config", str(tmp_path / "high.cfg")]) == 2
    lines = capsys.readouterr().err.splitlines()
    for fmt in formats:
        pattern = ".+".join(map(re.escape, re.split(r"<[^>]+>", fmt)))
        assert any(re.fullmatch(pattern, line) for line in lines), fmt


def test_library_block_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README, re.S)
    assert block, "README has no Library block"
    exec(compile(block.group(1), "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2 and all(line.startswith("Position3D(") for line in printed)
