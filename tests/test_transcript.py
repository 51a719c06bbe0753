import json

from cli_transcript import SECONDS, TRANSCRIPT, corpus, entry, transcript
from sitecalc import cli
from test_cli import SUBCOMMANDS, sitecalc_cli


def test_cli_transcript_matches_golden(tmp_path):
    """Every command of the transcript corpus exits with the recorded code
    and prints the recorded output, `seconds` masked.  A mismatch shows the
    document, the argv and the new output."""
    expected = json.loads(TRANSCRIPT.read_text())
    got = list(transcript(tmp_path))
    assert [(e["document"], e["argv"]) for e, _ in got] \
        == [(e["document"], e["argv"]) for e in expected]
    texts = {name: text for name, (text, _, _) in corpus().items()}
    mismatches = [f"{e['document']}: {' '.join(e['argv'])} exits {e['exit']}\n"
                  f"{texts[e['document']]}--- output\n{output}"
                  for (e, output), old in zip(got, expected) if e != old]
    assert not mismatches, "\n\n".join(mismatches)


def test_cold_cli_matches_golden_once_per_command(tmp_path):
    """The first transcript entry of each command and subcommand, rerun as
    `python -O -m sitecalc.cli` in a fresh interpreter that compiles from
    source, exits with the recorded code and prints the recorded output.
    The in-process transcript runs every entry in one interpreter, so only
    this run sees a command that needs a module an earlier entry loaded,
    or validation that lives in an `assert`.  Each interpreter runs under
    its own fixed `PYTHONHASHSEED`, so interpreters whose string hashes
    differ must print the same output."""
    first: dict[tuple[str, ...], dict] = {}
    for e in json.loads(TRANSCRIPT.read_text()):
        argv = e["argv"]
        first.setdefault(tuple(argv[:1 + (argv[0] in SUBCOMMANDS)]), e)
    texts = {name: text for name, (text, _, _) in corpus().items()}
    mismatches = []
    for seed, e in enumerate(first.values(), 1):
        path = tmp_path / f"{e['document']}.site"
        path.write_text(texts[e["document"]])
        out = sitecalc_cli(path, *e["argv"], "--format", "machine", "--witness",
                           env={"PYTHONDONTWRITEBYTECODE": "1", "PYTHONHASHSEED": str(seed)},
                           python_flags=["-O"])
        output = SECONDS.sub('"seconds": 0', out.stdout) + out.stderr
        if entry(e["document"], e["argv"], out.returncode, output) != e:
            mismatches.append(f"{e['document']}: {' '.join(e['argv'])} exits "
                              f"{out.returncode} at PYTHONHASHSEED={seed}\n{output}")
    assert {command[0] for command in first} == set(cli._COMMANDS)
    assert not mismatches, "\n\n".join(mismatches)
