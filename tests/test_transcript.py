import json

from cli_transcript import TRANSCRIPT, corpus, transcript


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
