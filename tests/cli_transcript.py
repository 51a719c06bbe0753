"""A golden transcript of the CLI: the exit code and a digest of the output
of each command of two sweeps over a fixed corpus of documents.

Each entry is one in-process `sitecalc.cli.main` call with `--format
machine --witness`.  It records the exit code and the sha256 of stdout,
followed by stderr, with the `seconds` field of the status record masked,
so two runs of the same code give the same entry.  The corpus is the shipped
`two_atomic.site` and documents built by the `tests/test_cli.py` helpers:
leg-covered vees (one with seeded restriction maps), chains (among them
the atomic 4-chain and the trivial 5-chain, whose comma sites the
benchmark's `classify` workload builds), cyclic groups and the diamond,
each with up to four presheaves and up to two functors, and two points
that fail weak denseness (`Z2_POINT_SITE` and `LATE_MISS_SITE`), a 21-leg
vee whose sieve guard fires while parsing, and a cospan whose atomic
topology breaks stability twice.  The trivial and atomic topologies are
joined by `sieve:` topologies whose least covers hold composable arrows,
so that the family searches meet forced values and local equality.  The
six-leg vee runs only `sheafify`, `validate` and `topology canonical`:
until topologies were stored as their least covers, `factorize
hyper-localic` on it exited 3 on the sieve guard, so no entry of its
functor sweeps was recorded from an earlier build.

The first sweep runs the commands that read sheafification or a
site-functor classifier; the second runs `validate`, `topology canonical`
on each category, and per functor the other topology constructions, the
continuity, cofinality and local-connectedness checks, the surjection-
inclusion and comprehensive factorizations and the other two comma
constructions.  Together they meet every exit code, 0 to 3.

A change that means to alter an output regenerates the file with

    PYTHONPATH=src python tests/cli_transcript.py

and lists the changed entries, with the reason, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import re
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from sitecalc import cli
from sitecalc.cli import PresheafDecl, parse, print_document

from conftest import random_presheaf
from test_cli import (FIXTURE, LATE_MISS_SITE, Z2_POINT_SITE, chain_site, cyclic_site,
                      diamond_site, vee_site)

TRANSCRIPT = Path(__file__).resolve().parent / "data" / "cli_transcript.json"

FUNCTOR_COMMANDS = [
    ("classify-morphism",),
    ("classify-comorphism",),
    ("denseness",),
    ("comma", "m2c"),
    ("factorize", "hyper-localic"),
]

# the second sweep: per functor, each command and its options around the name
SWEEP_COMMANDS = [
    (("topology", "induced"), ()),
    (("topology", "coinduced"), ()),
    (("topology", "smallest-comorphism"), ()),
    (("topology", "fibration"), ("--oracle",)),
    (("continuity",), ("--oracle",)),
    (("cofinal",), ()),
    (("locally-connected",), ()),
    (("factorize", "surj-incl"), ()),
    (("factorize", "comprehensive"), ()),
    (("comma", "c2m"), ()),
    (("comma", "gen-elements"), ()),
]

CATEGORY = re.compile(r"^category (\S+)$", re.MULTILINE)

PRESHEAVES = ("P", "Q", "R", "S")

# The cospan 0 -> 2 <- 1 is not Ore, so its atomic topology breaks stability
# twice and parsing exits 2 listing both.  The sieve of b (mask 1 << 3)
# comes before that of a (mask 1 << 1) in the frozenset of covers, so a
# scan of the covers in another order lists them the other way round.
COSPAN_ATOMIC_SITE = """site-format 1
category C
  objects: 3
  arrows: i0: 0 -> 0, a: 0 -> 2, i1: 1 -> 1, b: 1 -> 2, i2: 2 -> 2
  identities: i0, i1, i2
topology J on C
  kind: atomic
"""

SECONDS = re.compile(r'"seconds": [^}]*')


def _with_presheaves(text: str, category: str, seed: int, count: int = 1) -> str:
    """`text` with `count` presheaves P, Q, ... on `category`, drawn by the
    conftest generator from `random.Random(seed)`."""
    doc = parse(text)
    cat = doc.categories[category].category
    rng = random.Random(seed)
    for name in PRESHEAVES[:count]:
        doc.presheaves[name] = PresheafDecl(name, category, random_presheaf(rng, cat))
    return print_document(doc)


def _collapse(category: str, n: int, arrows: list[str], top: str) -> str:
    """The functor C on `category` sending every object to n - 1 and every
    arrow to the identity `top` there."""
    return "\n".join([
        f"functor C : {category} -> {category}",
        "  objects: " + ", ".join(f"{c} -> {n - 1}" for c in range(n)),
        "  arrows: " + ", ".join(f"{a} -> {top}" for a in arrows),
    ]) + "\n"


def _chain(n: int, topology: str, count: int = 1) -> str:
    names = [f"a{i}_{j}" for i in range(n) for j in range(i, n)]
    text = chain_site(n).replace("kind: trivial", topology)
    return _with_presheaves(text + _collapse("Ch", n, names, f"a{n - 1}_{n - 1}"),
                            "Ch", n, count)


def _cyclic(n: int, kind: str) -> str:
    doubling = "\n".join([
        "functor D : Z -> Z",
        "  objects: 0 -> 0",
        "  arrows: " + ", ".join(f"r{i} -> r{2 * i % n}" for i in range(n)),
    ]) + "\n"
    text = cyclic_site(n).replace("kind: trivial", f"kind: {kind}")
    return _with_presheaves(text + doubling, "Z", n)


def _diamond(topology: str, count: int = 1) -> str:
    names = ["i0", "i1", "i2", "i3", "a01", "a02", "a13", "a23", "a03"]
    identity = "\n".join([
        "functor Id : Dia -> Dia",
        "  objects: " + ", ".join(f"{c} -> {c}" for c in range(4)),
        "  arrows: " + ", ".join(f"{a} -> {a}" for a in names),
    ]) + "\n"
    text = diamond_site().replace("kind: trivial", topology)
    return _with_presheaves(text + identity + _collapse("Dia", 4, names, "i3"), "Dia", 4, count)


def corpus() -> dict[str, tuple[str, tuple[str, ...], tuple[str, ...]]]:
    """Document name -> (text, its presheaf names, its functor names)."""
    one = PRESHEAVES[:1]
    docs = {"two_atomic": (FIXTURE.read_text(), one, ("F",))}
    for k, m in ((3, 2), (4, 2), (3, 3), (5, 2), (6, 2)):
        docs[f"vee{k}x{m}"] = (vee_site(k, m), one, ("G",) if k < 6 else ())
    docs["vee4x3-seed7"] = (vee_site(4, 3, seed=7), one, ("G",))
    for n, kind in ((3, "trivial"), (4, "trivial"), (3, "atomic"), (4, "atomic"), (5, "trivial")):
        docs[f"chain{n}-{kind}"] = (_chain(n, f"kind: {kind}"), one, ("Id", "C"))
    # the 4-chain with 3 covered by the sieve of 1 -> 3, which holds 0 -> 3 = (1 -> 3)∘(0 -> 1)
    docs["chain4-sieve"] = (_chain(4, "sieve: 3 : a1_3", 4), PRESHEAVES, ("Id", "C"))
    for n, kind in ((4, "trivial"), (4, "atomic"), (6, "trivial")):
        docs[f"cyclic{n}-{kind}"] = (_cyclic(n, kind), one, ("Id", "D"))
    for kind in ("trivial", "atomic"):
        docs[f"diamond-{kind}"] = (_diamond(f"kind: {kind}"), one, ("Id", "C"))
    # the top covered by its two sides, whose composites with 0 -> 1 and 0 -> 2 agree
    docs["diamond-sides"] = (_diamond("sieve: 3 : a13 a23", 4), PRESHEAVES, ("Id", "C"))
    # weak denseness failing at clause (iii) first at a sieve other than the
    # least cover, and at clause (ii) after an object the image base misses
    docs["z2-point"] = (Z2_POINT_SITE, (), ("T",))
    docs["late-miss"] = (LATE_MISS_SITE, (), ("T",))
    # more than `SIEVE_GUARD` sieves on the top: parsing the topology exits 3
    docs["vee21x2"] = (vee_site(21, 2), (), ())
    docs["cospan-atomic"] = (COSPAN_ATOMIC_SITE, (), ())
    return docs


def invocations():
    """(document name, text, argv) for every entry, in transcript order: the
    first sweep, then the second, which adds `validate`, the canonical
    topology of each category and `SWEEP_COMMANDS` per functor."""
    docs = corpus()
    for name, (text, presheaves, functors) in docs.items():
        for presheaf in presheaves:
            yield name, text, ("sheafify", presheaf, "--oracle")
        for functor in functors:
            for command in FUNCTOR_COMMANDS:
                yield name, text, (*command, functor)
    for name, (text, _, functors) in docs.items():
        yield name, text, ("validate",)
        for category in CATEGORY.findall(text):
            yield name, text, ("topology", "canonical", category)
        for functor in functors:
            for command, options in SWEEP_COMMANDS:
                yield name, text, (*command, functor, *options)


def run_one(path: Path, argv) -> tuple[int | None, str]:
    """Exit code and masked output, stdout then stderr, of one in-process
    CLI call.  An exception that escapes `main` breaks the exit-code
    contract; it is recorded as exit code None with its traceback."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main([str(path), *argv, "--format", "machine", "--witness"])
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            traceback.print_exc()
    return code, SECONDS.sub('"seconds": 0', out.getvalue()) + err.getvalue()


def entry(name: str, argv, code: int | None, output: str) -> dict:
    return {"document": name, "argv": list(argv), "exit": code,
            "output_sha256": hashlib.sha256(output.encode()).hexdigest()}


def transcript(workdir: Path):
    """(entry, masked output) of every invocation, with each document
    written once under `workdir`."""
    paths: dict[str, Path] = {}
    for name, text, argv in invocations():
        if name not in paths:
            paths[name] = workdir / f"{name}.site"
            paths[name].write_text(text)
        code, output = run_one(paths[name], argv)
        yield entry(name, argv, code, output), output


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        entries = [e for e, _ in transcript(Path(tmp))]
    TRANSCRIPT.parent.mkdir(exist_ok=True)
    TRANSCRIPT.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
    print(f"wrote {len(entries)} entries to {TRANSCRIPT}", file=sys.stderr)


if __name__ == "__main__":
    main()
