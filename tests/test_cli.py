import collections
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import sitecalc.morphisms as mor
from sitecalc import cli, sieves
from sitecalc.cli import SiteParseError, parse, print_document, run

from test_topology import reference_canonical_topology, reference_generate_topology

SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURE = SRC / "sitecalc" / "data" / "two_atomic.site"


def sitecalc_cli(*argv, env=None, python_flags=()):
    """`python -m sitecalc.cli ARGV` in a subprocess that imports this
    checkout's sources, whether or not the package is installed."""
    env = dict(os.environ, **(env or {}))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *python_flags, "-m", "sitecalc.cli", *map(str, argv)],
                          capture_output=True, text=True, env=env)


def load_fixture():
    return parse(FIXTURE.read_text())


def test_fixture_parses():
    doc = load_fixture()
    assert set(doc.categories) == {"TWO"}
    assert set(doc.topologies) == {"Jat"}
    assert set(doc.functors) == {"F"}
    assert doc.categories["TWO"].category.n_arrows == 3


def test_parse_requires_header():
    with pytest.raises(SiteParseError) as exc:
        parse("category C\n  objects: 1\n")
    assert exc.value.line == 1


def test_empty_document():
    doc = parse("site-format 1\n")
    assert not doc.categories and not doc.functors


def test_dangling_composite_line_number():
    text = "\n".join([
        "site-format 1",
        "category C",
        "  objects: 1",
        "  arrows: i: 0 -> 0",
        "  identities: i",
        "  compose: j . i = i",
    ])
    with pytest.raises(SiteParseError) as exc:
        parse(text)
    assert exc.value.line == 6


def test_unresolved_functor_target():
    text = "\n".join([
        "site-format 1",
        "functor F : A -> B",
        "  objects: 0 -> 0",
    ])
    with pytest.raises(SiteParseError):
        parse(text)


def test_print_parse_round_trip():
    doc = load_fixture()
    text = print_document(doc)
    doc2 = parse(text)
    assert print_document(doc2) == text
    assert doc2.categories["TWO"].category == doc.categories["TWO"].category
    assert doc2.topologies["Jat"].topology.covers == doc.topologies["Jat"].topology.covers
    assert doc2.functors["F"].functor == doc.functors["F"].functor
    assert doc2.presheaves["P"].presheaf == doc.presheaves["P"].presheaf


TOPOLOGY_SECTIONS = [
    "  kind: trivial",
    "  kind: atomic",
    "  kind: canonical",
    "  kind: sieves",
    "  kind: sieves\n  sieve: 1 : u",
    "  sieve: 1 : u",
    "  sieve: 1 : u\n  sieve: 0 :",
]


@pytest.mark.parametrize("section", TOPOLOGY_SECTIONS)
def test_topology_sections_survive_print_parse(section):
    """parse∘print is the identity on every topology section that parse
    accepts: each known kind, `kind: sieves` with and without sieve lines,
    and bare sieve lines."""
    doc = parse(FIXTURE.read_text().replace("  kind: atomic", section))
    text = print_document(doc)
    assert f"topology Jat on TWO\n{section}\n" in text
    again = parse(text)
    assert print_document(again) == text
    assert again.topologies["Jat"].topology.covers == doc.topologies["Jat"].topology.covers


@pytest.mark.parametrize("section, message", [
    ("  kind: trivial\n  sieve: 1 : u", "topology of kind 'trivial' takes no sieve entries"),
    ("  sieve: 1 : u\n  kind: atomic", "topology of kind 'atomic' takes no sieve entries"),
    ("  kind: atomc", "unknown topology kind 'atomc'"),
    ("  kind: atomic\n  kind: trivial", "topology 'Jat' has a second kind"),
])
def test_malformed_topology_sections_are_exit_2(tmp_path, section, message):
    """A known kind mixed with sieve lines, an unknown kind and a second
    kind are parse errors that say what is wrong."""
    path = tmp_path / "doc.site"
    path.write_text(FIXTURE.read_text().replace("  kind: atomic", section))
    code, _, err = main_in_process(path, "validate")
    assert code == 2
    assert message in err


class Args:
    name = None
    args = ()
    source_topology = None
    target_topology = None
    oracle = False
    witness = True


def _args(name=None, args=(), oracle=False):
    a = Args()
    a.name = name
    a.args = list(args)
    a.oracle = oracle
    return a


def test_run_denseness_reports_collapse():
    doc = load_fixture()
    report = run("denseness", doc, _args("F"))
    values = {e["name"]: e["value"] for e in report.entries}
    assert values == {"dense": False, "weakly-dense": True, "equivalence": True}
    assert report.exit_code == 0


def test_run_classify_morphism():
    doc = load_fixture()
    report = run("classify-morphism", doc, _args("F"))
    values = {e["name"]: e["value"] for e in report.entries}
    assert values["equivalence"] and values["surjection"]


def test_classifiers_are_looked_up_when_the_command_runs(monkeypatch):
    """`classify-morphism` and `classify-comorphism` call the classifier
    bound in `morphisms` when they run, so a wrapper installed after import,
    as a tracer installs one, sees the call."""
    calls = []
    for name in ("classify_morphism", "classify_comorphism"):
        def wrapper(sf, name=name, original=getattr(mor, name)):
            calls.append(name)
            return original(sf)
        monkeypatch.setattr(mor, name, wrapper)
    assert main_in_process(FIXTURE, "classify-morphism", "F")[0] == 0
    assert main_in_process(FIXTURE, "classify-comorphism", "F")[0] == 2
    assert calls == ["classify_morphism", "classify_comorphism"]


def test_run_classify_comorphism_precondition_is_exit_2():
    doc = load_fixture()
    report = run("classify-comorphism", doc, _args("F"))
    assert report.exit_code == 2  # F has no covering-lifting property


def test_run_sheafify_with_oracle():
    doc = load_fixture()
    report = run("sheafify", doc, _args("P", oracle=True))
    values = {e["name"]: e["value"] for e in report.entries}
    assert values["is-sheaf"] and values["oracle-agreement"]
    assert report.exit_code == 0


def test_run_topology_fibration_oracle_on_identity():
    text = FIXTURE.read_text() + "\n".join([
        "",
        "functor Id : TWO -> TWO",
        "  objects: 0 -> 0, 1 -> 1",
        "  arrows: id0 -> id0, id1 -> id1, u -> u",
        "",
    ])
    doc = parse(text)
    report = run("topology", doc, _args("fibration", ["Id"], oracle=True))
    values = {e["name"]: e["value"] for e in report.entries}
    assert values["oracle-agreement"]
    assert report.exit_code == 0


def test_run_comma_commands():
    doc = load_fixture()
    report = run("comma", doc, _args("m2c", ["F"]))
    assert report.exit_code == 0
    values = {e["name"]: e["value"] for e in report.entries}
    assert values["pi_D_equivalence"]


def test_run_factorize_surj_incl():
    doc = load_fixture()
    report = run("factorize", doc, _args("surj-incl", ["F"]))
    assert report.exit_code == 0


def cyclic_site(n: int) -> str:
    """The cyclic group Z_n as a one-object category, arrows r0 (the
    identity) to r{n-1} with r_i . r_j = r_{i+j mod n}, its trivial topology
    J and the identity functor Id."""
    names = [f"r{i}" for i in range(n)]
    return "\n".join([
        "site-format 1",
        "category Z",
        "  objects: 1",
        "  arrows: " + ", ".join(f"{a}: 0 -> 0" for a in names),
        "  identities: r0",
        "  compose: " + ", ".join(f"r{i} . r{j} = r{(i + j) % n}"
                                  for i in range(1, n) for j in range(1, n)),
        "topology J on Z",
        "  kind: trivial",
        "functor Id : Z -> Z",
        "  objects: 0 -> 0",
        "  arrows: " + ", ".join(f"{a} -> {a}" for a in names),
    ]) + "\n"


@pytest.mark.parametrize("n", [5, 6])
def test_factorize_hyper_localic_on_cyclic_groups(tmp_path, n):
    """On the identity of Z5 and Z6 the maximal sieve has n^2 arrow pairs
    with itself, past any search over their subsets; the factorization is
    built and both legs are certified."""
    path = tmp_path / f"z{n}.site"
    path.write_text(cyclic_site(n))
    code, out, err = main_in_process(path, "factorize", "hyper-localic", "Id",
                                     "--format", "machine")
    records = [json.loads(line) for line in out.splitlines()]
    assert (code, err) == (0, "")
    assert {r["name"]: r["value"] for r in records if r["record"] == "result"} \
        == {"hyperconnected-leg": True, "localic-leg": True}


def diamond_site() -> str:
    """The diamond poset 0 < 1, 2 < 3, where 3 is the join of 1 and 2, with
    its trivial topology J."""
    return "\n".join([
        "site-format 1",
        "category Dia",
        "  objects: 4",
        "  arrows: i0: 0 -> 0, i1: 1 -> 1, i2: 2 -> 2, i3: 3 -> 3, "
        "a01: 0 -> 1, a02: 0 -> 2, a13: 1 -> 3, a23: 2 -> 3, a03: 0 -> 3",
        "  identities: i0, i1, i2, i3",
        "  compose: a13 . a01 = a03, a23 . a02 = a03",
        "topology J on Dia",
        "  kind: trivial",
    ]) + "\n"


@pytest.mark.parametrize("text, category", [(diamond_site(), "Dia"), (cyclic_site(4), "Z")])
def test_topology_canonical_matches_reference(tmp_path, text, category):
    """`topology canonical` prints the covers of the canonical topology
    built by counting arrow cocones, and a `kind: canonical` declaration
    parses to the same topology."""
    text += f"topology Jc on {category}\n  kind: canonical\n"
    path = tmp_path / "doc.site"
    path.write_text(text)
    doc = parse(text)
    cat = doc.categories[category].category
    reference = reference_canonical_topology(cat)
    code, out, err = main_in_process(path, "topology", "canonical", category,
                                     "--format", "machine")
    assert (code, err) == (0, "")
    results = {r["name"]: r["value"] for r in map(json.loads, out.splitlines())
               if r["record"] == "result"}
    assert results == {f"covers({c})": sorted(reference.covers[c]) for c in cat.objects}
    assert doc.topologies["Jc"].topology.covers == reference.covers


def chain_site(n: int) -> str:
    """The n-chain 0 < 1 < ... < n-1 as a poset category, arrows a{i}_{j}
    for i <= j, its trivial topology J and the identity functor Id."""
    arrows = [(i, j) for i in range(n) for j in range(i, n)]
    name = {a: f"a{a[0]}_{a[1]}" for a in arrows}
    composites = [f"{name[(j, k)]} . {name[(i, j)]} = {name[(i, k)]}"
                  for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n)]
    return "\n".join([
        "site-format 1",
        "category Ch",
        f"  objects: {n}",
        "  arrows: " + ", ".join(f"{name[a]}: {a[0]} -> {a[1]}" for a in arrows),
        "  identities: " + ", ".join(name[(i, i)] for i in range(n)),
        *(["  compose: " + ", ".join(composites)] if composites else []),
        "topology J on Ch",
        "  kind: trivial",
        "functor Id : Ch -> Ch",
        "  objects: " + ", ".join(f"{i} -> {i}" for i in range(n)),
        "  arrows: " + ", ".join(f"{name[a]} -> {name[a]}" for a in arrows),
    ]) + "\n"


@pytest.mark.parametrize("n", [4, 5, 6])
def test_factorize_hyper_localic_on_chains(tmp_path, n):
    """On the identity of the n-chain with the trivial topology, C^s_J has
    up to 27 objects and 428 arrows; the factorization is built and both
    legs are certified."""
    path = tmp_path / f"chain{n}.site"
    path.write_text(chain_site(n))
    code, out, err = main_in_process(path, "factorize", "hyper-localic", "Id",
                                     "--format", "machine")
    records = [json.loads(line) for line in out.splitlines()]
    assert (code, err) == (0, "")
    assert {r["name"]: r["value"] for r in records if r["record"] == "result"} \
        == {"hyperconnected-leg": True, "localic-leg": True}


def test_run_unknown_name_is_exit_2():
    doc = load_fixture()
    report = run("denseness", doc, _args("NOPE"))
    assert report.exit_code == 2


def test_machine_output_is_json_lines():
    doc = load_fixture()
    report = run("denseness", doc, _args("F"))
    out = report.render("machine", with_witness=True)
    records = [json.loads(line) for line in out.splitlines()]
    assert records[-1]["record"] == "status"
    assert any(r.get("name") == "weakly-dense" and r["value"] for r in records)


def test_machine_witness_replays():
    """Witnesses survive a JSON round trip and replay through the
    re-checker."""
    from sitecalc.morphisms import (
        SiteFunctor, Verdict, is_comorphism_of_sites, is_cover_preserving,
        is_cover_reflecting, is_dense_morphism, is_morphism_of_sites,
        is_weakly_dense)
    from sitecalc.replay import recheck_witness
    doc = load_fixture()
    fd = doc.functors["F"]
    J = doc.topologies["Jat"].topology
    sf = SiteFunctor(fd.functor, J, J)
    for checker in (is_morphism_of_sites, is_comorphism_of_sites,
                    is_cover_preserving, is_cover_reflecting,
                    is_dense_morphism, is_weakly_dense):
        v = checker(sf)
        round_tripped = json.loads(json.dumps(cli._jsonable(v.witness)))
        assert recheck_witness(sf, Verdict(v.holds, round_tripped))


def test_cli_entrypoint_exit_codes(tmp_path):
    out = sitecalc_cli(FIXTURE, "denseness", "F")
    assert out.returncode == 0
    assert "weakly-dense: yes" in out.stdout

    bad = tmp_path / "bad.site"
    bad.write_text("not a site file\n")
    out = sitecalc_cli(bad, "validate")
    assert out.returncode == 2

    out = sitecalc_cli(FIXTURE, "classify-comorphism", "F")
    assert out.returncode == 2  # precondition failure surfaces as diagnostics


def test_cli_machine_format(tmp_path):
    out = sitecalc_cli(FIXTURE, "classify-morphism", "F", "--format", "machine")
    assert out.returncode == 0
    for line in out.stdout.splitlines():
        json.loads(line)


@st.composite
def site_texts(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    lines = ["site-format 1", "", "category C", f"  objects: {n}"]
    names = [f"i{c}" for c in range(n)]
    arrows = ", ".join(f"{names[c]}: {c} -> {c}" for c in range(n))
    lines.append(f"  arrows: {arrows}")
    lines.append("  identities: " + ", ".join(names))
    return "\n".join(lines) + "\n"


@given(site_texts())
@settings(max_examples=20, deadline=None)
def test_parse_print_round_trip_generated(text):
    doc = parse(text)
    assert parse(print_document(doc)).categories["C"].category == doc.categories["C"].category


# ---------------------------------------------------------------------------
# mutated documents and argument vectors keep the exit-code contract

def vee_site(k: int, m: int, seed: int | None = None) -> str:
    """The vee with legs l_i: i -> k covered by the sieve of its k legs, an
    identity functor G, and a presheaf P with m elements over each leg's
    domain and one over the top.  With a seed, the top has m elements too
    and each leg restricts them by a map drawn from `random.Random(seed)`,
    so that P is neither separated nor a sheaf in general."""
    arrows = [f"i{c}: {c} -> {c}" for c in range(k + 1)] + [f"l{i}: {i} -> {k}" for i in range(k)]
    names = [a.split(":")[0] for a in arrows]
    if seed is None:
        top, maps = 1, [f"{i % m}" for i in range(k)]
    else:
        rng = random.Random(seed)
        top, maps = m, [" ".join(str(rng.randrange(m)) for _ in range(m)) for _ in range(k)]
    return "\n".join([
        "site-format 1",
        "category V",
        f"  objects: {k + 1}",
        "  arrows: " + ", ".join(arrows),
        "  identities: " + ", ".join(names[:k + 1]),
        "topology J on V",
        f"  sieve: {k} : " + " ".join(names[k + 1:]),
        "functor G : V -> V",
        "  objects: " + ", ".join(f"{c} -> {c}" for c in range(k + 1)),
        "  arrows: " + ", ".join(f"{a} -> {a}" for a in names),
        "presheaf P on V",
        "  sets: " + ", ".join(f"{c}: {m if c < k else top}" for c in range(k + 1)),
        *[f"  map l{i}: {row}" for i, row in enumerate(maps)],
    ]) + "\n"


# a functor F out of a category with no objects, and an endofunctor G of it
EMPTY_SOURCE_SITE = """site-format 1
category E
  objects: 0
category C
  objects: 1
  arrows: i: 0 -> 0
  identities: i
topology JE on E
  kind: trivial
topology JC on C
  kind: atomic
functor F : E -> C
functor G : E -> E
presheaf P on E
"""


# The point of the classifying topos of Z2 as a morphism of sites T from Z2
# (trivial topology) to the sets o = {0} and t = {0, 1} with every map
# between them, where the two points a, b: o -> t cover t, so that its
# sheaves are sets.  T sends r1 to the swap s.  T is cover-reflecting and
# its image base covers every object, but the constant maps ca, cb: t -> t
# are not locally in its image, so weak denseness fails at clause (iii).
# The arrows are numbered so that `K.covers` lists the maximal sieve on t
# before the least cover <a, b>, and the first failing sieve is the
# maximal one.
Z2_POINT_SITE = """site-format 1
category Fin2
  objects: 2
  arrows: io: 0 -> 0, a: 0 -> 1, b: 0 -> 1
  arrows: it: 1 -> 1, s: 1 -> 1, u: 1 -> 0, ca: 1 -> 1, cb: 1 -> 1
  identities: io, it
  compose: s . s = it, s . a = b, s . b = a, s . ca = cb, s . cb = ca
  compose: ca . s = ca, ca . ca = ca, ca . cb = ca, ca . a = a, ca . b = a
  compose: cb . s = cb, cb . ca = cb, cb . cb = cb, cb . a = b, cb . b = b
  compose: u . a = io, u . b = io, u . s = u, u . ca = u, u . cb = u, a . u = ca, b . u = cb
topology K on Fin2
  sieve: 1 : a b
category Z2
  objects: 1
  arrows: r0: 0 -> 0, r1: 0 -> 0
  identities: r0
  compose: r1 . r1 = r0
topology J on Z2
  kind: trivial
functor T : Z2 -> Fin2
  objects: 0 -> 1
  arrows: r0 -> it, r1 -> s
"""


# The point T of the object 1 of Y, where p: 0 -> 1, q: 2 -> 0, r = p∘q
# and <p> covers 1.  No arrow leaves 1, so the image base misses 0 and 2.
# The family p ↦ id_0 over <p> realizes id_0, so clause (ii) of weak
# denseness covers 0 by the family search and fails at 2, where nothing
# is realized; the K-dense test of a dense morphism fails at 0.
LATE_MISS_SITE = """site-format 1
category Y
  objects: 3
  arrows: i0: 0 -> 0, i1: 1 -> 1, i2: 2 -> 2, p: 0 -> 1, q: 2 -> 0, r: 2 -> 1
  identities: i0, i1, i2
  compose: p . q = r
topology K on Y
  sieve: 1 : p
category Pt
  objects: 1
  arrows: e: 0 -> 0
  identities: e
topology J on Pt
  kind: trivial
functor T : Pt -> Y
  objects: 0 -> 1
  arrows: e -> i1
"""


MUTATION_TOKENS = ["0", "9", "x", "->", ",", ":", "-1", ""]
SUBCOMMANDS = {
    "topology": ["canonical", "generate", "induced", "coinduced", "fibration"],
    "factorize": ["surj-incl", "hyper-localic", "comprehensive"],
    "comma": ["m2c", "c2m", "gen-elements"],
}
OPERANDS = ["F", "G", "P", "TWO", "V", "Jat", "J", "NOPE"]


@st.composite
def mutated_site_texts(draw):
    """The fixture, a small vee document or a document over a category with
    no objects, with one to three lines deleted, duplicated, or with a
    token replaced by a digit, a separator, a stray word or nothing."""
    lines = draw(st.sampled_from(
        [FIXTURE.read_text(), vee_site(2, 2), EMPTY_SOURCE_SITE])).splitlines()
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        edit = draw(st.sampled_from(["delete", "replace", "duplicate"]))
        if edit == "delete":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        else:
            tokens = re.findall(r"->|[,:]|[^\s,:]+|\s+", lines[i])
            words = [k for k, t in enumerate(tokens) if not t.isspace()]
            if words:
                tokens[draw(st.sampled_from(words))] = draw(st.sampled_from(MUTATION_TOKENS))
                lines[i] = "".join(tokens)
        if not lines:
            break
    return "\n".join(lines) + "\n"


@st.composite
def cli_argvs(draw):
    """A command from the command table with its subcommand and operands,
    and some of the output and oracle flags."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    argv = [command]
    if command in SUBCOMMANDS:
        argv.append(draw(st.sampled_from(SUBCOMMANDS[command])))
    argv += draw(st.lists(st.sampled_from(OPERANDS), max_size=2))
    for flags in (["--oracle"], ["--witness"], ["--format", "machine"]):
        if draw(st.booleans()):
            argv += flags
    return argv


def main_in_process(*argv):
    """Exit code, stdout and stderr of `cli.main(argv)`; argparse usage
    errors arrive as `SystemExit`, and any other exception escapes."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_main_keeps_no_flags_between_calls():
    """`main` parses with one parser built at import.  The flags of a call,
    here `--witness`, `--format machine` and a usage error, do not reach
    the next call in the same process, which prints what a fresh process
    prints."""
    def plain_run():
        code, out, err = main_in_process(FIXTURE, "denseness", "F")
        return code, re.sub(r"\d+\.\d+s\]", "s]", out), err
    fresh = sitecalc_cli(FIXTURE, "denseness", "F")
    expected = (fresh.returncode, re.sub(r"\d+\.\d+s\]", "s]", fresh.stdout), fresh.stderr)
    assert expected[0] == 0 and "weakly-dense: yes" in expected[1]
    code, out, _ = main_in_process(FIXTURE, "denseness", "F", "--witness", "--format", "machine")
    assert code == 0 and '"witness"' in out
    assert plain_run() == expected
    code, _, err = main_in_process(FIXTURE, "denseness", "F", "--format", "xml")
    assert code == 2 and err.startswith("usage: sitecalc ")
    assert plain_run() == expected


@given(text=mutated_site_texts(), argv=cli_argvs())
@settings(max_examples=150, deadline=None)
def test_mutated_documents_keep_the_exit_code_contract(tmp_path_factory, text, argv):
    path = tmp_path_factory.mktemp("mutated") / "doc.site"
    path.write_text(text)
    code, out, err = main_in_process(path, *argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out + err


@pytest.mark.parametrize("argv", [
    ("factorize", "comprehensive", "F"),
    ("factorize", "comprehensive", "G"),
    ("continuity", "F", "--oracle"),
    ("classify-comorphism", "F"),
    ("cofinal", "G"),
])
def test_functors_out_of_an_empty_category_keep_the_contract(tmp_path, argv):
    """The colimit of the empty diagram is the empty presheaf, so the
    comprehensive factorization of a functor out of a category with no
    objects answers without a traceback, as do the continuity oracle, the
    comorphism classifier and cofinality on it."""
    path = tmp_path / "empty.site"
    path.write_text(EMPTY_SOURCE_SITE)
    code, out, err = main_in_process(path, *argv, "--witness", "--format", "machine")
    assert code in (0, 1)
    assert "Traceback" not in out + err
    records = [json.loads(line) for line in out.splitlines()]
    assert (records[-1]["record"], records[-1]["exit"]) == ("status", code)


@pytest.mark.parametrize("old, new, line", [
    ("objects: 2", "objects: two", 8),
    ("u: 0 -> 1", "u: 0 -> 9", 9),
    ("kind: atomic", "sieve: 9 : u", 13),
    ("kind: atomic", "sieve: 0 : u", 12),
    ("objects: 0 -> 1, 1 -> 1", "objects: 0 -> 1, 1 -> 9", 16),
    ("sets: 0: 2, 1: 1", "sets: 0: 2, -1: 1", 20),
    ("map u: 0", "map u: x", 21),
])
def test_parse_errors_name_their_line(tmp_path, old, new, line):
    """Out-of-range object numbers, a non-integer, and a sieve entry that
    is not a sieve are parse errors on a line of their own section (exit
    2), not crashes."""
    text = FIXTURE.read_text()
    assert old in text
    with pytest.raises(SiteParseError) as exc:
        parse(text.replace(old, new))
    assert exc.value.line == line
    path = tmp_path / "doc.site"
    path.write_text(text.replace(old, new))
    code, _, err = main_in_process(path, "validate")
    assert code == 2
    assert f"parse error: line {line}:" in err


def test_sheafify_oracle_on_nine_leg_vee():
    """The top of the sheaf has 2^9 elements, one per family of leg values,
    and the plus-plus oracle agrees."""
    report = run("sheafify", parse(vee_site(9, 2)), _args("P", oracle=True))
    values = {e["name"]: e["value"] for e in report.entries}
    assert values["sizes"] == [2] * 9 + [2 ** 9]
    assert values["is-sheaf"] and values["oracle-agreement"]
    assert report.exit_code == 0


def test_resource_guard_exit_code(tmp_path):
    """A tripped size guard surfaces as exit code 3: `topology generate` on
    the vee with 21 legs, whose top carries more than 2^20 sieves."""
    doc_path = tmp_path / "vee21.site"
    doc_path.write_text(vee_site(21, 1))
    out = sitecalc_cli(doc_path, "topology", "generate", "J")
    assert out.returncode == 3
    assert "resource-guard" in out.stdout
    assert "Traceback" not in out.stderr


def test_topology_generate_reports_the_declared_topology():
    """`topology generate J` prints the covers of the declared J, which
    are those of the reference saturation of its sieve lines: a leg of a
    vee, whose pullback along the other legs is empty, and a chain whose
    two sieves compose."""
    chain = "\n".join([
        "site-format 1",
        "category T",
        "  objects: 3",
        "  arrows: i0: 0 -> 0, i1: 1 -> 1, i2: 2 -> 2, u: 0 -> 1, v: 1 -> 2, w: 0 -> 2",
        "  identities: i0, i1, i2",
        "  compose: v . u = w",
        "topology J on T",
        "  sieve: 2 : v",
        "  sieve: 1 : u",
    ])
    vee = vee_site(3, 1).replace("sieve: 3 : l0 l1 l2", "sieve: 3 : l0")
    for text, base in ((chain, [(2, 0b110000), (1, 0b1000)]), (vee, [(3, 1 << 4)])):
        doc = parse(text)
        J = doc.topologies["J"].topology
        report = run("topology", doc, _args("generate", ["J"]))
        assert report.exit_code == 0
        covers = [e["value"] for e in report.entries]
        assert covers == [sorted(s) for s in J.covers]
        assert covers == [sorted(s) for s in reference_generate_topology(J.cat, base)]


def test_topology_generate_enumerates_each_object_once(tmp_path, monkeypatch):
    """`topology generate J` on the 6-leg vee with J generated by two legs
    enumerates the sieves of each object once: parsing builds J with
    `topology_where`, whose validation reads the same memo."""
    counts = collections.Counter()
    enumerate_sieves = sieves._enumerate_sieve_masks

    def counting(cat, c, guard):
        counts[(id(cat), c)] += 1
        return enumerate_sieves(cat, c, guard)

    monkeypatch.setattr(sieves, "_enumerate_sieve_masks", counting)
    path = tmp_path / "vee6.site"
    path.write_text(vee_site(6, 1).replace("sieve: 6 : l0 l1 l2 l3 l4 l5", "sieve: 6 : l0 l1"))
    code, out, err = main_in_process(path, "topology", "generate", "J", "--format", "machine")
    assert code == 0
    assert len({key for key, _ in counts}) == 1
    assert sorted(c for _, c in counts) == list(range(7))
    assert set(counts.values()) == {1}


def test_classify_comorphism_decides_the_general_inclusion_check(tmp_path):
    """F sends the objects 0, 1 of a discrete category to the top and to
    the source of eight parallel arrows a1..a8 of a cospan.  It is a
    comorphism that is neither continuous nor full, so the general
    inclusion check runs.  It enumerates no sheaf arrow, whose 8^8
    candidate components at object 1 would exceed 2^20, and answers
    within a second: an inclusion and localic, and nothing else."""
    path = tmp_path / "parallel.site"
    path.write_text("\n".join([
        "site-format 1",
        "category D",
        "  objects: 2",
        "  arrows: d0: 0 -> 0, d1: 1 -> 1",
        "  identities: d0, d1",
        "category C",
        "  objects: 3",
        "  arrows: c0: 0 -> 0, c1: 1 -> 1, c2: 2 -> 2, "
        + ", ".join(f"a{i}: 0 -> 2" for i in range(1, 9)) + ", b: 1 -> 2",
        "  identities: c0, c1, c2",
        "topology J on D",
        "  sieve: 0 :",
        "topology K on C",
        "  sieve: 1 :",
        "functor F : D -> C",
        "  objects: 0 -> 2, 1 -> 0",
        "  arrows: d0 -> c2, d1 -> c0",
    ]) + "\n")
    start = time.process_time()
    code, out, err = main_in_process(path, "classify-comorphism", "F", "--format", "machine")
    assert time.process_time() - start < 1.0
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert {r["name"]: r["value"] for r in records if r["record"] == "result"} == {
        "surjection": False, "inclusion": True, "hyperconnected": False,
        "localic": True, "equivalence": False}
    assert (records[-1]["record"], records[-1]["exit"]) == ("status", 0)


def test_size_guard_while_parsing_is_exit_3(tmp_path):
    """A discrete category with 2^16 + 1 objects trips the arrow guard while
    the document is parsed; that is exit 3 with a report, not a traceback."""
    n = (1 << 16) + 1
    doc_path = tmp_path / "big.site"
    doc_path.write_text("\n".join([
        "site-format 1",
        "category D",
        f"  objects: {n}",
        "  arrows: " + ", ".join(f"i{c}: {c} -> {c}" for c in range(n)),
        "  identities: " + ", ".join(f"i{c}" for c in range(n)),
    ]) + "\n")
    out = sitecalc_cli(doc_path, "validate", "--format", "machine")
    assert out.returncode == 3
    assert "Traceback" not in out.stderr
    records = [json.loads(line) for line in out.stdout.splitlines()]
    assert records[0]["name"] == "resource-guard"
    assert (records[-1]["record"], records[-1]["exit"]) == ("status", 3)


def test_comma_guard_is_exit_3(tmp_path):
    """`comma c2m` on the constant functor from the discrete category on
    4,097 objects to Z16 would build 4,097 × 16 = 65,552 comma objects,
    each with an identity arrow, past the 2^16 arrow guard: exit 3 with a
    report, before any arrow is enumerated."""
    n, m = 4097, 16
    path = tmp_path / "wide.site"
    path.write_text("\n".join([
        "site-format 1",
        "category D",
        f"  objects: {n}",
        "  arrows: " + ", ".join(f"i{c}: {c} -> {c}" for c in range(n)),
        "  identities: " + ", ".join(f"i{c}" for c in range(n)),
        "topology T on D",
        "  kind: trivial",
    ]) + "\n" + cyclic_site(m).split("\n", 1)[1] + "\n".join([
        "functor F : D -> Z",
        "  objects: " + ", ".join(f"{c} -> 0" for c in range(n)),
        "  arrows: " + ", ".join(f"i{c} -> r0" for c in range(n)),
    ]) + "\n")
    code, out, err = main_in_process(path, "comma", "c2m", "F", "--format", "machine")
    assert code == 3
    assert "Traceback" not in err
    records = [json.loads(line) for line in out.splitlines()]
    assert (records[0]["name"], records[0]["value"]) == \
        ("resource-guard", f"comma category has {n * m} objects (budget {1 << 16})")
    assert (records[-1]["record"], records[-1]["exit"]) == ("status", 3)


def test_sieve_guard_fires_before_enumerating(tmp_path):
    """The vee with 21 legs has 2^21 + 1 sieves on its top, as its 21
    legs generate pairwise incomparable principal sieves.  Generating a
    topology from its legs sieve trips the 2^20 sieve guard before any
    sieve is enumerated: exit 3 with a report, within a second."""
    k = 21
    doc_path = tmp_path / "vee21.site"
    doc_path.write_text("\n".join([
        "site-format 1",
        "category V",
        f"  objects: {k + 1}",
        "  arrows: " + ", ".join([f"i{c}: {c} -> {c}" for c in range(k + 1)]
                                 + [f"l{c}: {c} -> {k}" for c in range(k)]),
        "  identities: " + ", ".join(f"i{c}" for c in range(k + 1)),
        "topology J on V",
        f"  sieve: {k}: " + " ".join(f"l{c}" for c in range(k)),
    ]) + "\n")
    start = time.process_time()
    code, out, err = main_in_process(doc_path, "validate", "--format", "machine")
    assert time.process_time() - start < 1.0
    assert code == 3
    assert "Traceback" not in err
    records = [json.loads(line) for line in out.splitlines()]
    assert (records[0]["name"], records[0]["value"]) == \
        ("resource-guard", f"more than {1 << 20} sieves on object {k}")
    assert (records[-1]["record"], records[-1]["exit"]) == ("status", 3)


def test_run_locally_connected_and_explicit_topologies():
    text = FIXTURE.read_text() + "\n".join([
        "",
        "functor Id : TWO -> TWO",
        "  objects: 0 -> 0, 1 -> 1",
        "  arrows: id0 -> id0, id1 -> id1, u -> u",
        "",
        "topology T on TWO",
        "  kind: trivial",
        "",
    ])
    doc = parse(text)
    a = _args("Id")
    a.source_topology = "Jat"
    a.target_topology = "Jat"
    report = run("locally-connected", doc, a)
    assert report.exit_code == 0
    assert report.entries[0]["value"] is True

    # ambiguous topologies without explicit names now fail cleanly
    b = _args("Id")
    report2 = run("locally-connected", doc, b)
    assert report2.exit_code == 2


@pytest.mark.parametrize("argv", [
    ["topology", "canonical", "NOPE"],
    ["topology", "generate", "NOPE"],
    ["topology", "induced"],
    ["factorize", "surj-incl"],
    ["factorize", "comprehensive"],
    ["comma", "m2c"],
])
def test_missing_or_unknown_operand_is_exit_2(argv):
    out = sitecalc_cli(FIXTURE, *argv)
    assert out.returncode == 2
    assert "Traceback" not in out.stderr


def test_presheaf_validation_survives_optimize(tmp_path):
    """A `map` line shorter than the set at the arrow's codomain is invalid
    input (exit 2, with a reason) also under `python -O`."""
    doc_path = tmp_path / "short_map.site"
    doc_path.write_text(FIXTURE.read_text().replace("sets: 0: 2, 1: 1", "sets: 0: 2, 1: 2"))
    out = sitecalc_cli(doc_path, "validate", python_flags=["-O"])
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert "invalid presheaf 'P': restriction along arrow" in out.stderr


def test_presheaf_functoriality_survives_optimize(tmp_path):
    """A presheaf whose `map` lines have the right sizes but break
    P(v∘u) = P(u)∘P(v) on the 3-chain is invalid input (exit 2, naming
    the failing pair) also under `python -O`."""
    doc_path = tmp_path / "non_functorial.site"
    doc_path.write_text("\n".join([
        "site-format 1",
        "category T",
        "  objects: 3",
        "  arrows: i0: 0 -> 0, i1: 1 -> 1, i2: 2 -> 2, u: 0 -> 1, v: 1 -> 2, w: 0 -> 2",
        "  identities: i0, i1, i2",
        "  compose: v . u = w",
        "presheaf P on T",
        "  sets: 0: 2, 1: 2, 2: 1",
        "  map u: 0 1",
        "  map v: 0",
        "  map w: 1",
    ]) + "\n")
    out = sitecalc_cli(doc_path, "validate", python_flags=["-O"])
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert "invalid presheaf 'P': contravariant functoriality fails at pair (4, 3)" in out.stderr


def test_topology_axioms_survive_optimize(tmp_path):
    """`kind: atomic` on a cospan is invalid input also under `python -O`:
    the sieve of either leg pulls back along the other to the empty sieve,
    which does not cover, so stability fails (exit 2, naming both)."""
    doc_path = tmp_path / "atomic_cospan.site"
    doc_path.write_text("\n".join([
        "site-format 1",
        "category S",
        "  objects: 3",
        "  arrows: i0: 0 -> 0, i1: 1 -> 1, i2: 2 -> 2, a: 0 -> 2, b: 1 -> 2",
        "  identities: i0, i1, i2",
        "topology J on S",
        "  kind: atomic",
    ]) + "\n")
    out = sitecalc_cli(doc_path, "validate", python_flags=["-O"])
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert ("invalid topology 'J': "
            "{'axiom': 'stability', 'object': 2, 'sieve': 8, 'arrow': 4, 'pullback': 0}; "
            "{'axiom': 'stability', 'object': 2, 'sieve': 16, 'arrow': 3, 'pullback': 0}"
            ) in out.stderr


def test_category_associativity_survives_optimize(tmp_path):
    """A unital composition table on one object with b∘b = a and b∘a = b
    is not associative, (b∘b)∘b = a∘b = a but b∘(b∘b) = b∘a = b: invalid
    input (exit 2, naming every failing triple) also under `python -O`."""
    doc_path = tmp_path / "non_associative.site"
    doc_path.write_text("\n".join([
        "site-format 1",
        "category M",
        "  objects: 1",
        "  arrows: i: 0 -> 0, a: 0 -> 0, b: 0 -> 0",
        "  identities: i",
        "  compose: a . a = a, a . b = a, b . a = b, b . b = a",
    ]) + "\n")
    out = sitecalc_cli(doc_path, "validate", python_flags=["-O"])
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert ("invalid category 'M': non-associative triple (2, 1, 2); "
            "non-associative triple (2, 2, 2)") in out.stderr


@pytest.mark.parametrize("python_flags", [(), ("-O",)])
def test_functor_breaking_dom_cod_is_invalid_input(tmp_path, python_flags):
    """F: A -> B with v ↦ q: 0 -> 1 where F(v) must run 1 -> 1 breaks
    dom/cod, so the image of (v, i1) and of (v, u) does not compose in B:
    invalid input (exit 2, listing every violation) with no traceback."""
    doc_path = tmp_path / "bad_functor.site"
    doc_path.write_text(LAW_BREAKING_FUNCTORS["dom/cod"][0])
    out = sitecalc_cli(doc_path, "validate", python_flags=python_flags)
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert LAW_BREAKING_FUNCTORS["dom/cod"][1] in out.stderr


# per functor law, a document whose functor F breaks it, and the message
LAW_BREAKING_FUNCTORS = {
    "dom/cod": ("\n".join([
        "site-format 1",
        "category A",
        "  objects: 3",
        "  arrows: i0: 0 -> 0, i1: 1 -> 1, i2: 2 -> 2, u: 0 -> 1, v: 1 -> 2, w: 0 -> 2",
        "  identities: i0, i1, i2",
        "  compose: v . u = w",
        "category B",
        "  objects: 2",
        "  arrows: j0: 0 -> 0, j1: 1 -> 1, p: 0 -> 1, q: 0 -> 1",
        "  identities: j0, j1",
        "functor F : A -> B",
        "  objects: 0 -> 0, 1 -> 1, 2 -> 1",
        "  arrows: i0 -> j0, i1 -> j1, i2 -> j1, u -> p, v -> q, w -> p",
    ]) + "\n", "invalid functor 'F': functor breaks dom/cod at arrow 4; "
                "functor breaks composition at pair (4, 1); "
                "functor breaks composition at pair (4, 3)"),
    # the monoid {1, e} with e∘e = e, and Z_2
    **{law: ("\n".join([
        "site-format 1",
        "category M",
        "  objects: 1",
        "  arrows: i: 0 -> 0, e: 0 -> 0",
        "  identities: i",
        "  compose: e . e = e",
        "category Z",
        "  objects: 1",
        "  arrows: i: 0 -> 0, r: 0 -> 0",
        "  identities: i",
        "  compose: r . r = i",
        *functor,
    ]) + "\n", message) for law, functor, message in [
        ("identity", ["functor F : M -> M", "  objects: 0 -> 0", "  arrows: i -> e, e -> e"],
         "invalid functor 'F': functor breaks identity at object 0\n"),
        ("composition", ["functor F : Z -> M", "  objects: 0 -> 0", "  arrows: i -> i, r -> e"],
         "invalid functor 'F': functor breaks composition at pair (1, 1)\n")]},
}


@pytest.mark.parametrize("argv", [("validate",), ("classify-morphism", "F"),
                                  ("comma", "m2c", "F")])
@pytest.mark.parametrize("law", sorted(LAW_BREAKING_FUNCTORS))
def test_functor_breaking_a_law_is_invalid_input(tmp_path, law, argv):
    """Whichever command reads the document, a functor that breaks
    dom/cod, an identity or a composite is invalid input: exit 2 with
    every violation listed, no traceback."""
    text, message = LAW_BREAKING_FUNCTORS[law]
    doc_path = tmp_path / "bad_functor.site"
    doc_path.write_text(text)
    code, out, err = main_in_process(doc_path, *argv)
    assert code == 2
    assert "Traceback" not in out + err
    assert message in err


def test_functor_identity_check_survives_optimize(tmp_path):
    """The identity check, which the dom/cod document above does not meet,
    does not live in an `assert` either: `comma m2c` under `python -O`
    still exits 2 with the message."""
    text, message = LAW_BREAKING_FUNCTORS["identity"]
    doc_path = tmp_path / "bad_functor.site"
    doc_path.write_text(text)
    out = sitecalc_cli(doc_path, "comma", "m2c", "F", python_flags=["-O"])
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert message in out.stderr
