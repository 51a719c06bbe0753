import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sitecalc import cli
from sitecalc.cli import SiteParseError, parse, print_document, run

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
    assert doc2.categories["TWO"].category == doc.categories["TWO"].category
    assert doc2.topologies["Jat"].topology.covers == doc.topologies["Jat"].topology.covers
    assert doc2.functors["F"].functor == doc.functors["F"].functor
    assert doc2.presheaves["P"].presheaf == doc.presheaves["P"].presheaf


class Args:
    name = None
    args = ()
    source_topology = None
    target_topology = None
    oracle = False
    witness = True
    max_arrows = 1 << 16
    max_sieves = 1 << 20


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
        is_weakly_dense, recheck_witness)
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


def test_resource_guard_exit_code(tmp_path):
    """A tripped size guard surfaces as exit code 3, and the guard default
    can be set through the environment."""
    text = FIXTURE.read_text()
    doc_path = tmp_path / "doc.site"
    doc_path.write_text(text)
    out = sitecalc_cli(doc_path, "topology", "generate", "Jat",
                       env={"SITECALC_MAX_SIEVES": "1"})
    assert out.returncode == 3
    assert "resource-guard" in out.stdout


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


@pytest.mark.parametrize("variable", ["SITECALC_MAX_ARROWS", "SITECALC_MAX_SIEVES"])
def test_non_integer_guard_variable_is_exit_2(variable):
    """A guard default from the environment that is not an integer is a
    usage error (exit 2), not a crash."""
    out = sitecalc_cli(FIXTURE, "validate", env={variable: "abc"})
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert "invalid int value: 'abc'" in out.stderr


def test_presheaf_validation_survives_optimize(tmp_path):
    """A `map` line shorter than the set at the arrow's codomain is invalid
    input (exit 2, with a reason) also under `python -O`."""
    doc_path = tmp_path / "short_map.site"
    doc_path.write_text(FIXTURE.read_text().replace("sets: 0: 2, 1: 1", "sets: 0: 2, 1: 2"))
    out = sitecalc_cli(doc_path, "validate", python_flags=["-O"])
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert "invalid presheaf 'P': restriction along arrow" in out.stderr
