"""Self-tests for the repro-lint static analyzer.

Fixture files under ``tests/lint_fixtures/`` mirror the package layout
(``repro/runtime/...``, ``repro/core/...``) so rule *scoping* is under
test along with the rules themselves: every known-bad snippet must trip
its rule at the right line, clean patterns and out-of-scope files must
stay silent, and the real source tree must lint clean.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.lint import ALL_RULES, lint_paths, lint_source, rule_by_code
from repro.lint.__main__ import main as lint_main
from repro.lint.engine import (
    PARSE_ERROR,
    Finding,
    render_github,
    render_json,
    render_text,
)

FIXTURES = Path(__file__).parent / "lint_fixtures"
SRC = Path(__file__).parent.parent / "src"


def lint_fixture(name: str) -> list:
    return lint_paths([FIXTURES / "repro" / name], ALL_RULES)


def lint_tree(name: str) -> list:
    """Lint a standalone fixture tree (``lint_fixtures/<name>/repro/...``)."""
    return lint_paths([FIXTURES / name], ALL_RULES)


def expected_lines(path: Path, code: str) -> list[int]:
    """Lines annotated ``-> RLxxx here`` point at the following statement."""
    lines = []
    for i, text in enumerate(path.read_text().splitlines(), start=1):
        if f"-> {code} here" in text:
            lines.append(i + 1)
    return lines


@pytest.mark.parametrize(
    "fixture, code",
    [
        ("runtime/rl001_bad.py", "RL001"),
        ("runtime/rl002_bad.py", "RL002"),
        ("core/rl003_bad.py", "RL003"),
        ("core/rl004_bad.py", "RL004"),
        ("core/rl005_bad.py", "RL005"),
        ("testkit/rl005_bad.py", "RL005"),
        ("ingest/rl005_bad.py", "RL005"),
        ("core/rl006_bad.py", "RL006"),
        ("ingest/rl006_bad.py", "RL006"),
        ("runtime/rl007_bad.py", "RL007"),
        ("core/kernel/rl009_bad.py", "RL009"),
        ("core/rl012_bad.py", "RL012"),
        ("ingest/rl012_bad.py", "RL012"),
        ("durable/rl013_bad.py", "RL013"),
    ],
)
def test_bad_fixture_trips_rule_at_marked_lines(fixture, code):
    path = FIXTURES / "repro" / fixture
    findings = lint_fixture(fixture)
    assert findings, f"{fixture} produced no findings"
    got = [(f.rule, f.line) for f in findings if f.rule == code]
    marked = expected_lines(path, code)
    assert marked, f"{fixture} has no '-> {code} here' markers"
    assert sorted(line for _, line in got) == marked


def test_rl001_distinguishes_ownership_gaps():
    messages = sorted(f.message for f in lint_fixture("runtime/rl001_bad.py"))
    assert any("no owner" in m for m in messages)
    assert any("must define a close()" in m for m in messages)
    assert any("never unlink()s" in m for m in messages)
    assert any("release segments first" in m for m in messages)


@pytest.mark.parametrize(
    "fixture",
    [
        "runtime/rl001_ok.py",
        "runtime/rl007_ok.py",
        "core/kernel/rl009_ok.py",
        "core/rl012_ok.py",
        "durable/rl013_ok.py",
        "experiments/scope_ok.py",
    ],
)
def test_clean_fixtures_produce_no_findings(fixture):
    assert lint_fixture(fixture) == []


def test_flow_controlled_sends_pass():
    findings = [
        f for f in lint_fixture("runtime/rl002_bad.py") if f.rule == "RL002"
    ]
    # Only the unbounded broadcast() loop fires; bounded() stays clean.
    assert len(findings) == 1


def test_noqa_suppression_is_code_specific():
    findings = lint_fixture("core/noqa_ok.py")
    # Everything is suppressed except the one wrong-code suppression.
    assert [f.rule for f in findings] == ["RL006"]
    path = FIXTURES / "repro" / "core" / "noqa_ok.py"
    (wrong_line,) = [
        i
        for i, text in enumerate(path.read_text().splitlines(), start=1)
        if "noqa[RL005]" in text and "np.empty" in text
    ]
    assert findings[0].line == wrong_line


def test_real_tree_is_clean():
    assert lint_paths([SRC], ALL_RULES) == []


def test_rules_scope_to_their_packages():
    # A runtime-only rule never fires on identical code under core/.
    source = Path(FIXTURES / "repro/runtime/rl002_bad.py").read_text()
    in_scope = lint_source(source, "x/repro/runtime/mod.py", ALL_RULES)
    out_of_scope = lint_source(source, "x/repro/core/mod.py", ALL_RULES)
    assert any(f.rule == "RL002" for f in in_scope)
    assert not any(f.rule == "RL002" for f in out_of_scope)


@pytest.mark.parametrize(
    "fixture, code",
    [("ingest/rl005_bad.py", "RL005"), ("ingest/rl012_bad.py", "RL012")],
)
def test_rl005_rl012_scope_includes_ingest(fixture, code):
    # The determinism rules extend to repro.ingest; the same code under
    # a package outside every scope (mining) stays silent.
    source = (FIXTURES / "repro" / fixture).read_text()
    in_scope = lint_source(source, "x/repro/ingest/mod.py", ALL_RULES)
    out_of_scope = lint_source(source, "x/repro/mining/mod.py", ALL_RULES)
    assert any(f.rule == code for f in in_scope)
    assert not any(f.rule == code for f in out_of_scope)


def test_rl013_exempts_fsio_and_scopes_to_durable():
    # The choke point itself is the one legal writer; identical code in
    # fsio.py (or outside repro/durable entirely) never trips RL013.
    source = (FIXTURES / "repro/durable/rl013_bad.py").read_text()
    in_scope = lint_source(source, "x/repro/durable/wal.py", ALL_RULES)
    in_fsio = lint_source(source, "x/repro/durable/fsio.py", ALL_RULES)
    outside = lint_source(source, "x/repro/ingest/mod.py", ALL_RULES)
    assert any(f.rule == "RL013" for f in in_scope)
    assert not any(f.rule == "RL013" for f in in_fsio)
    assert not any(f.rule == "RL013" for f in outside)


def test_rl013_message_names_the_fsio_alternative():
    messages = [
        f.message
        for f in lint_fixture("durable/rl013_bad.py")
        if f.rule == "RL013"
    ]
    assert any("atomic_write_bytes" in m for m in messages)
    assert any("os.rename" in m for m in messages)
    assert any("shutil.move" in m for m in messages)
    assert any("unverifiable" in m for m in messages)


def test_rl009_scopes_to_kernel_package():
    # Identical code outside repro/core/kernel/ never trips RL009.
    source = (FIXTURES / "repro/core/kernel/rl009_bad.py").read_text()
    in_scope = lint_source(source, "x/repro/core/kernel/mod.py", ALL_RULES)
    out_of_scope = lint_source(source, "x/repro/core/mod.py", ALL_RULES)
    assert any(f.rule == "RL009" for f in in_scope)
    assert not any(f.rule == "RL009" for f in out_of_scope)


# -- whole-program rules ------------------------------------------------
def _assert_marked_lines(tree_name: str, code: str) -> list:
    """Every finding in the tree sits on a ``-> RLxxx here`` marked line."""
    findings = lint_tree(tree_name)
    assert findings, f"{tree_name} produced no findings"
    for path in sorted((FIXTURES / tree_name).rglob("*.py")):
        got = sorted(
            f.line
            for f in findings
            if f.rule == code and Path(f.path) == path
        )
        assert got == expected_lines(path, code), path
    return findings


def test_rl010_flags_layer_violations_and_cycles():
    findings = _assert_marked_lines("layering_bad", "RL010")
    messages = [f.message for f in findings]
    assert any("must not import layer 'runtime'" in m for m in messages)
    assert any(
        "import cycle: repro.io.reader -> repro.io.writer -> repro.io.reader"
        in m
        for m in messages
    )
    assert any("not in the declared layer spec" in m for m in messages)


def test_rl010_clean_tree_with_lazy_cycle_breaker():
    # The tree contains a would-be a <-> b cycle whose back edge is a
    # function-body import: layer-checked but exempt from cycle detection.
    assert lint_tree("layering_ok") == []


def test_rl011_flags_protocol_drift_at_marked_lines():
    findings = _assert_marked_lines("ipc_bad", "RL011")
    messages = [f.message for f in findings]
    assert any("never dispatches it" in m for m in messages)
    assert any("dead protocol surface" in m for m in messages)
    assert any(
        "sent with 3 fields but the worker handler destructures 4" in m
        for m in messages
    )
    assert any("built with 3 fields here but 2 at line" in m for m in messages)
    assert any("never produces" in m for m in messages)


def test_rl011_symmetric_protocol_is_clean():
    assert lint_tree("ipc_ok") == []


def test_rl011_missing_stop_terminator():
    findings = lint_tree("ipc_nostop")
    assert [f.rule for f in findings] == ["RL011"]
    assert "no 'stop' terminator" in findings[0].message
    assert findings[0].path.endswith("worker.py")


def test_rl011_applies_per_tree_not_across_trees():
    # ipc_bad's ping sender must not be "handled" by another tree's
    # worker: linting both trees at once reports the same drift.
    both = lint_paths([FIXTURES / "ipc_bad", FIXTURES / "ipc_ok"], ALL_RULES)
    assert [f for f in both if "ipc_ok" in f.path] == []
    assert any("'ping'" in f.message for f in both)


# -- suppression edge cases ---------------------------------------------
def test_project_finding_suppressed_on_sending_line(tmp_path):
    # The noqa sits on the *sending* line in parallel.py even though the
    # rule's evidence spans both sides of the protocol.
    assert lint_tree("ipc_noqa") == []
    target = tmp_path / "ipc_noqa"
    shutil.copytree(FIXTURES / "ipc_noqa", target)
    parallel = target / "repro" / "runtime" / "parallel.py"
    parallel.write_text(
        parallel.read_text().replace("  # repro: noqa[RL011]", "")
    )
    findings = lint_paths([target], ALL_RULES)
    assert [f.rule for f in findings] == ["RL011"]
    assert "'ping'" in findings[0].message


def test_noqa_multi_code_list():
    source = (
        "import time\n"
        "\n"
        "def f():\n"
        "    t = time.time()  # repro: noqa[RL005, RL006]\n"
        "    return t\n"
    )
    assert lint_source(source, "x/repro/core/mod.py", ALL_RULES) == []


def test_noqa_inside_string_literal_does_not_suppress():
    source = (
        "import time\n"
        "\n"
        "def f():\n"
        '    s = "# repro: noqa[RL005]"; t = time.time()\n'
        "    return s, t\n"
    )
    findings = lint_source(source, "x/repro/core/mod.py", ALL_RULES)
    assert [f.rule for f in findings] == ["RL005"]


def test_syntax_error_becomes_parse_finding():
    findings = lint_source("def broken(:\n", "repro/core/x.py", ALL_RULES)
    assert len(findings) == 1
    assert findings[0].rule == PARSE_ERROR


def test_finding_format_and_json_roundtrip():
    finding = Finding("a/b.py", 3, 7, "RL005", "message text")
    assert finding.format() == "a/b.py:3:7: RL005 message text"
    payload = json.loads(render_json([finding]))
    assert payload["count"] == 1
    assert payload["findings"][0] == finding.to_dict()
    text = render_text([finding])
    assert text.splitlines() == ["a/b.py:3:7: RL005 message text", "1 finding"]


def test_rule_metadata_complete():
    codes = [rule.code for rule in ALL_RULES]
    assert codes == sorted(codes) and len(set(codes)) == len(codes)
    for rule in ALL_RULES:
        assert rule.code.startswith("RL")
        assert rule.name and rule.invariant
        assert rule_by_code(rule.code) is rule
    with pytest.raises(KeyError):
        rule_by_code("RL999")


# -- CLI ----------------------------------------------------------------
def test_cli_exit_codes(capsys):
    assert lint_main([str(SRC)]) == 0
    assert "0 findings" in capsys.readouterr().out
    assert lint_main([str(FIXTURES)]) == 1
    out = capsys.readouterr().out
    assert "RL001" in out and "findings" in out


def test_cli_json_output(capsys):
    assert lint_main([str(FIXTURES), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == len(payload["findings"]) > 0
    assert {f["rule"] for f in payload["findings"]} >= {"RL001", "RL002"}


def test_cli_select_filters_rules(capsys):
    assert lint_main([str(FIXTURES), "--select", "RL002"]) == 1
    payload = capsys.readouterr().out
    assert "RL002" in payload and "RL001" not in payload


def test_cli_rejects_unknown_rule_and_path():
    with pytest.raises(SystemExit) as exc:
        lint_main([str(FIXTURES), "--select", "RL999"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        lint_main(["no/such/path"])
    assert exc.value.code == 2


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ALL_RULES:
        assert rule.code in out


def test_cli_rules_alias_selects_subset(capsys):
    assert lint_main([str(FIXTURES), "--rules", "RL010,RL011"]) == 1
    out = capsys.readouterr().out
    assert "RL010" in out and "RL011" in out
    assert "RL001" not in out and "RL002" not in out


def test_cli_github_format(capsys):
    assert lint_main([str(FIXTURES), "--format", "github", "--rules", "RL002"]) == 1
    out = capsys.readouterr().out
    assert "::error file=" in out and "title=RL002::" in out


def test_render_github_escapes_newlines():
    finding = Finding("a/b.py", 3, 7, "RL005", "line one\nline % two")
    out = render_github([finding])
    assert (
        "::error file=a/b.py,line=3,col=7,title=RL005::line one%0Aline %25 two"
        in out
    )


def test_cli_baseline_roundtrip(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    target = str(FIXTURES / "repro" / "runtime" / "rl002_bad.py")
    assert lint_main([target, "--write-baseline", str(baseline)]) == 0
    assert "wrote" in capsys.readouterr().out
    # Accepted findings no longer fail the run...
    assert lint_main([target, "--baseline", str(baseline)]) == 0
    assert "0 findings" in capsys.readouterr().out
    # ...but anything not in the baseline still does.
    runtime_dir = str(FIXTURES / "repro" / "runtime")
    assert lint_main([runtime_dir, "--baseline", str(baseline)]) == 1
    out = capsys.readouterr().out
    assert "RL001" in out and "RL002" not in out


def test_cli_baseline_is_line_insensitive(tmp_path, capsys):
    # Entries match on (path, rule, message); unrelated edits that shift
    # line numbers must not resurrect accepted findings.
    bad = FIXTURES / "repro" / "runtime" / "rl002_bad.py"
    work = tmp_path / "repro" / "runtime" / "mod.py"
    work.parent.mkdir(parents=True)
    work.write_text(bad.read_text())
    baseline = tmp_path / "baseline.json"
    assert lint_main([str(work), "--write-baseline", str(baseline)]) == 0
    work.write_text("# a new leading comment\n" + bad.read_text())
    assert lint_main([str(work), "--baseline", str(baseline)]) == 0
    capsys.readouterr()


def test_cli_rejects_unreadable_baseline():
    with pytest.raises(SystemExit) as exc:
        lint_main([str(SRC), "--baseline", "no/such/baseline.json"])
    assert exc.value.code == 2
