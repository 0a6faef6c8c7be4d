"""Documentation/code synchronisation: the diagnostic-code table in
docs/static_analysis.md must list exactly the lint rules registered in
`repro.diag` — a rule added without docs (or documented without code)
fails here."""

import re
from pathlib import Path

from repro.diag import registered_rules

DOC = Path(__file__).resolve().parent.parent / "docs" / "static_analysis.md"


def documented_codes():
    """(code, severity) pairs parsed from the markdown table."""
    rows = {}
    pattern = re.compile(
        r"^\|\s*`([A-Z]+\d+)`\s*\|\s*(note|warning|error)\s*\|"
    )
    for line in DOC.read_text().splitlines():
        match = pattern.match(line.strip())
        if match:
            rows[match.group(1)] = match.group(2)
    return rows


class TestLintTableSync:
    def test_every_registered_rule_is_documented(self):
        documented = set(documented_codes())
        registered = {code for code, _desc in registered_rules()}
        missing = registered - documented
        assert not missing, (
            f"lint rules missing from docs/static_analysis.md: {missing}"
        )

    def test_every_documented_code_is_registered(self):
        documented = set(documented_codes())
        registered = {code for code, _desc in registered_rules()}
        stale = documented - registered
        assert not stale, (
            f"documented lint codes with no implementation: {stale}"
        )

    def test_table_parse_found_rules(self):
        # Guard against the regex silently matching nothing.
        assert len(documented_codes()) >= 6

    def test_documented_severities_match_emitted(self):
        """Each rule's documented severity matches what it emits on a
        module crafted to trigger it (spot-checked via the source)."""
        import inspect

        from repro.diag import rules as rules_module

        source_of = {
            code: inspect.getsource(fn)
            for code, (_desc, fn) in rules_module._RULES.items()
        }
        for code, severity in documented_codes().items():
            expected = f"Severity.{severity.upper()}"
            assert expected in source_of[code], (
                f"{code} documented as {severity!r} but its rule source "
                f"never emits {expected}"
            )


OBS_DOC = Path(__file__).resolve().parent.parent / "docs" / "observability.md"


class TestMetricCatalogSync:
    """docs/observability.md must list every registered metric name."""

    def test_every_registered_metric_is_documented(self):
        from repro.obs import CATALOG

        doc = OBS_DOC.read_text()
        missing = [name for name in CATALOG if name not in doc]
        assert not missing, (
            f"metrics missing from docs/observability.md: {missing}"
        )

    def test_every_documented_metric_is_registered(self):
        from repro.obs import CATALOG

        documented = set(
            re.findall(r"`(ipas_[a-z0-9_]+)(?:\{[a-z]+\})?`", OBS_DOC.read_text())
        )
        stale = documented - set(CATALOG)
        assert not stale, (
            f"documented metric names with no declaration: {stale}"
        )

    def test_catalog_is_nonempty(self):
        from repro.obs import CATALOG

        assert len(CATALOG) >= 20


ROBUSTNESS_DOC = Path(__file__).resolve().parent.parent / "docs" / "robustness.md"


def documented_fault_models():
    """Model names parsed from the table in the fault-models section.

    Scoped between the section heading and the next ``## `` heading —
    other robustness.md tables also use backticked first columns."""
    text = ROBUSTNESS_DOC.read_text()
    start = text.index("## Pluggable fault models")
    end = text.index("\n## ", start + 1)
    section = text[start:end]
    return set(re.findall(r"^\|\s*`([a-z0-9-]+)`\s*\|", section, re.MULTILINE))


class TestFaultModelTableSync:
    """docs/robustness.md's model table must match the registry."""

    def test_every_registered_model_is_documented(self):
        from repro.faults.models import FAULT_MODELS

        missing = set(FAULT_MODELS) - documented_fault_models()
        assert not missing, (
            f"fault models missing from docs/robustness.md: {missing}"
        )

    def test_every_documented_model_is_registered(self):
        from repro.faults.models import FAULT_MODELS

        stale = documented_fault_models() - set(FAULT_MODELS)
        assert not stale, (
            f"documented fault models with no implementation: {stale}"
        )

    def test_table_parse_found_models(self):
        assert len(documented_fault_models()) >= 5


def documented_spec_keys():
    """Keys of the campaign-spec table in robustness.md's service section."""
    text = ROBUSTNESS_DOC.read_text()
    start = text.index("### The campaign spec")
    end = text.index("\n#", start + 1)
    return re.findall(r"^\|\s*`([a-z_]+)`\s*\|", text[start:end], re.MULTILINE)


class TestCampaignSpecTableSync:
    """docs/robustness.md's spec-key table must list exactly the fields
    of ``CampaignSpec``."""

    def test_table_lists_exactly_the_spec_fields(self):
        from dataclasses import fields

        from repro.faults import CampaignSpec

        documented = documented_spec_keys()
        assert len(documented) == len(set(documented)), documented
        assert set(documented) == {f.name for f in fields(CampaignSpec)}

    def test_table_parse_found_keys(self):
        assert len(documented_spec_keys()) >= 15


REPO = Path(__file__).resolve().parent.parent


def documented_paths():
    """(doc, path) for every backquoted repo path in docs/*.md, README.md,
    DESIGN.md, EXPERIMENTS.md and the verify skill's SKILL.md:
    ``benchmarks/…``, ``src/…``, ``tests/…`` (a pytest node id
    ``file::Name`` or a glob such as ``tests/test_workloads*`` included)
    and root ``BENCH_*.json`` files."""
    pattern = re.compile(r"`((?:benchmarks|src|tests)/[^`\s]*|BENCH_[^`\s]*\.json)`")
    docs = sorted((REPO / "docs").glob("*.md")) + [
        REPO / name
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                     ".claude/skills/verify/SKILL.md")
    ]
    return [
        (doc.relative_to(REPO), path)
        for doc in docs
        for path in pattern.findall(doc.read_text())
    ]


def resolve(path):
    """The files a documented path names: itself, or what its glob
    matches."""
    if any(c in path for c in "*?["):
        return sorted(REPO.glob(path))
    target = REPO / path
    return [target] if target.exists() else []


class TestDocumentedPathsExist:
    """A doc that names a file must name one that exists: a deleted script
    or results file otherwise lingers in the prose."""

    def test_every_documented_path_exists(self):
        missing = []
        for doc, path in documented_paths():
            file, *names = path.split("::")
            targets = resolve(file)
            if not targets:
                missing.append(f"{doc}: {path}")
                continue
            source = "".join(t.read_text() for t in targets) if names else ""
            for name in names:
                if not re.search(rf"^\s*(?:def|class) {re.escape(name)}\b", source, re.M):
                    missing.append(f"{doc}: {path}")
        assert not missing, f"docs name paths that do not exist: {missing}"

    def test_scan_found_paths(self):
        assert len(documented_paths()) >= 20

    def test_scan_covers_every_doc_and_resolves_globs(self):
        scanned = {str(doc) for doc, _ in documented_paths()}
        assert {"DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} <= scanned
        assert resolve("tests/test_workloads*") == [REPO / "tests" / "test_workloads.py"]
        assert resolve("tests/test_no_such_module*") == []
