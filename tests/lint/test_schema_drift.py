"""The schema-drift rule: wire surfaces pinned against version bumps.

The acceptance shape: editing a ``to_records`` field set without
bumping the governing schema constant (``CACHE_SCHEMA`` here) must make
the rule fail; bumping the constant switches the failure to the
"refresh the baseline" reminder; regenerating the baseline makes the
run clean again.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.lint.framework import LintConfig, ModuleInfo, get_rule, run_rules
from repro.lint.rules.schema_drift import fingerprint_project, write_baseline

import repro.lint.rules  # noqa: F401

REL = "src/repro/power/serialize.py"

BASE_SOURCE = """
    CACHE_SCHEMA = 1

    class Frontier:
        def to_records(self):
            return [
                {"gain": p.gain, "power": p.power}
                for p in self.points
            ]
"""

# Same surface with an extra wire field — the drift under test.
DRIFTED_SOURCE = BASE_SOURCE.replace(
    '{"gain": p.gain, "power": p.power}',
    '{"gain": p.gain, "power": p.power, "mode": p.mode}',
)

BUMPED_SOURCE = DRIFTED_SOURCE.replace("CACHE_SCHEMA = 1", "CACHE_SCHEMA = 2")


def module_from(source: str) -> ModuleInfo:
    return ModuleInfo(Path(REL), REL, textwrap.dedent(source))


def lint_against(tmp_path: Path, source: str, *, write: bool = False) -> list:
    config = LintConfig(
        baseline_path=tmp_path / "schema_fingerprint.json",
        write_schema_baseline=write,
    )
    return run_rules([module_from(source)], [get_rule("schema-drift")], config)


class TestSchemaDrift:
    def test_missing_baseline_fires(self, tmp_path):
        found = lint_against(tmp_path, BASE_SOURCE)
        assert len(found) == 1
        assert "baseline missing" in found[0].message

    def test_write_baseline_then_clean(self, tmp_path):
        assert lint_against(tmp_path, BASE_SOURCE, write=True) == []
        assert (tmp_path / "schema_fingerprint.json").exists()
        assert lint_against(tmp_path, BASE_SOURCE) == []

    def test_field_edit_without_bump_fires(self, tmp_path):
        lint_against(tmp_path, BASE_SOURCE, write=True)
        found = lint_against(tmp_path, DRIFTED_SOURCE)
        assert len(found) == 1
        assert "without any schema version bump" in found[0].message
        assert "to_records" in found[0].message
        assert found[0].path == REL

    def test_field_edit_with_bump_demands_baseline_refresh(self, tmp_path):
        lint_against(tmp_path, BASE_SOURCE, write=True)
        found = lint_against(tmp_path, BUMPED_SOURCE)
        assert found  # still nonzero: the committed baseline is stale
        assert all("refresh" in f.message for f in found)

    def test_bump_plus_regenerated_baseline_clean(self, tmp_path):
        lint_against(tmp_path, BASE_SOURCE, write=True)
        assert lint_against(tmp_path, BUMPED_SOURCE, write=True) == []
        assert lint_against(tmp_path, BUMPED_SOURCE) == []

    def test_formatting_only_change_clean(self, tmp_path):
        lint_against(tmp_path, BASE_SOURCE, write=True)
        reformatted = BASE_SOURCE.replace(
            '{"gain": p.gain, "power": p.power}',
            '{"gain": p.gain,  "power": p.power}',  # whitespace only
        )
        assert lint_against(tmp_path, reformatted) == []

    def test_fingerprint_tracks_digest_fields(self):
        source = """
            class Policy:
                record_schema = 1
                digest_fields = frozenset({"capacity", "preexisting"})

                def result_to_wire(self, result):
                    return {"schema": self.record_schema}
        """
        fp = fingerprint_project(
            [ModuleInfo(Path(REL), "src/repro/batch/registry.py",
                        textwrap.dedent(source))]
        )
        surfaces = fp["surfaces"]
        versions = fp["versions"]
        assert any(k.endswith("Policy.digest_fields") for k in surfaces)
        assert any(k.endswith("Policy.result_to_wire") for k in surfaces)
        assert any(k.endswith("Policy.record_schema") for k in versions)

    def test_baseline_file_shape(self, tmp_path):
        fp = fingerprint_project([module_from(BASE_SOURCE)])
        path = tmp_path / "schema_fingerprint.json"
        write_baseline(path, fp)
        data = json.loads(path.read_text())
        assert set(data) == {"schema", "surfaces", "versions"}
        assert any(k.endswith("CACHE_SCHEMA") for k in data["versions"])


class TestDeletedModule:
    """A surface module deleted from disk is compared, not skipped."""

    TREE_REL = "src/repro/tree/serialize.py"

    def project(self, tmp_path: Path) -> list[Path]:
        files = []
        for rel, source in ((REL, BASE_SOURCE), (self.TREE_REL, "_SCHEMA = 1\n")):
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source))
            files.append(path)
        return files

    def lint(self, tmp_path: Path, files: list[Path], *, write: bool = False) -> list:
        config = LintConfig(
            baseline_path=tmp_path / "baselines" / "schema_fingerprint.json",
            write_schema_baseline=write,
        )
        modules = [ModuleInfo.load(f, tmp_path) for f in files]
        return run_rules(modules, [get_rule("schema-drift")], config)

    def test_deleted_module_reported_as_removed(self, tmp_path):
        files = self.project(tmp_path)
        assert self.lint(tmp_path, files, write=True) == []
        files[1].unlink()
        found = self.lint(tmp_path, files[:1])
        assert len(found) == 1
        assert "_SCHEMA" in found[0].message
        assert "refresh" in found[0].message
        assert found[0].path.endswith("schema_fingerprint.json")
        # Refreshing the baseline drops the deleted module's entries.
        assert self.lint(tmp_path, files[:1], write=True) == []
        assert self.lint(tmp_path, files[:1]) == []

    def test_partial_run_ignores_existing_unscanned_modules(self, tmp_path):
        files = self.project(tmp_path)
        self.lint(tmp_path, files, write=True)
        assert self.lint(tmp_path, files[:1]) == []
        assert self.lint(tmp_path, files[1:]) == []


class TestRepoBaseline:
    """The committed baseline matches the sources in this repository."""

    def test_repo_fingerprint_matches_committed_baseline(self):
        root = Path(__file__).resolve().parents[2]
        baseline = root / "baselines" / "schema_fingerprint.json"
        assert baseline.exists(), "run `repro lint --write-schema-baseline`"
        from repro.lint.runner import collect_files, load_modules

        modules, errors = load_modules(collect_files([root / "src"]), root)
        assert errors == []
        current = fingerprint_project(modules)
        committed = json.loads(baseline.read_text())
        assert current == committed
        # The envelope + frontier surfaces the rule exists for are pinned.
        assert any(
            k.endswith("_envelope") for k in committed["surfaces"]
        )
        assert any(
            k.endswith("PowerFrontier.to_records") for k in committed["surfaces"]
        )
        assert any(
            k.endswith("CACHE_SCHEMA") for k in committed["versions"]
        )
