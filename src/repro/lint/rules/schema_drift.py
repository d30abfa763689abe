"""``schema-drift`` — wire/cache surfaces are pinned to a baseline.

The disk cache outlives the process: a record written by one version of
the code is read back by another.  Every surface that decides what
those bytes look like — ``PowerFrontier.to_records``/``from_records``,
each policy's ``digest_fields``/``record_schema``/``result_to_wire``,
the cache's line envelope, the JSON serialisers — is therefore paired
with a schema version constant (``record_schema``, ``_SCHEMA``,
``_DIGEST_SCHEMA``, ``CACHE_SCHEMA``, …).  Changing the surface without
bumping a version silently corrupts cross-version cache reads (stale
records parse but mean something else).

The rule fingerprints those surfaces **structurally** (a hash of the
normalised AST, so formatting and comments do not count) and the
version constants **by value**, and compares both against the committed
baseline ``baselines/schema_fingerprint.json``:

* surface changed, no version constant changed anywhere → **drift**:
  the dangerous case this rule exists for;
* surface changed alongside a version bump → stale baseline: regenerate
  it in the same commit (``repro lint --write-schema-baseline``);
* a baseline entry whose module was deleted → a removed surface, even
  when the run was given only some files;
* baseline missing → generate one.

Regenerating the baseline is itself a reviewed diff, which is the
point: the fingerprint file turns silent wire changes into visible ones.
"""

from __future__ import annotations

import ast
import fnmatch
import hashlib
import json
from collections.abc import Iterator
from pathlib import Path, PurePosixPath

from repro.lint.framework import Finding, LintConfig, ModuleInfo, Rule, register_rule

#: Baseline file location, relative to the lint root (the repo root).
DEFAULT_BASELINE = Path("baselines") / "schema_fingerprint.json"

_BASELINE_SCHEMA = 1

#: Methods/functions whose bodies are wire surfaces.
_SURFACE_FUNCTIONS = {
    "to_records",
    "from_records",
    "result_to_wire",
    "_envelope",
    "encode_line",
    "decode_line",
}
#: Class attributes that are wire surfaces (fingerprinted by value).
_SURFACE_ATTRS = {"digest_fields", "record_schema"}
#: Assignment names treated as schema version constants.
_VERSION_NAMES = {
    "_SCHEMA",
    "_ACCEPTED_SCHEMAS",
    "_DIGEST_SCHEMA",
    "CACHE_SCHEMA",
    "record_schema",
}

_SURFACE_MODULES = (
    "*/batch/registry.py",
    "*/batch/cache.py",
    "*/batch/canonical.py",
    "*/batch/instance.py",
    "*/power/dp_power_pareto.py",
    "*/power/serialize.py",
    "*/tree/serialize.py",
    "*/serve/protocol.py",
)


def _hash_node(node: ast.AST) -> str:
    dump = ast.dump(node, annotate_fields=True, include_attributes=False)
    return hashlib.sha256(dump.encode()).hexdigest()[:16]


def _literal_or_hash(node: ast.expr) -> object:
    try:
        value = ast.literal_eval(node)
    except (ValueError, SyntaxError):
        return {"ast": _hash_node(node)}
    if isinstance(value, (frozenset, set)):
        return sorted(value)
    if isinstance(value, tuple):
        return list(value)
    return value


def fingerprint_module(module: ModuleInfo) -> tuple[dict[str, str], dict[str, object]]:
    """(surfaces, versions) contributed by one module.

    Surface keys are ``relpath::QualName``; version keys likewise.
    """
    surfaces: dict[str, str] = {}
    versions: dict[str, object] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                if child.name in _SURFACE_FUNCTIONS:
                    surfaces[f"{module.relpath}::{qual}"] = _hash_node(child)
                visit(child, f"{qual}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.Assign, ast.AnnAssign)):
                targets = (
                    child.targets
                    if isinstance(child, ast.Assign)
                    else [child.target]
                )
                value = child.value
                if value is None:
                    continue
                for target in targets:
                    if not isinstance(target, ast.Name):
                        continue
                    name = target.id
                    key = f"{module.relpath}::{prefix}{name}"
                    if name in _VERSION_NAMES:
                        versions[key] = _literal_or_hash(value)
                    elif name in _SURFACE_ATTRS and prefix:
                        surfaces[key] = _hash_node(value)

    visit(module.tree, "")
    return surfaces, versions


def fingerprint_project(
    modules: list[ModuleInfo],
) -> dict[str, object]:
    surfaces: dict[str, str] = {}
    versions: dict[str, object] = {}
    for module in modules:
        if not any(fnmatch.fnmatch(module.relpath, p) for p in _SURFACE_MODULES):
            continue
        s, v = fingerprint_module(module)
        surfaces.update(s)
        versions.update(v)
    return {
        "schema": _BASELINE_SCHEMA,
        "surfaces": dict(sorted(surfaces.items())),
        "versions": dict(sorted(versions.items())),
    }


def _project_root(modules: list[ModuleInfo]) -> Path | None:
    """The directory relpaths resolve against: a module's path minus its relpath."""
    for module in modules:
        rel = PurePosixPath(module.relpath).parts
        path = module.path.resolve().parts
        if len(path) > len(rel) and path[-len(rel):] == rel:
            return Path(*path[: -len(rel)])
    return None


def write_baseline(path: Path, fingerprint: dict[str, object]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(fingerprint, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


@register_rule
class SchemaDriftRule(Rule):
    id = "schema-drift"
    description = (
        "wire/cache surfaces must not change without a schema version "
        "bump and a refreshed baselines/schema_fingerprint.json"
    )
    project_wide = True

    def check_project(
        self, modules: list[ModuleInfo], config: LintConfig
    ) -> Iterator[Finding]:
        current = fingerprint_project(modules)
        baseline_path = config.baseline_path
        if baseline_path is None:
            baseline_path = DEFAULT_BASELINE
        if config.write_schema_baseline:
            write_baseline(baseline_path, current)
            return
        if not baseline_path.exists():
            yield Finding(
                rule=self.id,
                path=baseline_path.as_posix(),
                line=1,
                col=1,
                message=(
                    "schema baseline missing: generate it with "
                    "`repro lint --write-schema-baseline` and commit it"
                ),
            )
            return
        try:
            baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            yield Finding(
                rule=self.id,
                path=baseline_path.as_posix(),
                line=1,
                col=1,
                message=f"schema baseline unreadable ({exc}); regenerate it",
            )
            return

        by_rel = {m.relpath: m for m in modules}
        root = _project_root(modules)

        def scanned(key: str) -> bool:
            relpath = key.partition("::")[0]
            if relpath in by_rel:
                return True
            return root is not None and not (root / relpath).exists()

        # A partial run (one file) must not mistake unscanned modules'
        # baseline entries for removals: compare only scanned relpaths,
        # plus those of modules deleted since the baseline was written.
        base_surfaces: dict[str, str] = {
            k: v for k, v in dict(baseline.get("surfaces", {})).items() if scanned(k)
        }
        base_versions: dict[str, object] = {
            k: v for k, v in dict(baseline.get("versions", {})).items() if scanned(k)
        }
        cur_surfaces: dict[str, str] = dict(current["surfaces"])  # type: ignore[arg-type]
        cur_versions: dict[str, object] = dict(current["versions"])  # type: ignore[arg-type]

        version_bumped = cur_versions != base_versions

        for key in sorted(set(base_surfaces) | set(cur_surfaces)):
            old = base_surfaces.get(key)
            new = cur_surfaces.get(key)
            if old == new:
                continue
            relpath, _, qual = key.partition("::")
            line = self._locate(by_rel.get(relpath), qual)
            what = (
                f"wire surface {qual} was removed"
                if new is None
                else f"new wire surface {qual} is not in the baseline"
                if old is None
                else f"wire surface {qual} changed"
            )
            msg = (
                f"{what}; a schema version also changed — refresh the "
                "baseline with `repro lint --write-schema-baseline` in "
                "this commit"
                if version_bumped
                else f"{what} without any schema version bump: stale cached "
                "records would be parsed under the new shape — bump the "
                "governing schema constant and refresh the baseline"
            )
            yield Finding(
                rule=self.id,
                path=relpath if relpath in by_rel else baseline_path.as_posix(),
                line=line,
                col=1,
                message=msg,
            )

        if not version_bumped:
            return
        # Versions moved but every surface matched: the baseline still
        # records the old version values — refresh it.
        for key in sorted(set(base_versions) | set(cur_versions)):
            if base_versions.get(key) == cur_versions.get(key):
                continue
            relpath, _, qual = key.partition("::")
            yield Finding(
                rule=self.id,
                path=relpath if relpath in by_rel else baseline_path.as_posix(),
                line=self._locate(by_rel.get(relpath), qual),
                col=1,
                message=(
                    f"schema version {qual} differs from the baseline — "
                    "refresh it with `repro lint --write-schema-baseline`"
                ),
            )

    @staticmethod
    def _locate(module: ModuleInfo | None, qual: str) -> int:
        """Best-effort line anchor for a dotted qualname."""
        if module is None:
            return 1
        leaf = qual.rsplit(".", 1)[-1]
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name == leaf:
                    return node.lineno
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == leaf:
                        return node.lineno
        return 1
