"""ASCII rendering of distribution trees with placements.

Used by the CLI (``repro solve --show``) and handy in notebooks/debugging:
replicas, pre-existing servers, modes and client loads are annotated on a
box-drawing tree.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.tree.model import Tree

__all__ = ["render_tree"]


def render_tree(
    tree: Tree,
    *,
    replicas: Iterable[int] = (),
    preexisting: Iterable[int] = (),
    modes: Mapping[int, int] | None = None,
    loads: Mapping[int, int] | None = None,
    max_nodes: int = 200,
) -> str:
    """Render the tree as text, one node per line.

    Markers: ``[R]`` replica, ``(pre)`` pre-existing server, ``@Wk`` the
    operated mode (1-based, as in the paper), ``<=q`` requests served,
    ``c:r`` attached client load.  Rendering stops after ``max_nodes``
    lines with an ellipsis.
    """
    rset = set(replicas)
    pre = set(preexisting)
    modes = dict(modes or {})
    loads = dict(loads or {})
    lines: list[str] = []
    truncated = False

    def label(v: int) -> str:
        parts = [f"n{v}"]
        if v in rset or v in modes:
            parts.append("[R]")
        if v in modes:
            parts.append(f"@W{modes[v] + 1}")
        if v in pre:
            parts.append("(pre)")
        if v in loads:
            parts.append(f"<={loads[v]}")
        cl = tree.client_load(v)
        if cl:
            parts.append(f"c:{cl}")
        return " ".join(parts)

    def walk(v: int, prefix: str, tail: bool, is_root: bool) -> None:
        nonlocal truncated
        if truncated:
            return
        if len(lines) >= max_nodes:
            lines.append(prefix + "...")
            truncated = True
            return
        connector = "" if is_root else ("`- " if tail else "|- ")
        lines.append(prefix + connector + label(v))
        children = tree.children(v)
        child_prefix = prefix if is_root else prefix + ("   " if tail else "|  ")
        for i, c in enumerate(children):
            walk(c, child_prefix, i == len(children) - 1, False)

    walk(tree.root, "", True, True)
    return "\n".join(lines)
