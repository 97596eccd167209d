"""The README's library example runs as printed."""

from __future__ import annotations

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    section = README.read_text().split("\n## Library use\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs(capsys):
    scope: dict = {}
    exec(compile(_library_example(), str(README), "exec"), scope)
    owned, mesh, tree = scope["owned"], scope["mesh"], scope["tree"]
    assert len(owned) == tree.total_ranks
    assert sorted(e for chunk in owned for e in chunk.element_ids.tolist()) \
        == mesh.element_ids.tolist()
    assert "'phase': 'bootstrap'" in capsys.readouterr().out
