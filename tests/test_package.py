from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

import xxzsteer
from xxzsteer import cli, fisher, linalg, model, plot, steering, sweep

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize(
    "module",
    [xxzsteer, cli, fisher, linalg, model, plot, steering, sweep],
    ids=lambda module: module.__name__,
)
def test_every_export_resolves(module):
    """A name left in __all__ after its object is deleted fails here, not at
    a user's star import."""
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    namespace = {}
    exec(f"from {module.__name__} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_the_package_exports_exactly_the_fisher_names():
    exported = {
        name for name in xxzsteer.__all__
        if getattr(getattr(xxzsteer, name), "__module__", None) == "xxzsteer.fisher"
    }
    assert exported == set(fisher.__all__)


def readme_block(heading: str) -> str:
    """The first ```python block under a README heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"\n{heading}\n"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start : section.index("\n```", start)]


def test_readme_library_example_runs_and_gives_what_it_says():
    namespace = {}
    exec(readme_block("## Library"), namespace)
    p, cells, rho = namespace["p"], namespace["cells"], namespace["rho"]
    assert xxzsteer.scn_closed(p) == 3.0
    spectral = xxzsteer.qfi_spectral(rho, xxzsteer.calibrated_observable(rho))
    closed = xxzsteer.qfi_closed(cells)
    assert repr(spectral) == repr(closed) == "array([4.])"
    assert np.abs(spectral - closed).max() <= 1e-10
