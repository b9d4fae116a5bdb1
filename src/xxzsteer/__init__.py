"""Steered quantum coherence and quantum Fisher information of the
two-qubit XXZ thermal state.

The library builds the Gibbs state of

    H = -1/2 [J (sx sx + sy sy) + Jz sz sz] - B/2 (sz I + I sz)

by two independent routes, evaluates three measures (l1 steered coherence
SCn, relative-entropy steered coherence SCRE, quantum Fisher information
QFI) both from their definitions and through their closed forms, and
drives parameter sweeps with CSV/JSON/SVG output.  See the ``xxzsteer``
command-line tool for the sweep front end.
"""

from .fisher import (
    calibrated_observable,
    collective_observable,
    qfi_closed,
    qfi_published,
    qfi_spectral,
)
from .linalg import (
    binary_entropy,
    eig_hermitian,
    kron,
    partial_trace_A,
    vn_entropy,
)
from .model import (
    ParameterRegimeError,
    SpinParams,
    ThermalBatch,
    gibbs_closed,
    gibbs_spectral,
    hamiltonian,
)
from .plot import render_svg
from .steering import (
    CoherenceKind,
    PauliAxis,
    coherence,
    scn_closed,
    scre_closed,
    scre_published,
    sqc_direct,
    steer,
)
from .sweep import (
    ENGINES,
    MEASURES,
    AxisSpec,
    EngineRecord,
    SweepSpec,
    SweepTable,
    evaluate_point,
    run_sweep,
    write_csv,
    write_json,
)

__version__ = "0.1.0"

__all__ = [
    "AxisSpec",
    "CoherenceKind",
    "EngineRecord",
    "ENGINES",
    "MEASURES",
    "ParameterRegimeError",
    "PauliAxis",
    "SpinParams",
    "SweepSpec",
    "SweepTable",
    "ThermalBatch",
    "binary_entropy",
    "calibrated_observable",
    "coherence",
    "collective_observable",
    "eig_hermitian",
    "evaluate_point",
    "gibbs_closed",
    "gibbs_spectral",
    "hamiltonian",
    "kron",
    "partial_trace_A",
    "qfi_closed",
    "qfi_published",
    "qfi_spectral",
    "render_svg",
    "run_sweep",
    "scn_closed",
    "scre_closed",
    "scre_published",
    "sqc_direct",
    "steer",
    "vn_entropy",
    "write_csv",
    "write_json",
]
